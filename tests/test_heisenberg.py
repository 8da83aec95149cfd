"""Tests for the cyclic time-frequency shift operators."""

import numpy as np
import pytest

from whprecode.heisenberg import PAULI_SHIFTS, all_shifts, pauli, shift_operator

# The four L=2 operators written out: identity, sample swap, sign flip on
# the second bin, and the combined swap-and-flip.
EXPECTED_L2 = {
    (0, 0): np.array([[1, 0], [0, 1]]),
    (0, 1): np.array([[1, 0], [0, -1]]),
    (1, 0): np.array([[0, 1], [1, 0]]),
    (1, 1): np.array([[0, 1], [-1, 0]]),
}


@pytest.mark.parametrize("mu", sorted(EXPECTED_L2))
def test_l2_shift_operators_exact(mu):
    S = shift_operator(2, mu)
    assert np.array_equal(S, EXPECTED_L2[mu].astype(complex))


def test_shift_indices_reduced_mod_L():
    assert np.array_equal(shift_operator(2, (3, 2)), shift_operator(2, (1, 0)))
    assert np.array_equal(shift_operator(3, (-1, -1)), shift_operator(3, (2, 2)))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 8])
def test_unitarity(L):
    for mu in all_shifts(L):
        S = shift_operator(L, mu)
        np.testing.assert_allclose(S @ S.conj().T, np.eye(L), atol=1e-12)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_projective_group_law(L):
    # S_mu S_nu equals S_{mu+nu} up to a unit-modulus phase, read off from
    # the first nonzero entry of the target operator.
    for mu in all_shifts(L):
        for nu in all_shifts(L):
            product = shift_operator(L, mu) @ shift_operator(L, nu)
            target = shift_operator(
                L, ((mu[0] + nu[0]) % L, (mu[1] + nu[1]) % L)
            )
            idx = np.argwhere(np.abs(target) > 0.5)[0]
            phase = product[tuple(idx)] / target[tuple(idx)]
            assert abs(abs(phase) - 1.0) <= 1e-12
            np.testing.assert_allclose(product, phase * target, atol=1e-12)


@pytest.mark.parametrize("L", [2, 3, 4, 8])
def test_group_has_L_squared_distinct_elements(L):
    ops = [shift_operator(L, mu) for mu in all_shifts(L)]
    assert len(ops) == L * L
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert np.max(np.abs(ops[i] - ops[j])) > 0.5


def test_pauli_identities():
    for i in range(4):
        s = pauli(i)
        assert np.array_equal(s, s.conj().T)
        np.testing.assert_allclose(s @ s, np.eye(2), atol=0)
    for i in range(4):
        for j in range(4):
            expected = 2.0 if i == j else 0.0
            assert abs(np.trace(pauli(i) @ pauli(j)) - expected) <= 1e-12
    for i in (1, 2, 3):
        assert abs(np.linalg.det(pauli(i)) + 1.0) <= 1e-12


def test_pauli_product_algebra():
    eps = np.zeros((3, 3, 3))
    for a, b, c, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (2, 1, 0, -1), (0, 2, 1, -1), (1, 0, 2, -1)]:
        eps[a, b, c] = s
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            expected = np.zeros((2, 2), dtype=complex)
            if i == j:
                expected += pauli(0)
            for k in (1, 2, 3):
                expected += 1j * eps[i - 1, j - 1, k - 1] * pauli(k)
            np.testing.assert_allclose(pauli(i) @ pauli(j), expected, atol=1e-15)


def test_pauli_shift_correspondence():
    assert np.array_equal(pauli(0), shift_operator(2, (0, 0)))
    assert np.array_equal(pauli(1), shift_operator(2, (1, 0)))
    assert np.array_equal(pauli(3), shift_operator(2, (0, 1)))
    np.testing.assert_allclose(1j * pauli(2), shift_operator(2, (1, 1)), atol=0)
    # Shift order used for quad weights follows the Pauli indexing.
    assert PAULI_SHIFTS == ((0, 0), (1, 0), (1, 1), (0, 1))


def test_pauli_index_range():
    with pytest.raises(ValueError):
        pauli(4)
    with pytest.raises(ValueError):
        pauli(-1)


def test_fourier_conjugation_swaps_time_and_frequency_shift():
    F = np.fft.fft(np.eye(2), norm="ortho")  # unitary DFT, exp(-2 pi i m n / L) / sqrt(L)
    lhs = F @ shift_operator(2, (1, 0)) @ F.conj().T
    np.testing.assert_allclose(lhs, shift_operator(2, (0, 1)), atol=1e-15)
