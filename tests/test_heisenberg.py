"""Tests for the cyclic time-frequency shift operators."""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from conftest import all_shifts

from whprecode.heisenberg import PAULI_SHIFTS, pauli, shift_operator, unit_phase

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


# The phase and operator formulas as first written, to pin the table-built
# ones bit for bit (the uint64 view tells -0.0 from 0.0).
_EXACT_TURNS = {
    Fraction(0, 1): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def _fraction_phase(k, L):
    turn = Fraction(k % L, L)
    exact = _EXACT_TURNS.get(turn)
    if exact is not None:
        return exact
    return cmath.exp(2j * cmath.pi * turn.numerator / turn.denominator)


def _entry_loop_shift(L, mu):
    mu1, mu2 = int(mu[0]) % L, int(mu[1]) % L
    S = np.zeros((L, L), dtype=complex)
    for m in range(L):
        S[m, (m - mu1) % L] = _fraction_phase(mu2 * m, L)
    return S


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).view(np.uint64)


@pytest.mark.parametrize("L", range(1, 65))
def test_unit_phase_keeps_the_fraction_formula_bits(L):
    ks = range(-3 * L, 3 * L)
    assert np.array_equal(
        _bits([unit_phase(k, L) for k in ks]), _bits([_fraction_phase(k, L) for k in ks])
    )


@pytest.mark.parametrize("L", range(1, 33))
def test_shift_operator_keeps_the_entry_loop_bits(L):
    for mu in ((a, b) for a in range(-1, L + 1) for b in range(-1, L + 1)):
        assert np.array_equal(_bits(shift_operator(L, mu)), _bits(_entry_loop_shift(L, mu))), mu
