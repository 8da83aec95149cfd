"""Tests for the Bloch parameterization and the closed-form solver."""

import numpy as np
import pytest

from whprecode.bloch import (
    ChannelClass,
    ScatteringQuad,
    axis_unit_vector,
    bloch_to_matrix,
    classify_channel,
    is_on_bloch_manifold,
    map_matrix_rep,
    matrix_to_bloch,
    optimal_precoder_vector,
    optimal_projectors,
    solve_fidelity,
    worst_case_fidelity,
)
from whprecode.errors import InvalidWeightsError, NonHermitianError
from whprecode.heisenberg import pauli
from whprecode.linalg import rank_one_projector
from whprecode.wssus import ScatteringFunction, apply_A


def random_quad(rng):
    w = rng.random(4)
    w /= w.sum()
    return ScatteringQuad(*w)


def brute_force_map_rep(p):
    """Matrix elements (1/4) sum_n p_n Tr(sigma_n sigma_k sigma_n sigma_l)."""
    out = np.zeros((4, 4))
    for k in range(4):
        for l in range(4):
            acc = 0.0j
            for n in range(4):
                acc += p[n] * np.trace(pauli(n) @ pauli(k) @ pauli(n) @ pauli(l))
            out[k, l] = (acc / 4.0).real
    return out


def test_quad_validation():
    with pytest.raises(InvalidWeightsError):
        ScatteringQuad(0.4, 0.3, 0.4, 0.1)
    with pytest.raises(InvalidWeightsError):
        ScatteringQuad(1.2, -0.2, 0.0, 0.0)
    with pytest.raises(InvalidWeightsError):
        ScatteringQuad(float("nan"), 0.0, 0.0, 1.0)


def test_bloch_to_matrix_axis_cases():
    np.testing.assert_allclose(
        bloch_to_matrix([1, 0, 0, 1]), np.diag([1.0, 0.0]).astype(complex), atol=0
    )
    np.testing.assert_allclose(bloch_to_matrix([1, 0, 0, 0]), 0.5 * np.eye(2), atol=0)
    np.testing.assert_allclose(
        bloch_to_matrix([1, 1, 0, 0]), np.full((2, 2), 0.5).astype(complex), atol=0
    )


def test_matrix_to_bloch_inverse_cases():
    np.testing.assert_allclose(matrix_to_bloch(np.diag([1.0, 0.0])), [1, 0, 0, 1], atol=0)
    np.testing.assert_allclose(matrix_to_bloch(0.5 * np.eye(2)), [1, 0, 0, 0], atol=0)


def test_bloch_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        X = (Z + Z.conj().T) / 2.0
        np.testing.assert_allclose(bloch_to_matrix(matrix_to_bloch(X)), X, atol=1e-12)
    for _ in range(200):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(matrix_to_bloch(bloch_to_matrix(x)), x, atol=1e-12)


def test_matrix_to_bloch_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        matrix_to_bloch(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_manifold_membership_cases():
    assert is_on_bloch_manifold([1, 1, 0, 0])
    assert not is_on_bloch_manifold([1, 0, 0, 0])
    e = np.array([1.0, 0.0, 0.0])
    assert not is_on_bloch_manifold(np.concatenate(([0.9], 0.9 * e)))


def test_manifold_equivalent_to_rank_one_projector():
    # Membership must coincide with the projector checks on the matrix side.
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(10_000):
        x = rng.standard_normal(4) * 1.2
        if rng.random() < 0.3:  # plant exact members among the noise
            x = np.concatenate(([1.0], x[1:4] / np.linalg.norm(x[1:4])))
        X = bloch_to_matrix(x)
        trace_ok = abs(np.trace(X).real - 1.0) <= 1e-10
        purity_ok = abs(np.trace(X @ X).real - 1.0) <= 1e-10
        psd_ok = np.linalg.eigvalsh(X)[0] >= -1e-10
        is_projector = trace_ok and purity_ok and psd_ok
        assert is_on_bloch_manifold(x) == is_projector
        hits += is_projector
    assert hits > 1000  # the planted members actually exercised both branches


def test_map_rep_symmetric_weights():
    np.testing.assert_allclose(
        np.diag(map_matrix_rep((0.25, 0.25, 0.25, 0.25))), [0.5, 0, 0, 0], atol=1e-15
    )


def test_map_rep_identity_channel():
    np.testing.assert_allclose(
        map_matrix_rep((1.0, 0.0, 0.0, 0.0)), np.diag([0.5, 0.5, 0.5, 0.5]), atol=0
    )


def test_map_rep_worked_example():
    np.testing.assert_allclose(
        np.diag(map_matrix_rep((0.4, 0.3, 0.2, 0.1))), [0.5, 0.2, 0.1, 0.0], atol=1e-15
    )


def test_map_rep_matches_brute_force_traces():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        q = random_quad(rng)
        np.testing.assert_allclose(
            map_matrix_rep(q), brute_force_map_rep(q.as_tuple()), atol=1e-12
        )


def test_solve_uniform_is_worst_case():
    sol = solve_fidelity((0.25, 0.25, 0.25, 0.25))
    assert sol.fidelity == 0.5
    assert sol.degenerate
    assert sol.tied == (1, 2, 3)
    assert sol.n_star == 1


def test_solve_flat_fading():
    sol = solve_fidelity((1.0, 0.0, 0.0, 0.0))
    assert sol.fidelity == 1.0
    assert sol.degenerate
    assert sol.tied == (1, 2, 3)


def test_solve_worked_example():
    sol = solve_fidelity((0.4, 0.3, 0.2, 0.1))
    assert abs(sol.fidelity - 0.7) <= 1e-15
    assert sol.n_star == 1
    assert not sol.degenerate
    assert sol.sign == +1
    np.testing.assert_allclose(sol.x_opt, [1, 1, 0, 0], atol=0)
    np.testing.assert_allclose(sol.y_opt, [1, 1, 0, 0], atol=0)
    np.testing.assert_allclose(sol.precoder, np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(sol.equalizer, sol.precoder, atol=0)


def test_solve_negative_gain_flips_equalizer():
    # Dominant axis 1 carries gain 2(p0+p1)-1 = -0.8: the receive axis is
    # the mirror image and the optimum is 0.9.
    sol = solve_fidelity((0.05, 0.05, 0.6, 0.3))
    assert sol.n_star == 1
    assert sol.sign == -1
    assert abs(sol.fidelity - 0.9) <= 1e-15
    np.testing.assert_allclose(sol.y_opt, [1, -1, 0, 0], atol=0)
    np.testing.assert_allclose(sol.equalizer, np.array([1, -1]) / np.sqrt(2), atol=0)
    Gamma = rank_one_projector(sol.precoder)
    G = rank_one_projector(sol.equalizer)
    C = ScatteringFunction.from_quad(0.05, 0.05, 0.6, 0.3)
    realized = np.trace(apply_A(C, Gamma) @ G).real
    assert abs(realized - sol.fidelity) <= 1e-12


def test_solution_bloch_vectors_on_manifold():
    rng = np.random.default_rng(4)
    for _ in range(200):
        sol = solve_fidelity(random_quad(rng))
        assert is_on_bloch_manifold(sol.x_opt)
        assert is_on_bloch_manifold(sol.y_opt)
        assert 0.5 <= sol.fidelity <= 1.0 + 1e-15


def test_solution_consistent_with_averaged_map():
    # Tr(A(X_opt) Y_opt) computed through the channel map equals the closed
    # form, for both the Bloch projectors and the returned pulses.
    rng = np.random.default_rng(5)
    for _ in range(1000):
        q = random_quad(rng)
        sol = solve_fidelity(q)
        C = q.to_scattering_function()
        X_opt = bloch_to_matrix(sol.x_opt)
        Y_opt = bloch_to_matrix(sol.y_opt)
        value = np.trace(apply_A(C, X_opt) @ Y_opt).real
        assert abs(value - sol.fidelity) <= 1e-12
        pulse_value = np.trace(
            apply_A(C, rank_one_projector(sol.precoder))
            @ rank_one_projector(sol.equalizer)
        ).real
        assert abs(pulse_value - sol.fidelity) <= 1e-12


def test_fidelity_permutation_symmetry():
    import itertools

    rng = np.random.default_rng(6)
    for _ in range(100):
        q = random_quad(rng)
        base = solve_fidelity(q).fidelity
        for perm in itertools.permutations((q.p1, q.p2, q.p3)):
            assert abs(solve_fidelity((q.p0, *perm)).fidelity - base) <= 1e-12


def test_fidelity_schur_convexity():
    # Robin Hood transfers (rich axis gives to poor axis) de-concentrate the
    # off-origin weights and must never increase the optimum.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = random_quad(rng)
        rest = np.array([q.p1, q.p2, q.p3])
        hi, lo = int(np.argmax(rest)), int(np.argmin(rest))
        if hi == lo:
            continue
        t = rng.random() * (rest[hi] - rest[lo]) / 2.0
        flattened = rest.copy()
        flattened[hi] -= t
        flattened[lo] += t
        f_concentrated = solve_fidelity((q.p0, *rest)).fidelity
        f_flattened = solve_fidelity((q.p0, *flattened)).fidelity
        assert f_concentrated >= f_flattened - 1e-12


def test_optimal_projectors_cases():
    X, Y = optimal_projectors(1, +1)
    np.testing.assert_allclose(X, np.full((2, 2), 0.5), atol=0)
    np.testing.assert_allclose(Y, X, atol=0)
    X3, _ = optimal_projectors(3, +1)
    np.testing.assert_allclose(X3, np.diag([1.0, 0.0]), atol=0)
    X2, _ = optimal_projectors(2, +1)
    np.testing.assert_allclose(X2, 0.5 * np.array([[1, -1j], [1j, 1]]), atol=0)


def test_optimal_projectors_are_rank_one():
    for n in (1, 2, 3):
        for sign in (+1, -1):
            X, Y = optimal_projectors(n, sign)
            for P in (X, Y):
                assert abs(np.trace(P).real - 1.0) <= 1e-15
                np.testing.assert_allclose(P @ P, P, atol=1e-15)


def test_optimal_projectors_index_range():
    with pytest.raises(ValueError):
        optimal_projectors(0, +1)
    with pytest.raises(ValueError):
        optimal_projectors(4, +1)
    with pytest.raises(ValueError):
        optimal_projectors(1, 0)


_AXIS_FUNCTIONS = [
    axis_unit_vector,
    lambda n: optimal_projectors(n, +1),
    optimal_precoder_vector,
]


@pytest.mark.parametrize("fn", _AXIS_FUNCTIONS)
def test_axis_index_must_be_an_integer_in_range(fn):
    for bad in (0, 4, -1, 1.0, 2.5, np.float64(3.0), True, "1", None):
        with pytest.raises(ValueError, match="axis index"):
            fn(bad)
    for n in (1, 2, 3):
        assert np.array_equal(np.asarray(fn(n)), np.asarray(fn(np.int64(n))))


def test_precoder_table_and_fourier_images():
    F = np.fft.fft(np.eye(2), norm="ortho")  # unitary DFT, exp(-2 pi i m n / L) / sqrt(L)
    x1 = optimal_precoder_vector(1)
    np.testing.assert_allclose(x1, np.array([1, 1]) / np.sqrt(2), atol=0)
    np.testing.assert_allclose(F @ x1, [1, 0], atol=1e-15)

    x2 = optimal_precoder_vector(2)
    np.testing.assert_allclose(x2, np.array([1, 1j]) / np.sqrt(2), atol=0)
    np.testing.assert_allclose(F @ x2, [(1 + 1j) / 2, (1 - 1j) / 2], atol=1e-15)

    x3 = optimal_precoder_vector(3)
    np.testing.assert_allclose(x3, [0, 1], atol=0)
    np.testing.assert_allclose(F @ x3, np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_precoder_projectors_hit_one_projector_sign():
    for n in (1, 2, 3):
        P = rank_one_projector(optimal_precoder_vector(n))
        plus, _ = optimal_projectors(n, +1)
        minus = 0.5 * (pauli(0) - pauli(n))
        assert (
            np.max(np.abs(P - plus)) <= 1e-12 or np.max(np.abs(P - minus)) <= 1e-12
        )


def test_axis_unit_vectors_realize_their_projectors():
    for n in (1, 2, 3):
        for sign in (+1, -1):
            v = axis_unit_vector(n, sign)
            expected = 0.5 * (pauli(0) + sign * pauli(n))
            np.testing.assert_allclose(rank_one_projector(v), expected, atol=1e-15)


@pytest.mark.parametrize(
    "quad,expected",
    [
        ((1.0, 0.0, 0.0, 0.0), ChannelClass.NON_DISPERSIVE),
        ((0.0, 0.0, 1.0, 0.0), ChannelClass.NON_DISPERSIVE),
        ((0.5, 0.5, 0.0, 0.0), ChannelClass.SINGLE_DISPERSIVE),
        ((0.3, 0.0, 0.7, 0.0), ChannelClass.SINGLE_DISPERSIVE),
        ((0.25, 0.25, 0.25, 0.25), ChannelClass.COMPLETELY_OVERSPREAD),
        ((0.6, 0.2, 0.1, 0.1), ChannelClass.UNDERSPREAD),
        ((0.1, 0.6, 0.2, 0.1), ChannelClass.UNDERSPREAD),
        ((0.4, 0.3, 0.2, 0.1), ChannelClass.GENERIC),
    ],
)
def test_classification(quad, expected):
    assert classify_channel(quad) == expected


def test_classification_precedence():
    # A lone weight of one has three zeros; the non-dispersive label wins.
    assert classify_channel((1.0, 0.0, 0.0, 0.0)) == ChannelClass.NON_DISPERSIVE
    # Two zeros plus a dominant weight: single-dispersive outranks underspread.
    assert classify_channel((0.2, 0.8, 0.0, 0.0)) == ChannelClass.SINGLE_DISPERSIVE


def test_worst_case_formula():
    assert worst_case_fidelity(0.25) == 0.5
    assert worst_case_fidelity(1.0) == 1.0
    assert abs(worst_case_fidelity(0.0) - 2.0 / 3.0) <= 1e-15
    with pytest.raises(InvalidWeightsError):
        worst_case_fidelity(1.5)


def test_worst_case_matches_solver():
    for p0 in np.linspace(0.0, 1.0, 101):
        rest = (1.0 - p0) / 3.0
        sol = solve_fidelity((p0, rest, rest, rest))
        assert abs(sol.fidelity - worst_case_fidelity(p0)) <= 1e-12


def test_best_case_formula_and_solver():
    rng = np.random.default_rng(8)
    for p0, k in [(0.3, 1), (1.0, 2), (0.5, 2), (0.0, 3)] + [
        (float(rng.random()), int(rng.integers(1, 4))) for _ in range(20)
    ]:
        rest = [0.0, 0.0, 0.0]
        rest[k - 1] = 1.0 - p0
        sol = solve_fidelity((p0, *rest))
        assert abs(sol.fidelity - 1.0) <= 1e-12
        assert k in sol.tied
