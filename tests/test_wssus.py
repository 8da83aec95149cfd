"""Tests for the scattering statistics and the averaged channel maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from whprecode.errors import (
    DimensionMismatchError,
    InvalidDensityOperatorError,
    InvalidSchemeError,
    InvalidWeightsError,
)
from whprecode.heisenberg import all_shifts, pauli, shift_operator
from whprecode.linalg import rank_one_projector, unit_vector
from whprecode.wssus import (
    ScatteringFunction,
    _map_rank_one,
    _rayleigh_taps,
    apply_A,
    apply_adjoint_A,
    apply_interference,
    channel_fidelity,
    random_density_operator,
    sinr,
    verify_cp_properties,
)


def random_uniform_scattering(rng, L):
    w = rng.random((L, L))
    return ScatteringFunction(L, w / w.sum())


def test_weights_validation():
    with pytest.raises(InvalidWeightsError):
        ScatteringFunction(2, np.array([[0.5, 0.5], [0.5, -0.5]]))
    with pytest.raises(InvalidWeightsError):
        ScatteringFunction(2, np.full((2, 2), 0.3))
    with pytest.raises(InvalidWeightsError):
        ScatteringFunction(3, np.full((2, 2), 0.25))
    with pytest.raises(InvalidWeightsError):
        ScatteringFunction(2, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_from_quad_places_weights_in_pauli_order():
    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    assert C.weights[0, 0] == 0.4  # identity
    assert C.weights[1, 0] == 0.3  # time shift
    assert C.weights[1, 1] == 0.2  # joint shift
    assert C.weights[0, 1] == 0.1  # frequency shift


@pytest.mark.parametrize("L", [2, 3, 4])
def test_map_is_unital(L):
    rng = np.random.default_rng(L)
    C = random_uniform_scattering(rng, L)
    np.testing.assert_allclose(apply_A(C, np.eye(L)), np.eye(L), atol=1e-12)


def test_concentrated_time_shift_swaps_basis():
    C = ScatteringFunction.concentrated(2, (1, 0))
    out = apply_A(C, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=0)


def test_half_identity_half_swap_mixes_completely():
    C = ScatteringFunction.from_quad(0.5, 0.5, 0.0, 0.0)
    out = apply_A(C, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-15)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_trace_hermiticity_positivity_preserved(L):
    rng = np.random.default_rng(100 + L)
    C = random_uniform_scattering(rng, L)
    for _ in range(200):
        Z = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        X = (Z + Z.conj().T) / 2.0
        AX = apply_A(C, X)
        assert abs(np.trace(AX) - np.trace(X)) <= 1e-12 * max(1.0, abs(np.trace(X)))
        assert np.max(np.abs(AX - AX.conj().T)) <= 1e-12
    for _ in range(50):
        X = random_density_operator(rng, L)
        assert np.linalg.eigvalsh(apply_A(C, X))[0] >= -1e-10


@pytest.mark.parametrize("L", [2, 3, 4])
def test_majorization_flattening(L):
    rng = np.random.default_rng(200 + L)
    C = random_uniform_scattering(rng, L)
    for _ in range(200):
        X = random_density_operator(rng, L)
        AX = apply_A(C, X)
        eigs_in = np.sort(np.linalg.eigvalsh(X))[::-1]
        eigs_out = np.sort(np.linalg.eigvalsh(AX))[::-1]
        gaps = np.cumsum(eigs_in) - np.cumsum(eigs_out)
        assert np.min(gaps) >= -1e-10
        assert abs(gaps[-1]) <= 1e-10  # totals agree: trace preserved


def test_adjoint_is_identity_on_identity():
    rng = np.random.default_rng(5)
    C = random_uniform_scattering(rng, 3)
    np.testing.assert_allclose(apply_adjoint_A(C, np.eye(3)), np.eye(3), atol=1e-12)


def test_adjoint_equals_map_for_hermitian_single_shift():
    C = ScatteringFunction.concentrated(2, (1, 0))
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    X = (Z + Z.conj().T) / 2.0
    np.testing.assert_allclose(apply_adjoint_A(C, X), apply_A(C, X), atol=0)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_trace_pairing_identity(L):
    rng = np.random.default_rng(300 + L)
    C = random_uniform_scattering(rng, L)
    for _ in range(100):
        X = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        Y = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
        lhs = np.trace(apply_A(C, X) @ Y)
        rhs = np.trace(X @ apply_adjoint_A(C, Y))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_hermiticity_preservation_on_non_hermitian_inputs():
    rng = np.random.default_rng(7)
    C = random_uniform_scattering(rng, 3)
    for _ in range(50):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            apply_A(C, X.conj().T), apply_A(C, X).conj().T, atol=1e-12
        )


def test_interference_empty_scheme_is_zero():
    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    out = apply_interference(C, 0.5 * np.eye(2), [(0, 0)])
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=0)


def test_interference_conjugates_mean_output():
    # A(X) = I/2 here, and conjugating I/2 by any unitary returns I/2.
    C = ScatteringFunction.from_quad(0.5, 0.5, 0.0, 0.0)
    X = np.diag([1.0, 0.0])
    out = apply_interference(C, X, [(0, 0), (1, 0)])
    np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=1e-15)


@pytest.mark.parametrize("L", [2, 3])
def test_interference_trace_scales_with_slot_count(L):
    rng = np.random.default_rng(400 + L)
    C = random_uniform_scattering(rng, L)
    X = random_density_operator(rng, L)
    scheme = all_shifts(L)
    out = apply_interference(C, X, scheme)
    expected = (len(scheme) - 1) * np.trace(X)
    assert abs(np.trace(out) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_interference_requires_origin():
    C = ScatteringFunction.uniform(2)
    with pytest.raises(InvalidSchemeError):
        apply_interference(C, 0.5 * np.eye(2), [(1, 0)])


def test_dimension_mismatch_rejected():
    C = ScatteringFunction.uniform(2)
    with pytest.raises(DimensionMismatchError):
        apply_A(C, np.eye(3))


def test_fidelity_flat_fading_is_one():
    C = ScatteringFunction.concentrated(2, (0, 0))
    basis = rank_one_projector([0.0, 1.0])
    assert channel_fidelity(C, basis, basis) == 1.0
    P = rank_one_projector(unit_vector([1.0, 2.0j]))
    assert abs(channel_fidelity(C, P, P) - 1.0) <= 1e-12


def test_fidelity_uniform_scattering_is_half():
    C = ScatteringFunction.uniform(2)
    rng = np.random.default_rng(8)
    for _ in range(20):
        P = rank_one_projector(unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        G = rank_one_projector(unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        assert abs(channel_fidelity(C, P, P) - 0.5) <= 1e-12
        assert abs(channel_fidelity(C, P, G) - 0.5) <= 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_fidelity_trace_form_matches_inner_product_form(L):
    rng = np.random.default_rng(500 + L)
    C = random_uniform_scattering(rng, L)
    for _ in range(50):
        gamma = unit_vector(rng.standard_normal(L) + 1j * rng.standard_normal(L))
        g = unit_vector(rng.standard_normal(L) + 1j * rng.standard_normal(L))
        trace_form = channel_fidelity(C, rank_one_projector(gamma), rank_one_projector(g))
        direct = sum(
            w * abs(np.vdot(g, shift_operator(L, mu) @ gamma)) ** 2
            for mu, w in C.nonzero_terms()
        )
        assert abs(trace_form - direct) <= 1e-12
        assert 0.0 <= trace_form <= 1.0


def test_fidelity_validates_density_operators():
    C = ScatteringFunction.uniform(2)
    with pytest.raises(InvalidDensityOperatorError):
        channel_fidelity(C, np.eye(2), 0.5 * np.eye(2))  # trace 2
    with pytest.raises(InvalidDensityOperatorError):
        channel_fidelity(C, np.diag([2.0, -1.0]), 0.5 * np.eye(2))  # not PSD


def test_sinr_noise_only_flat_channel():
    C = ScatteringFunction.concentrated(2, (0, 0))
    P = rank_one_projector(np.array([1.0, 0.0]))
    assert abs(sinr(C, P, P, [(0, 0)], sigma2=1.0) - 1.0) <= 1e-12


def test_sinr_noiseless_zero_interference_is_infinite():
    C = ScatteringFunction.concentrated(2, (0, 0))
    P = rank_one_projector(np.array([1.0, 0.0]))
    value = sinr(C, P, P, [(0, 0), (1, 0)], sigma2=0.0)
    assert value == math.inf


def test_sinr_uniform_channel_brute_force():
    C = ScatteringFunction.uniform(2)
    P = 0.5 * (pauli(0) + pauli(1))
    # Uniform scattering sends every trace-one operator to I/2, so the
    # numerator is 1/2 and the single interferer adds another 1/2.
    value = sinr(C, P, P, [(0, 0), (0, 1)], sigma2=1.0)
    assert abs(value - (0.5 / 1.5)) <= 1e-12


def test_sinr_brute_force_random_cross_check():
    rng = np.random.default_rng(9)
    for _ in range(20):
        C = random_uniform_scattering(rng, 2)
        gamma = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        P, G = rank_one_projector(gamma), rank_one_projector(g)
        scheme = [(0, 0), (1, 0), (0, 1)]
        sigma2 = 0.3
        # Independent evaluation straight from the definitions.
        num = sum(
            w * abs(np.vdot(g, shift_operator(2, mu) @ gamma)) ** 2
            for mu, w in C.nonzero_terms()
        )
        interf = 0.0
        for nu in [(1, 0), (0, 1)]:
            Snu = shift_operator(2, nu)
            AX = sum(
                w * shift_operator(2, mu) @ P @ shift_operator(2, mu).conj().T
                for mu, w in C.nonzero_terms()
            )
            interf += np.trace(Snu @ AX @ Snu.conj().T @ G).real
        expected = num / (sigma2 + interf)
        assert abs(sinr(C, P, G, scheme, sigma2) - expected) <= 1e-12


def test_sinr_slot_covariance():
    # Conjugating both pulses by any shift leaves the SINR unchanged.
    rng = np.random.default_rng(11)
    C = random_uniform_scattering(rng, 2)
    gamma = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    g = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    P, G = rank_one_projector(gamma), rank_one_projector(g)
    scheme = [(0, 0), (1, 1)]
    base = sinr(C, P, G, scheme, sigma2=0.2)
    for nu in all_shifts(2):
        S = shift_operator(2, nu)
        moved = sinr(C, S @ P @ S.conj().T, S @ G @ S.conj().T, scheme, sigma2=0.2)
        assert abs(moved - base) <= 1e-12


@pytest.mark.parametrize("L", [2, 3, 4])
def test_cp_property_report(L):
    rng = np.random.default_rng(600 + L)
    C = random_uniform_scattering(rng, L)
    report = verify_cp_properties(C, samples=200, seed=123)
    assert report.unital_violation <= 1e-12
    assert report.trace_violation <= 1e-12
    assert report.hermiticity_violation <= 1e-12
    assert report.majorization_margin >= -1e-10


def test_cp_report_identity_channel_is_exact():
    C = ScatteringFunction.concentrated(3, (0, 0))
    report = verify_cp_properties(C, samples=50, seed=0)
    assert report.unital_violation == 0.0
    assert report.trace_violation == 0.0
    assert report.hermiticity_violation == 0.0
    assert report.majorization_margin == 0.0


def test_realization_zero_weights_give_exact_zeros():
    # Zero-power shifts are never drawn: one tap per nonzero weight.
    C = ScatteringFunction.from_quad(0.7, 0.0, 0.3, 0.0)
    taps = _rayleigh_taps(C, np.random.default_rng(0))
    assert [mu for mu, _ in C.nonzero_terms()] == [(0, 0), (1, 1)]
    assert taps.shape == (2,)
    assert np.all(taps != 0.0)


def test_realization_deterministic_given_seed():
    C = ScatteringFunction.uniform(2)
    t1 = _rayleigh_taps(C, np.random.default_rng(42), (5,))
    t2 = _rayleigh_taps(C, np.random.default_rng(42), (5,))
    assert t1.shape == (5, 4)
    assert np.array_equal(t1, t2)


def test_realization_second_moments():
    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    n = 100_000
    taps = _rayleigh_taps(C, np.random.default_rng(2024), (n,))
    weights = [w for _, w in C.nonzero_terms()]
    mean_power = np.mean(np.abs(taps) ** 2, axis=0)
    for i, w in enumerate(weights):
        stderr = w / math.sqrt(n)  # Var|z|^2 = w^2 for complex normal z
        assert abs(mean_power[i] - w) <= 4.0 * stderr
    # Distinct taps are uncorrelated.
    for i in range(len(weights)):
        for j in range(i):
            cross = np.mean(taps[:, i] * np.conj(taps[:, j]))
            assert abs(cross) <= 4.0 * math.sqrt(weights[i] * weights[j] / n)


# The kernel against the explicit Kraus sum.  Operand entries have modulus
# at most 1 and the weights of A sum to 1, so 1e-14 bounds the roundoff of
# either form; the interference grid sums to the number of interfering
# slots, which scales its bound.
KERNEL_ATOL = 1e-14
_ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def kraus_reference(C, X, adjoint=False):
    w, ops = C.kraus_operators()
    out = np.zeros((C.L, C.L), dtype=complex)
    for wk, S in zip(w, ops):
        T = S.conj().T if adjoint else S
        out += wk * (T @ X @ T.conj().T)
    return out


def kraus_rank_one_reference(C, vectors, adjoint=False):
    return np.stack([kraus_reference(C, np.outer(v, v.conj()), adjoint) for v in vectors])


@st.composite
def operands(draw, C):
    X = draw(arrays(complex, (C.L, C.L), elements=_ENTRIES))
    vectors = draw(arrays(complex, (draw(st.integers(1, 4)), C.L), elements=_ENTRIES))
    return X, vectors


@st.composite
def scattering_functions(draw, min_L=2):
    L = draw(st.integers(min_L, 8))
    grid = draw(arrays(float, (L, L), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    if not grid.sum() > 0.0:
        grid[0, 0] = 1.0
    return ScatteringFunction(L, grid / grid.sum())


@st.composite
def channels_and_operands(draw):
    C = draw(scattering_functions())
    L = C.L
    shift = st.tuples(st.integers(0, L - 1), st.integers(0, L - 1))
    scheme = {(0, 0), *draw(st.lists(shift, max_size=L * L))}
    return (C, sorted(scheme), *draw(operands(C)))


@st.composite
def single_shift_channels_and_operands(draw):
    if draw(st.booleans()):
        C = ScatteringFunction.concentrated(draw(st.integers(2, 8)), (0, 0))
    else:
        L = draw(st.sampled_from([2, 4]))
        mu = (draw(st.integers(0, L - 1)), draw(st.integers(0, L - 1)))
        C = ScatteringFunction.concentrated(L, mu)
    return (C, *draw(operands(C)))


@settings(max_examples=150)
@given(channels_and_operands())
def test_kernel_matches_kraus_reference(case):
    C, scheme, X, vectors = case
    np.testing.assert_allclose(apply_A(C, X), kraus_reference(C, X), rtol=0, atol=KERNEL_ATOL)
    np.testing.assert_allclose(
        apply_adjoint_A(C, X), kraus_reference(C, X, adjoint=True), rtol=0, atol=KERNEL_ATOL
    )
    interference = np.zeros((C.L, C.L), dtype=complex)
    mean_out = kraus_reference(C, X)
    for nu in scheme[1:]:
        S = shift_operator(C.L, nu)
        interference += S @ mean_out @ S.conj().T
    np.testing.assert_allclose(
        apply_interference(C, X, scheme),
        interference,
        rtol=0,
        atol=KERNEL_ATOL * max(1, len(scheme) - 1),
    )
    forward, adjoint = C.diagonal_blocks()
    np.testing.assert_allclose(
        _map_rank_one(forward, vectors),
        kraus_rank_one_reference(C, vectors),
        rtol=0,
        atol=KERNEL_ATOL,
    )
    np.testing.assert_allclose(
        _map_rank_one(adjoint, vectors),
        kraus_rank_one_reference(C, vectors, adjoint=True),
        rtol=0,
        atol=KERNEL_ATOL,
    )


@settings(max_examples=150)
@given(single_shift_channels_and_operands())
def test_kernel_is_exact_on_single_shift_channels(case):
    # Quarter-turn phases and the unit origin tap multiply without rounding.
    C, X, vectors = case
    forward, adjoint = C.diagonal_blocks()
    assert np.array_equal(apply_A(C, X), kraus_reference(C, X))
    assert np.array_equal(apply_adjoint_A(C, X), kraus_reference(C, X, adjoint=True))
    assert np.array_equal(_map_rank_one(forward, vectors), kraus_rank_one_reference(C, vectors))
    assert np.array_equal(
        _map_rank_one(adjoint, vectors), kraus_rank_one_reference(C, vectors, adjoint=True)
    )


@settings(max_examples=100)
@given(scattering_functions(min_L=1), st.integers(0, 2**32 - 1))
def test_cp_properties_hold_for_any_channel(C, seed):
    report = verify_cp_properties(C, samples=4, seed=seed)
    assert report.unital_violation <= 1e-12
    assert report.trace_violation <= 1e-12
    assert report.hermiticity_violation <= 1e-12
    assert report.majorization_margin >= -1e-10
