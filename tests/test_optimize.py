"""Tests for the receiver optimizer, alternating maximization and oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import top_eigenpairs, top_eigenvalue_bounds, unit_vector
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whprecode import optimize
from whprecode.bloch import ScatteringQuad, map_matrix_rep, solve_fidelity
from whprecode.errors import InvalidWeightsError, SingularDenominatorError
from whprecode.heisenberg import shift_operator
from whprecode.linalg import rank_one_projector
from whprecode.optimize import (
    OptimizerConfig,
    alternating_fidelity_max,
    brute_force_bloch_oracle,
    fidelity_lower_bound_search,
    optimal_receiver,
)
from whprecode.wssus import (
    ScatteringFunction,
    _complex_gaussian,
    _map_rank_one,
    apply_A,
    apply_adjoint_A,
    channel_fidelity,
    random_unit_vector,
    sinr,
    spreading_eigenvalues,
)


def random_scattering(rng, L):
    w = rng.random((L, L))
    return ScatteringFunction(L, w / w.sum())


def random_quad(rng):
    w = rng.random(4)
    return tuple(w / w.sum())


def test_receiver_flat_channel_recovers_precoder():
    C = ScatteringFunction.concentrated(2, (0, 0))
    gamma = unit_vector([1.0, 1.0j])
    g, value = optimal_receiver(C, rank_one_projector(gamma), [(0, 0)], sigma2=1.0)
    assert abs(value - 1.0) <= 1e-10
    assert abs(abs(np.vdot(g, gamma)) - 1.0) <= 1e-10  # equal up to phase


def test_receiver_time_shift_invariant_pulse():
    # Half identity, half time shift: the flat pulse is an eigenvector of
    # every Kraus term, so the averaged output is the pulse itself.
    C = ScatteringFunction.from_quad(0.5, 0.5, 0.0, 0.0)
    gamma = unit_vector([1.0, 1.0])
    g, value = optimal_receiver(C, rank_one_projector(gamma), [(0, 0)], sigma2=1.0)
    assert abs(value - 1.0) <= 1e-10
    assert abs(abs(np.vdot(g, gamma)) - 1.0) <= 1e-10


def test_receiver_value_is_rayleigh_quotient_and_sinr():
    rng = np.random.default_rng(0)
    for _ in range(25):
        C = random_scattering(rng, 2)
        gamma = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        Gamma = rank_one_projector(gamma)
        scheme = [(0, 0), (1, 0)]
        g, value = optimal_receiver(C, Gamma, scheme, sigma2=0.1)
        realized = sinr(C, Gamma, rank_one_projector(g), scheme, sigma2=0.1)
        assert abs(realized - value) <= 1e-10


def test_receiver_beats_random_receivers():
    rng = np.random.default_rng(1)
    for _ in range(20):
        C = random_scattering(rng, 3)
        gamma = unit_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        Gamma = rank_one_projector(gamma)
        scheme = [(0, 0), (1, 2), (2, 1)]
        _, value = optimal_receiver(C, Gamma, scheme, sigma2=0.1)
        for _ in range(100):
            v = unit_vector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            competitor = sinr(C, Gamma, rank_one_projector(v), scheme, sigma2=0.1)
            assert competitor <= value + 1e-10


def test_receiver_rejects_singular_denominator():
    C = ScatteringFunction.concentrated(2, (0, 0))
    Gamma = rank_one_projector([1.0, 0.0])
    with pytest.raises(SingularDenominatorError):
        optimal_receiver(C, Gamma, [(0, 0)], sigma2=0.0)


def test_optimizer_config_validation():
    with pytest.raises(InvalidWeightsError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(InvalidWeightsError):
        OptimizerConfig(tol=0.0)
    with pytest.raises(InvalidWeightsError):
        OptimizerConfig(restarts=0)


@pytest.mark.parametrize("field", ["max_iters", "restarts"])
@pytest.mark.parametrize("value", [2.5, 3.5, np.float64(4.0), True, np.True_, "3", None, 0])
def test_optimizer_config_counts_must_be_integers_at_least_one(field, value):
    with pytest.raises(InvalidWeightsError):
        OptimizerConfig(**{field: value})


def test_alternating_identity_channel_converges_immediately():
    for L in (2, 3, 4):
        C = ScatteringFunction.concentrated(L, (0, 0))
        trace = alternating_fidelity_max(C, L, OptimizerConfig(restarts=4, seed=1))
        assert trace.converged
        assert abs(trace.objective_history[0] - 1.0) <= 1e-12
        assert abs(trace.best_value - 1.0) <= 1e-12


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_identity_channel_results_capped_at_one(L):
    # Roundoff in the unit pulses can push the top eigenvalue past 1; the
    # gain is at most 1, so both optimizers clip what they return.
    C = ScatteringFunction.concentrated(L, (0, 0))
    assert fidelity_lower_bound_search(C, L, 10) == 1.0
    trace = alternating_fidelity_max(C, L, OptimizerConfig())
    assert trace.best_value == 1.0
    assert max(trace.restart_values) == 1.0
    assert max(trace.objective_history) == 1.0


def test_alternating_reaches_closed_form_worked_example():
    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    trace = alternating_fidelity_max(
        C, 2, OptimizerConfig(max_iters=500, restarts=100, seed=7)
    )
    assert abs(trace.best_value - 0.7) <= 1e-6
    # restarts=100 is a cap: the stopping rule ends the run after some waves of 8.
    runs = len(trace.restart_values)
    assert 8 <= runs <= 100 and runs % 8 == 0


def test_alternating_uniform_L4_hits_floor():
    # Uniform scattering over all 16 shifts averages everything to I/4.
    C = ScatteringFunction.uniform(4)
    trace = alternating_fidelity_max(C, 4, OptimizerConfig(restarts=4, seed=2))
    assert abs(trace.best_value - 0.25) <= 1e-9
    assert trace.converged


def test_alternating_history_monotone_and_pair_consistent():
    rng = np.random.default_rng(3)
    for L in (2, 3):
        C = random_scattering(rng, L)
        trace = alternating_fidelity_max(C, L, OptimizerConfig(restarts=8, seed=11))
        history = np.array(trace.objective_history)
        assert np.all(np.diff(history) >= -1e-12)
        assert 1.0 / L - 1e-12 <= trace.best_value <= 1.0 + 1e-12
        gamma, g = trace.best_pair
        assert abs(np.linalg.norm(gamma) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(g) - 1.0) <= 1e-10
        realized = np.trace(
            apply_A(C, rank_one_projector(gamma)) @ rank_one_projector(g)
        ).real
        assert abs(realized - trace.best_value) <= 1e-10


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4])
def test_alternating_history_ends_on_a_receive_half_step(max_iters):
    # A dense L=5 channel whose restarts need far more than four cycles.
    w = np.random.default_rng(7).random((5, 5))
    C = ScatteringFunction(5, w / w.sum())
    trace = alternating_fidelity_max(C, 5, OptimizerConfig(max_iters=max_iters, restarts=4, seed=3))
    assert not trace.converged
    assert len(trace.objective_history) == 2 * max_iters + 1
    gamma, g = trace.best_pair
    realized = channel_fidelity(C, rank_one_projector(gamma), rank_one_projector(g))
    assert abs(realized - trace.best_value) <= 1e-12


def test_alternating_reproducible():
    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    cfg = OptimizerConfig(restarts=16, seed=5)
    t1 = alternating_fidelity_max(C, 2, cfg)
    t2 = alternating_fidelity_max(C, 2, cfg)
    assert t1.objective_history == t2.objective_history
    assert t1.restart_values == t2.restart_values
    assert np.array_equal(t1.best_pair[0], t2.best_pair[0])


def test_alternating_dimension_mismatch():
    with pytest.raises(InvalidWeightsError):
        alternating_fidelity_max(ScatteringFunction.uniform(2), 3, OptimizerConfig())


def test_oracle_uniform_quad_is_half():
    assert brute_force_bloch_oracle((0.25, 0.25, 0.25, 0.25), 10, seed=0) == 0.5
    assert brute_force_bloch_oracle((0.25, 0.25, 0.25, 0.25), 10, include_axes=False, seed=0) == 0.5


def test_oracle_axes_attain_closed_form_exactly():
    value = brute_force_bloch_oracle((0.4, 0.3, 0.2, 0.1), 100, include_axes=True, seed=0)
    assert abs(value - 0.7) <= 1e-15


def test_oracle_sandwich():
    rng = np.random.default_rng(4)
    for _ in range(100):
        q = random_quad(rng)
        closed = solve_fidelity(q).fidelity
        seed = int(rng.integers(2**31))
        no_axes = brute_force_bloch_oracle(q, 500, include_axes=False, seed=seed)
        with_axes = brute_force_bloch_oracle(q, 500, include_axes=True, seed=seed)
        assert no_axes <= closed + 1e-12
        assert no_axes <= with_axes + 1e-12
        assert abs(with_axes - closed) <= 1e-12


_WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=100)
@given(st.lists(_WEIGHT, min_size=4, max_size=4), st.integers(0, 2**32 - 1))
def test_closed_form_bounds_every_numerical_route(weights, seed):
    total = sum(weights)
    quad = ScatteringQuad.coerce([w / total for w in weights] if total > 0 else [1, 0, 0, 0])
    closed = solve_fidelity(quad).fidelity
    random_only = brute_force_bloch_oracle(quad, 300, include_axes=False, seed=seed)
    with_axes = brute_force_bloch_oracle(quad, 300, include_axes=True, seed=seed)
    alternating = alternating_fidelity_max(
        quad.to_scattering_function(), 2, OptimizerConfig(restarts=4, seed=seed)
    )
    assert random_only <= closed + 1e-12
    assert with_axes <= closed + 1e-12
    assert alternating.best_value <= closed + 1e-12
    # The axes add the candidate 1/2 + max_k |b_k|, the closed form to the last bit.
    assert with_axes == max(closed, random_only)


def test_oracle_random_sampling_approaches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(5):
        q = random_quad(rng)
        closed = solve_fidelity(q).fidelity
        sampled = brute_force_bloch_oracle(q, 100_000, include_axes=False, seed=9)
        assert closed - sampled <= 1e-3


def test_oracle_reproducible():
    q = (0.4, 0.3, 0.2, 0.1)
    a = brute_force_bloch_oracle(q, 5000, include_axes=False, seed=123)
    b = brute_force_bloch_oracle(q, 5000, include_axes=False, seed=123)
    assert a == b


def _normalized(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


_ORACLE_QUADS = st.one_of(
    st.lists(_WEIGHT, min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 0)
    .map(_normalized),
    st.integers(0, 3).map(lambda k: tuple(float(k == n) for n in range(4))),
    st.just((0.25, 0.25, 0.25, 0.25)),
    # Ties among the |b_k|: the worst-case family p1 = p2 = p3, two equal
    # off-origin weights, and two axes sharing the largest |b_k| from
    # opposite sides of zero.
    st.floats(0.0, 1.0).map(lambda p0: (p0,) + ((1.0 - p0) / 3.0,) * 3),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: _normalized((w[0], w[1], w[1], w[2]))),
    st.just((0.25, 0.5, 0.0, 0.25)),
)


@settings(max_examples=100)
@given(_ORACLE_QUADS, st.sampled_from([1, optimize._BATCH, optimize._BATCH + 1]), st.integers(0, 2**32 - 1))
def test_random_oracle_never_exceeds_closed_form(quad, n_samples, seed):
    closed = solve_fidelity(quad).fidelity
    random_only = brute_force_bloch_oracle(quad, n_samples, include_axes=False, seed=seed)
    with_axes = brute_force_bloch_oracle(quad, n_samples, include_axes=True, seed=seed)
    assert random_only <= closed
    assert with_axes == max(closed, random_only)
    assert with_axes == closed


def _unit_vector_oracle(p, n_samples, seed):
    """The oracle with every direction built as an explicit unit vector, a sqrt per sample."""
    b = np.diag(map_matrix_rep(p))[1:]

    def gains(rng, m, best):
        u = rng.random((m, 2))
        z, phi = u[:, 0], np.pi * u[:, 1]
        r = np.sqrt(1.0 - z * z)
        x = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        return np.sqrt((x * x) @ (b * b))

    return 0.5 + optimize._sampled_max(gains, n_samples, seed)


def test_squared_scoring_stays_within_two_ulp_of_normalized_scoring():
    # Same draws, different rounding: the squared score rounds differently
    # from the explicit unit vector, but by at most 2 ulp of the result.
    rng = np.random.default_rng(15)
    for _ in range(150):
        q = random_quad(rng)
        seed = int(rng.integers(2**31))
        n_samples = int(rng.integers(1, 2 * optimize._BATCH + 2))
        reference = _unit_vector_oracle(q, n_samples, seed)
        value = brute_force_bloch_oracle(q, n_samples, include_axes=False, seed=seed)
        assert abs(value - reference) <= 2 * np.spacing(reference)


def _oracle_squares(monkeypatch, m, seed):
    """The oracle's squared coordinates x_k^2 of m directions, one column each.

    The score is linear in (b_1^2, b_2^2, b_3^2), and the quad that puts
    weight 1/2 on the origin and 1/2 on Pauli k has b = e_k / 2, so four
    times its score is x_k^2.
    """
    scores = []
    monkeypatch.setattr(optimize, "_sampled_max", lambda score, n, s: scores.append(score) or 0.0)
    columns = []
    for k in range(1, 4):
        brute_force_bloch_oracle(tuple(0.5 * (n in (0, k)) for n in range(4)), 1, include_axes=False)
        columns.append(4.0 * scores[-1](np.random.default_rng(seed), m, -np.inf))
    return np.stack(columns, axis=1)


def test_sampled_directions_have_the_uniform_sphere_moments(monkeypatch):
    # On the uniform sphere E x_k^2 = 1/3, E x_k^4 = 1/5 and, for j != k,
    # E x_j^2 x_k^2 = 1/15; each sample mean must sit within 6 standard errors.
    x2 = _oracle_squares(monkeypatch, 200_000, 28)
    assert np.allclose(x2.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    j, k = np.triu_indices(3, 1)
    for values, exact in ((x2, 1 / 3), (x2 * x2, 1 / 5), (x2[:, j] * x2[:, k], 1 / 15)):
        error = values.std(axis=0) / math.sqrt(values.shape[0])
        assert np.all(np.abs(values.mean(axis=0) - exact) <= 6 * error)


@pytest.mark.parametrize("n_samples", [20, optimize._BATCH + 3])
@pytest.mark.parametrize("draw", ["real", "complex", "uniform"])
def test_sampled_max_does_not_depend_on_the_batch_size(draw, n_samples):
    # numpy's normal and uniform draws are the same however a request is
    # split, so the batches of the lower-bound search (at most _BATCH rows)
    # and the oracle's rows of two uniforms see the same samples at every
    # batch size.
    if draw == "real":
        score = lambda rng, m, best: rng.standard_normal(m)
    elif draw == "complex":
        score = lambda rng, m, best: _complex_gaussian(rng, (m, 3)).real.max(axis=1)
    else:
        score = lambda rng, m, best: rng.random((m, 2)) @ np.array([1.0, -2.0])
    values = {optimize._sampled_max(score, n_samples, 11, size) for size in (1, 7, optimize._BATCH)}
    assert values == {optimize._sampled_max(score, n_samples, 11)}


class _ZeroDraws:
    def random(self, shape):
        return np.zeros(shape)


def test_all_zero_draws_score_the_first_axis_without_warnings(monkeypatch):
    # u = 0 is height 0 at angle 0: the direction (1, 0, 0), gain 1/2 + |b_1|.
    monkeypatch.setattr(optimize.np.random, "default_rng", lambda seed: _ZeroDraws())
    q = (0.4, 0.3, 0.2, 0.1)
    b = np.diag(map_matrix_rep(q))[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert brute_force_bloch_oracle(q, optimize._BATCH + 1, include_axes=False) == 0.5 + abs(b[0])
        assert brute_force_bloch_oracle(q, 3, include_axes=True) == solve_fidelity(q).fidelity


def test_lower_bound_search_flat_channel():
    C = ScatteringFunction.concentrated(2, (0, 0))
    assert abs(fidelity_lower_bound_search(C, 2, 10, seed=0) - 1.0) <= 1e-12


def test_lower_bound_search_uniform_is_exactly_half():
    C = ScatteringFunction.uniform(2)
    value = fidelity_lower_bound_search(C, 2, 1000, seed=1)
    assert abs(value - 0.5) <= 1e-12


def test_lower_bound_search_sandwiched_by_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(5):
        q = random_quad(rng)
        C = ScatteringFunction.from_quad(*q)
        closed = solve_fidelity(q).fidelity
        value = fidelity_lower_bound_search(C, 2, 10_000, seed=17)
        assert value <= closed + 1e-12
        assert value >= closed - 1e-2
        assert value <= 1.0 + 1e-12


def test_lower_bound_search_reproducible():
    C = ScatteringFunction.uniform(3)
    a = fidelity_lower_bound_search(C, 3, 2000, seed=99)
    b = fidelity_lower_bound_search(C, 3, 2000, seed=99)
    assert a == b


def sparse_scattering(rng, L, taps):
    """Random weights on ``taps`` distinct shifts of the L x L grid."""
    w = np.zeros(L * L)
    w[rng.choice(L * L, taps, replace=False)] = rng.uniform(0.05, 1.0, taps)
    return ScatteringFunction(L, (w / w.sum()).reshape(L, L))


@st.composite
def sparse_channels_and_pulses(draw):
    L = draw(st.integers(2, 12))
    taps = draw(st.lists(st.integers(0, L * L - 1), min_size=1, max_size=L - 1, unique=True))
    grid = np.zeros(L * L)
    grid[taps] = draw(st.lists(st.floats(1e-9, 1.0), min_size=len(taps), max_size=len(taps)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pulses = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
    pulses /= np.linalg.norm(pulses, axis=1)[:, None]
    return ScatteringFunction(L, (grid / grid.sum()).reshape(L, L)), pulses


@settings(max_examples=150)
@given(sparse_channels_and_pulses())
def test_tap_gram_matches_the_diagonal_kernel(case):
    # With fewer taps than dimensions, each half-step is solved on the tap
    # Gram matrix; the L x L map from the diagonal blocks is the reference.
    C, pulses = case
    assert optimize._half_step_operands(C) is C.tap_frame()
    for frame, blocks in zip(C.tap_frame(), C.diagonal_blocks()):
        top, vecs = top_eigenpairs(frame, pulses)
        lam, ref = np.linalg.eigh(_map_rank_one(blocks, pulses))
        np.testing.assert_allclose(top, lam[:, -1], rtol=0, atol=1e-12)
        gram = optimize._rank_one_images(frame, pulses).mats
        np.testing.assert_allclose(np.linalg.eigvalsh(gram)[:, -1], lam[:, -1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0, atol=1e-12)
        for gap, a, b in zip(lam[:, -1] - lam[:, -2], vecs, ref[..., -1]):
            if gap > 1e-6:
                assert abs(np.vdot(a, b)) >= 1 - 1e-9


def test_dense_channels_keep_the_diagonal_kernel():
    rng = np.random.default_rng(8)
    for L, taps in ((1, 1), (2, 2), (3, 3), (4, 16)):
        C = sparse_scattering(rng, L, taps)
        assert optimize._half_step_operands(C) is C.diagonal_blocks()


@pytest.mark.parametrize("L", [2, 3, 5, 8])
@pytest.mark.parametrize("taps", ["one", "L-1"])
def test_optimizers_on_the_tap_gram_match_the_kernel_path(monkeypatch, L, taps):
    rng = np.random.default_rng(L)
    if taps == "one":
        C = ScatteringFunction.concentrated(L, (int(rng.integers(L)), int(rng.integers(L))))
    else:
        C = sparse_scattering(rng, L, L - 1)
    cfg = OptimizerConfig(restarts=8, seed=L)
    gram = alternating_fidelity_max(C, L, cfg), fidelity_lower_bound_search(C, L, 500, seed=L)
    monkeypatch.setattr(optimize, "_half_step_operands", lambda C: C.diagonal_blocks())
    kernel = alternating_fidelity_max(C, L, cfg), fidelity_lower_bound_search(C, L, 500, seed=L)
    assert len(gram[0].objective_history) == len(kernel[0].objective_history)
    assert gram[0].converged == kernel[0].converged
    np.testing.assert_allclose(gram[0].restart_values, kernel[0].restart_values, rtol=0, atol=1e-12)
    assert abs(gram[0].best_value - kernel[0].best_value) <= 1e-12
    assert abs(gram[1] - kernel[1]) <= 1e-12


def top_eigenvector(M):
    return np.linalg.eigh((M + M.conj().T) / 2.0)[1][:, -1]


def transmit_residual(C, gamma, g):
    """``||A*(g g*) gamma - F gamma||`` with F the Rayleigh quotient, from the public maps."""
    image = apply_adjoint_A(C, rank_one_projector(g)) @ gamma
    return float(np.linalg.norm(image - np.vdot(gamma, image).real * gamma))


def plain_alternating_best(C, cfg):
    """Best value of unaccelerated alternating eigensteps from the optimizer's starts.

    Each restart runs plain cycles until its residual is at most cfg.tol or
    cfg.max_iters cycles have run; every map comes from apply_A and apply_adjoint_A.
    """
    best = -np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        gamma = random_unit_vector(np.random.default_rng(child), C.L)
        g = top_eigenvector(apply_A(C, rank_one_projector(gamma)))
        for _ in range(cfg.max_iters):
            if transmit_residual(C, gamma, g) <= cfg.tol:
                break
            gamma = top_eigenvector(apply_adjoint_A(C, rank_one_projector(g)))
            g = top_eigenvector(apply_A(C, rank_one_projector(gamma)))
        value = np.vdot(g, apply_A(C, rank_one_projector(gamma)) @ g).real
        best = max(best, min(1.0, float(value)))
    return best


@st.composite
def optimizer_cases(draw, smallest=1):
    """Dense or sparse (one tap, L - 1 taps) channels at L = smallest..6, and a seed."""
    L = draw(st.integers(smallest, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = draw(st.sampled_from([L * L, 1, max(1, L - 1)]))
    C = random_scattering(rng, L) if taps == L * L else sparse_scattering(rng, L, taps)
    return C, draw(st.integers(0, 2**32 - 1))


def no_parking():
    """Parking off: no twin distance is at most a negative radius, at either radius.

    _trailing reads both radii when called, so the patch reaches every twin
    test of the run.
    """
    return mock.patch.multiple(optimize, _TWIN=-1.0, _TWIN_STATIONARY=-1.0)


@settings(max_examples=60, deadline=None)
@given(optimizer_cases())
@example((ScatteringFunction.concentrated(1, (0, 0)), 0))
@example((ScatteringFunction.uniform(3), 1))
def test_accelerated_loop_is_stationary_monotone_and_no_worse_than_plain(case):
    C, seed = case
    cfg = OptimizerConfig(max_iters=300, restarts=4, seed=seed)
    trace = alternating_fidelity_max(C, C.L, cfg)
    with no_parking():
        unparked = alternating_fidelity_max(C, C.L, cfg)
    # Without parking, the run stops early only once every restart is
    # stationary.  With it, a restart is parked only behind a live lead or a
    # stationary restart, so the last restart to stop is stationary.
    cycles = (len(unparked.objective_history) - 1) // 2
    assert cycles == cfg.max_iters or max(unparked.residuals) <= cfg.tol
    cycles = (len(trace.objective_history) - 1) // 2
    assert cycles == cfg.max_iters or min(trace.residuals) <= cfg.tol
    # Nondecreasing, up to the safeguard's tie width.
    assert np.all(np.diff(trace.objective_history) >= -optimize._TIE)
    if trace.converged:
        # Stationary: recomputed from A* on the returned pair, the residual
        # is at most tol up to roundoff.
        assert transmit_residual(C, *trace.best_pair) <= cfg.tol + 1e-13
    # No worse than plain cycles from the same starts, at the cycle cap too.
    # A rejected Newton cycle spends a cycle that plain cycles spend
    # climbing, so at a cap of a few cycles it can trail them; by 300 cycles
    # the Newton steps have more than made up for it.
    assert trace.best_value >= plain_alternating_best(C, cfg) - 1e-12


@st.composite
def tap_channels_and_rows(draw):
    """A channel at L = 2..8 with T < L taps, twice 6 unit pulses and (6, 3, L) rows."""
    L = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = sparse_scattering(rng, L, draw(st.integers(1, L - 1)))
    pulses, others = _complex_gaussian(rng, (2, 6, L))
    pulses /= np.linalg.norm(pulses, axis=1)[:, None]
    others /= np.linalg.norm(others, axis=1)[:, None]
    return C, pulses, others, _complex_gaussian(rng, (6, 3, L))


@settings(max_examples=150)
@given(tap_channels_and_rows())
def test_tap_gram_and_full_images_agree(case):
    # The same pulses' images of A and of A*, once as T x T tap Grams and
    # once as L x L maps: every half-step operation reads the same in C^L.
    C, pulses, others, rows = case
    for frame, blocks in zip(C.tap_frame(), C.diagonal_blocks()):
        gram_mats = (gram := optimize._rank_one_images(frame, pulses)).mats
        full_mats = (full := optimize._rank_one_images(blocks, pulses)).mats
        assert gram_mats.shape[-1] < C.L == full_mats.shape[-1]
        gram_eigs, full_eigs = np.linalg.eigh(gram_mats), np.linalg.eigh(full_mats)
        top_g, vec_g = optimize._top_of(*gram_eigs, gram)
        top_f, vec_f = optimize._top_of(*full_eigs, full)
        np.testing.assert_allclose(top_g, top_f, rtol=0, atol=1e-12)
        lam = full_eigs[0]
        for gap, a, b in zip(lam[:, -1] - lam[:, -2], vec_g, vec_f):
            if gap > 1e-6:
                assert abs(np.vdot(a, b)) >= 1 - 1e-9
        residuals = gram.residuals(others), full.residuals(others)
        np.testing.assert_allclose(*residuals, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gram.apply(rows), full.apply(rows), rtol=0, atol=1e-12)
        # The gap inverse, on the rows whose L x L gaps all exceed 1e-2
        # (the L - T zero eigenvalues of M have gap f >= 1/T): measured
        # relative errors stay below 2e-14, the bound is 1e-10.
        wide = np.all(lam[:, -1:] - lam[:, :-1] > 1e-2, axis=1)
        inv_g, ok_g = gram.gap_inverse(*gram_eigs)
        inv_f, ok_f = full.gap_inverse(*full_eigs)
        assert np.all(ok_g[wide]) and np.all(ok_f[wide])
        error = np.linalg.norm(inv_g[wide] - inv_f[wide], axis=(1, 2))
        assert np.all(error <= 1e-10 * np.linalg.norm(inv_f[wide], axis=(1, 2)))


def reduced_objective(C, r):
    """``f(r) = lambda_max(A*(r r*))``, from the public adjoint map."""
    return float(np.linalg.eigvalsh(apply_adjoint_A(C, rank_one_projector(r)))[-1])


def newton_model(C, receivers):
    """The optimizer's Newton model at the rows of ``receivers``, built as its loop builds it.

    Returns the model and the eigenvalues of each ``A*(r r*)``.
    """
    forward, adjoint = optimize._half_step_operands(C)
    mats = (frame := optimize._rank_one_images(adjoint, receivers)).mats
    lam, u = np.linalg.eigh(mats)
    _, gammas = optimize._top_of(lam, u, frame)
    ahead = optimize._rank_one_images(forward, gammas)
    return optimize._reduced_model(C, receivers, (lam, u, frame), gammas, ahead), lam


def great_circle_derivatives(C, r, h, s):
    """First and second derivatives of f along ``r cos t + h sin t`` at t = 0.

    Central differences with steps s and s/2, combined by Richardson
    extrapolation, so the error is O(s^4) plus roundoff of order 1e-10.
    """
    def central(step):
        f = [reduced_objective(C, r * np.cos(t) + h * np.sin(t)) for t in (-step, 0.0, step)]
        return (f[2] - f[0]) / (2 * step), (f[2] - 2 * f[1] + f[0]) / step**2

    (a1, a2), (b1, b2) = central(s), central(s / 2)
    return (4 * b1 - a1) / 3, (4 * b2 - a2) / 3


@settings(max_examples=100)
@given(optimizer_cases(smallest=2))
@example((ScatteringFunction.uniform(1), 0))
def test_newton_model_matches_central_differences(case):
    # The gradient 2 (N r - f r) and the Hessian form 2 h*(N - f) h + 2 y* R y
    # at a random unit pulse r, against differences of f along a great
    # circle in a random tangent direction h = sum_m x_m b_m.  A sign slip
    # in Q or Z, a lost conjugate or a dropped gap term each miss by far
    # more than 1e-5.
    C, seed = case
    L = C.L
    rng = np.random.default_rng(seed)
    r = _complex_gaussian(rng, (1, L))
    r /= np.linalg.norm(r)
    (basis, grad, hess, ok), lam = newton_model(C, r)
    assert basis.shape == (1, 2 * L - 2, L) and grad.shape == (1, 2 * L - 2)
    assert hess.shape == (1, 2 * L - 2, 2 * L - 2)
    if L == 1:
        return
    # Orthonormal real coordinates of the tangent space at r.
    gram = (basis[0].conj() @ basis[0].T).real
    np.testing.assert_allclose(gram, np.eye(2 * L - 2), rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis[0].conj() @ r[0], 0.0, rtol=0, atol=1e-12)
    # f is smooth where its top eigenvalue is simple.
    gap = lam[0, -1] - lam[0, -2] if lam.shape[1] > 1 else 1.0
    if gap < 1e-2:
        return
    assert ok[0]
    x = rng.standard_normal(2 * L - 2)
    x /= np.linalg.norm(x)
    first, second = great_circle_derivatives(C, r[0], x @ basis[0], 1e-3)
    scale = reduced_objective(C, r[0])
    assert abs(grad[0] @ x - first) <= 1e-5 * max(abs(first), scale)
    assert abs(x @ hess[0] @ x - second) <= 1e-5 * max(abs(second), scale)


def tap_channel(L, taps):
    """The channel with these tap powers ``{shift: power}`` on the L x L grid, normalized."""
    w = np.zeros((L, L))
    for mu, p in taps.items():
        w[mu] = p
    return ScatteringFunction(L, w / w.sum())


@pytest.mark.parametrize(
    "C",
    [
        ScatteringFunction.uniform(2),
        ScatteringFunction.uniform(3),
        ScatteringFunction.uniform(5),
        ScatteringFunction.concentrated(4, (1, 2)),
        ScatteringFunction.concentrated(1, (0, 0)),
        tap_channel(4, {(1, 0): 0.5, (3, 0): 0.5}),
        tap_channel(5, {(0, 1): 0.3, (0, 2): 0.7}),
        tap_channel(6, {(0, 0): 0.6, (2, 0): 0.4}),
    ],
    ids=["uniform2", "uniform3", "uniform5", "concentrated4", "L1", "shifts4", "modulations5",
         "shifts6"],
)
def test_newton_points_on_degenerate_channels_are_finite_and_quiet(C):
    # Uniform channels have A*(r r*) = I / L, so every gap f - lambda_j is 0
    # up to roundoff; there the third cycle runs plain from the receiver.
    # The smallest tol keeps every restart cycling, so Newton points are
    # tried on every third cycle.
    L = C.L
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = OptimizerConfig(tol=math.ulp(0.0), max_iters=12, restarts=4, seed=1)
        trace = alternating_fidelity_max(C, L, cfg)
        if L > 1:
            r = _complex_gaussian(np.random.default_rng(L), (3, L))
            r /= np.linalg.norm(r, axis=1)[:, None]
            model, lam = newton_model(C, r)
            points, ok = optimize._newton_points(r, model, np.full(3, 0.1))
            assert np.all(np.isfinite(points))
            np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, rtol=0, atol=1e-12)
            # A zero gap leaves the model undefined: no Newton point there.
            assert not np.any(ok & np.any(lam[:, :-1] == lam[:, -1:], axis=1))
    assert np.all(np.isfinite(trace.objective_history))
    assert 1.0 / L - 1e-12 <= trace.best_value <= 1.0
    assert np.all(np.isfinite(trace.residuals))


_SLOW_CELLS = {
    9: {(0, 0): 0.233678, (0, 4): 0.197041, (5, 8): 0.233176, (6, 3): 0.24322, (8, 1): 0.092885},
    7: {(0, 0): 0.294055, (0, 2): 0.296722, (3, 0): 0.097465, (4, 0): 0.311757},
}


@pytest.mark.parametrize("L", sorted(_SLOW_CELLS))
@pytest.mark.parametrize("seed", [0, 1])
def test_slow_sparse_deck_cells_stop_stationary_before_the_cap(L, seed):
    # Slow cells of the sparse benchmark deck: the Hessian there has
    # curvatures from about -1.3 to +2e-5, so plain cycles take hundreds of
    # thousands of cycles to climb the last 1e-7.  Without parking, every
    # restart must still stop stationary before the cap; with it, the run
    # still stops there, converged.
    C = tap_channel(L, _SLOW_CELLS[L])
    cfg = OptimizerConfig(seed=seed)
    with no_parking():
        unparked = alternating_fidelity_max(C, L, cfg)
    assert len(unparked.objective_history) < 2 * cfg.max_iters + 1
    assert max(unparked.residuals) <= cfg.tol
    trace = alternating_fidelity_max(C, L, cfg)
    assert len(trace.objective_history) < 2 * cfg.max_iters + 1
    assert trace.converged


def unpruned_search(C, n_samples, seed):
    """The search's draw with every sample through eigvalsh, each batch mapped at once."""
    forward = optimize._half_step_operands(C)[0]
    rng = np.random.default_rng(seed)
    best = -np.inf
    for start in range(0, n_samples, optimize._BATCH):
        vecs = _complex_gaussian(rng, (min(optimize._BATCH, n_samples - start), C.L))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        mats = optimize._rank_one_images(forward, vecs).mats
        best = max(best, float(np.max(np.linalg.eigvalsh(mats)[:, -1])))
    return min(1.0, best)


@st.composite
def search_cases(draw):
    """Dense (diagonal-block path) or sparse, down to one tap (tap Gram path), at L = 1..8."""
    L = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = draw(st.sampled_from([1, max(1, L - 1), L * L]))
    C = sparse_scattering(rng, L, taps)
    return C, draw(st.integers(1, 3000)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80)
@given(search_cases())
# Uniform channels have every top eigenvalue equal to 1/L, so only the
# pruning margin keeps the ulp-level winner; 20000 samples cross a batch.
@example((ScatteringFunction.uniform(3), 20_000, 1))
@example((ScatteringFunction.uniform(6), 3000, 1))
@example((ScatteringFunction.concentrated(4, (1, 2)), 20_000, 5))
def test_pruned_search_is_the_unpruned_maximum(case):
    C, n_samples, seed = case
    value = fidelity_lower_bound_search(C, C.L, n_samples, seed)
    assert value == unpruned_search(C, n_samples, seed)


@pytest.mark.parametrize("L, n_samples", [(16, 17_000), (32, 5000)])
@pytest.mark.parametrize("entries", [None, 1 << 18, 1 << 16])
def test_blocked_search_is_the_unblocked_maximum(monkeypatch, L, n_samples, entries):
    # Row blocks of 16384 / 4096 (default), 1024 / 256 and 256 / 64 at L = 16 / 32.
    if entries is not None:
        monkeypatch.setattr(optimize, "_BLOCK_ENTRIES", entries)
    d = np.minimum(np.arange(L), L - np.arange(L))
    w = np.exp(-(d[:, None] ** 2) - d[None, :] ** 2)  # a smooth isotropic profile
    C = ScatteringFunction(L, w / w.sum())
    assert fidelity_lower_bound_search(C, L, n_samples, seed=3) == unpruned_search(C, n_samples, 3)


def deck_cell(L, taps, seed):
    """The origin tap plus ``taps`` other taps at distinct shifts, as in the sparse benchmark deck."""
    rng = np.random.default_rng(seed)
    w = np.zeros(L * L)
    w[0] = rng.uniform(0.3, 1.0)
    w[rng.choice(np.arange(1, L * L), taps, replace=False)] = rng.uniform(0.05, 1.0, taps)
    return ScatteringFunction(L, (w / w.sum()).reshape(L, L))


@pytest.mark.parametrize("L", range(4, 11))
@pytest.mark.parametrize("taps", [2, 3, 4])
def test_pruned_search_is_the_unpruned_maximum_on_deck_cells(L, taps):
    # The origin plus 3 taps at L = 4 and plus 4 at L = 5 take the L x L map.
    C = deck_cell(L, taps, 10 * L + taps)
    for n_samples in (2000, 2500, 3000):
        seed = n_samples + L
        assert fidelity_lower_bound_search(C, L, n_samples, seed) == unpruned_search(C, n_samples, seed)


@pytest.mark.parametrize("n_samples", [2001, 16_387])
@pytest.mark.parametrize("path", ["tap", "dense"])
def test_pruned_search_is_the_unpruned_maximum_on_odd_sample_counts(path, n_samples):
    # 2001 leaves one odd block; 16387 leaves three samples, fewer than
    # _LEADS, after the 16384-sample batch.
    C = deck_cell(6, 3, 1) if path == "tap" else isotropic(4)
    assert (optimize._half_step_operands(C) is C.tap_frame()) == (path == "tap")
    assert fidelity_lower_bound_search(C, C.L, n_samples, 7) == unpruned_search(C, n_samples, 7)


@st.composite
def bound_cases(draw):
    """Channels at L = 1..10 of every shape the search meets, and 16 unit pulses."""
    L = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "one", "two", "L-1", "equal", "uniform", "concentrated"]))
    if kind == "uniform":
        C = ScatteringFunction.uniform(L)
    elif kind == "concentrated":
        C = ScatteringFunction.concentrated(L, tuple(rng.integers(0, L, 2)))
    elif kind == "equal":
        w = np.zeros(L * L)
        w[rng.choice(L * L, rng.integers(1, L * L + 1), replace=False)] = 1.0
        C = ScatteringFunction(L, (w / w.sum()).reshape(L, L))
    else:
        taps = {"dense": L * L, "one": 1, "two": min(2, L * L), "L-1": max(1, L - 1)}[kind]
        C = sparse_scattering(rng, L, taps)
    pulses = _complex_gaussian(rng, (16, L))
    pulses /= np.linalg.norm(pulses, axis=1)[:, None]
    return C, pulses


@settings(max_examples=150)
@given(bound_cases())
@example((ScatteringFunction.concentrated(5, (2, 3)), np.eye(5, dtype=complex)[1:]))
@example((ScatteringFunction.uniform(4), np.eye(4, dtype=complex)))
def test_search_bounds_hold_without_the_images(case):
    # Every sample's bound is at least the top eigenvalue of its image, and
    # the images the search forms for chosen samples have the bits of the
    # images of the whole stack.  The bounded matrix's squared Frobenius
    # norm is the diagonal's squares plus the ambiguity mass: on the tap
    # path sum C(mu_t)^2, on the L x L map tr^2 / L with tr = lambda(0).
    C, pulses = case
    forward = optimize._half_step_operands(C)[0]
    terms = optimize._ambiguity_terms(C)
    upper, images = optimize._bounded_images(forward, terms, pulses)
    mats = optimize._rank_one_images(forward, pulses).mats
    chosen = np.random.default_rng(C.L).permutation(len(pulses))[:5]
    assert np.array_equal(images(np.arange(len(pulses))), mats)
    assert np.array_equal(images(chosen), mats[chosen])
    assert np.all(upper >= np.linalg.eigvalsh(mats)[:, -1] - 1e-12)
    if terms is not None:
        weights, ambiguity = terms
        mass = (weights**2).sum() + optimize._ambiguity_mass(ambiguity, pulses)
        frobenius = (mats.real**2 + mats.imag**2).sum((-2, -1))
        np.testing.assert_allclose(mass, frobenius, rtol=0, atol=1e-13)
    if forward is not C.tap_frame()[0]:
        trace, spread = spreading_eigenvalues(C)[0, 0].real, optimize._ambiguity_mass(terms[1], pulses)
        np.testing.assert_allclose(trace**2 / C.L + spread, frobenius, rtol=0, atol=1e-13)


@st.composite
def spectral_cases(draw):
    """Dense, uniform and concentrated channels at L = 1..8, and 16 unit pulses."""
    L = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "uniform", "concentrated"]))
    if kind == "uniform":
        C = ScatteringFunction.uniform(L)
    elif kind == "concentrated":
        C = ScatteringFunction.concentrated(L, tuple(rng.integers(0, L, 2)))
    else:
        C = sparse_scattering(rng, L, L * L)
    pulses = _complex_gaussian(rng, (16, L))
    pulses /= np.linalg.norm(pulses, axis=1)[:, None]
    return C, pulses


@settings(max_examples=120)
@given(spectral_cases())
# Even L: (L/2, 0), (0, L/2) and (L/2, L/2) are their own partners in the fold.
@example((random_scattering(np.random.default_rng(6), 6), np.eye(6, dtype=complex)))
@example((ScatteringFunction.concentrated(8, (4, 4)), np.full((1, 8), 8**-0.5, dtype=complex)))
def test_folded_spectral_mass_is_the_unfolded_sum(case):
    # ||A(v v*) - (tr / L) I||_F^2 = sum_(nu != 0) |lambda(nu)|^2 |<v, S_nu v>|^2 / L,
    # summed here over every shift, nu and -nu apart, from shift_operator.
    C, pulses = case
    L, lam = C.L, spreading_eigenvalues(C)
    diag, terms = optimize._spectral_terms(C)
    shifts = [(a, b) for a in range(L) for b in range(L) if (a, b) != (0, 0)]
    explicit = sum(
        abs(lam[nu]) ** 2 * np.abs(np.einsum("ki,ij,kj->k", pulses.conj(), shift_operator(L, nu), pulses)) ** 2 / L
        for nu in shifts
    )
    np.testing.assert_allclose(optimize._ambiguity_mass(terms, pulses), explicit, rtol=0, atol=1e-13)
    np.testing.assert_allclose(diag, np.full(L, lam[0, 0].real / L), rtol=0, atol=1e-15)


def test_search_forms_images_only_for_leads_and_survivors(monkeypatch):
    # Dense L = 6: every sample's bound comes from the spreading eigenvalues;
    # images are formed for the _LEADS best-bounded samples, then for the
    # samples whose bound reaches the threshold, and for no others.
    C, n_samples, seed = isotropic(6), 3000, 2
    forward = optimize._half_step_operands(C)[0]
    vecs = _complex_gaussian(np.random.default_rng(seed), (n_samples, C.L))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    upper, images = optimize._bounded_images(forward, optimize._ambiguity_terms(C), vecs)
    lead = np.argsort(upper)[-optimize._LEADS:]
    keep = upper >= np.linalg.eigvalsh(images(lead))[:, -1].max() - optimize._PRUNE_MARGIN
    keep[lead] = False
    survivors = np.count_nonzero(keep)
    expected = unpruned_search(C, n_samples, seed)
    rows = []
    real = optimize._rank_one_images
    monkeypatch.setattr(optimize, "_rank_one_images", lambda op, v: rows.append(len(v)) or real(op, v))
    assert fidelity_lower_bound_search(C, C.L, n_samples, seed) == expected
    assert rows == [optimize._LEADS, survivors]
    assert optimize._LEADS + survivors < n_samples / 10


def psd_stacks(d, rng):
    """Trace-one PSD stacks: random ranks 1..d, rank one, spike plus flat, and I/d."""
    x = rng.standard_normal((40, d, d)) + 1j * rng.standard_normal((40, d, d))
    x[:, :, rng.integers(1, d + 1):] = 0.0
    mixed = x @ x.conj().swapaxes(-1, -2)
    v = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
    v /= np.linalg.norm(v, axis=1)[:, None]
    rank_one = v[:, :, None] * v[:, None, :].conj()
    # Top eigenvalue a on v, the rest of the trace spread evenly: equality in Wolkowicz-Styan.
    a = rng.uniform(1.0 / d, 1.0, (20, 1, 1))
    spike = a * rank_one + (1 - a) / max(d - 1, 1) * (np.eye(d) - rank_one)
    mats = np.concatenate([mixed, rank_one, spike, np.eye(d)[None] / d])
    return mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_top_eigenvalue_bounds_hold_and_are_tight_where_exact(d):
    rng = np.random.default_rng(d)
    mats = psd_stacks(d, rng)
    start = rng.standard_normal((len(mats), d)) + 1j * rng.standard_normal((len(mats), d))
    lower, upper = top_eigenvalue_bounds(mats, start)
    top = np.linalg.eigvalsh(mats)[:, -1]
    assert np.all(lower <= top + 1e-12) and np.all(top <= upper + 1e-12)
    # Rank one: one power step lands on the eigenvector, and ||M||_F is the
    # eigenvalue.  Spike plus flat and I/d: m + s sqrt(d - 1) is exact.
    rank_one, spike_and_flat = slice(40, 60), slice(60, None)
    np.testing.assert_allclose(lower[rank_one], top[rank_one], rtol=0, atol=1e-12)
    np.testing.assert_allclose(upper[40:], top[40:], rtol=0, atol=1e-12)
    assert abs(lower[-1] - 1 / d) <= 1e-12


def gain(C, gamma, g):
    """``<g, A(gamma gamma*) g>``, the mean gain of a pulse pair, from the public map."""
    return float(np.vdot(g, apply_A(C, rank_one_projector(gamma)) @ g).real)


@st.composite
def channels_and_pairs(draw):
    """Dense or sparse (one tap, L - 1 taps) channels at L = 1..8, a unit pulse pair and two phases."""
    L = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = draw(st.sampled_from([L * L, 1, max(1, L - 1)]))
    pair = _complex_gaussian(rng, (2, L))
    pair /= np.linalg.norm(pair, axis=1)[:, None]
    return sparse_scattering(rng, L, taps), pair, np.exp(1j * rng.uniform(0.0, 2 * np.pi, (2, 1)))


@settings(max_examples=40)
@given(channels_and_pairs())
@example((ScatteringFunction.uniform(3), np.eye(3, dtype=complex)[:2], np.ones((2, 1))))
def test_joint_shifts_and_phases_keep_gain_and_residual_and_are_twins(case):
    # (S_nu gamma e^ia, S_nu g e^ib) for every shift nu: the gain and the
    # stationarity residual are those of (gamma, g), the twin distance is
    # zero, and the twin screen lets every copy through.
    C, pair, phases = case
    L = C.L
    shifts = np.arange(L * L)
    copies = np.stack([optimize._shifted(np.repeat(p[None], L * L, axis=0), shifts) for p in pair], 1)
    for (gamma, g), nu in zip(copies, shifts):
        op = shift_operator(L, (nu % L, nu // L))
        np.testing.assert_allclose([gamma, g], pair @ op.T, rtol=0, atol=1e-15)
    copies *= phases
    value, residual = gain(C, *pair), transmit_residual(C, *pair)
    for gamma, g in copies:
        assert abs(gain(C, gamma, g) - value) <= 1e-13
        assert abs(transmit_residual(C, gamma, g) - residual) <= 1e-13
    dist = optimize._twin_distances(pair[None], copies)
    assert np.all(dist <= 1e-14)
    assert np.all(optimize._twins(pair[None], copies, optimize._TWIN))


@settings(max_examples=80)
@given(
    channels_and_pairs(),
    st.floats(0.0, 1.0),
    st.sampled_from([("_TWIN", 0.1), ("_TWIN_STATIONARY", 0.5)]),
)
def test_twin_screen_never_drops_a_twin(case, step, radius_and_scale):
    # Pairs near shift copies, at distances on both sides of the radius
    # (perturbations up to ``scale`` reach twin distances of 0.02-0.2 and
    # 0.5-1.2 at L = 2..8): the screened mask is the plain threshold on the
    # twin distance, also with one radius per representative.
    C, pair, phases = case
    L = C.L
    name, scale = radius_and_scale
    radius = getattr(optimize, name)
    rng = np.random.default_rng(L)
    shifts = rng.integers(0, L * L, 6)
    near = np.stack([optimize._shifted(np.repeat(p[None], 6, axis=0), shifts) for p in pair], 1)
    near = near * phases + scale * step * rng.uniform(0.0, 1.0, (6, 1, 1)) * _complex_gaussian(rng, (6, 2, L))
    near /= np.linalg.norm(near, axis=-1)[..., None]
    dist = optimize._twin_distances(near[:, None], pair[None])
    np.testing.assert_array_equal(optimize._twins(near, pair[None], radius), dist <= radius)
    both = np.array([optimize._TWIN, radius])
    np.testing.assert_array_equal(optimize._twins(near, np.stack([pair, pair]), both), dist <= both)


@settings(max_examples=40)
@given(channels_and_pairs())
def test_twins_are_the_threshold_at_every_radius(case):
    # Twin distances lie in [0, 2]: above radius 1 the mask is still the
    # plain threshold, and at 2 every pair, a phase copy of the
    # representative included, is a twin.
    C, pair, phases = case
    pairs = _complex_gaussian(np.random.default_rng(C.L), (6, 2, C.L))
    pairs[0] = pair * phases
    pairs /= np.linalg.norm(pairs, axis=-1)[..., None]
    dist = optimize._twin_distances(pairs[:, None], pair[None])
    for radius in (1.5, 2.0):
        np.testing.assert_array_equal(optimize._twins(pairs, pair[None], radius), dist <= radius)
    assert np.all(optimize._twins(pairs, pair[None], 2.0))


@settings(max_examples=30)
@given(optimizer_cases())
@example((ScatteringFunction.uniform(3), 1))
@example((ScatteringFunction.concentrated(1, (0, 0)), 0))
def test_parking_loses_no_gain_and_no_restart_exceeds_the_best(case):
    # A parked restart reports the gain it reached, at most its twin's, so
    # the best is the restart of smallest residual among those within _TIE
    # of the highest gain, as for any run; parking loses no best value.
    C, seed = case
    cfg = OptimizerConfig(restarts=16, seed=seed)
    on = alternating_fidelity_max(C, C.L, cfg)
    with no_parking():
        off = alternating_fidelity_max(C, C.L, cfg)
    values, residuals = np.array(on.restart_values), np.array(on.residuals)
    near = np.flatnonzero(values >= values.max() - optimize._TIE)
    assert on.best_value == values[near[np.argmin(residuals[near])]]
    assert on.best_value >= off.best_value - 1e-12
    assert on.converged == off.converged


def isotropic(L, width=1):
    """The isotropic Gaussian delay-Doppler profile of the given width on the L x L grid."""
    d = np.minimum(np.arange(L), L - np.arange(L)) / width
    w = np.exp(-(d[:, None] ** 2) - d[None, :] ** 2)
    return ScatteringFunction(L, w / w.sum())


def test_parking_stops_twins_and_saves_half_steps_on_an_isotropic_cell():
    # Restarts converge to shift copies of one optimum; the ones that trail
    # a copy are parked where they are, and the run takes fewer half-steps.
    C, cfg = isotropic(6), OptimizerConfig(seed=1)
    on = alternating_fidelity_max(C, 6, cfg)
    with no_parking():
        off = alternating_fidelity_max(C, 6, cfg)
    assert max(on.residuals) > cfg.tol
    assert len(on.objective_history) < len(off.objective_history)
    assert on.converged and off.converged
    assert on.best_value >= off.best_value - 1e-12
    assert max(on.restart_values) == on.best_value
    assert np.all(np.diff(on.objective_history) >= -optimize._TIE)
    gamma, g = on.best_pair
    assert abs(gain(C, gamma, g) - on.best_value) <= 1e-12


@pytest.mark.parametrize("width", [1, 2])
def test_ridge_cells_at_L16_end_stationary_before_the_cap(width):
    # Restarts drift along a near-flat ridge here and ran to the 500-cycle
    # cap when only shift copies within _TWIN were parked; parked at the
    # wider radius around the stationary pairs, every restart stops long
    # before the cap, and the best one is stationary.
    C, cfg = isotropic(16, width), OptimizerConfig()
    trace = alternating_fidelity_max(C, 16, cfg)
    assert len(trace.objective_history) < 2 * cfg.max_iters + 1
    assert max(trace.restart_values) == trace.best_value
    assert max(trace.residuals) > cfg.tol
    assert trace.converged


def twin_pulses(L, seed):
    """Restarts 0 and 1 are a pair and its shift copy with other phases; restart 2 is unrelated."""
    rng = np.random.default_rng(seed)
    pulses = _complex_gaussian(rng, (3, 2, L))
    pulses /= np.linalg.norm(pulses, axis=-1)[..., None]
    pulses[1] = 1j * optimize._shifted(pulses[0], np.array([L + 1, L + 1]))
    return pulses


def test_restarts_trail_only_twins_with_no_lower_value():
    pulses = twin_pulses(5, 0)
    ids, reps = np.array([0, 2]), np.array([1])
    # Restart 1 is a stationary restart with the larger value: restart 0
    # trails it; restart 2, the lead, trails nothing.
    trailing = optimize._trailing(ids, reps, np.array([0.5, 0.5 + 1e-9, 0.7]), pulses)
    assert trailing.tolist() == [True, False]
    # With the smaller value it is passed over, and the lead is no twin.
    trailing = optimize._trailing(ids, reps, np.array([0.5 + 1e-9, 0.5, 0.7]), pulses)
    assert trailing.tolist() == [False, False]
    # Restart 1 live and the lead: restart 0 trails it, and it trails nothing.
    trailing = optimize._trailing(np.array([0, 1, 2]), reps[:0], np.array([0.5, 0.52, 0.51]), pulses)
    assert trailing.tolist() == [True, False, False]


@pytest.mark.parametrize(
    "C",
    [
        ScatteringFunction.concentrated(1, (0, 0)),
        ScatteringFunction.concentrated(3, (1, 2)),
        ScatteringFunction.concentrated(4, (0, 0)),
        ScatteringFunction.uniform(2),
        ScatteringFunction.uniform(3),
        ScatteringFunction.uniform(5),
    ],
    ids=["L1", "concentrated3", "concentrated4", "uniform2", "uniform3", "uniform5"],
)
@pytest.mark.parametrize("tol", [1e-10, math.ulp(0.0)], ids=["default", "never-stationary"])
def test_twin_test_on_degenerate_channels_ends_quietly(C, tol):
    # The smallest tol keeps every restart live, so the twin test runs on
    # pairs whose gains all tie.
    cfg = OptimizerConfig(tol=tol, max_iters=12 if tol < 1e-300 else 500, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = alternating_fidelity_max(C, C.L, cfg)
    assert len(trace.objective_history) <= 2 * cfg.max_iters + 1
    assert np.all(np.isfinite(trace.restart_values)) and np.all(np.isfinite(trace.residuals))
    if tol == 1e-10:
        assert trace.converged


def test_restart_starts_are_the_same_in_any_wave_size(monkeypatch):
    # A cap of one cycle stops no restart, so every wave runs; restart i
    # draws the start that child i of one spawn(restarts) gives.
    C = random_scattering(np.random.default_rng(6), 5)
    drawn = []

    def record(rng, L):
        drawn.append(random_unit_vector(rng, L))
        return drawn[-1]

    monkeypatch.setattr(optimize, "random_unit_vector", record)
    for restarts in (8, 16, 32):
        drawn.clear()
        cfg = OptimizerConfig(max_iters=1, restarts=restarts, seed=4)
        trace = alternating_fidelity_max(C, 5, cfg)
        children = np.random.SeedSequence(cfg.seed).spawn(restarts)
        starts = [random_unit_vector(np.random.default_rng(s), 5) for s in children]
        assert len(trace.restart_values) == len(drawn) == restarts
        assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, starts))


@settings(max_examples=30, deadline=None)
@given(optimizer_cases(smallest=2), st.sampled_from([16, 24, 32]))
def test_waves_keep_the_first_wave_and_run_whole_waves(case, restarts):
    C, seed = case
    trace = alternating_fidelity_max(C, C.L, OptimizerConfig(restarts=restarts, seed=seed))
    first = alternating_fidelity_max(C, C.L, OptimizerConfig(restarts=8, seed=seed))
    assert trace.best_value >= first.best_value
    runs = len(trace.restart_values)
    assert runs % 8 == 0 or runs == restarts
    assert np.all(np.diff(trace.objective_history) >= -1e-12)


@pytest.mark.parametrize(
    ("values", "n", "stops"),
    [
        ([0.5] * 8, 8, True),
        ([0.5] * 7, 7, False),  # one optimum: the expectation is 1.5 at n = 7
        ([0.5, 0.5 + 5e-9], 8, True),  # within 1e-8: one optimum
        ([0.5, 0.6], 16, False),  # two optima: 2.5 at n = 16
        ([0.5, 0.6], 17, True),
        ([0.5, 0.6, 0.7], 29, False),
        ([0.5, 0.6, 0.7], 30, True),
        ([0.5], 2, False),
    ],
)
def test_stopping_rule(values, n, stops):
    assert optimize._enough(np.array(values), n) is stops


def test_two_stationary_values_run_past_the_first_wave():
    # Four taps at L = 5 with two stationary gains, 0.6486 and 0.6570: the
    # rule needs 17 restarts for two optima, so three waves run.
    w = np.zeros((5, 5))
    w[0, 3], w[3, 1], w[3, 3], w[4, 1] = 0.078, 0.366, 0.282, 0.273
    C = ScatteringFunction(5, w / w.sum())
    cfg = OptimizerConfig(seed=0)
    trace = alternating_fidelity_max(C, 5, cfg)
    stationary = [v for v, r in zip(trace.restart_values, trace.residuals) if r <= cfg.tol]
    assert np.ptp(stationary) > 1e-3
    assert len(trace.restart_values) == 24
    assert trace.converged


@pytest.mark.parametrize("seed", [8, 9])
def test_ridge_cell_converges_where_the_first_wave_reaches_the_cap(seed):
    # On the isotropic L = 16 ridge the first wave of these seeds runs to the
    # cap; the rule never stops there, and a later wave reaches the optimum.
    C, cfg = isotropic(16), OptimizerConfig(seed=seed)
    first = alternating_fidelity_max(C, 16, OptimizerConfig(restarts=8, seed=seed))
    assert len(first.objective_history) == 2 * cfg.max_iters + 1
    trace = alternating_fidelity_max(C, 16, cfg)
    assert len(trace.restart_values) > 8
    assert trace.converged


def test_best_restart_tie_goes_to_the_smaller_residual():
    # A general_dense deck cell (seed 4242, job 144): one restart stops at
    # residual 8.8e-11, another ends 1e-16 higher but unconverged at 6.0e-9.
    # Within _TIE the value cannot tell them apart, so the residual decides.
    grid = [[0.305984992103955, 0.20774561172502495, 0.20774561172502495],
            [0.05906230596876285, 0.040099793127117346, 0.040099793127117346],
            [0.05906230596876285, 0.040099793127117346, 0.040099793127117346]]
    trace = alternating_fidelity_max(ScatteringFunction(3, grid), 3, OptimizerConfig(seed=312598335))
    values, residuals = np.array(trace.restart_values), np.array(trace.residuals)
    near = values >= values.max() - optimize._TIE
    assert near.sum() > 1
    assert trace.converged
    assert trace.best_value in values[near][residuals[near] == residuals[near].min()]
