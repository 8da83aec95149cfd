"""Tests for the receiver optimizer, alternating maximization and oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import gaussian_profile, top_eigenpairs, unit_vector
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whprecode import cli, optimize
from whprecode.bloch import ScatteringQuad, map_matrix_rep, solve_fidelity
from whprecode.errors import InvalidWeightsError, SingularDenominatorError
from whprecode.heisenberg import shift_operator
from whprecode.linalg import rank_one_projector
from whprecode.optimize import (
    OptimizerConfig,
    alternating_fidelity_max,
    brute_force_bloch_oracle,
    coset_bound,
    general_design,
    optimal_receiver,
    pair_gain,
    structured_lower_bound,
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
    # gain is at most 1, so the bound and the optimizer clip what they return.
    C = ScatteringFunction.concentrated(L, (0, 0))
    assert structured_lower_bound(C).value == 1.0
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


def _full_scoring_oracle(p, n_samples, seed):
    """The random-only oracle with every draw scored, in the oracle's operation order."""
    b = np.diag(map_matrix_rep(p))[1:]
    b2 = b * b

    def scores(rng, m):
        u = rng.random((m, 2))
        z2 = u[:, 0] * u[:, 0]
        c = np.cos(np.pi * u[:, 1])
        c = c * c
        c = (c * (b2[0] - b2[1]) + b2[1]) * (1.0 - z2)
        return c + z2 * b2[2]

    return 0.5 + math.sqrt(min(optimize._sampled_max(scores, n_samples, seed), float(np.max(b2))))


def _dyadic_ties(i, j, holds):
    """Quads k / 256 with p_i = p_j, whose b_k^2 then tie exactly, kept where ``holds(b^2)``."""

    def quad(t, x):
        rest = iter((x, 256 - 2 * t - x))
        return tuple((t if n in (i, j) else next(rest)) / 256 for n in range(4))

    return (
        st.integers(0, 128)
        .flatmap(lambda t: st.tuples(st.just(t), st.integers(0, 256 - 2 * t)))
        .map(lambda tx: quad(*tx))
        .filter(lambda q: holds(np.diag(map_matrix_rep(q))[1:] ** 2))
    )


_PRUNING_QUADS = st.one_of(
    _ORACLE_QUADS,
    st.just((0.5, 0.2, 0.1, 0.2)),
    _dyadic_ties(1, 3, lambda b2: b2[2] == b2[0] > b2[1]),
    _dyadic_ties(2, 3, lambda b2: b2[2] == b2[1] > b2[0]),
    _dyadic_ties(1, 2, lambda b2: b2[0] == b2[1]),
)


def test_cosine_free_bound_is_at_least_the_score_row_by_row():
    # Angles where the bounds on cos^2(pi u) are tight (u = 0, 1/2, 1) or
    # where the computed cosine rounds across them, heights at both ends,
    # and random draws; the unit b^2 rows expose c = cos^2(pi u) and 1 - c
    # themselves, with nothing added to absorb a rounding error.
    k = np.arange(64) * 2.0**-53
    angles = np.concatenate(
        [k, 0.5 - k, 0.5 + k, 1.0 - k[1:], np.linspace(2e-9, 7e-9, 4001), np.random.default_rng(3).random(20_000)]
    )
    heights = np.array([0.0, 2.0**-27, 0.5, 1.0 - 2.0**-53])
    u = np.stack(np.broadcast_arrays(heights[:, None], angles[None, :]), axis=-1).reshape(-1, 2)
    quads = [(0.4, 0.3, 0.2, 0.1), (0.5, 0.2, 0.1, 0.2), (0.3, 0.7, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0)]
    for b2 in [*np.eye(3), *(np.diag(map_matrix_rep(q))[1:] ** 2 for q in quads)]:
        assert np.all(optimize._bloch_bounds(u, b2) >= optimize._bloch_scores(u, b2))


@settings(max_examples=150)
@given(
    _PRUNING_QUADS,
    st.sampled_from([1, optimize._BATCH - 1, optimize._BATCH, optimize._BATCH + 1, 3 * optimize._BATCH + 5]),
    st.integers(0, 2**32 - 1),
)
def test_pruned_oracle_is_full_scoring_bit_for_bit(quad, n_samples, seed):
    # The cosine-free bound only skips draws that cannot win, so the oracle
    # prints what scoring every draw prints, to the last bit; the tied
    # quads are those where a bound on the height alone would be flat.
    value = brute_force_bloch_oracle(quad, n_samples, include_axes=False, seed=seed)
    assert repr(value) == repr(_full_scoring_oracle(quad, n_samples, seed))


@pytest.mark.parametrize(
    "quad, n_samples, seed, expected",
    [
        ((0.4, 0.3, 0.2, 0.1), 40_000, 5, 0.6999908729541053),
        ((0.5, 0.2, 0.1, 0.2), 40_000, 5, 0.6999999999517519),
        ((0.25, 0.25, 0.25, 0.25), 60_000, 3, 0.5),
        ((0.7, 0.1, 0.1, 0.1), 16_385, 11, 0.7999999999999999),
        ((0.3, 0.7, 0.0, 0.0), 10_000, 2**32 - 1, 0.999963412536065),
        ((0.1, 0.45, 0.3, 0.15), 1, 77, 0.7058038773662818),
    ],
)
def test_random_oracle_keeps_its_pinned_values(quad, n_samples, seed, expected):
    # Values printed by the oracle that scored every draw.
    assert repr(brute_force_bloch_oracle(quad, n_samples, include_axes=False, seed=seed)) == repr(expected)


def _unit_vector_oracle(p, n_samples, seed):
    """The oracle with every direction built as an explicit unit vector, a sqrt per sample."""
    b = np.diag(map_matrix_rep(p))[1:]

    def gains(rng, m):
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


def _oracle_squares(m, seed):
    """The oracle's squared coordinates x_k^2 of m directions, one column each.

    The score is linear in (b_1^2, b_2^2, b_3^2), so the oracle's per-draw
    scorer with b_k^2 = 1 and the other two 0 gives x_k^2.
    """
    u = np.random.default_rng(seed).random((m, 2))
    return np.stack([optimize._bloch_scores(u, unit) for unit in np.eye(3)], axis=1)


def test_sampled_directions_have_the_uniform_sphere_moments():
    # On the uniform sphere E x_k^2 = 1/3, E x_k^4 = 1/5 and, for j != k,
    # E x_j^2 x_k^2 = 1/15; each sample mean must sit within 6 standard errors.
    x2 = _oracle_squares(200_000, 28)
    assert np.allclose(x2.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    j, k = np.triu_indices(3, 1)
    for values, exact in ((x2, 1 / 3), (x2 * x2, 1 / 5), (x2[:, j] * x2[:, k], 1 / 15)):
        error = values.std(axis=0) / math.sqrt(values.shape[0])
        assert np.all(np.abs(values.mean(axis=0) - exact) <= 6 * error)


@pytest.mark.parametrize("n_samples", [20, optimize._BATCH + 3])
@pytest.mark.parametrize("draw", ["real", "complex", "uniform"])
def test_sampled_max_does_not_depend_on_the_batch_size(draw, n_samples):
    # numpy's normal and uniform draws are the same however a request is
    # split, so the oracle's rows of two uniforms, in batches of at most
    # _BATCH, see the same samples at every batch size.
    if draw == "real":
        score = lambda rng, m: rng.standard_normal(m)
    elif draw == "complex":
        score = lambda rng, m: _complex_gaussian(rng, (m, 3)).real.max(axis=1)
    else:
        score = lambda rng, m: rng.random((m, 2)) @ np.array([1.0, -2.0])
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
    gram = alternating_fidelity_max(C, L, cfg), structured_lower_bound(C).value
    monkeypatch.setattr(optimize, "_half_step_operands", lambda C: C.diagonal_blocks())
    # A fresh channel: the bound is cached on C.
    C = ScatteringFunction(L, C.weights)
    kernel = alternating_fidelity_max(C, L, cfg), structured_lower_bound(C).value
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

    Restart 0 starts from the pulse of structured_lower_bound and restart
    i >= 1 from child i of the seed.  Each restart runs plain cycles until
    its residual is at most cfg.tol or cfg.max_iters cycles have run; every
    map comes from apply_A and apply_adjoint_A.
    """
    best = -np.inf
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)):
        rng = np.random.default_rng(child)
        gamma = structured_lower_bound(C).pulse if i == 0 else random_unit_vector(rng, C.L)
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
    """Parking off: no twin distance is at most a negative radius.

    _trailing reads the radius when called, so the patch reaches every twin
    test of the run.
    """
    return mock.patch.object(optimize, "_TWIN_STATIONARY", -1.0)


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
    # stationary.  With it, a restart is parked only behind a stationary
    # restart, so the first restart to stop is stationary.
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
    # stationarity residual are those of (gamma, g), and the twin distance
    # of the transmit copies is zero.
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
    dist = optimize._twin_distances(pair[0], copies[:, 0])
    assert np.all(dist <= 1e-14)


@st.composite
def channels_and_transmit_pulses(draw):
    """Dense or sparse (one tap, L - 1 taps) channels at L = 2..8, a unit pulse and a phase."""
    L = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taps = draw(st.sampled_from([L * L, 1, L - 1]))
    gamma = _complex_gaussian(rng, (L,))
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return sparse_scattering(rng, L, taps), gamma / np.linalg.norm(gamma), phase


@settings(max_examples=80)
@given(channels_and_transmit_pulses())
def test_receive_pulse_of_a_shift_copy_is_the_shift_copy_of_the_receive_pulse(case):
    # The twin test measures transmit pulses only, since the receive
    # half-step maps S_nu gamma e^ia to S_nu g up to a phase wherever the
    # top eigenvalue of A(gamma gamma*) is simple.
    C, gamma, phase = case
    L = C.L
    lam = np.linalg.eigvalsh(apply_A(C, rank_one_projector(gamma)))
    if lam[-1] - lam[-2] <= 1e-6:
        return
    ops = [shift_operator(L, (nu % L, nu // L)) for nu in range(L * L)]
    gammas = np.stack([gamma] + [op @ gamma * phase for op in ops])
    _, receivers, *_ = optimize._receive(*optimize._half_step_operands(C), gammas)
    g = receivers[0]
    for op, copy in zip(ops, receivers[1:]):
        assert abs(np.vdot(op @ g, copy)) >= 1 - 1e-9


@st.composite
def trailing_cases(draw):
    """Unit transmit pulses at L = 1..8, values, and the live and stationary restarts.

    Most pulses are perturbed shift copies of an earlier one: perturbations
    up to 0.6 put their twin distances on both sides of _TWIN_STATIONARY.
    Values come from three levels, so ties are exact, and the stationary
    restarts may be none.
    """
    L = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gammas = _complex_gaussian(rng, (n, L))
    gammas /= np.linalg.norm(gammas, axis=1)[:, None]
    for i in range(1, n):
        if rng.random() < 0.7:
            copy = optimize._shifted(gammas[rng.integers(i)][None], rng.integers(0, L * L, 1))[0]
            noise = 0.6 * rng.random() * _complex_gaussian(rng, (L,))
            gammas[i] = copy * np.exp(2j * np.pi * rng.random()) + noise
            gammas[i] /= np.linalg.norm(gammas[i])
    order = rng.permutation(n)
    live = draw(st.integers(1, n))
    return order[:live], order[live:], rng.integers(0, 3, n) / 4.0, gammas


@settings(max_examples=150)
@given(trailing_cases())
def test_trailing_is_the_brute_force_rule(case):
    # A live restart trails when some stationary restart has a value at
    # least its own and a twin distance at most _TWIN_STATIONARY.
    ids, reps, values, gammas = case
    radius = optimize._TWIN_STATIONARY
    for stationary in (reps, reps[:0]):
        expected = [
            any(values[s] >= values[i] and optimize._twin_distances(gammas[i], gammas[s]) <= radius
                for s in stationary)
            for i in ids
        ]
        assert optimize._trailing(ids, stationary, values, gammas).tolist() == expected


@settings(max_examples=30)
@given(optimizer_cases())
@example((ScatteringFunction.uniform(3), 1))
@example((ScatteringFunction.concentrated(1, (0, 0)), 0))
def test_parking_loses_no_gain_and_no_restart_exceeds_the_best(case):
    # A parked restart reports the gain it reached, at most its twin's, so
    # the best is the restart of smallest residual among those within _TIE
    # of the highest gain, as for any run.  On these examples parking loses
    # no best value; on some channels it does, where the wide radius parks
    # a restart that was climbing to a higher optimum (see _TWIN_STATIONARY).
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
    return gaussian_profile(L, width, width)


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
    # cap when only shift copies within 1e-3 were parked; parked at the
    # wide radius around the stationary restarts' transmit pulses, every
    # restart stops long before the cap, and the best one is stationary.
    C, cfg = isotropic(16, width), OptimizerConfig()
    trace = alternating_fidelity_max(C, 16, cfg)
    assert len(trace.objective_history) < 2 * cfg.max_iters + 1
    assert max(trace.restart_values) == trace.best_value
    assert max(trace.residuals) > cfg.tol
    assert trace.converged


def twin_pulses(L, seed):
    """Restarts 0 and 1 are a transmit pulse and its shift copy with another phase; restart 2 is unrelated."""
    rng = np.random.default_rng(seed)
    pulses = _complex_gaussian(rng, (3, L))
    pulses /= np.linalg.norm(pulses, axis=-1)[:, None]
    pulses[1] = 1j * optimize._shifted(pulses[:1], np.array([L + 1]))[0]
    return pulses


def test_restarts_trail_only_twins_with_no_lower_value():
    pulses = twin_pulses(5, 0)
    ids, reps = np.array([0, 2]), np.array([1])
    # Restart 1 is a stationary restart with the larger value: restart 0
    # trails it; restart 2, unrelated, trails nothing.
    trailing = optimize._trailing(ids, reps, np.array([0.5, 0.5 + 1e-9, 0.7]), pulses)
    assert trailing.tolist() == [True, False]
    # With the smaller value it is passed over.
    trailing = optimize._trailing(ids, reps, np.array([0.5 + 1e-9, 0.5, 0.7]), pulses)
    assert trailing.tolist() == [False, False]
    # Restart 1 live with the higher value: no live restart is a twin.
    trailing = optimize._trailing(np.array([0, 1, 2]), reps[:0], np.array([0.5, 0.52, 0.51]), pulses)
    assert trailing.tolist() == [False, False, False]


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
    # A cap of one cycle stops no restart, so every wave runs, each after a
    # capped wave.  Restart 0 starts from the structured bound's pulse and
    # draws nothing; restart i >= 1 draws the start that child i of one
    # spawn(restarts) gives.
    C = random_scattering(np.random.default_rng(6), 5)
    drawn = []

    def record(rng, L):
        drawn.append(random_unit_vector(rng, L))
        return drawn[-1]

    monkeypatch.setattr(optimize, "random_unit_vector", record)
    for restarts in (8, 11, 16, 20, 32):
        drawn.clear()
        cfg = OptimizerConfig(max_iters=1, restarts=restarts, seed=4)
        trace = alternating_fidelity_max(C, 5, cfg)
        children = np.random.SeedSequence(cfg.seed).spawn(restarts)[1:]
        starts = [random_unit_vector(np.random.default_rng(s), 5) for s in children]
        assert len(trace.restart_values) == restarts and len(drawn) == restarts - 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(drawn, starts))


@pytest.mark.parametrize(("L", "seed", "max_iters"), [(3, 14, 2), (3, 4, 5), (4, 3, 5)])
def test_live_restarts_may_trail_every_stationary_restart_after_a_capped_wave(L, seed, max_iters, monkeypatch):
    # Peaked channels with a cycle cap low enough that the first wave ends
    # at the cap with restart 0 stationary: the second wave's restarts may
    # still trail it, as they may trail any stationary restart drawn so far.
    w = np.random.default_rng([L, seed]).random((L, L)) ** 4
    C = ScatteringFunction(L, w / w.sum())
    calls = []

    def record(ids, reps, values, gammas):
        calls.append((ids.copy(), reps.copy()))
        return trailing(ids, reps, values, gammas)

    trailing = optimize._trailing
    monkeypatch.setattr(optimize, "_trailing", record)
    cfg = OptimizerConfig(max_iters=max_iters, restarts=16, seed=seed)
    trace = alternating_fidelity_max(C, L, cfg)
    stationary = {i for i, r in enumerate(trace.residuals) if r <= cfg.tol}
    first_wave = {i for i in stationary if i < 8}
    later = [set(reps.tolist()) for ids, reps in calls if ids.min() >= 8]
    assert later and first_wave
    assert all(set(reps.tolist()) <= stationary for _, reps in calls)
    assert all(first_wave <= reps for reps in later)


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


def test_ridge_cell_converges_after_one_wave_at_every_seed():
    # The isotropic L = 16 ridge.  From random starts alone, the first wave
    # of some seeds ran to the cycle cap: seeds 8 and 9 needed 16 and 24
    # restarts, and seed 4 ended unconverged after 32.  Restart 0 now starts
    # from the structured bound, and every seed stops after one wave, at
    # one value.
    C = isotropic(16)
    traces = [alternating_fidelity_max(C, 16, OptimizerConfig(seed=seed)) for seed in range(10)]
    assert all(len(trace.restart_values) == 8 and trace.converged for trace in traces)
    values = [trace.best_value for trace in traces]
    assert max(values) - min(values) <= 1e-12


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


@settings(max_examples=80)
@given(optimizer_cases())
@example((ScatteringFunction.uniform(4), 0))
def test_structured_bound_reaches_the_coset_pair_and_one_over_L(case):
    # The candidates include K's coset pulse, and no half-step lowers an
    # objective; a trace-one L x L image has a top eigenvalue of at least
    # 1/L.  The value is the pulse's receive objective, from the public map.
    C, _ = case
    bound = structured_lower_bound(C)
    assert bound.value >= pair_gain(C, *coset_bound(C).pair)[0] - 1e-12
    assert 1.0 / C.L - 1e-12 <= bound.value <= 1.0
    top = np.linalg.eigvalsh(apply_A(C, rank_one_projector(bound.pulse)))[-1]
    assert abs(min(1.0, top) - bound.value) <= 1e-12
    assert structured_lower_bound(C).pulse is bound.pulse  # cached on C


@settings(max_examples=40)
@given(optimizer_cases())
@example((ScatteringFunction.uniform(3), 1))
def test_restart_0_starts_at_the_structured_bound(case):
    # Restart 0's first objective is the bound bit for bit (see
    # _map_rank_one), and the best value never falls more than the tie
    # width below it.
    C, seed = case
    value = structured_lower_bound(C).value
    first = alternating_fidelity_max(C, C.L, OptimizerConfig(restarts=1, max_iters=1, seed=seed))
    assert first.objective_history[0] == value
    assert alternating_fidelity_max(C, C.L, OptimizerConfig(seed=seed)).best_value >= value - 1e-14


def deck_cell(L, taps, seed):
    """The origin tap plus ``taps`` other taps at distinct shifts, as in the sparse benchmark deck."""
    rng = np.random.default_rng(seed)
    w = np.zeros(L * L)
    w[0] = rng.uniform(0.3, 1.0)
    w[rng.choice(np.arange(1, L * L), taps, replace=False)] = rng.uniform(0.05, 1.0, taps)
    return ScatteringFunction(L, (w / w.sum()).reshape(L, L))


def test_general_command_renders_general_design_on_deck_cells():
    # The CLI adds nothing to the library call: on every sparse deck cell
    # its document is general_design's result, key for key and in order.
    certified = set()
    for L in range(4, 11):
        for taps in (2, 3, 4):
            C = deck_cell(L, taps, 10 * L + taps)
            cfg = cli.RunConfig(command="general", quad=None, scattering=C, L=L, sigma2=0.1, trials=2,
                                samples=1, seed=L, output_format="json", output_path=None)
            design = general_design(C, OptimizerConfig(seed=L))
            trace = design.trace
            expected = {
                "command": "general", "L": L, "seed": L, "scattering": C.weights.tolist(),
                "lower_bound": design.lower_bound, "upper_bound": design.upper_bound,
                "certified": design.certified,
                "alternating": {
                    "best_value": trace.best_value, "converged": trace.converged,
                    "restarts": len(trace.restart_values), "half_steps": len(trace.objective_history),
                    "restart_values": list(trace.restart_values),
                },
            }
            doc = cli.dispatch(cfg)
            assert list(doc.items()) == list(expected.items())
            assert list(doc["alternating"]) == list(expected["alternating"])
            certified.add(design.certified)
    assert certified == {True, False}


@pytest.mark.parametrize("L", range(4, 11))
@pytest.mark.parametrize("taps", [2, 3, 4])
def test_structured_bound_on_deck_cells(monkeypatch, L, taps):
    # The cells (L, taps) = (4, 3), (4, 4) and (5, 4) take the L x L map,
    # the others the tap Gram matrix.  On either path the
    # bound sits between K's pair gain and the optimizer's best value, is
    # restart 0's first objective, and has the same bits on a fresh channel.
    C = deck_cell(L, taps, 10 * L + taps)
    bound = structured_lower_bound(C)
    assert bound.value >= max(pair_gain(C, *coset_bound(C).pair)[0], 1.0 / L) - 1e-12
    first = alternating_fidelity_max(C, L, OptimizerConfig(restarts=1, max_iters=1, seed=L))
    assert first.objective_history[0] == bound.value
    assert alternating_fidelity_max(C, L, OptimizerConfig(seed=L)).best_value >= bound.value - 1e-14
    again = structured_lower_bound(ScatteringFunction(L, C.weights))
    assert again.value == bound.value and again.pulse.tobytes() == bound.pulse.tobytes()
    monkeypatch.setattr(optimize, "_half_step_operands", lambda C: C.diagonal_blocks())
    kernel = structured_lower_bound(ScatteringFunction(L, C.weights))
    assert abs(kernel.value - bound.value) <= 1e-12


@pytest.mark.parametrize("L", [16, 32, 64])
@pytest.mark.parametrize("widths", [(1, 1), (0.5, 2), (2, 2)])
def test_structured_bound_is_near_the_optimum_on_gaussian_profiles(L, widths):
    # Periodized Gaussians match a Gaussian spread: the bound is within
    # 1e-2 of the optimizer's best value at every size of the dense deck.
    C = gaussian_profile(L, *widths)
    value = structured_lower_bound(C).value
    best = alternating_fidelity_max(C, L, OptimizerConfig()).best_value
    assert value - 1e-14 <= best <= value + 1e-2


@pytest.mark.parametrize("L", range(1, 9))
def test_structured_bound_of_the_uniform_channel_is_one_over_L(L):
    # The uniform channel maps every state to I / L: every pulse pair gains
    # 1/L, the least any channel allows.
    assert abs(structured_lower_bound(ScatteringFunction.uniform(L)).value - 1.0 / L) <= 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_structured_bound_is_the_closed_form_at_L_2(seed):
    # At L = 2, K's coset pair is the closed form's axis, which no pair
    # beats, so the bound is the closed-form fidelity.
    q = random_quad(np.random.default_rng(seed))
    value = structured_lower_bound(ScatteringFunction.from_quad(*q)).value
    assert abs(value - solve_fidelity(q).fidelity) <= 1e-12


@pytest.mark.parametrize("shift", [(a, b) for a in range(4) for b in range(4)])
def test_structured_bound_of_one_shift_is_one(shift):
    # A single time-frequency shift is unitary: the pair (gamma, S gamma)
    # gains 1 for any gamma, and the bound is clipped at 1.
    C = ScatteringFunction.concentrated(4, shift)
    assert structured_lower_bound(C).value == 1.0


@pytest.mark.parametrize("kind", ["dense", "one tap", "L-1 taps", "uniform", "concentrated"])
def test_structured_bound_draws_nothing_at_random(monkeypatch, kind):
    # No generator is built and numpy's global state is left as it was.
    rng = np.random.default_rng(5)
    C = {
        "dense": random_scattering(rng, 5),
        "one tap": sparse_scattering(rng, 5, 1),
        "L-1 taps": sparse_scattering(rng, 5, 4),
        "uniform": ScatteringFunction.uniform(5),
        "concentrated": ScatteringFunction.concentrated(5, (2, 3)),
    }[kind]
    state = np.random.get_state()

    def refuse(*args, **kwargs):
        raise AssertionError("the structured bound drew at random")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    structured_lower_bound(C)
    monkeypatch.undo()
    after = np.random.get_state()
    assert after[0] == state[0] and np.array_equal(after[1], state[1]) and after[2:] == state[2:]


def _receive_loop_bound(C):
    # The structured bound as first written: the optimizer's receive
    # half-step, residuals and all, then _BOUND_CYCLES times an adjoint
    # eigh and another receive half-step.
    d = np.minimum(np.arange(C.L), C.L - np.arange(C.L))
    gaussians = np.exp(-np.pi / C.L * optimize._BOUND_WIDTHS[:, None] * d * d)
    gaussians /= np.linalg.norm(gaussians, axis=1)[:, None]
    gammas = np.concatenate([coset_bound(C).pair[0][None], gaussians])
    forward, adjoint = optimize._half_step_operands(C)
    top, _, _, held, _ = optimize._receive(forward, adjoint, gammas)
    for _ in range(optimize._BOUND_CYCLES):
        gammas = optimize._top_of(*np.linalg.eigh(held.mats), held)[1]
        top, _, _, held, _ = optimize._receive(forward, adjoint, gammas)
    best = np.argmax(top)
    return float(min(1.0, top[best])), gammas[best]


def assert_bound_is_the_receive_loop(C):
    value, pulse = _receive_loop_bound(ScatteringFunction(C.L, C.weights))
    bound = structured_lower_bound(C)
    assert bound.value == value and bound.pulse.tobytes() == pulse.tobytes()


# The sparse deck cells (the tap Gram path, and the L x L map at (4, 3),
# (4, 4) and (5, 4)), the dense deck's six shapes at L = 3..6, and the
# uniform and one-shift channels.
_DENSE_SHAPES = [(0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (1.5, 0.7), (0.8, 1.6), (2.0, 2.0)]
_BOUND_CHANNELS = (
    [pytest.param(deck_cell(L, k, 10 * L + k), id=f"deck-{L}-{k}") for L in range(4, 11) for k in (2, 3, 4)]
    + [pytest.param(gaussian_profile(L, *w), id=f"dense-{L}-{w}") for L in range(3, 7) for w in _DENSE_SHAPES]
    + [pytest.param(ScatteringFunction.uniform(L), id=f"uniform-{L}") for L in range(1, 7)]
    + [pytest.param(ScatteringFunction.concentrated(5, (2, 3)), id="concentrated")]
)


@pytest.mark.parametrize("C", _BOUND_CHANNELS)
def test_structured_bound_equals_the_receive_loop_on_fixed_channels(C):
    assert_bound_is_the_receive_loop(C)


@settings(max_examples=40, deadline=None)
@given(optimizer_cases())
def test_structured_bound_equals_the_receive_loop(case):
    assert_bound_is_the_receive_loop(case[0])


def test_coset_bound_is_cached_on_the_channel_with_a_read_only_pair(monkeypatch):
    C = deck_cell(6, 3, 63)
    bound = coset_bound(C)
    assert coset_bound(C) is bound
    for v in bound.pair:
        with pytest.raises(ValueError):
            v[0] = 1.0
    # The structured bound builds the pair that a later call returns.
    fresh = ScatteringFunction(C.L, C.weights)
    structured_lower_bound(fresh)

    def refuse(*args, **kwargs):
        raise AssertionError("coset_bound built its pair again")

    monkeypatch.setattr(optimize, "_shifted", refuse)
    again = coset_bound(fresh)
    assert again is coset_bound(fresh)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again.pair, bound.pair))
