"""Tests for the spreading eigenvalues, the upper bound U, the coset bound K and the PPT certificate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import explicit_partial_transpose, gaussian_profile, unit_vector

from whprecode import optimize
from whprecode.bloch import map_matrix_rep, solve_fidelity
from whprecode.errors import DimensionMismatchError, WHPrecodeError
from whprecode.heisenberg import PAULI_SHIFTS, _lagrangian_lines, shift_operator
from whprecode.optimize import (
    OptimizerConfig,
    alternating_fidelity_max,
    coset_bound,
    fidelity_upper_bound,
    general_design,
    pair_gain,
    ppt_bound,
    ppt_certificate,
)
from whprecode.wssus import ScatteringFunction, apply_A, spreading_eigenvalues


@st.composite
def channels(draw, largest=8):
    """Dense or sparse random channels at L = 1..largest."""
    L = draw(st.integers(1, largest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random(L * L) ** draw(st.sampled_from([1, 4]))
    taps = draw(st.sampled_from([L * L, 1, 2, max(1, L - 1)]))
    w[rng.permutation(L * L)[taps:]] = 0.0
    if not w.sum() > 0.0:
        w[0] = 1.0
    return ScatteringFunction(L, (w / w.sum()).reshape(L, L))


def _psi(L):
    """Dedekind's psi: the number of cyclic subgroups of order L in Z_L x Z_L."""
    count, rest = L, L
    for p in range(2, L + 1):
        if rest % p == 0:
            count = count * (p + 1) // p
            while rest % p == 0:
                rest //= p
    return count


def _brute_coset_bound(C):
    """K from every element of order L: the subgroup it generates and that subgroup's cosets."""
    L = C.L
    best = -math.inf
    for g1 in range(L):
        for g2 in range(L):
            if math.gcd(math.gcd(g1, g2), L) != 1:
                continue
            line = {(k * g1 % L, k * g2 % L) for k in range(L)}
            for nu1 in range(L):
                for nu2 in range(L):
                    best = max(best, sum(C.weights[(nu1 + a) % L, (nu2 + b) % L] for a, b in line))
    return best


@settings(max_examples=120)
@given(channels())
@example(ScatteringFunction.uniform(4))
@example(ScatteringFunction.concentrated(3, (1, 2)))
def test_spreading_eigenvalues_are_the_map_on_each_shift(C):
    L = C.L
    lam = spreading_eigenvalues(C)
    for nu1 in range(L):
        for nu2 in range(L):
            S = shift_operator(L, (nu1, nu2))
            image = apply_A(C, S)
            # Row 0 of S_nu holds 1 in column -nu1.
            read = image[0, -nu1 % L]
            if L <= 2:
                assert read == lam[nu1, nu2]
            else:
                assert abs(read - lam[nu1, nu2]) <= 1e-14
            assert np.max(np.abs(image - lam[nu1, nu2] * S)) <= 1e-14


def test_spreading_eigenvalues_are_cached_and_read_only():
    C = ScatteringFunction(3, np.arange(9.0).reshape(3, 3) / 36.0)
    lam = spreading_eigenvalues(C)
    assert spreading_eigenvalues(C) is lam
    assert not lam.flags.writeable
    assert abs(lam[0, 0] - 1.0) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(channels(), st.integers(0, 2**32 - 1))
@example(ScatteringFunction.uniform(5), 0)
def test_alternating_never_exceeds_the_upper_bound(C, seed):
    trace = alternating_fidelity_max(C, C.L, OptimizerConfig(max_iters=60, restarts=4, seed=seed))
    assert trace.best_value <= fidelity_upper_bound(C) + 1e-12


@settings(max_examples=150)
@given(channels())
@example(ScatteringFunction.concentrated(1, (0, 0)))
@example(ScatteringFunction.uniform(6))
def test_coset_pair_gains_the_coset_bound(C):
    bound = coset_bound(C)
    gamma, g = bound.pair
    assert abs(np.linalg.norm(gamma) - 1.0) <= 1e-15
    assert np.max(np.abs(g - shift_operator(C.L, bound.coset) @ gamma)) <= 1e-15
    value, residual = pair_gain(C, gamma, g)
    assert abs(value - bound.value) <= 1e-12
    assert bound.value <= fidelity_upper_bound(C) + 1e-12
    # The gain formula over the taps, from the operators themselves.
    direct = sum(C.weights[mu] * abs(np.vdot(g, shift_operator(C.L, mu) @ gamma)) ** 2
                 for mu in np.ndindex(C.L, C.L))
    assert abs(value - direct) <= 1e-12
    if value >= fidelity_upper_bound(C) - optimize.CERTIFY_TOL:
        # An optimal pair is stationary.
        assert residual <= 1e-12


@settings(max_examples=60)
@given(channels(largest=6))
def test_coset_bound_is_the_largest_coset_weight(C):
    assert abs(coset_bound(C).value - _brute_coset_bound(C)) <= 1e-15


@pytest.mark.parametrize("L", range(1, 13))
def test_lagrangian_lines_partition_the_grid_into_commuting_cosets(L):
    lines, cosets = _lagrangian_lines(L)
    assert len(lines) == _psi(L) and cosets.shape == (len(lines), L, L)
    assert not lines.flags.writeable and not cosets.flags.writeable
    for (a, b), table in zip(lines, cosets):
        assert math.gcd(math.gcd(int(a), int(b)), L) == 1
        assert sorted(table.ravel().tolist()) == list(range(L * L))
        # Row t is the coset of t h: the line shifted, in the order k g.
        assert table[0].tolist() == [(k * a % L) * L + k * b % L for k in range(L)]
        shifts = [divmod(int(f), L) for f in table[0]]
        ops = [shift_operator(L, mu) for mu in shifts]
        assert all(np.allclose(x @ ops[-1], ops[-1] @ x) for x in ops)
    assert len({frozenset(table[0].tolist()) for table in cosets}) == len(lines)


def test_lines_at_L2_are_the_pauli_axes_in_order():
    lines, _ = _lagrangian_lines(2)
    assert [tuple(g) for g in lines] == list(PAULI_SHIFTS[1:])


def _l2_quads(rng):
    """The L = 2 quad kinds: Dirichlet, concentrated, uniform, tied and degenerate."""
    quads = [list(rng.dirichlet([alpha] * 4)) for alpha in (0.3, 1.0, 3.0) for _ in range(8)]
    for i in range(4):
        quads.append([1.0 if j == i else 0.0 for j in range(4)])
    quads.append([0.25] * 4)
    for _ in range(8):
        a = float(rng.uniform(0.05, 0.3))
        p0 = float(rng.uniform(0.1, 1.0 - 2 * a - 0.05))
        p = [p0, a, a, 1.0 - p0 - 2 * a]
        quads.append([p[i] for i in [0, *rng.permutation([1, 2, 3])]])
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        a = float(rng.uniform(0.05, 0.95))
        p = [0.0] * 4
        p[i], p[j] = a, 1.0 - a
        quads.append(p)
    return quads


@pytest.mark.parametrize("quad", _l2_quads(np.random.default_rng(23)))
def test_bounds_at_L2_are_the_closed_form(quad):
    C = ScatteringFunction.from_quad(*quad)
    solution = solve_fidelity(quad)
    upper, bound = fidelity_upper_bound(C), coset_bound(C)
    assert abs(upper - solution.fidelity) <= 1e-15
    assert abs(bound.value - solution.fidelity) <= 1e-15
    assert bound.line == PAULI_SHIFTS[solution.n_star]
    if abs(2.0 * (quad[0] + quad[solution.n_star]) - 1.0) > 1e-12:
        # The line itself when the axis gain is positive, the other coset when negative.
        assert (bound.coset == (0, 0)) == (solution.sign > 0)
    lam = spreading_eigenvalues(C)
    pauli_lam = [lam[mu] for mu in PAULI_SHIFTS[1:]]
    assert np.max(np.abs(2.0 * np.diag(map_matrix_rep(quad))[1:] - pauli_lam)) <= 1e-15


@pytest.mark.parametrize("L", [1, 2, 3, 6])
def test_concentrated_and_uniform_channels_are_certified(L):
    for C, expected in ((ScatteringFunction.concentrated(L, (L - 1, 1)), 1.0),
                        (ScatteringFunction.uniform(L), 1.0 / L)):
        upper = fidelity_upper_bound(C)
        value, residual = pair_gain(C, *coset_bound(C).pair)
        assert abs(upper - expected) <= 1e-15
        assert value >= upper - optimize.CERTIFY_TOL and residual <= 1e-12


def test_pair_gain_checks_its_pulses():
    C = ScatteringFunction.uniform(3)
    unit = np.ones(3) / math.sqrt(3.0)
    with pytest.raises(DimensionMismatchError):
        pair_gain(C, unit, np.ones(2) / math.sqrt(2.0))
    with pytest.raises(DimensionMismatchError):
        pair_gain(C, np.eye(3) / math.sqrt(3.0), unit)
    with pytest.raises(WHPrecodeError):
        pair_gain(C, unit, 2.0 * unit)


def _blocks(r):
    """Every block ``G_s(r)[k, i] = rhat_(k + i - s)(k - i)``, s in Z_L, from the definition."""
    L = r.shape[0]
    w = np.exp(2j * np.pi / L)
    rhat = np.array([[sum(r[a, b] * w ** (b * t) for b in range(L)) for t in range(L)] for a in range(L)])
    k = np.arange(L)
    return [rhat[(k[:, None] + k - s) % L, (k[:, None] - k) % L] for s in range(L)]


def _library_blocks(r):
    """The blocks the certificate works with: s = 0, and s = 1 at even L."""
    L = r.shape[0]
    D = optimize._ppt_tables(L)[0]
    return (r.ravel() @ D).reshape(-1, L, L)


def _pair_grid(L, rng):
    """``r_mu = |<g, S_mu gamma>|^2 / L`` of a random unit pulse pair."""
    gamma, g = (unit_vector(rng.standard_normal(L) + 1j * rng.standard_normal(L)) for _ in range(2))
    return np.array([[abs(np.vdot(g, shift_operator(L, (a, b)) @ gamma)) ** 2 / L for b in range(L)]
                     for a in range(L)])


def _grid(L, taps):
    w = np.zeros((L, L))
    for mu, v in taps.items():
        w[mu] = v
    return ScatteringFunction(L, w / w.sum())


@settings(max_examples=60)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_reduced_blocks_carry_the_spectrum_of_the_partial_transpose(L, seed):
    r = np.random.default_rng(seed).random((L, L))
    r /= r.sum()
    blocks = _blocks(r)
    spectra = [np.linalg.eigvalsh(B) for B in blocks]
    explicit = np.linalg.eigvalsh(explicit_partial_transpose(r))
    assert np.max(np.abs(np.sort(np.concatenate(spectra)) / L - explicit)) <= 1e-14
    # The blocks of one parity share a spectrum.
    for s in range(L):
        assert np.max(np.abs(spectra[s] - spectra[(s + 2) % L])) <= 1e-13
    library = _library_blocks(r)
    assert len(library) == 2 - L % 2
    assert np.max(np.abs(library - np.array(blocks[: len(library)]))) <= 1e-14


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_pulse_pairs_give_positive_semidefinite_blocks(L, seed):
    r = _pair_grid(L, np.random.default_rng(seed))
    assert abs(r.sum() - 1.0) <= 1e-13
    assert np.linalg.eigvalsh(_library_blocks(r)).min() >= -1e-12


@settings(max_examples=40, deadline=None)
@given(channels(largest=6).filter(lambda C: C.L >= 2), st.integers(0, 2**32 - 1))
def test_every_dual_bounds_the_alternating_optimum(C, seed):
    rng = np.random.default_rng(seed)
    blocks = 2 - C.L % 2
    W = rng.standard_normal((blocks, C.L, 3)) + 1j * rng.standard_normal((blocks, C.L, 3))
    W *= rng.choice([1e-3, 0.1, 1.0])
    trace = alternating_fidelity_max(C, C.L, OptimizerConfig(max_iters=60, restarts=4, seed=seed))
    bound = ppt_bound(C, W)
    assert bound >= trace.best_value - 1e-12
    # The zero dual gives L max C, and the checker agrees with the dense constraint stack.
    assert ppt_bound(C, np.zeros((blocks, C.L, 1))) == C.L * C.weights.max()
    D = optimize._ppt_tables(C.L)[0]
    dense = C.L * C.weights.ravel() + (D @ (W @ W.conj().swapaxes(-1, -2)).ravel().conj()).real
    assert abs(bound - dense.max()) <= 1e-12 * max(1.0, abs(bound))


@settings(max_examples=30)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_schur_matrix_is_the_trace_form(L, seed):
    rng = np.random.default_rng(seed)
    blocks = 2 - L % 2
    Y, P = (A @ A.conj().swapaxes(-1, -2) for A in
            (rng.standard_normal((2, blocks, L, L)) + 1j * rng.standard_normal((2, blocks, L, L))))
    D = optimize._ppt_tables(L)[0].reshape(L * L, blocks, L, L)
    direct = np.einsum("msij,sjk,nskl,sli->mn", D, Y, D, P).real
    assert np.max(np.abs(optimize._ppt_schur(Y, P) - direct)) <= 1e-12 * max(1.0, np.abs(direct).max())


@pytest.mark.parametrize("quad", _l2_quads(np.random.default_rng(24)))
def test_certificate_at_L2_is_the_closed_form(quad):
    C = ScatteringFunction.from_quad(*quad)
    closed = solve_fidelity(quad).fidelity
    W = ppt_certificate(C, closed)
    assert W is not None
    assert abs(ppt_bound(C, W) - closed) <= 1e-9


def test_certificate_reaches_the_coset_pair_on_an_L7_grid():
    C = _grid(7, {(0, 0): 0.315, (0, 2): 0.202, (1, 2): 0.483})
    value, _ = pair_gain(C, *coset_bound(C).pair)
    assert abs(value - 0.798) <= 1e-12
    # U is far above: only the PPT dual certifies.
    assert fidelity_upper_bound(C) > value + 0.1
    W = ppt_certificate(C, value)
    assert W is not None and W.shape[:2] == (1, 7)
    assert 0.0 <= ppt_bound(C, W) - value <= 1e-14


def test_certificate_uses_every_tied_coset_on_an_L6_grid():
    # The origin and the tap (2, 0) lie on one coset of three lines, so
    # three cosets reach K = 0.869; a face built from one of them stalls.
    C = _grid(6, {(0, 0): 0.437, (1, 5): 0.131, (2, 0): 0.432})
    sums = optimize._coset_sums(C)
    assert np.count_nonzero(sums >= sums.max() - optimize.CERTIFY_TOL) == 3
    assert not sums.flags.writeable and optimize._coset_sums(C) is sums
    value, _ = pair_gain(C, *coset_bound(C).pair)
    assert abs(value - 0.869) <= 1e-12 and fidelity_upper_bound(C) > value + 0.05
    W = ppt_certificate(C, value)
    assert W is not None and W.shape[:2] == (2, 6)
    assert 0.0 <= ppt_bound(C, W) - value <= 1e-14


def test_a_solver_breakdown_certifies_nothing(monkeypatch):
    C = _grid(7, {(0, 0): 0.315, (0, 2): 0.202, (1, 2): 0.483})

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert ppt_certificate(C, 0.798) is None


def test_certificate_fails_where_the_relaxation_is_loose():
    # K = 0.776 lies below the relaxation's optimum, 0.778272.
    C = _grid(4, {(0, 0): 0.365, (2, 1): 0.125, (3, 0): 0.099, (3, 3): 0.411})
    value, _ = pair_gain(C, *coset_bound(C).pair)
    assert abs(value - 0.776) <= 1e-12
    assert ppt_certificate(C, value) is None
    assert ppt_certificate(C, value + 0.01) is None


def test_ppt_bound_checks_its_factors():
    C = ScatteringFunction.uniform(4)
    with pytest.raises(DimensionMismatchError):
        ppt_bound(C, np.zeros((1, 4, 2)))
    with pytest.raises(DimensionMismatchError):
        ppt_bound(C, np.zeros((2, 3, 2)))
    with pytest.raises(WHPrecodeError):
        ppt_bound(C, np.full((2, 4, 1), np.nan))
    with pytest.raises(WHPrecodeError):
        ppt_certificate(C, math.nan)


def test_general_design_certified_by_U_returns_the_coset_pair():
    # The elongated L = 4 Gaussian: the coset pair's gain reaches U.
    C = gaussian_profile(4, 0.5, 1.0)
    design = general_design(C, OptimizerConfig())
    trace = design.trace
    assert design.certified and design.upper_bound == fidelity_upper_bound(C)
    assert trace.objective_history == trace.restart_values == trace.residuals == ()
    assert trace.converged and trace.best_value >= design.upper_bound - 1e-12
    cached = coset_bound(C).pair
    for copy, pulse in zip(trace.best_pair, cached):
        assert copy.tobytes() == pulse.tobytes() and copy is not pulse
        assert copy.flags.writeable and not pulse.flags.writeable


def test_general_design_certified_by_the_ppt_dual():
    C = _grid(7, {(0, 0): 0.315, (0, 2): 0.202, (1, 2): 0.483})
    design = general_design(C, OptimizerConfig())
    assert design.certified and design.trace.restart_values == ()
    assert 0.0 <= design.upper_bound - design.trace.best_value <= 1e-14


@pytest.mark.parametrize("C", [
    # The relaxation is loose: the dual fails.
    _grid(4, {(0, 0): 0.365, (2, 1): 0.125, (3, 0): 0.099, (3, 3): 0.411}),
    # The structured bound beats the pair: no dual is sought.
    gaussian_profile(4, 1.0, 1.0),
], ids=["dual-fails", "bound-beats-pair"])
def test_general_design_uncertified_returns_the_optimizer_trace(C):
    cfg = OptimizerConfig(seed=3)
    design = general_design(C, cfg)
    trace = alternating_fidelity_max(C, C.L, cfg)
    assert not design.certified and design.upper_bound == fidelity_upper_bound(C)
    assert design.trace.best_value == trace.best_value
    assert design.trace.restart_values == trace.restart_values
    assert design.trace.objective_history == trace.objective_history


@settings(max_examples=40, deadline=None)
@given(channels(largest=6), st.integers(0, 2**32 - 1))
def test_general_design_bounds_hold_its_best_value(C, seed):
    design = general_design(C, OptimizerConfig(seed=seed))
    best = design.trace.best_value
    assert best <= design.upper_bound + 1e-12
    assert design.lower_bound <= best + 1e-12
    if design.certified:
        assert best >= design.upper_bound - 1e-12
