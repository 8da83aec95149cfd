"""Tests for the spreading eigenvalues, the upper bound U and the coset bound K."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whprecode import optimize
from whprecode.bloch import map_matrix_rep, solve_fidelity
from whprecode.errors import DimensionMismatchError, WHPrecodeError
from whprecode.heisenberg import PAULI_SHIFTS, _lagrangian_lines, shift_operator
from whprecode.optimize import (
    OptimizerConfig,
    alternating_fidelity_max,
    coset_bound,
    fidelity_upper_bound,
    pair_gain,
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
