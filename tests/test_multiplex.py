"""Tests for crosstalk relations, frame bounds and scheme selection."""

import json
import math

import numpy as np
import pytest
from conftest import unit_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from whprecode.bloch import optimal_precoder_vector, solve_fidelity
from whprecode.cli import main
from whprecode.errors import InvalidSchemeError, NotUnitNormError, WHPrecodeError
from whprecode.heisenberg import PAULI_SHIFTS, shift_operator
from whprecode.linalg import rank_one_projector
from whprecode import multiplex
from whprecode.multiplex import Scheme, crosstalk, frame_bounds, select_schemes
from whprecode.wssus import (
    ScatteringFunction,
    apply_A,
    apply_interference,
    channel_fidelity,
    sinr,
)

NONZERO_SHIFTS = PAULI_SHIFTS[1:]  # (1,0), (1,1), (0,1) in Pauli order 1..3


def test_scheme_validation():
    with pytest.raises(InvalidSchemeError):
        Scheme(2, (((1, 0)),))  # origin missing
    with pytest.raises(InvalidSchemeError):
        Scheme(2, ((0, 0), (1, 0), (3, 2)))  # (3,2) == (1,0) mod 2
    s = Scheme(2, ((0, 0), (3, 2)))
    assert s.shifts == ((0, 0), (1, 0))
    assert s.nonzero_shifts == ((1, 0),)
    assert len(s) == 2 and list(s) == [(0, 0), (1, 0)]


def test_crosstalk_delta_relations():
    assert abs(crosstalk(optimal_precoder_vector(1), (0, 1))) <= 1e-15
    assert abs(crosstalk(optimal_precoder_vector(3), (1, 0))) <= 1e-15
    value = crosstalk(optimal_precoder_vector(2), (1, 1))
    assert abs(value - 1j) <= 1e-15  # carries the phase i, magnitude one


def test_crosstalk_delta_table_is_identity_pattern():
    # |<x(n), S_mu x(n)>| over the three pulses and three nonzero shifts.
    table = np.array(
        [
            [abs(crosstalk(optimal_precoder_vector(n), mu)) for mu in NONZERO_SHIFTS]
            for n in (1, 2, 3)
        ]
    )
    np.testing.assert_allclose(table, np.eye(3), atol=1e-12)


def test_crosstalk_is_bounded_and_needs_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = unit_vector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        mu = (int(rng.integers(4)), int(rng.integers(4)))
        assert abs(crosstalk(x, mu)) <= 1.0 + 1e-12
    with pytest.raises(NotUnitNormError):
        crosstalk([1.0, 1.0], (0, 1))


def test_frame_bounds_standard_basis():
    assert frame_bounds([np.array([1, 0]), np.array([0, 1])]) == (1.0, 1.0)


def test_frame_bounds_shifted_flat_pulse_is_onb():
    x1 = optimal_precoder_vector(1)
    pair = [x1, shift_operator(2, (0, 1)) @ x1]
    lo, hi = frame_bounds(pair)
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12


def test_frame_bounds_colliding_pair():
    # Frequency-shifting the time-localized pulse reproduces it up to sign:
    # the family {(0,1), (0,-1)} has a degenerate frame.
    x3 = optimal_precoder_vector(3)
    pair = [x3, shift_operator(2, (0, 1)) @ x3]
    lo, hi = frame_bounds(pair)
    assert abs(lo - 0.0) <= 1e-12 and abs(hi - 2.0) <= 1e-12


@pytest.mark.parametrize("vectors", [[[math.nan, 0]], [[math.inf, 0], [0, 1]]])
def test_frame_bounds_rejects_non_finite_entries(vectors):
    with pytest.raises(WHPrecodeError, match="NaN or infinite"):
        frame_bounds(vectors)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, [(0, 1), (1, 1)]),
        (2, [(0, 1), (1, 0)]),
        (3, [(1, 0), (1, 1)]),
    ],
)
def test_select_schemes(n, expected):
    schemes = select_schemes(n)
    assert [s.nonzero_shifts[0] for s in schemes] == expected
    with pytest.raises(ValueError):
        select_schemes(0)


def test_select_schemes_returns_a_fresh_list_each_call():
    first = select_schemes(1)
    expected = list(first)
    first.append(Scheme(2, ((0, 0), (1, 0))))
    first.reverse()
    second = select_schemes(1)
    assert second == expected
    assert second is not first
    assert select_schemes(np.int64(1)) == expected


@pytest.mark.parametrize("bad", [0, 4, 1.0, 2.0, np.float64(3.0), True, "1", None])
def test_select_schemes_rejects_non_axis_whatever_is_cached(bad):
    multiplex._coset_schemes.cache_clear()
    with pytest.raises(ValueError, match="axis index"):
        select_schemes(bad)
    for n in (1, 2, 3):
        select_schemes(n)
    with pytest.raises(ValueError, match="axis index"):
        select_schemes(bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_selected_schemes_form_orthonormal_bases(n):
    x = optimal_precoder_vector(n)
    for scheme in select_schemes(n):
        (mu,) = scheme.nonzero_shifts
        family = [x, shift_operator(2, mu) @ x]
        lo, hi = frame_bounds(family)
        assert abs(lo - 1.0) <= 1e-10 and abs(hi - 1.0) <= 1e-10


def test_two_stream_sinr_worked_example():
    # Optimal pair for axis 1 under (0.4, 0.3, 0.2, 0.1): gain 0.7 and the
    # frequency-shift interferer contributes Tr(S A(Gamma) S* G) = 0.3.
    q = (0.4, 0.3, 0.2, 0.1)
    sol = solve_fidelity(q)
    C = ScatteringFunction.from_quad(*q)
    Gamma = rank_one_projector(sol.precoder)
    G = rank_one_projector(sol.equalizer)
    S = shift_operator(2, (0, 1))
    interf = np.trace(S @ apply_A(C, Gamma) @ S.conj().T @ G).real
    expected = 0.7 / (0.1 + interf)
    got = sinr(C, Gamma, G, Scheme(2, ((0, 0), (0, 1))), sigma2=0.1)
    assert abs(got - expected) <= 1e-12
    assert abs(interf - 0.3) <= 1e-12


def test_two_stream_sinr_orthogonal_streams_identity_channel():
    C = ScatteringFunction.concentrated(2, (0, 0))
    P = rank_one_projector(optimal_precoder_vector(1))
    value = sinr(C, P, P, Scheme(2, ((0, 0), (0, 1))), sigma2=1.0)
    assert abs(value - 1.0) <= 1e-12
    # And noiseless orthogonal streams are interference free.
    assert sinr(C, P, P, Scheme(2, ((0, 0), (0, 1))), sigma2=0.0) == math.inf


def test_two_stream_sinr_equal_for_both_streams():
    # Stream 2 lives on the shifted pulses; conjugating both operators by
    # the scheme shift moves the computation into its frame.
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.random(4)
        w /= w.sum()
        C = ScatteringFunction.from_quad(*w)
        gamma = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        Gamma, G = rank_one_projector(gamma), rank_one_projector(g)
        for mu in NONZERO_SHIFTS:
            scheme = Scheme(2, ((0, 0), mu))
            S = shift_operator(2, mu)
            first = sinr(C, Gamma, G, scheme, sigma2=0.2)
            second = sinr(
                C, S @ Gamma @ S.conj().T, S @ G @ S.conj().T, scheme, sigma2=0.2
            )
            assert abs(first - second) <= 1e-12 * max(1.0, abs(first))


def test_two_stream_sinr_matches_single_stream_formula():
    # The two-slot SINR is Tr(A(Gamma) G) / (sigma2 + Tr(S_mu A(Gamma) S_mu* G)).
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.random(4)
        w /= w.sum()
        C = ScatteringFunction.from_quad(*w)
        gamma = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        Gamma, G = rank_one_projector(gamma), rank_one_projector(g)
        scheme = Scheme(2, ((0, 0), (1, 0)))
        S = shift_operator(2, (1, 0))
        mean_out = apply_A(C, Gamma)
        expected = np.trace(mean_out @ G).real / (
            0.3 + np.trace(S @ mean_out @ S.conj().T @ G).real
        )
        assert abs(sinr(C, Gamma, G, scheme, sigma2=0.3) - expected) <= 1e-12


def test_optimal_pair_beats_random_precoders_when_interference_free():
    # Single-dispersive quads leave the selected scheme interference free;
    # there the solved pair is SINR optimal among random unit precoders.
    rng = np.random.default_rng(3)
    planted = [
        (0.5, 0.5, 0.0, 0.0),
        (0.3, 0.7, 0.0, 0.0),
        (0.25, 0.0, 0.75, 0.0),
        (0.6, 0.0, 0.0, 0.4),
        (0.9, 0.0, 0.1, 0.0),
    ]
    for quad in planted:
        sol = solve_fidelity(quad)
        C = ScatteringFunction.from_quad(*quad)
        Gamma = rank_one_projector(sol.precoder)
        G = rank_one_projector(sol.equalizer)
        scheme = select_schemes(sol.n_star)[0]
        (mu,) = scheme.nonzero_shifts
        S = shift_operator(2, mu)
        interf = np.trace(S @ apply_A(C, Gamma) @ S.conj().T @ G).real
        assert abs(interf) <= 1e-12
        reference = sinr(C, Gamma, G, scheme, sigma2=0.1)
        for _ in range(100):
            v = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            P = rank_one_projector(v)
            assert sinr(C, P, G, scheme, sigma2=0.1) <= reference + 1e-10


def test_simulate_takes_the_lexicographically_first_scheme(capsys):
    # Both candidate shifts leak 0.3 for this quad; simulate uses the smaller.
    assert main(["simulate", "--p", "0.4,0.3,0.2,0.1", "--trials", "100", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["scheme"] == [[0, 0], [0, 1]]


def _quad(w, zeros, digits):
    # Entries in zeros set to 0, the rest rounded to digits (ties), then normalized.
    w = [0.0 if i in zeros else v if digits is None else round(v, digits) for i, v in enumerate(w)]
    total = sum(w)
    return [v / total for v in w] if total > 0.0 else [1.0, 0.0, 0.0, 0.0]


_QUADS = st.one_of(
    st.just([0.25] * 4),
    st.builds(_quad, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
              st.sets(st.integers(0, 3), max_size=3), st.sampled_from([None, 1, 2])),
).filter(lambda p: abs(sum(p) - 1.0) <= 1e-10)


@settings(max_examples=300)
@given(p=_QUADS)
def test_both_schemes_leak_one_minus_the_fidelity(p):
    # The reason simulate needs no comparison between the two schemes.
    sol = solve_fidelity(p)
    C = ScatteringFunction.from_quad(*p)
    Gamma, G = rank_one_projector(sol.precoder), rank_one_projector(sol.equalizer)
    fidelity = channel_fidelity(C, Gamma, G)
    levels = [np.trace(apply_interference(C, Gamma, s) @ G).real for s in select_schemes(sol.n_star)]
    assert abs(levels[0] - levels[1]) <= 1e-15
    for level in levels:
        assert abs(fidelity + level - 1.0) <= 1e-15
