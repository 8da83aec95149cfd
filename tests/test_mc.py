"""Tests for the Monte Carlo estimation harness."""

import numpy as np
import pytest

from whprecode.bloch import optimal_precoder_vector, solve_fidelity, worst_case_fidelity
from whprecode.errors import InvalidWeightsError
from whprecode.heisenberg import shift_operator
from whprecode.linalg import rank_one_projector, unit_vector
from whprecode.mc import estimate_expectations, sweep_p0
from whprecode.multiplex import Scheme, best_scheme
from whprecode.wssus import ScatteringFunction, apply_A


def test_requires_two_trials_and_unit_pulses():
    C = ScatteringFunction.uniform(2)
    x = optimal_precoder_vector(1)
    with pytest.raises(InvalidWeightsError):
        estimate_expectations(C, x, x, [(0, 0)], sigma2=0.1, trials=1, seed=0)
    with pytest.raises(Exception):
        estimate_expectations(C, [1.0, 1.0], x, [(0, 0)], sigma2=0.1, trials=10, seed=0)


def test_flat_channel_gain_concentrates_at_one():
    C = ScatteringFunction.concentrated(2, (0, 0))
    gamma = unit_vector([1.0, 1.0j])
    report = estimate_expectations(
        C, gamma, gamma, [(0, 0)], sigma2=0.1, trials=100_000, seed=0
    )
    assert report.analytic_gain == pytest.approx(1.0, abs=1e-12)
    assert abs(report.mean_gain - 1.0) <= 4.0 * report.stderr_gain
    assert report.mean_interf == 0.0
    assert report.stderr_interf == 0.0


def test_zero_weight_taps_never_contribute():
    # Identity-only channel with an interferer slot orthogonal to the pulse:
    # every trial's interference is exactly zero.
    C = ScatteringFunction.from_quad(1.0, 0.0, 0.0, 0.0)
    x = optimal_precoder_vector(1)
    report = estimate_expectations(
        C, x, x, [(0, 0), (0, 1)], sigma2=0.1, trials=1000, seed=3
    )
    assert report.mean_interf == 0.0
    assert report.analytic_interf == pytest.approx(0.0, abs=1e-15)


def test_worked_example_matches_closed_form_within_band():
    q = (0.4, 0.3, 0.2, 0.1)
    sol = solve_fidelity(q)
    C = ScatteringFunction.from_quad(*q)
    scheme = best_scheme(
        C, rank_one_projector(sol.precoder), rank_one_projector(sol.equalizer), sol.n_star
    )
    report = estimate_expectations(
        C, sol.precoder, sol.equalizer, scheme, sigma2=0.1, trials=200_000, seed=1
    )
    assert report.analytic_gain == pytest.approx(0.7, abs=1e-12)
    assert abs(report.mean_gain - 0.7) <= 4.0 * report.stderr_gain
    assert abs(report.mean_interf - report.analytic_interf) <= 4.0 * report.stderr_interf
    assert report.sinr_analytic == pytest.approx(
        report.analytic_gain / (0.1 + report.analytic_interf)
    )


def test_deterministic_given_seed():
    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    x = optimal_precoder_vector(1)
    a = estimate_expectations(C, x, x, [(0, 0), (0, 1)], sigma2=0.1, trials=5000, seed=42)
    b = estimate_expectations(C, x, x, [(0, 0), (0, 1)], sigma2=0.1, trials=5000, seed=42)
    assert a == b
    c = estimate_expectations(C, x, x, [(0, 0), (0, 1)], sigma2=0.1, trials=5000, seed=43)
    assert c.mean_gain != a.mean_gain


def test_interference_additivity_over_shifts():
    rng = np.random.default_rng(7)
    w = rng.random(4)
    w /= w.sum()
    C = ScatteringFunction.from_quad(*w)
    gamma = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    g = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    scheme = [(0, 0), (1, 0), (0, 1), (1, 1)]
    report = estimate_expectations(C, gamma, g, scheme, sigma2=0.1, trials=100, seed=0)
    Gamma = rank_one_projector(gamma)
    G = rank_one_projector(g)
    per_shift = 0.0
    for nu in scheme[1:]:
        S = shift_operator(2, nu)
        per_shift += np.trace(S @ apply_A(C, Gamma) @ S.conj().T @ G).real
    assert abs(report.analytic_interf - per_shift) <= 1e-12


def test_unbiasedness_flake_budget():
    # 100 independent-seed runs at 1e4 trials: at least 99 must land within
    # the 4-standard-error band around the analytic gain.
    q = (0.4, 0.3, 0.2, 0.1)
    sol = solve_fidelity(q)
    C = ScatteringFunction.from_quad(*q)
    scheme = Scheme(2, ((0, 0), (0, 1)))
    hits = 0
    for seed in range(100):
        report = estimate_expectations(
            C, sol.precoder, sol.equalizer, scheme, sigma2=0.1, trials=10_000, seed=seed
        )
        if abs(report.mean_gain - report.analytic_gain) <= 4.0 * report.stderr_gain:
            hits += 1
    assert hits >= 99


def test_estimates_consistent_across_chunk_boundary():
    # One chunk vs several: means stay within each other's error bands and
    # the reduction stays deterministic.
    from whprecode import mc

    C = ScatteringFunction.from_quad(0.4, 0.3, 0.2, 0.1)
    x = optimal_precoder_vector(1)
    report = estimate_expectations(
        C, x, x, [(0, 0), (0, 1)], sigma2=0.1, trials=3 * mc._CHUNK + 17, seed=11
    )
    assert report.trials == 3 * mc._CHUNK + 17
    assert abs(report.mean_gain - report.analytic_gain) <= 5.0 * report.stderr_gain


def test_sweep_table_analytic_column():
    grid = [i / 100.0 for i in range(101)]
    rows = sweep_p0(grid, trials=200, seed=0)
    assert len(rows) == 101
    for p0, row in zip(grid, rows):
        assert row.p0 == p0
        assert abs(row.fidelity - worst_case_fidelity(p0)) <= 1e-12
    by_p0 = {row.p0: row for row in rows}
    assert by_p0[0.25].fidelity == 0.5
    assert by_p0[1.0].fidelity == 1.0
    assert abs(by_p0[0.6].fidelity - (0.5 + 2.0 / 3.0 * 0.35)) <= 1e-12


def test_sweep_mc_column_tracks_analytic():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rows = sweep_p0(grid, trials=50_000, seed=5)
    for row in rows:
        band = 4.0 * row.stderr if row.stderr > 0 else 1e-12
        assert abs(row.mc_gain - row.fidelity) <= band


def test_sweep_deterministic():
    grid = [0.0, 0.5, 1.0]
    assert sweep_p0(grid, trials=500, seed=9) == sweep_p0(grid, trials=500, seed=9)


@pytest.mark.parametrize("p0", [1.2, -0.1, np.nan, 1.0 + 1e-12])
def test_sweep_rejects_origin_power_outside_unit_interval(p0):
    with pytest.raises(InvalidWeightsError):
        sweep_p0([0.5, p0], trials=2, seed=0)
