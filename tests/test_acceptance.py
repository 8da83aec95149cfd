"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to also see the measured margins each test prints).
"""

import json
import time

import numpy as np

from whprecode.bloch import (
    map_matrix_rep,
    optimal_precoder_vector,
    solve_fidelity,
    worst_case_fidelity,
)
from whprecode.cli import main
from whprecode.heisenberg import pauli, shift_operator
from whprecode.linalg import rank_one_projector, unit_vector
from whprecode.mc import estimate_expectations
from whprecode.multiplex import best_scheme, crosstalk, frame_bounds, select_schemes
from whprecode.optimize import (
    OptimizerConfig,
    alternating_fidelity_max,
    brute_force_bloch_oracle,
    optimal_receiver,
)
from whprecode.wssus import ScatteringFunction, sinr, verify_cp_properties

PAULI_ORDERED_SHIFTS = ((1, 0), (1, 1), (0, 1))


def _random_quads(seed, count):
    rng = np.random.default_rng(seed)
    quads = rng.random((count, 4))
    quads /= quads.sum(axis=1, keepdims=True)
    return [tuple(q) for q in quads]


def test_criterion_01_shift_operators_exact_and_fast():
    expected = {
        (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
        (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
        (1, 1): np.array([[0, 1], [-1, 0]], dtype=complex),
    }
    shift_operator(2, (0, 0))  # warm-up outside the timed region
    start = time.perf_counter()
    built = {mu: shift_operator(2, mu) for mu in expected}
    elapsed = time.perf_counter() - start
    for mu, ref in expected.items():
        assert np.array_equal(built[mu], ref), f"S_{mu} deviates from the reference"
    assert elapsed < 1e-3, f"construction took {elapsed * 1e3:.3f} ms"
    print(f"ACCEPTANCE 1 PASS: zero-error L=2 operators in {elapsed * 1e6:.1f} us")


def test_criterion_02_diagonal_map_rep_matches_trace_formula():
    def brute_force(p):
        out = np.zeros((4, 4))
        for k in range(4):
            for l in range(4):
                acc = 0.0j
                for n in range(4):
                    acc += p[n] * np.trace(pauli(n) @ pauli(k) @ pauli(n) @ pauli(l))
                out[k, l] = (acc / 4.0).real
        return out

    worst = 0.0
    for quad in _random_quads(seed=2, count=1000):
        gap = float(np.max(np.abs(map_matrix_rep(quad) - brute_force(quad))))
        worst = max(worst, gap)
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    print(f"ACCEPTANCE 2 PASS: worst element deviation {worst:.3e} <= 1e-12")


def test_criterion_03_closed_form_vs_bloch_oracle():
    start = time.perf_counter()
    quads = _random_quads(seed=3, count=1000)
    worst_axes = 0.0
    worst_random = 0.0
    for i, quad in enumerate(quads):
        closed = solve_fidelity(quad).fidelity
        axes = brute_force_bloch_oracle(quad, 256, include_axes=True, seed=i)
        worst_axes = max(worst_axes, abs(closed - axes))
        sampled = brute_force_bloch_oracle(quad, 100_000, include_axes=False, seed=i)
        assert sampled <= closed + 1e-12
        worst_random = max(worst_random, closed - sampled)
    elapsed = time.perf_counter() - start
    assert worst_axes <= 1e-9, f"axis oracle gap {worst_axes:.3e}"
    assert worst_random <= 1e-3, f"sampling oracle gap {worst_random:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f} s"
    print(
        f"ACCEPTANCE 3 PASS: axis gap {worst_axes:.1e}, sampling gap "
        f"{worst_random:.1e}, runtime {elapsed:.1f} s"
    )


def test_criterion_04_reference_case_table():
    assert solve_fidelity((0.25, 0.25, 0.25, 0.25)).fidelity == 0.5
    assert solve_fidelity((1.0, 0.0, 0.0, 0.0)).fidelity == 1.0
    assert solve_fidelity((0.5, 0.5, 0.0, 0.0)).fidelity == 1.0
    worst_sweep = 0.0
    for p0 in np.linspace(0.0, 1.0, 101):
        rest = (1.0 - p0) / 3.0
        solved = solve_fidelity((p0, rest, rest, rest)).fidelity
        worst_sweep = max(worst_sweep, abs(solved - worst_case_fidelity(p0)))
    assert worst_sweep <= 1e-12
    worst_best = 0.0
    for p0 in np.linspace(0.0, 1.0, 21):
        for k in (1, 2, 3):
            rest = [0.0, 0.0, 0.0]
            rest[k - 1] = 1.0 - p0
            worst_best = max(worst_best, abs(solve_fidelity((p0, *rest)).fidelity - 1.0))
    assert worst_best <= 1e-12
    print(
        f"ACCEPTANCE 4 PASS: pinned cases exact, sweep gap {worst_sweep:.1e}, "
        f"best-family gap {worst_best:.1e}"
    )


def test_criterion_05_monte_carlo_consistency():
    quad = (0.4, 0.3, 0.2, 0.1)
    solution = solve_fidelity(quad)
    C = ScatteringFunction.from_quad(*quad)
    scheme = best_scheme(
        C,
        rank_one_projector(solution.precoder),
        rank_one_projector(solution.equalizer),
        solution.n_star,
    )
    start = time.perf_counter()
    report = estimate_expectations(
        C, solution.precoder, solution.equalizer, scheme,
        sigma2=0.1, trials=200_000, seed=50,
    )
    elapsed = time.perf_counter() - start
    gain_gap = abs(report.mean_gain - 0.7)
    interf_gap = abs(report.mean_interf - report.analytic_interf)
    assert gain_gap <= 4.0 * report.stderr_gain
    assert interf_gap <= 4.0 * report.stderr_interf
    assert elapsed < 10.0, f"runtime {elapsed:.1f} s"
    print(
        f"ACCEPTANCE 5 PASS: gain off by {gain_gap / report.stderr_gain:.2f} se, "
        f"interference off by {interf_gap / report.stderr_interf:.2f} se, "
        f"runtime {elapsed:.2f} s"
    )


def test_criterion_06_cp_map_property_suite():
    rng = np.random.default_rng(6)
    margins = []
    for L in (2, 3, 4):
        w = rng.random((L, L))
        C = ScatteringFunction(L, w / w.sum())
        report = verify_cp_properties(C, samples=1000, seed=60 + L)
        assert report.unital_violation <= 1e-12
        assert report.trace_violation <= 1e-12
        assert report.hermiticity_violation <= 1e-12
        assert report.majorization_margin >= -1e-10
        margins.append(report.majorization_margin)
    print(f"ACCEPTANCE 6 PASS: worst majorization margin {min(margins):.3e} >= -1e-10")


def test_criterion_07_crosstalk_table_and_onb_schemes():
    table = np.array(
        [
            [abs(crosstalk(optimal_precoder_vector(n), mu)) for mu in PAULI_ORDERED_SHIFTS]
            for n in (1, 2, 3)
        ]
    )
    assert np.max(np.abs(table - np.eye(3))) <= 1e-12
    worst_bound = 0.0
    for n in (1, 2, 3):
        x = optimal_precoder_vector(n)
        schemes = select_schemes(n)
        assert len(schemes) == 2
        for scheme in schemes:
            (mu,) = scheme.nonzero_shifts
            lo, hi = frame_bounds([x, shift_operator(2, mu) @ x])
            worst_bound = max(worst_bound, abs(lo - 1.0), abs(hi - 1.0))
    assert worst_bound <= 1e-10
    print(
        f"ACCEPTANCE 7 PASS: delta table exact to "
        f"{np.max(np.abs(table - np.eye(3))):.1e}, frame bounds off by {worst_bound:.1e}"
    )


def test_criterion_08_receiver_optimality():
    rng = np.random.default_rng(8)
    worst_margin = np.inf
    for _ in range(100):
        w = rng.random(4)
        C = ScatteringFunction.from_quad(*(w / w.sum()))
        gamma_op = rank_one_projector(
            unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        )
        count = int(rng.integers(1, 4))
        picks = rng.choice(3, size=count, replace=False)
        scheme = ((0, 0),) + tuple(PAULI_ORDERED_SHIFTS[i] for i in sorted(picks))
        _, best_value = optimal_receiver(C, gamma_op, scheme, sigma2=0.1)
        for _ in range(100):
            v = unit_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            competitor = sinr(C, gamma_op, rank_one_projector(v), scheme, sigma2=0.1)
            worst_margin = min(worst_margin, best_value - competitor)
    assert worst_margin >= -1e-10, f"worst margin {worst_margin:.3e}"
    print(f"ACCEPTANCE 8 PASS: worst receiver margin {worst_margin:.3e} >= -1e-10")


def test_criterion_09_alternating_maximization():
    worst_gap = 0.0
    for i, quad in enumerate(_random_quads(seed=9, count=100)):
        closed = solve_fidelity(quad).fidelity
        trace = alternating_fidelity_max(
            ScatteringFunction.from_quad(*quad),
            2,
            OptimizerConfig(max_iters=2000, tol=1e-13, restarts=100, seed=i),
        )
        worst_gap = max(worst_gap, abs(trace.best_value - closed))
        history = np.array(trace.objective_history)
        assert np.all(np.diff(history) >= -1e-12), "objective history not monotone"
    assert worst_gap <= 1e-6, f"worst closed-form gap {worst_gap:.3e}"

    uniform = alternating_fidelity_max(
        ScatteringFunction.uniform(4), 4, OptimizerConfig(restarts=8, seed=4)
    )
    assert abs(uniform.best_value - 0.25) <= 1e-9
    print(
        f"ACCEPTANCE 9 PASS: worst L=2 gap {worst_gap:.1e} <= 1e-6, "
        f"uniform L=4 value {uniform.best_value:.12f}"
    )


def test_criterion_10_reproducible_cli_output(tmp_path):
    repeats = {}
    for label, argv in {
        "simulate": ["simulate", "--p", "0.4,0.3,0.2,0.1", "--trials", "20000", "--seed", "17"],
        "oracle": ["oracle", "--p", "0.4,0.3,0.2,0.1", "--samples", "20000", "--seed", "17"],
    }.items():
        outputs = []
        for run in range(2):
            target = tmp_path / f"{label}_{run}.json"
            code = main(argv + ["--out", str(target)])
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], f"{label} output not byte identical"
        json.loads(outputs[0])  # well-formed JSON
        repeats[label] = len(outputs[0])
    print(f"ACCEPTANCE 10 PASS: byte-identical reruns {repeats}")
