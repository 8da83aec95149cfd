"""Layer sweep: time single layer calls at L in {2, 4, 8, 16, 32}.

Usage: python3 layer_sweep.py dense|sparse SRC_DIR RESULT.json

Runs in its own fresh, untraced worker during a traced run.  Dense
profiles put power on all L*L shifts, sparse ones on the origin and three
other shifts, so the sweep records how each stage scales with L and with
the number of taps.  Each figure is the median time of repeated calls.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

_MIN_REPS = 3
_BUDGET_S = 0.15


def _median_call_s(fn, make_arg=lambda: None) -> float:
    """Median wall time of fn(make_arg()), repeated for a small time budget.

    make_arg runs outside the timed region.
    """
    times = []
    start = time.perf_counter()
    while len(times) < _MIN_REPS or time.perf_counter() - start < _BUDGET_S:
        arg = make_arg()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    kind, src, result_path = sys.argv[1], sys.argv[2], sys.argv[3]
    sys.path.insert(0, src)
    from whprecode import heisenberg, wssus  # noqa: E402  (path set above)

    import spans
    from workloads import dense_profile, sparse_profile

    rng = np.random.default_rng(0)
    metrics = {}
    for L in spans.SWEEP_L:
        if kind == "dense":
            weights = dense_profile(L, L / 4, L / 4)
        else:
            weights = sparse_profile(L, 3, np.random.default_rng(L))
            weights /= weights.sum()
        C = wssus.ScatteringFunction(L, weights)
        C.kraus_operators()
        v = wssus.random_unit_vector(rng, L)
        X = np.outer(v, v.conj())
        scheme = ((0, 0), (0, 1))
        timings = {
            "wssus.apply_A": _median_call_s(lambda _: wssus.apply_A(C, X)),
            "wssus.apply_adjoint_A": _median_call_s(lambda _: wssus.apply_adjoint_A(C, X)),
            "wssus.apply_interference": _median_call_s(
                lambda _: wssus.apply_interference(C, X, scheme)
            ),
            # A fresh instance per call: the operators are cached on it.
            "wssus.kraus_operators": _median_call_s(
                lambda fresh: fresh.kraus_operators(),
                make_arg=lambda: wssus.ScatteringFunction(L, weights),
            ),
            "heisenberg.shift_operator": _median_call_s(
                lambda _: heisenberg.shift_operator(L, (1, 1))
            ),
        }
        for stage, unit in spans.SWEEP_STAGES:
            scale = 1e3 if unit == "ms" else 1e6
            metrics[f"{stage}.L{L}_{unit}"] = timings[stage] * scale
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
