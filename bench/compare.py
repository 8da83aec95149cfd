"""Compare two sets of untraced result files, metric by metric.

For each workload and each end-to-end metric this prints the old median
(the base), the new median and their ratio.  A metric is flagged WORSE when
the new median is worse than the old by more than the metric's bound in
BENCHMARK.json, and UNRESOLVED when the run-to-run spread on either side
(interquartile range over median) is wider than the bound, unless every new
run beats every old run.  One run per side has no measurable spread and is
reported as unresolved.  Set-up time has no spread check: a run already
reports the median of several worker starts.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _load(path: str) -> dict[str, list[dict]]:
    """workload -> untraced result documents, from a file or a directory."""
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    by_workload: dict[str, list[dict]] = {}
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        if doc.get("trace") == 0 and "end_to_end" in doc:
            by_workload.setdefault(doc["workload"], []).append(doc)
    return by_workload


def spread(values: list[float]) -> float | None:
    """Interquartile range over median, as statistics.quantiles(n=4) gives it."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(old: list[float], new: list[float], bound: float, better: str,
            check_spread: bool = True) -> tuple[float, str]:
    """(new/old ratio of medians, verdict) for one metric on one workload."""
    base, value = statistics.median(old), statistics.median(new)
    ratio = value / base
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if check_spread:
        spreads = [spread(old), spread(new)]
        wide = any(s is None or s > bound for s in spreads)
        clearly_better = (max(new) < min(old)) if better == "lower" else (min(new) > max(old))
        if wide and not clearly_better:
            return ratio, "UNRESOLVED"
    return ratio, "WORSE" if worse > bound else "ok"


def main(old_path: str, new_path: str, benchmark_json: Path) -> int:
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    old, new = _load(old_path), _load(new_path)
    hashes_differ = False
    regressions = 0
    print(f"{'workload':<15} {'metric':<12} {'base':>12} {'new':>12} {'ratio':>7}  verdict")
    for workload in sorted(set(old) & set(new)):
        o_docs, n_docs = old[workload], new[workload]
        o_hashes = {(d["seed"], d["job_list_hash"]) for d in o_docs}
        n_hashes = {(d["seed"], d["job_list_hash"]) for d in n_docs}
        if {s for s, _ in o_hashes} == {s for s, _ in n_hashes} and o_hashes != n_hashes:
            hashes_differ = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            o = [d["end_to_end"][name]["value"] for d in o_docs]
            n = [d["end_to_end"][name]["value"] for d in n_docs]
            ratio, word = verdict(o, n, metric["bound"], metric["better"], name != "setup_s")
            regressions += word == "WORSE"
            unit = metric["unit"]
            print(f"{workload:<15} {name:<12} {statistics.median(o):>10.5g}{unit:>2} "
                  f"{statistics.median(n):>10.5g}{unit:>2} {ratio:>7.3f}  {word} "
                  f"(bound {metric['bound']:.0%}, runs {len(o)}/{len(n)})")
    if hashes_differ:
        print("warning: the same seeds produced different job lists; inputs are not comparable")
    return 1 if regressions or hashes_differ else 0
