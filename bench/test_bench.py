"""Self-test of the benchmark: python3 -m pytest bench -q (from the repo root).

Runs every workload at a tiny size, checks that the reference checker
catches corrupted outputs, and that a seed always names the same inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SECONDS = "0.2"


def _run(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args, "--results", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_match_the_code():
    import spans
    import run

    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_metric(tmp_path, workload):
    line = _last_line(_run(tmp_path, "--workload", workload, "--seed", "3",
                           "--seconds", TINY_SECONDS, "--trace", "1"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    doc = json.loads((tmp_path / f"{workload}-seed3-trace1.json").read_text())
    assert list(doc["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in doc["end_to_end"].values())


def test_tiny_untraced_run_emits_end_to_end_metrics(tmp_path):
    line = _last_line(_run(tmp_path, "--workload", "l2_design", "--seed", "3",
                           "--seconds", TINY_SECONDS, "--trace", "0"))
    assert line["correct"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    doc = json.loads((tmp_path / "l2_design-seed3-trace0.json").read_text())
    assert set(doc["known_holes"]) == {"nan_weight", "negative_seed", "nan_sigma2", "unwritable_out"}


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(tmp_path / "results", "--workload", "l2_design", "--seed", "1",
                "--seconds", TINY_SECONDS, "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_job_list():
    for workload in workloads.WORKLOADS:
        a = workloads.job_list_hash(workloads.generate(workload, 5, 1))
        b = workloads.job_list_hash(workloads.generate(workload, 5, 1))
        c = workloads.job_list_hash(workloads.generate(workload, 6, 1))
        assert a == b != c


SOLVE_JOB = {"expect": 0, "check": {"command": "solve", "format": "json", "p": [0.4, 0.3, 0.2, 0.1]}}
_PULSE = [[0.707106781187, 0.0], [0.707106781187, 0.0]]
SOLVE_DOC = {"fidelity": 0.7, "precoder": _PULSE, "equalizer": _PULSE}


def test_checker_accepts_a_correct_document():
    assert checks.check_job(SOLVE_JOB, 0, json.dumps(SOLVE_DOC), "") is None


def test_checker_flags_perturbed_fidelity():
    doc = {**SOLVE_DOC, "fidelity": 0.7 + 1e-9}
    assert "fidelity" in checks.check_job(SOLVE_JOB, 0, json.dumps(doc), "")


def test_checker_flags_nan_token():
    text = json.dumps({**SOLVE_DOC, "fidelity": float("nan")})
    assert "NaN" in text
    assert "non-finite" in checks.check_job(SOLVE_JOB, 0, text, "")


def test_checker_flags_wrong_exit_code_and_traceback():
    assert "exit code" in checks.check_job(SOLVE_JOB, 1, json.dumps(SOLVE_DOC), "")
    malformed = {"expect": 2, "check": {"command": "solve", "malformed": "bad_sum"}}
    assert "exit code" in checks.check_job(malformed, 0, "{}", "")
    crash = "Traceback (most recent call last):\n  ...\nIndexError: boom\n"
    assert "traceback" in checks.check_job(malformed, 2, "", crash)


def test_checker_flags_general_bounds_out_of_order():
    job = {"expect": 0, "check": {"command": "general", "format": "json", "L": 4}}
    good = {"lower_bound": 0.6, "alternating": {"best_value": 0.7}}
    bad = {"lower_bound": 0.8, "alternating": {"best_value": 0.7}}
    assert checks.check_job(job, 0, json.dumps(good), "") is None
    assert "bounds" in checks.check_job(job, 0, json.dumps(bad), "")


def test_compare_verdicts():
    old = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(old, [1.01, 1.02, 1.00, 1.01, 1.03], 0.1, "lower")[1] == "ok"
    assert compare.verdict(old, [1.30, 1.31, 1.29, 1.30, 1.32], 0.1, "lower")[1] == "WORSE"
    assert compare.verdict(old, [0.5, 1.5, 1.0, 0.7, 1.4], 0.1, "lower")[1] == "UNRESOLVED"
    assert compare.verdict([1.0], [1.0], 0.1, "lower")[1] == "UNRESOLVED"
