"""Benchmark harness: seeded closed-loop CLI workloads, end to end and per layer.

Run from the root of a whprecode checkout:

    python3 bench/run.py --workload l2_design --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20   # every metric, with units
    python3 bench/run.py --compare OLD_DIR NEW_DIR              # ratios, regressions

One run generates its job list from the seed, splits it into contiguous
chunks and runs each chunk in a fresh worker process, one after another.
Each worker start gives one set-up sample; jobs run in a closed loop with
one client.  This process then checks every output against an independent
reference, writes a result file under ``.bench_out/results`` and prints one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` each
chunk also runs in a traced worker and the metrics are the per-layer ones.
"""

from __future__ import annotations

import os

# This process generates inputs with numpy; keep its BLAS pool off the cores
# the workers are timed on.  Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
# Worker starts per run; set-up time is their median.
CHUNKS = 8
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# A run must end within 180 s; leave room for checking and writing.
DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "worker_env": THREAD_ENV,
        "platform": platform.platform(),
    }


class Runner:
    """Starts workers for one benchmark run and collects what they report."""

    def __init__(self, root: Path, run_dir: Path, deadline: float) -> None:
        self.src = root / "src"
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV}
        self._count = 0

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left

    def _spawn(self, script: str, args: list[str], tag: str) -> tuple[subprocess.Popen, Path]:
        log = self.run_dir / f"{tag}.stderr"
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / script), *args],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        return proc, log

    def _finish(self, proc: subprocess.Popen, log: Path) -> None:
        try:
            proc.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker exceeded the run's time limit") from None
        finally:
            proc.stdout.close()
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
            raise BenchError(f"worker exited {proc.returncode}: " + " | ".join(tail))

    def chunk(self, warmup: list[str], argvs: list[list[str]], trace: bool,
              probes: list[list[str]]) -> dict:
        """Run one chunk in a fresh worker; adds the measured set-up time."""
        self._count += 1
        tag = f"chunk-{self._count}"
        spec_path = self.run_dir / f"{tag}.spec.json"
        result_path = self.run_dir / f"{tag}.result.json"
        spec = {"src": str(self.src), "warmup": warmup, "jobs": argvs,
                "trace": trace, "probes": probes}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t0 = time.perf_counter()
        proc, log = self._spawn("worker.py", [str(spec_path), str(result_path)], tag)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        self._finish(proc, log)
        if line.strip() != "ready":
            raise BenchError(f"worker did not report ready: {line!r}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = setup_s
        return result

    def sweep(self, kind: str) -> dict[str, float]:
        result_path = self.run_dir / f"sweep-{kind}.json"
        proc, log = self._spawn("layer_sweep.py", [kind, str(self.src), str(result_path)],
                                f"sweep-{kind}")
        self._finish(proc, log)
        return json.loads(result_path.read_text(encoding="utf-8"))


def _materialize(jobs: list[dict], run_dir: Path) -> list[list[str]]:
    """Write config files; return each job's argv with its config path filled in."""
    argvs = []
    for i, job in enumerate(jobs):
        argv = list(job["argv"])
        if job["config"] is not None:
            path = run_dir / f"config-{i:05d}.json"
            path.write_text(json.dumps(job["config"]), encoding="utf-8")
            argv = [str(path) if a == "{config}" else a for a in argv]
        argvs.append(argv)
    return argvs


def _chunks(n: int) -> list[slice]:
    k = min(CHUNKS, n)
    bounds = [round(i * n / k) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def _host_normalized(result: dict) -> tuple[list[float], float]:
    """Per-job host-speed factors and the normalized loop wall (ns) of one worker.

    Each segment of jobs is scaled by REFERENCE_S over the mean of the two
    kernel timings that bracket it (see calibrate.py).
    """
    factors, wall = [], 0.0
    speed, bounds = result["speed_s"], result["segment_bounds"]
    for k, ns in enumerate(result["segment_ns"]):
        factor = calibrate.REFERENCE_S / statistics.fmean(speed[k:k + 2])
        factors += [factor] * (bounds[k + 1] - bounds[k])
        wall += ns * factor
    return factors, wall


def end_to_end(workload: str, results: list[dict]) -> tuple[dict[str, float], dict]:
    """Host-normalized end-to-end metrics of one pass, and the raw figures."""
    raw_ms, norm_ms, setups, raw_setups, wall, raw_wall = [], [], [], [], 0.0, 0.0
    for r in results:
        factors, worker_wall = _host_normalized(r)
        wall += worker_wall
        raw_wall += sum(r["segment_ns"])
        for (_, ns, _, _), factor in zip(r["jobs"], factors):
            raw_ms.append(ns * 1e-6)
            norm_ms.append(ns * 1e-6 * factor)
        raw_setups.append(r["setup_s"])
        setups.append(r["setup_s"] * calibrate.REFERENCE_S / r["speed_s"][0])
    q = workloads.TAIL_PERCENTILE[workload]
    tail = _percentile(norm_ms, q)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall * 1e-9,
        "job_p50_ms": _percentile(norm_ms, 50),
        "job_tail_ms": tail,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }
    speed = [s for r in results for s in r["speed_s"]]
    detail = {
        "job_tail_percentile": q,
        "jobs_timed": len(norm_ms),
        "jobs_beyond_tail": sum(1 for v in norm_ms if v > tail),
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "wall_s": raw_wall * 1e-9,
            "job_p50_ms": _percentile(raw_ms, 50),
            "job_tail_ms": _percentile(raw_ms, q),
        },
        "host_speed_s": {"median": statistics.median(speed), "min": min(speed),
                         "max": max(speed), "samples": len(speed)},
        "setup_samples_s": raw_setups,
        "latencies_ms": norm_ms,
    }
    return metrics, detail


def _check_all(jobs: list[dict], results: list[dict]) -> list[dict]:
    outcomes = [outcome for r in results for outcome in r["jobs"]]
    failures = []
    for index, (job, (code, _, out, err)) in enumerate(zip(jobs, outcomes)):
        reason = checks.check_job(job, code, out, err)
        if reason is not None:
            failures.append({"job": index, "argv": job["argv"], "reason": reason})
    return failures


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        results_dir: Path) -> dict:
    """One benchmark run; returns the result document."""
    started = time.monotonic()
    if not (root / "src" / "whprecode" / "cli.py").is_file():
        raise BenchError(f"no whprecode source under {root / 'src'}; run from a checkout root")
    jobs = workloads.generate(workload, seed, seconds)
    run_dir = root / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    argvs = _materialize(jobs, run_dir)
    probes = workloads.hole_probes(str(run_dir)) if workload == "l2_design" else []
    runner = Runner(root, run_dir, started + DEADLINE_S)
    warmup = workloads.WARMUP[workload]

    plain, traced = [], []
    slices = _chunks(len(jobs))
    for i, part in enumerate(slices):
        last = i == len(slices) - 1
        plain.append(runner.chunk(warmup, argvs[part], False,
                                  [p["argv"] for p in probes] if last else []))
        if trace:
            traced.append(runner.chunk(warmup, argvs[part], True, []))

    failures = _check_all(jobs, plain)
    attempted = len(jobs)
    metrics, detail = end_to_end(workload, plain)
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": _machine(),
        "job_count": len(jobs),
        "job_list_hash": workloads.job_list_hash(jobs),
        "end_to_end": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        **detail,
    }
    if probes:
        outcomes = plain[-1]["probes"]
        doc["known_holes"] = {
            p["name"]: checks.check_job(p, *(outcome[i] for i in (0, 2, 3))) or "closed"
            for p, outcome in zip(probes, outcomes)
        }
    if trace:
        failures += _check_all(jobs, traced)
        attempted += len(jobs)
        per_layer, calls = spans.layer_metrics([r["spans"] for r in traced])
        per_layer["cli.rejected"] = sum(
            1 for r in traced for code, _, _, _ in r["jobs"] if code == 2
        )
        sweep_kind = {"general_dense": "dense", "general_sparse": "sparse"}.get(workload)
        sweep = runner.sweep(sweep_kind) if sweep_kind else {}
        plain_wall = sum(_host_normalized(r)[1] for r in plain)
        traced_wall = sum(_host_normalized(r)[1] for r in traced)
        per_layer["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
        doc["per_layer"] = {
            name: {"value": float(sweep.get(name, per_layer.get(name, 0.0))), "unit": unit}
            for name, unit, _ in spans.PER_LAYER
        }
        doc["span_calls"] = calls
    doc["attempted"] = attempted
    doc["failed"] = len(failures)
    doc["fail_frac"] = len(failures) / attempted
    doc["failures"] = failures[:50]
    doc["elapsed_s"] = time.monotonic() - started

    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    doc["result_file"] = str(out)
    return doc


def summary_line(doc: dict) -> str:
    metrics = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    })


def _print_table(doc: dict) -> None:
    section = "per_layer" if doc["trace"] else "end_to_end"
    print(f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"jobs={doc['job_count']} failed={doc['failed']} hash={doc['job_list_hash'][:12]}")
    for name, m in doc[section].items():
        print(f"{doc['workload']:<15} {name:<52} {m['value']:>14.6g} {m['unit']}")
    if "known_holes" in doc:
        for name, status in doc["known_holes"].items():
            print(f"{doc['workload']:<15} known hole {name:<41} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=".bench_out/results",
                        help="directory for result files (default .bench_out/results)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two sets of result files (directories or files)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.compare:
        import compare

        return compare.main(*args.compare, root / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload or --compare is required")
    try:
        if args.workload == "all":
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    _print_table(run(name, args.seed, args.seconds, trace, root,
                                     Path(args.results)))
            return 0
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace), root,
                  Path(args.results))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"result file: {doc['result_file']}")
    print(summary_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
