"""One benchmark worker: a fresh interpreter that runs one chunk of jobs.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the package source directory, a warm-up argv, the job argv
lists, optional hole probes, and whether to trace.  The worker imports
whprecode, runs the warm-up job, prints ``ready`` (run.py's set-up
clock stops there), then runs the jobs one after another: a closed loop
with a single client, each job starting when the previous one returned.
Between jobs, about every 50 ms, it times the host-speed reference kernel
(see calibrate.py).  Job output is captured in memory and written with the
timings to RESULT.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def _run_job(main, argv: list[str]) -> tuple[int, int, str, str]:
    """(exit code, elapsed ns, stdout, stderr) of one cli.main call.

    An exception escaping main is recorded as exit 1 with its traceback on
    stderr, which is what the installed console script would show.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = main(argv)
        except Exception:  # a crash is a measured outcome, not a worker failure
            code = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


def _peak_rss_kb() -> int:
    """High-water resident set of this process's own address space (VmHWM).

    ru_maxrss is not used: Linux carries the parent's resident set at fork
    time across exec into it, so it would count the memory of run.py.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import whprecode.cli as cli  # noqa: E402  (path set from the spec)

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    _run_job(cli.main, spec["warmup"])
    if tracer is not None:
        tracer.reset()
    print("ready", flush=True)

    from calibrate import SAMPLE_EVERY_NS, speed_sample

    # Host-speed samples bracket each segment of about SAMPLE_EVERY_NS of
    # jobs; segment k runs jobs bounds[k]..bounds[k+1]-1 in segment_ns[k].
    speed = [speed_sample()]
    bounds, segment_ns = [0], []
    jobs = []
    t0 = time.perf_counter_ns()
    for index, argv in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = index
        jobs.append(_run_job(cli.main, argv))
        elapsed = time.perf_counter_ns() - t0
        if elapsed >= SAMPLE_EVERY_NS or index == len(spec["jobs"]) - 1:
            segment_ns.append(elapsed)
            bounds.append(index + 1)
            speed.append(speed_sample())
            t0 = time.perf_counter_ns()

    if tracer is not None:
        tracer.job = -1
    probes = [_run_job(cli.main, argv) for argv in spec.get("probes", [])]
    result = {
        "segment_ns": segment_ns,
        "segment_bounds": bounds,
        "speed_s": speed,
        "peak_rss_kb": _peak_rss_kb(),
        "jobs": jobs,
        "probes": probes,
        "spans": tracer.spans if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
