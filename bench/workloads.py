"""Seeded job lists for the four benchmark workloads.

A job is a plain dict: ``argv`` for ``whprecode.cli.main`` (with the literal
``{config}`` standing for the path of the job's config file, if any),
``config`` (the file's JSON content or None), ``expect`` (the exit code a
correct program returns) and ``check`` (what the reference checker needs:
the command, the output format and the input weights).  The worker receives
only the argv lists and config files; the rest stays in run.py.

The number of jobs is about ``RATE[workload] * seconds`` (whole cycles of
the strata for the general workloads), fixed by the arguments and never by
a time budget, so a seed always names the same inputs.  RATE is the job
rate measured on a 2-core x86 host with one BLAS thread, which makes one
run last about ``seconds``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("l2_design", "l2_verify", "general_dense", "general_sparse")

RATE = {"l2_design": 780.0, "l2_verify": 125.0, "general_dense": 8.0, "general_sparse": 4.2}

# Percentile reported as job_tail_ms: the highest one that leaves at least
# ten jobs beyond it at the benchmark's run length and stays steady.
TAIL_PERCENTILE = {"l2_design": 95, "l2_verify": 95, "general_dense": 80, "general_sparse": 80}

# Fixed, input-independent warm-up job run by every worker before "ready".
WARMUP = {
    "l2_design": ["solve", "--p", "0.4,0.3,0.2,0.1"],
    "l2_verify": ["simulate", "--p", "0.4,0.3,0.2,0.1", "--trials", "2000"],
    "general_dense": ["general", "--p", "0.4,0.3,0.2,0.1", "--samples", "256"],
    "general_sparse": ["general", "--p", "0.4,0.3,0.2,0.1", "--samples", "256"],
}

FORMATS = ("json", "csv", "text")
_MALFORMED_FRACTION = 0.1
_GENERAL_SAMPLES = (2000, 2500, 3000)
_SEED_RANGE = 1 << 31
# Delay and Doppler widths of the dense profiles: elongated along either
# axis, isotropic narrow and isotropic wide.  Isotropic profiles converge
# slowly (near-degenerate top eigenvalues), elongated ones fast.
_DENSE_SHAPES = ((0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (1.5, 0.7), (0.8, 1.6), (2.0, 2.0))
_DENSE_L = (3, 4, 5, 6)
# An odd number of cells puts the median job inside one cell instead of
# between two cells of different cost.  L=3 (1.5, 0.7) is left out: on a
# 3-point grid it nearly repeats L=3 (1.0, 0.5).
_DENSE_CELLS = [(L, shape) for L in _DENSE_L for shape in _DENSE_SHAPES
                if (L, shape) != (3, (1.5, 0.7))]
_SPARSE_L = (4, 5, 6, 7, 8, 9, 10)
_SPARSE_TAPS = (2, 3, 4)
# The sparse tap layouts are one fixed deck; a run seed jitters the tap
# powers and picks the optimizer seeds and job order.
_SPARSE_DECK_SEED = 20050510
_JITTER = 0.03
# The general workloads cycle through every (L, profile) cell, so runs of
# any seed share one mix of fast- and slow-converging jobs.  A cell's
# --samples value is fixed by its index.
STRATA = {
    "general_dense": len(_DENSE_CELLS),
    "general_sparse": len(_SPARSE_L) * len(_SPARSE_TAPS),
}


def job_count(workload: str, seconds: float) -> int:
    """Jobs in one run: about RATE * seconds, in whole cycles of the strata."""
    strata = STRATA.get(workload, 1)
    return strata * max(1, round(RATE[workload] * seconds / strata))


def job_list_hash(jobs: list[dict]) -> str:
    """sha256 of the canonical job list; equal hashes mean identical inputs."""
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The job list of one run; the same arguments give the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = job_count(workload, seconds)
    maker = {
        "l2_design": _l2_design,
        "l2_verify": _l2_verify,
        "general_dense": _general_dense,
        "general_sparse": _general_sparse,
    }[workload]
    return maker(rng, n)


def _fmt_p(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def _quad(rng: np.random.Generator) -> list[float]:
    """A Dirichlet draw, or one of the edge cases the closed form treats apart."""
    kind = rng.choice(["dirichlet"] * 6 + ["concentrated", "uniform", "tied", "degenerate"])
    if kind == "concentrated":
        p = [0.0] * 4
        p[int(rng.integers(4))] = 1.0
        return p
    if kind == "uniform":
        return [0.25] * 4
    if kind == "tied":
        # Two off-origin weights equal: two axes tie at the maximum.
        a = float(rng.uniform(0.05, 0.3))
        p0 = float(rng.uniform(0.1, 1.0 - 2 * a - 0.05))
        p = [p0, a, a, 1.0 - p0 - 2 * a]
        order = [0] + list(rng.permutation([1, 2, 3]))
        return [p[i] for i in order]
    if kind == "degenerate":
        # Two weights exactly zero: a single-dispersive channel.
        p = [0.0] * 4
        i, j = rng.choice(4, size=2, replace=False)
        a = float(rng.uniform(0.05, 0.95))
        p[int(i)], p[int(j)] = a, 1.0 - a
        return p
    alpha = float(rng.choice([0.3, 1.0, 3.0]))
    return [float(v) for v in rng.dirichlet([alpha] * 4)]


def _quad_args(rng: np.random.Generator, p) -> list[str]:
    if rng.random() < 0.3:
        return [arg for i, v in enumerate(p) for arg in (f"--p{i}", repr(float(v)))]
    return ["--p", _fmt_p(p)]


def _malformed(rng: np.random.Generator) -> dict:
    """A request the CLI must reject with exit 2 and no traceback."""
    cmd = str(rng.choice(["solve", "classify"]))
    kind = str(rng.choice(["wrong_count", "bad_sum", "negative", "wrong_L"]))
    p = [float(v) for v in rng.dirichlet([1.0] * 4)]
    if kind == "wrong_count":
        args = ["--p", _fmt_p(p[:3])]
    elif kind == "bad_sum":
        args = ["--p", _fmt_p([v * 1.2 for v in p])]
    elif kind == "negative":
        args = ["--p", _fmt_p([-0.1, p[1] + 0.1, p[2], p[0] + p[3]])]
    else:
        args = ["--p", _fmt_p(p), "--L", str(int(rng.integers(3, 9)))]
    return {
        "argv": [cmd, *args],
        "config": None,
        "expect": 2,
        "check": {"command": cmd, "malformed": kind},
    }


def _l2_design(rng: np.random.Generator, n: int) -> list[dict]:
    jobs = []
    for _ in range(n):
        if rng.random() < _MALFORMED_FRACTION:
            jobs.append(_malformed(rng))
            continue
        cmd = "solve" if rng.random() < 0.55 else "classify"
        fmt = str(rng.choice(FORMATS, p=[0.5, 0.25, 0.25]))
        p = _quad(rng)
        jobs.append(
            {
                "argv": [cmd, *_quad_args(rng, p), "--format", fmt],
                "config": None,
                "expect": 0,
                "check": {"command": cmd, "format": fmt, "p": p},
            }
        )
    return jobs


def _l2_verify(rng: np.random.Generator, n: int) -> list[dict]:
    jobs = []
    for _ in range(n):
        p = _quad(rng)
        seed = int(rng.integers(_SEED_RANGE))
        fmt = "json" if rng.random() < 0.75 else "csv"
        if rng.random() < 0.5:
            trials = int(rng.integers(10_000, 60_001))
            # sigma2 > 0: a noiseless interference-free link has infinite SINR.
            sigma2 = float(10 ** rng.uniform(-3, 0))
            argv = ["simulate", "--p", _fmt_p(p), "--trials", str(trials),
                    "--sigma2", repr(sigma2), "--seed", str(seed), "--format", fmt]
            cmd = "simulate"
        else:
            samples = int(rng.integers(10_000, 60_001))
            argv = ["oracle", "--p", _fmt_p(p), "--samples", str(samples),
                    "--seed", str(seed), "--format", fmt]
            cmd = "oracle"
        jobs.append(
            {"argv": argv, "config": None, "expect": 0,
             "check": {"command": cmd, "format": fmt, "p": p}}
        )
    return jobs


def dense_profile(L: int, delay_width: float, doppler_width: float) -> np.ndarray:
    """Smooth cyclic Gaussian delay-Doppler profile; every tap is nonzero."""
    d = np.minimum(np.arange(L), L - np.arange(L))
    w = np.exp(-((d[:, None] / delay_width) ** 2) - (d[None, :] / doppler_width) ** 2)
    return w / w.sum()


def sparse_profile(L: int, taps: int, rng: np.random.Generator) -> np.ndarray:
    """Origin tap plus ``taps`` other taps at distinct shifts."""
    w = np.zeros((L, L))
    w[0, 0] = rng.uniform(0.3, 1.0)
    idx = rng.choice(np.arange(1, L * L), size=taps, replace=False)
    w.flat[idx] = rng.uniform(0.05, 1.0, taps)
    return w


def _general_job(rng: np.random.Generator, w: np.ndarray, samples: int) -> dict:
    L = w.shape[0]
    w = w / w.sum()
    return {
        "argv": ["general", "--config", "{config}", "--samples", str(samples),
                 "--seed", str(int(rng.integers(_SEED_RANGE)))],
        "config": {"L": L, "scattering": [[float(v) for v in row] for row in w]},
        "expect": 0,
        "check": {"command": "general", "format": "json", "L": L},
    }


def _stratified(cells: int, n: int, rng: np.random.Generator) -> list[int]:
    """Each cell index n // cells times plus a seeded sample of the rest, shuffled."""
    full, rest = divmod(n, cells)
    picked = list(range(cells)) * full + list(rng.choice(cells, rest, replace=False))
    return [int(picked[i]) for i in rng.permutation(n)]


def _cell_samples(cell: int) -> int:
    return _GENERAL_SAMPLES[cell % len(_GENERAL_SAMPLES)]


def _general_dense(rng: np.random.Generator, n: int) -> list[dict]:
    jobs = []
    for cell in _stratified(len(_DENSE_CELLS), n, rng):
        L, (a, b) = _DENSE_CELLS[cell]
        scale = rng.uniform(1 - _JITTER, 1 + _JITTER, 2)
        w = dense_profile(L, a * scale[0], b * scale[1])
        jobs.append(_general_job(rng, w, _cell_samples(cell)))
    return jobs


def _general_sparse(rng: np.random.Generator, n: int) -> list[dict]:
    deck_rng = np.random.default_rng(_SPARSE_DECK_SEED)
    cells = [sparse_profile(L, k, deck_rng) for k in _SPARSE_TAPS for L in _SPARSE_L]
    jobs = []
    for cell in _stratified(len(cells), n, rng):
        w = cells[cell]
        jitter = np.where(w > 0, rng.uniform(1 - _JITTER, 1 + _JITTER, w.shape), 0.0)
        jobs.append(_general_job(rng, w * jitter, _cell_samples(cell)))
    return jobs


def hole_probes(out_dir: str) -> list[dict]:
    """Requests that hit the known input-contract holes.

    A correct program rejects each with exit 2 and no traceback.  They run
    after the timed jobs, untimed, and are reported apart from the workload.
    """
    p = "0.4,0.3,0.2,0.1"
    probes = {
        "nan_weight": ["solve", "--p", "nan,0,0,1"],
        "negative_seed": ["oracle", "--p", p, "--samples", "100", "--seed", "-1"],
        "nan_sigma2": ["simulate", "--p", p, "--trials", "100", "--sigma2", "nan"],
        "unwritable_out": ["solve", "--p", p, "--out", f"{out_dir}/missing-dir/out.json"],
    }
    return [
        {"name": name, "argv": argv, "config": None, "expect": 2,
         "check": {"command": argv[0], "malformed": name}}
        for name, argv in probes.items()
    ]
