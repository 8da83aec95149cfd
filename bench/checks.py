"""Reference checks on the CLI's outputs, independent of the package.

Every formula here is recomputed from the job's inputs; nothing imports
whprecode.  ``check_job`` returns None for a correct outcome, otherwise a
one-line reason.  A job fails when its exit code is not the expected one,
it printed a traceback, its output does not parse (JSON is parsed strictly:
NaN and Infinity tokens are rejected), or a value fails its reference check.
"""

from __future__ import annotations

import csv
import io
import json
import math

FIDELITY_TOL = 1e-12
# Pulse entries are rendered at 12 significant digits.
UNIT_NORM_TOL = 1e-11
GAP_TOL = 1e-12
MC_SIGMAS = 6.0
BOUND_TOL = 1e-9


class OutputError(ValueError):
    """Output that does not parse, or carries a non-finite number."""


def _reject_constant(token: str):
    raise OutputError(f"non-finite token {token} in JSON output")


def parse_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"invalid JSON: {exc}") from None


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise OutputError(f"non-finite number {text!r}")
    return value


def _complex_vector(value) -> list[complex]:
    """Pulse entries: [[re, im], ...] lists, or the CSV 're+imj;...' form."""
    if isinstance(value, str):
        return [complex(part) for part in value.split(";")]
    return [complex(re, im) for re, im in value]


def parse_output(text: str, fmt: str) -> dict:
    """Flat dict of the fields the checks read, from any output format."""
    if fmt == "json":
        doc = parse_json(text)
        if "alternating" in doc:
            doc["alternating_best"] = doc["alternating"]["best_value"]
        return doc
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            raise OutputError("CSV output must be one header and one row of equal width")
        return dict(zip(rows[0], rows[1]))
    doc = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise OutputError(f"text line without 'key: value': {line!r}")
        doc[key] = parse_json(value) if value.startswith("[") else value
    return doc


def reference_fidelity(p) -> float:
    """Closed-form L=2 optimum (1/2)(1 + max_k |2(p0 + p_k) - 1|)."""
    return 0.5 * (1.0 + max(abs(2.0 * (p[0] + p[k]) - 1.0) for k in (1, 2, 3)))


def _check_values(check: dict, doc: dict) -> str | None:
    command = check["command"]
    if command in ("solve", "classify", "oracle", "simulate"):
        ref = reference_fidelity(check["p"])
    if command in ("solve", "classify"):
        fidelity = _number(doc["fidelity"])
        if abs(fidelity - ref) > FIDELITY_TOL:
            return f"fidelity {fidelity!r} differs from closed form {ref!r}"
    if command == "solve":
        for key in ("precoder", "equalizer"):
            norm = math.sqrt(sum(abs(z) ** 2 for z in _complex_vector(doc[key])))
            if abs(norm - 1.0) > UNIT_NORM_TOL:
                return f"{key} norm {norm!r} is not 1"
    elif command == "oracle":
        gap_axes, gap_random = _number(doc["gap_axes"]), _number(doc["gap_random"])
        if abs(gap_axes) > GAP_TOL:
            return f"gap_axes {gap_axes!r} is not 0"
        if gap_random < -GAP_TOL:
            return f"gap_random {gap_random!r} is negative"
    elif command == "simulate":
        analytic = _number(doc["analytic_gain"])
        mean, stderr = _number(doc["mean_gain"]), _number(doc["stderr_gain"])
        if abs(analytic - ref) > FIDELITY_TOL:
            return f"analytic_gain {analytic!r} differs from closed form {ref!r}"
        if abs(mean - analytic) > MC_SIGMAS * stderr:
            return f"mean_gain {mean!r} is more than {MC_SIGMAS} stderr from {analytic!r}"
    elif command == "general":
        L = check["L"]
        lower, best = _number(doc["lower_bound"]), _number(doc["alternating_best"])
        if not 1.0 / L - BOUND_TOL <= lower <= best + BOUND_TOL <= 1.0 + 2 * BOUND_TOL:
            return f"bounds out of order: 1/L={1.0 / L!r}, lower={lower!r}, best={best!r}"
    return None


def check_job(job: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None when the job's outcome is correct, else the first problem found."""
    if "Traceback (most recent call last)" in stderr:
        return f"traceback: {stderr.strip().splitlines()[-1]}"
    if code != job["expect"]:
        return f"exit code {code}, expected {job['expect']}"
    if job["expect"] != 0:
        return "rejected input produced output" if stdout else None
    try:
        return _check_values(job["check"], parse_output(stdout, job["check"]["format"]))
    except (KeyError, TypeError, ValueError) as exc:  # OutputError is a ValueError
        return f"unreadable output: {exc}"
