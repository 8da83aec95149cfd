"""Byte-for-byte reports of fixed requests, against the files in tests/golden.

Three ``general`` grids, one per route: the elongated L = 4 Gaussian (U
certifies the coset pair), the sparse L = 7 grid (a PPT dual certifies it)
and the isotropic L = 4 grid (uncertified, the restarts run), each in
json, csv and text; and the L = 2 commands on one quad.  A change that
moves any printed byte of these reports fails here; CI compares the console
script's output with the same files.  The uncertified grid and the seeded
Monte Carlo commands print computed digits, so another BLAS or numpy
release may move their last digit; the certified reports are closed forms.
"""

import contextlib
import io
import pathlib

import pytest

from whprecode import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
_QUAD = ["--p", "0.4,0.3,0.2,0.1"]
_CASES = {
    f"general-{grid}.{ext}": ["general", "--config", str(GOLDEN / f"{grid}.config.json"), "--seed", "1",
                              "--format", fmt]
    for grid in ("elongated4", "sparse7", "isotropic4")
    for fmt, ext in (("json", "json"), ("csv", "csv"), ("text", "txt"))
} | {
    "solve.json": ["solve", *_QUAD],
    "classify.json": ["classify", *_QUAD],
    "oracle.json": ["oracle", *_QUAD, "--samples", "2000", "--seed", "3"],
    "simulate.json": ["simulate", *_QUAD, "--trials", "2000", "--seed", "3"],
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_report_is_the_golden_file(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(_CASES[name])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()


def test_every_golden_report_is_checked():
    reports = {p.name for p in GOLDEN.iterdir() if not p.name.endswith(".config.json")}
    assert reports == set(_CASES)
