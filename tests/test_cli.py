"""Tests for the command line front end."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import whprecode
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whprecode import cli
from whprecode.cli import dispatch, main, parse_config, render_json
from whprecode.errors import InvalidConfigError
from whprecode.optimize import brute_force_bloch_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_defaults():
    cfg = parse_config(["solve", "--p", "0.25,0.25,0.25,0.25"])
    assert cfg.command == "solve"
    assert cfg.sigma2 == 0.1
    assert cfg.trials == 100_000
    assert cfg.samples == 100_000
    assert cfg.seed == 0
    assert cfg.output_format == "json"
    assert cfg.quad.as_tuple() == (0.25, 0.25, 0.25, 0.25)


def test_parse_rejects_bad_sum_naming_field():
    with pytest.raises(InvalidConfigError, match="p: .*sum to 1"):
        parse_config(["solve", "--p", "0.4,0.3,0.4,0.1"])


def test_parse_reports_all_violations_at_once():
    with pytest.raises(InvalidConfigError) as err:
        parse_config(
            ["simulate", "--p", "0.4,0.3,0.4,0.1", "--trials", "1", "--sigma2", "-1"]
        )
    message = str(err.value)
    assert "p:" in message
    assert "trials:" in message
    assert "sigma2:" in message


def test_parse_requires_quad_for_solve():
    with pytest.raises(InvalidConfigError, match="p: four scattering weights"):
        parse_config(["solve"])


def test_parse_component_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": [0.25, 0.25, 0.25, 0.25]}))
    cfg = parse_config(
        ["solve", "--config", str(config), "--p0", "1", "--p1", "0", "--p2", "0", "--p3", "0"]
    )
    assert cfg.quad.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_parse_flag_overrides_file_scalar(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": [0.25, 0.25, 0.25, 0.25], "seed": 5, "trials": 50}))
    cfg = parse_config(["simulate", "--config", str(config), "--seed", "9"])
    assert cfg.seed == 9
    assert cfg.trials == 50


def test_parse_rejects_unknown_config_key(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": [0.25, 0.25, 0.25, 0.25], "bogus": 1}))
    with pytest.raises(InvalidConfigError, match="config: unknown key 'bogus'"):
        parse_config(["solve", "--config", str(config)])


def test_parse_general_requires_scattering(tmp_path):
    with pytest.raises(InvalidConfigError, match="scattering:"):
        parse_config(["general", "--L", "4"])
    config = tmp_path / "nan.json"
    config.write_text(json.dumps({"scattering": [[float("nan"), 0.0], [0.0, 1.0]]}))
    with pytest.raises(InvalidConfigError, match="scattering: weights must be nonnegative"):
        parse_config(["general", "--config", str(config)])


def test_parse_general_accepts_quad_at_l2():
    cfg = parse_config(["general", "--p", "0.4,0.3,0.2,0.1"])
    assert cfg.scattering is not None
    assert cfg.scattering.L == 2


def test_parse_general_scattering_from_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scattering": [[1.0 / 16.0] * 4] * 4}))
    cfg = parse_config(["general", "--L", "4", "--config", str(config)])
    assert cfg.scattering.L == 4
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"scattering": [1.0 / 16.0] * 16}))
    cfg2 = parse_config(["general", "--L", "4", "--config", str(flat)])
    np.testing.assert_allclose(cfg2.scattering.weights, cfg.scattering.weights)


def test_solve_json_worked_example(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "0.4,0.3,0.2,0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == 0.7
    assert doc["n_star"] == 1
    assert doc["degenerate"] is False
    assert doc["precoder"] == [[0.707106781187, 0.0], [0.707106781187, 0.0]]
    assert doc["schemes"] == [[[0, 0], [0, 1]], [[0, 0], [1, 1]]]
    assert doc["channel_class"] == "generic"


def test_solve_degenerate_uniform(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "0.25,0.25,0.25,0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == 0.5
    assert doc["degenerate"] is True
    assert doc["tied"] == [1, 2, 3]
    assert doc["channel_class"] == "completely_overspread"


def test_invalid_input_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--p", "0.4,0.3,0.4,0.1")
    assert code == 2
    assert out == ""
    assert "sum to 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--p", "-0.1,0.4,0.4,0.3"], "p: weights must be nonnegative numbers"),
        (["classify", "--p", "-.1,0.4,0.4,0.3"], "p: weights must be nonnegative numbers"),
        (["solve", "--p0", "-0.5", "--p1", "0.5", "--p2", "0.5", "--p3", "0.5"],
         "p: weights must be nonnegative numbers"),
        (["simulate", "--p", "0.4,0.3,0.2,0.1", "--sigma2", "-1e-3"],
         "sigma2: value must be a finite number in [0.0, inf], got -0.001"),
        (["simulate", "--p", "0.4,0.3,0.2,0.1", "--sigma2", "-Inf"],
         "sigma2: value must be a finite number in [0.0, inf], got -inf"),
        # Abbreviated to a prefix that names one number flag.
        (["simulate", "--p", "0.4,0.3,0.2,0.1", "--sigma", "-1e-3"],
         "sigma2: value must be a finite number in [0.0, inf], got -0.001"),
    ],
    ids=["p", "p_leading_point", "p0", "sigma2_exponent", "sigma2_infinite",
         "sigma2_abbreviated"],
)
def test_negative_values_reach_the_value_checks(capsys, argv, message):
    # A value after a flag that starts with "-" and a digit or "." is a
    # value, not a flag: one error line from the value check.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unknown_flag_exits_two(capsys):
    code = main(["solve", "--nope", "1"])
    capsys.readouterr()
    assert code == 2


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "0.6,0.2,0.1,0.1")
    doc = json.loads(out)
    assert code == 0
    assert doc["channel_class"] == "underspread"
    assert doc["case"] == 3
    assert doc["fidelity"] == 0.8

    _, out, _ = run_cli(capsys, "classify", "--p", "1,0,0,0")
    doc = json.loads(out)
    assert doc["case"] == 1

    _, out, _ = run_cli(capsys, "classify", "--p", "0.1,0.3,0.3,0.3")
    doc = json.loads(out)
    assert doc["worst_case_family"] is True
    assert doc["case"] == 5


def test_oracle_gap_is_small(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--p", "0.4,0.3,0.2,0.1", "--samples", "2000", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["gap_axes"]) <= 1e-9
    assert 0.0 <= doc["gap_random"] <= 0.2
    assert doc["seed"] == 3  # effective seed echoed


def test_simulate_reports_seed_and_bands(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.4,0.3,0.2,0.1", "--trials", "20000", "--seed", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 11
    assert doc["trials"] == 20000
    assert doc["scheme"] == [[0, 0], [0, 1]]
    assert abs(doc["mean_gain"] - doc["analytic_gain"]) <= 5.0 * doc["stderr_gain"]


def test_simulate_rejects_single_trial(capsys):
    code, _, err = run_cli(capsys, "simulate", "--p", "0.25,0.25,0.25,0.25", "--trials", "1")
    assert code == 2
    assert "trials" in err


def test_sweep_rows(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--trials", "200", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == 101
    assert doc["rows"][25]["p0"] == 0.25
    assert doc["rows"][25]["fidelity"] == 0.5
    assert doc["rows"][100]["fidelity"] == 1.0


def test_general_command(capsys):
    code, out, _ = run_cli(
        capsys, "general", "--p", "0.4,0.3,0.2,0.1", "--samples", "2000", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["L"] == 2
    assert abs(doc["alternating"]["best_value"] - 0.7) <= 1e-6
    assert doc["lower_bound"] <= 0.7 + 1e-12
    assert doc["lower_bound"] >= 0.5


def test_general_uniform_l4(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scattering": [[1.0 / 16.0] * 4] * 4, "L": 4}))
    code, out, _ = run_cli(
        capsys, "general", "--config", str(config), "--samples", "500"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["alternating"]["best_value"] - 0.25) <= 1e-9
    assert abs(doc["lower_bound"] - 0.25) <= 1e-9


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity tokens that JSON lacks."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_json_round_trip_is_stable(capsys):
    for argv in (
        ["solve", "--p", "0.4,0.3,0.2,0.1"],
        ["oracle", "--p", "0.1,0.2,0.3,0.4", "--samples", "500"],
        ["simulate", "--p", "0.25,0.25,0.25,0.25", "--trials", "100"],
        ["simulate", "--p", "1,0,0,0", "--sigma2", "0", "--trials", "100"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert render_json(strict_json(out)) == out


def _canon(value):
    """The canonical report value: floats at 12 significant digits, infinities as strings."""
    if isinstance(value, float):
        if math.isnan(value):
            raise FloatingPointError("NaN in the report")
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.7976931348623157e308, math.inf, -math.inf, 1e16, 123456789012.0]),
    # A 13-digit decimal ending in 5: it rounds at the 12th digit.
    st.builds(lambda digits, exp: float(f"{digits}5e{exp}"),
              st.integers(10**11, 10**12 - 1), st.integers(-330, 290)),
)
_JSON_TEXT = st.text(st.sampled_from('az09 "\\/\n\t\x00\x7féß€😀'), max_size=6)
_JSON_LEAVES = st.one_of(
    _JSON_FLOATS,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    _JSON_TEXT,
)


def _json_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(_JSON_TEXT, children, max_size=4),
        ),
        max_leaves=24,
    )


@settings(max_examples=400)
@given(doc=st.dictionaries(_JSON_TEXT, _json_trees(_JSON_LEAVES), max_size=5))
def test_render_json_writes_the_canonical_dump(doc):
    expected = json.dumps(_canon(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert render_json(doc) == expected


def _holds_nan(value):
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(_holds_nan, value))


@settings(max_examples=200)
@given(doc=st.dictionaries(_JSON_TEXT, _json_trees(_JSON_LEAVES | st.just(math.nan)), max_size=5))
def test_render_json_rejects_a_nan_anywhere(doc):
    if not _holds_nan(doc):
        doc["nan"] = [doc.copy(), math.nan]
    with pytest.raises(FloatingPointError):
        render_json(doc)


def test_infinite_sinr_renders_as_inf_token(capsys):
    for fmt, token in (("json", '"inf"'), ("csv", "inf"), ("text", "inf")):
        code, out, _ = run_cli(
            capsys, "simulate", "--p", "1,0,0,0", "--sigma2", "0", "--trials", "100",
            "--format", fmt,
        )
        assert code == 0
        assert token in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "solve", "--p", "1,0,0,0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["fidelity"] == 1.0


class _FullStream(io.StringIO):
    """A stdout whose writes fail as on a full device."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stdout", [_FullStream(), None], ids=["full", "closed"])
def test_unwritable_stdout_exits_two(monkeypatch, capsys, stdout):
    # Like an unwritable --out path: one error line and exit 2, no traceback.
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["solve", "--p", "0.4,0.3,0.2,0.1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stdout: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("stdout", [_FullStream(), None], ids=["full", "closed"])
def test_help_on_an_unwritable_stdout_exits_zero_without_a_traceback(monkeypatch, capsys, stdout):
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--help"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("target", ["full", "closed"])
def test_console_script_unwritable_stdout_exits_two(target):
    # A fresh interpreter with block-buffered stdout: the exit flush must not
    # fail again on the bytes the failed write left behind (exit 120).
    package_root = str(pathlib.Path(whprecode.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = path
    with open("/dev/full" if target == "full" else os.devnull, "w") as sink:
        child = subprocess.run(
            [sys.executable, "-m", "whprecode.cli", "solve", "--p", "0.4,0.3,0.2,0.1"],
            env=env, stdout=sink, stderr=subprocess.PIPE, text=True, timeout=60,
            preexec_fn=(lambda: os.close(1)) if target == "closed" else None,
        )
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("error: stdout: ") and child.stderr.count("\n") == 1


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "simulate", "--p", "0.4,0.3,0.2,0.1",
            "--trials", "5000", "--seed", "7", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "0.4,0.3,0.2,0.1", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("p0,p1,p2,p3,fidelity,n_star")
    assert row.startswith("0.4,0.3,0.2,0.1,0.7,1")

    code, out, _ = run_cli(
        capsys, "sweep", "--trials", "100", "--format", "csv", "--seed", "0"
    )
    lines = out.strip().split("\n")
    assert lines[0] == "p0,fidelity,mc_gain,stderr"
    assert len(lines) == 102


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "0.5,0.5,0,0", "--format", "text")
    assert code == 0
    assert "channel_class: single_dispersive" in out
    assert "case: 2" in out


def test_numerical_failure_exits_three(monkeypatch, capsys):
    import whprecode.cli as cli

    def explode(cfg):
        raise np.linalg.LinAlgError("synthetic failure")

    def report_nan(cfg):
        return {"fidelity": float("nan")}

    for command in (explode, report_nan):
        monkeypatch.setitem(cli._COMMANDS, "solve", (command, *cli._COMMANDS["solve"][1:]))
        code = cli.main(["solve", "--p", "1,0,0,0"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1


def test_memory_exhaustion_exits_three(monkeypatch, capsys):
    def exhaust(cfg):
        raise MemoryError("Unable to allocate 576. MiB for an array with shape (48, 48, 16384)")

    monkeypatch.setattr(cli, "dispatch", exhaust)
    code, out, err = run_cli(capsys, "general", "--p", "0.4,0.3,0.2,0.1")
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_address_space_exhaustion_in_a_fresh_process_exits_three(tmp_path):
    # At L = 300 the diagonal blocks are two (L, L, L) complex arrays of
    # 432 MB each.  The child's address space is capped at a probe child's
    # post-import size plus 256 MB, so parsing fits and the blocks do not.
    import resource

    L = 300
    config = tmp_path / "dense300.json"
    config.write_text(json.dumps({"L": L, "scattering": [[1.0 / (L * L)] * L] * L}))
    package_root = str(pathlib.Path(whprecode.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    probe = subprocess.run(
        [sys.executable, "-c", "import re, whprecode.cli; "
         "print(re.search(r'VmSize:\\s+(\\d+) kB', open('/proc/self/status').read())[1])"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    limit = (int(probe.stdout) + 256 * 1024) * 1024

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["general", "--config", str(config), "--samples", "1"]
    child = subprocess.run(
        [sys.executable, "-m", "whprecode.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
    )
    assert child.returncode == 3, child.stderr
    assert child.stdout == ""
    assert "Traceback" not in child.stderr
    assert child.stderr.startswith("numerical failure: ") and child.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "0.4,0.3,0.2,0.1"],
        ["--help"],
        ["solve", "--p", "0.4,0.3,0.4,0.1"],
        ["solve", "--bogus"],
        ["general", "--p", "0.4,0.3,0.2,0.1", "--samples", "50"],
    ],
)
def test_console_script_exits_with_main_code(monkeypatch, capsys, argv):
    # The installed ``whprecode`` script calls cli.run, which reads sys.argv.
    expected = main(list(argv))
    monkeypatch.setattr("sys.argv", ["whprecode", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == expected
    assert expected in (0, 2)


def test_solve_oracle_agreement(capsys):
    _, solve_out, _ = run_cli(capsys, "solve", "--p", "0.3,0.3,0.25,0.15")
    _, oracle_out, _ = run_cli(
        capsys, "oracle", "--p", "0.3,0.3,0.25,0.15", "--samples", "1000"
    )
    solved = json.loads(solve_out)["fidelity"]
    oracle = json.loads(oracle_out)
    assert abs(solved - oracle["closed_form"]) <= 1e-12
    assert abs(solved - oracle["oracle_axes"]) <= abs(oracle["gap_axes"]) + 1e-15


def _reuse_argvs(config):
    """The argvs of the reuse test, and the groups among them that must print the same.

    Each group places one command after, before and in the middle of its
    flags.
    """
    argvs = [
        ["--help"],
        *([command, "--help"] for command in cli._COMMANDS),
        [],
        ["bogus", "--p", "0.4,0.3,0.2,0.1"],
        ["--format", "xml", "solve", "--p", "1,0,0,0"],
        ["solve", "--nope", "1"],
        ["solve", "--p", "0.4,0.3,0.4,0.1"],
        ["--seed", "4", "oracle", "--samples", "300", "--p", "0.1,0.2,0.3,0.4"],
        ["--config", config, "simulate", "--trials", "200"],
        ["general", "--config", config, "--seed", "2"],
    ]
    commands = {
        "solve": ["--p", "0.4,0.3,0.2,0.1"],
        "classify": ["--p", "0.1,0.3,0.3,0.3"],
        "oracle": ["--p", "0.3,0.3,0.25,0.15", "--samples", "500"],
        "simulate": ["--p", "0.4,0.3,0.2,0.1", "--trials", "200", "--seed", "5"],
        "sweep": ["--trials", "20"],
        "general": ["--p", "0.4,0.3,0.2,0.1", "--samples", "200"],
    }
    groups = []
    for command, args in commands.items():
        for fmt in ("json", "csv", "text"):
            flags = [*args, "--format", fmt]
            middle = 2 * (len(flags) // 4)  # flags come in name-value pairs
            groups.append([[command, *flags], [*flags, command],
                           [*flags[:middle], command, *flags[middle:]]])
    return argvs + [argv for group in groups for argv in group], groups


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": [0.1, 0.2, 0.3, 0.4], "samples": 300}))
    argvs, groups = _reuse_argvs(str(config))
    reused = [run_cli(capsys, *argv) for argv in argvs]
    for argv, result in zip(argvs, reused):
        assert run_cli(capsys, *argv) == result, argv
    codes = {code for code, _, _ in reused}
    assert codes == {0, 2}

    results = {tuple(argv): result for argv, result in zip(argvs, reused)}
    for group in groups:
        (code, out, _), *others = (results[tuple(argv)] for argv in group)
        assert code == 0 and out
        assert all(other[:2] == (code, out) for other in others), group
    for argv in (["--help"], *([command, "--help"] for command in cli._COMMANDS)):
        code, out, _ = results[tuple(argv)]
        assert code == 0 and all(command in out for command in cli._COMMANDS), argv
    for argv in ([], ["bogus", "--p", "0.4,0.3,0.2,0.1"]):
        code, out, err = results[tuple(argv)]
        assert (code, out) == (2, "") and err.startswith("error:") and err.count("\n") == 1, argv


def _reference_parser():
    """An argparse reader of cli's option and command tables, the reference for _scan.

    The command is a positional among the flags; SUPPRESS keeps unset
    flags off the namespace, as _scan leaves them out of its dict.
    """
    parser = argparse.ArgumentParser(prog="whprecode")
    parser.add_argument("command", choices=tuple(cli._COMMANDS))
    for flag, (dest, kind, choices, metavar, text) in cli._OPTIONS.items():
        parser.add_argument(flag, dest=dest, type=kind, choices=choices, metavar=metavar,
                            default=argparse.SUPPRESS, help=text)
    return parser


_REFERENCE = _reference_parser()
# Each flag of _OPTIONS and each prefix that names it alone.  argparse reads
# a value like -1e-3 after one as an unknown option, so the reference gets
# a negative number joined to its flag by "=".
_FLAG_PREFIXES = frozenset(
    flag[:end]
    for flag in cli._OPTIONS
    for end in range(3, len(flag) + 1)
    if flag[:end] == flag or [f for f in (*cli._OPTIONS, "--help") if f.startswith(flag[:end])] == [flag]
)


def _join_negative_numbers(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _FLAG_PREFIXES and cli._NEGATIVE_NUMBER.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# Tokens for the scan-vs-argparse test: every command and exact flag, some
# abbreviations, "=" forms, and values a type or choice may reject.
_SCAN_FLAGS = [*cli._OPTIONS, "--sig", "--form", "--s"]
_SCAN_VALUES = ["0.4,0.3,0.2,0.1", "1", "-1", "-1e-3", "-.5", "nan", "inf", "-inf", "1_000",
                " 3", "", "abc", "0x10", "json", "csv", "xml", "solve", "=1", "-", "--"]
_SCAN_CHUNKS = st.one_of(
    st.tuples(st.sampled_from(_SCAN_FLAGS), st.sampled_from(_SCAN_VALUES)).map(list),
    st.tuples(st.sampled_from(_SCAN_FLAGS), st.sampled_from(_SCAN_VALUES)).map(
        lambda pair: ["=".join(pair)]),
    st.sampled_from([*cli._COMMANDS, "bogus", "-h", "--help", "--he", "--", "-", "--p==1",
                     "--p0="]).map(lambda token: [token]),
)


@settings(max_examples=1000)
@given(st.sampled_from(list(cli._COMMANDS)), st.lists(_SCAN_CHUNKS, max_size=5), st.integers(0, 5))
@example("solve", [["--p=--"]], 1)  # Python 3.11's argparse reads "--p=--" as p = []
@example("solve", [["--out", "-1"]], 1)
@example("solve", [["--ou", "-inf"]], 1)
@example("solve", [["--sig", "-1e-3"]], 1)
def test_scan_reads_what_argparse_reads(command, chunks, at):
    # The command sits among the chunks, so repeats, flags on both sides
    # of it and a second command all occur.
    argv = [token for chunk in chunks[:at] for token in chunk]
    argv += [command, *(token for chunk in chunks[at:] for token in chunk)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed, code = vars(_REFERENCE.parse_args(_join_negative_numbers(argv))), None
        except SystemExit as exc:
            parsed, code = None, exc.code
        try:
            scanned = cli._scan(argv)
        except (InvalidConfigError, SystemExit) as exc:
            scanned = exc
    if code == 0 or isinstance(scanned, SystemExit):
        # Help, which each reader may meet before or after a fault.
        assert code in (0, 2) and (isinstance(scanned, InvalidConfigError) or scanned.code == 0), argv
    elif parsed is None:
        assert isinstance(scanned, InvalidConfigError), (argv, scanned)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    elif isinstance(scanned, InvalidConfigError):
        # The one exception: a value "-" or "--", which argparse reads as
        # a value and the scan rejects.
        value = re.fullmatch(r"--\w+: expected one value, got '(.*)'", str(scanned)).group(1)
        assert value in ("-", "--"), argv
    else:
        # repr, so that a NaN value equals itself.
        assert repr(sorted(parsed.items())) == repr(sorted(scanned.items())), argv


def _abbreviated(argv):
    """argv with every full flag name cut to the shortest prefix that names it alone."""
    names = [*cli._OPTIONS, "--help"]
    return [
        next(token[:end] for end in range(3, len(token) + 1)
             if token[:end] == token or [n for n in names if n.startswith(token[:end])] == [token])
        if token in names else token
        for token in argv
    ]


def test_abbreviated_flags_print_what_full_names_print(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p": [0.1, 0.2, 0.3, 0.4], "samples": 300}))
    argvs, _ = _reuse_argvs(str(config))
    assert _abbreviated(["--sigma2", "--samples", "--seed", "--format", "--help", "--p", "--p0"]) == [
        "--si", "--sa", "--se", "--f", "--h", "--p", "--p0"]
    full = [run_cli(capsys, *argv) for argv in argvs]
    assert [run_cli(capsys, *_abbreviated(argv)) for argv in argvs] == full


def test_benchmark_request_shapes_reach_the_value_checks(tmp_path, capsys):
    # One argv of each shape the benchmark decks send, valid or not: the
    # malformed ones fail the value checks, not the parser.
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"L": 4, "scattering": [0.7] + [0.0] * 4 + [0.3] + [0.0] * 10}))
    quad = ["--p0", "0.4", "--p1", "0.3", "--p2", "0.2", "--p3", "0.1"]
    argvs = [
        ["solve", "--p", "0.4,0.3,0.2,0.1", "--format", "json"],
        ["classify", *quad, "--format", "csv"],
        ["solve", *quad, "--format", "text"],
        ["classify", "--p", "-0.1,0.5,0.3,0.3"],
        ["solve", "--p", "0.4,0.3,0.2,0.1", "--L", "4"],
        ["simulate", "--p", "0.4,0.3,0.2,0.1", "--trials", "200", "--sigma2", "0.01",
         "--seed", "5", "--format", "csv"],
        ["oracle", "--p", "0.4,0.3,0.2,0.1", "--samples", "300", "--seed", "7", "--format", "json"],
        ["general", "--config", str(config), "--samples", "200", "--seed", "3"],
    ]
    results = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in results] == [0, 0, 0, 2, 2, 0, 0, 0]
    assert [err for _, _, err in results if err] == [
        "error: p: weights must be nonnegative numbers\n",
        "error: L: command 'solve' is defined for L=2, got 4\n",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--p", "1,0,0,0", "--seed", 3], "argv: entry 4 is int, not str"),
        ([b"solve"], "argv: entry 0 is bytes, not str"),
        ("solve --p 1,0,0,0", "argv: expected a list of strings, got str"),
        (["solve", None], "argv: entry 1 is NoneType, not str"),
    ],
    ids=["int_entry", "bytes_entry", "str_argv", "none_entry"],
)
def test_argv_that_is_not_a_list_of_strings_exits_two(argv, message, capsys):
    code = main(argv)
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


def test_no_request_imports_argparse():
    package_root = str(pathlib.Path(whprecode.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = ("import contextlib, io, sys; from whprecode import cli\n"
            "requests = [(['solve', '--p', '0.4,0.3,0.2,0.1'], 0), (['solve', '--form', 'csv', '--p', '1,0,0,0'], 0),\n"
            "            (['--help'], 0), (['--he'], 0), (['solve', '--bogus'], 2), ([], 2)]\n"
            "for argv, expected in requests:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert cli.main(argv) == expected, argv\n"
            "assert 'argparse' not in sys.modules\n")
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_oracle_command_matches_direct_oracle_calls(seed):
    for quad in ("0.4,0.3,0.2,0.1", "0.25,0.25,0.25,0.25", "0,0.5,0,0.5", "0.1,0.6,0.2,0.1"):
        for samples in (1, 7, 2000, 20000):
            doc = dispatch(parse_config(
                ["oracle", "--p", quad, "--samples", str(samples), "--seed", str(seed)]
            ))
            p = [float(v) for v in quad.split(",")]
            with_axes = brute_force_bloch_oracle(p, samples, include_axes=True, seed=seed)
            random_only = brute_force_bloch_oracle(p, samples, include_axes=False, seed=seed)
            assert doc["oracle_axes"] == with_axes
            assert doc["oracle_random"] == random_only
            assert doc["gap_axes"] == doc["closed_form"] - with_axes
            assert doc["gap_random"] == doc["closed_form"] - random_only


_QUAD = "0.4,0.3,0.2,0.1"
_GENERAL_CONFIG = ["general", "--config", "{tmp}/cfg.json"]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["solve", "--p", "nan,0,0,1"], None),
        (["oracle", "--p", _QUAD, "--samples", "100", "--seed", "-1"], None),
        (["simulate", "--p", _QUAD, "--trials", "100", "--sigma2", "nan"], None),
        (["solve", "--p", _QUAD, "--out", "{tmp}/missing-dir/out.json"], None),
        (_GENERAL_CONFIG, {"scattering": "abc", "L": 2}),
        (_GENERAL_CONFIG, {"scattering": {"a": 1}, "L": 2}),
        (_GENERAL_CONFIG, {"scattering": [[0.5, 0.5], [0]], "L": 2}),
        (["solve", "--config", "{tmp}/cfg.json"], b'{"p": [1, 0, 0, 0], "L": "\xff"}'),
        (_GENERAL_CONFIG, {"scattering": [[True, False], [False, False]], "L": 2}),
        (_GENERAL_CONFIG, {"scattering": [["1", "0"], ["0", "0"]], "L": 2}),
        (["solve", "--config", "{tmp}/cfg.json"], {"p": [True, False, False, False]}),
        (["solve", "--config", "{tmp}/cfg.json"], {"p": ["1", "0", "0", "0"]}),
        (_GENERAL_CONFIG, {"scattering": [[True, 0], [0, 0]], "L": 2}),
        (["solve", "--config", "{tmp}/cfg.json"], {"p": [1, 0, 0, False]}),
        (
            ["solve", "--config", "{tmp}/cfg.json"],
            b'{"p": [1, 0, 0, 0], "L": 1' + b"0" * 5000 + b"}",  # beyond int() digit limits
        ),
    ],
    ids=[
        "nan_weight", "negative_seed", "nan_sigma2", "unwritable_out",
        "scattering_string", "scattering_object", "scattering_ragged", "config_not_utf8",
        "scattering_booleans", "scattering_numeric_strings", "p_booleans",
        "p_numeric_strings", "scattering_bool_among_numbers", "p_bool_among_numbers",
        "config_integer_too_long",
    ],
)
def test_contract_holes_exit_two(argv, config, tmp_path, capsys):
    if config is not None:
        raw = config if isinstance(config, bytes) else json.dumps(config).encode()
        (tmp_path / "cfg.json").write_bytes(raw)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing-dir").exists()


# The CLI contract over whole input spaces: random argv over the real flags
# and random config files.  Counts and L stay small so each run is quick;
# each flag value is garbage one time in four.
_JUNK = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e309", "", "abc", "1,2", "0x10"])
_QUADS = ["0.4,0.3,0.2,0.1", "1,0,0,0", "0.25,0.25,0.25,0.25", "0,0.5,0,0.5"]


def _pool(*values):
    return st.one_of(st.sampled_from(values), st.sampled_from(values), st.sampled_from(values), _JUNK)


_FLAG_VALUES = {
    "--p": _pool(*_QUADS, "nan,0,0,1", "1,0,0", "0.5,0.5,0.5,-0.5"),
    **{f"--p{i}": _pool("0", "0.25", "0.5", "1") for i in range(4)},
    "--L": _pool("1", "2", "3", "6"),
    "--sigma2": _pool("0", "0.1", "2", "1e-300"),
    "--trials": _pool("1", "2", "37", "2000"),
    "--samples": _pool("1", "37", "2000"),
    "--seed": _pool("0", "7", str(2**64)),
    "--format": _pool("json", "csv", "text"),
}
_COMMAND_NAMES = ["solve", "classify", "oracle", "simulate", "sweep", "general"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2000) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


@st.composite
def _grids(draw):
    L = draw(st.integers(1, 4))
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=L * L, max_size=L * L))
    total = sum(w)
    if not total > 0.0:
        w[0], total = 1.0, 1.0
    w = [v / total for v in w]
    return w if draw(st.booleans()) else [w[i * L:(i + 1) * L] for i in range(L)]


_CONFIG_VALUES = {
    "p": _JSON | st.sampled_from([[0.4, 0.3, 0.2, 0.1], [1, 0, 0, 0], [0.25] * 4]),
    "L": _JSON | st.integers(1, 6),
    "sigma2": _JSON,
    "trials": _JSON,
    "samples": _JSON,
    "seed": _JSON | st.integers(-1, 2**70),
    "scattering": _JSON | _grids(),
    "unknown": _JSON,
}
_CONFIGS = st.one_of(
    st.fixed_dictionaries({}, optional=_CONFIG_VALUES).map(json.dumps).map(str.encode),
    _JSON.map(json.dumps).map(str.encode),
    st.binary(max_size=12),
)


@st.composite
def _invocations(draw):
    # Bounded counts and valid weights up front (flags override the count
    # defaults of 1e5 and any config value); later flags may replace them.
    count = st.sampled_from(["2", "37", "500", "2000"])
    argv = [draw(st.sampled_from(_COMMAND_NAMES)), "--trials", draw(count), "--samples", draw(count)]
    argv += ["--p", draw(st.sampled_from(_QUADS))]
    for flag in draw(st.lists(st.sampled_from([*_FLAG_VALUES, "--config"]), max_size=3)):
        argv += [flag, "{config}" if flag == "--config" else draw(_FLAG_VALUES[flag])]
    return argv, draw(_CONFIGS)


@settings(max_examples=200)
@given(_invocations())
def test_cli_contract_holds_for_any_input(tmp_path_factory, invocation):
    argv, config = invocation
    path = tmp_path_factory.getbasetemp() / "property-config.json"
    path.write_bytes(config)
    argv = [str(path) if arg == "{config}" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    elif [v for f, v in zip(argv, argv[1:]) if f == "--format"][-1:] in ([], ["json"]):
        strict_json(out.getvalue())


@pytest.mark.parametrize("flag", ["--p", "--format", "--out", "--config"])
def test_an_explicit_double_dash_value_exits_two(flag, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "solve", "--p", "0.4,0.3,0.2,0.1", f"{flag}=--")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: expected one value, got ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _gaussian_grid(L, delay_width, doppler_width):
    """The cyclic Gaussian delay-Doppler profile on the L x L grid, every tap nonzero."""
    d = np.minimum(np.arange(L), L - np.arange(L))
    w = np.exp(-((d[:, None] / delay_width) ** 2) - (d[None, :] / doppler_width) ** 2)
    return (w / w.sum()).tolist()


def _general_docs(tmp_path, capsys, grid):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"L": len(grid), "scattering": grid}))
    argv = ["general", "--config", str(config), "--samples", "2000", "--seed", "3"]
    docs = {}
    for fmt in ("json", "csv", "text"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, ""), fmt
        docs[fmt] = out
    return argv, docs


def test_general_certifies_the_coset_pair_and_skips_the_restarts(tmp_path, capsys):
    # Elongated along the delay axis: the coset pair reaches the bound U.
    _, docs = _general_docs(tmp_path, capsys, _gaussian_grid(4, 0.5, 1.0))
    doc = strict_json(docs["json"])
    alternating = doc["alternating"]
    assert doc["certified"] is True
    assert (alternating["restarts"], alternating["half_steps"], alternating["restart_values"]) == (0, 0, [])
    assert alternating["converged"] is True
    assert alternating["best_value"] >= doc["upper_bound"] - 1e-12
    assert doc["lower_bound"] <= alternating["best_value"] + 1e-12
    header, row = docs["csv"].splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["certified"], cells["restarts"]) == ("true", "0")
    assert float(cells["upper_bound"]) == doc["upper_bound"]
    assert "certified: true" in docs["text"].splitlines()


def test_general_runs_the_restarts_when_uncertified(tmp_path, capsys):
    # The isotropic L = 8 grid: the coset pair falls short of U.
    grid = [[math.exp(-a * a - b * b) for b in (0, 1, 2, 3, 4, 3, 2, 1)] for a in (0, 1, 2, 3, 4, 3, 2, 1)]
    total = sum(map(sum, grid))
    argv, docs = _general_docs(tmp_path, capsys, [[v / total for v in row] for row in grid])
    doc = strict_json(docs["json"])
    assert doc["certified"] is False
    assert doc["alternating"]["best_value"] <= doc["upper_bound"] + 1e-12
    assert docs["csv"].splitlines()[0] == (
        "L,samples,seed,scattering,lower_bound,upper_bound,certified,"
        "alternating_best,alternating_converged,restarts"
    )
    cfg = parse_config(argv)
    trace = whprecode.alternating_fidelity_max(cfg.scattering, 8, whprecode.OptimizerConfig(seed=3))
    assert dispatch(cfg)["alternating"] == {
        "best_value": trace.best_value,
        "converged": trace.converged,
        "restarts": len(trace.restart_values),
        "half_steps": len(trace.objective_history),
        "restart_values": list(trace.restart_values),
    }


def _l7_grid():
    """The origin and two taps on the 7 x 7 grid: U is 0.13 above the coset pair's gain 0.798."""
    grid = [[0.0] * 7 for _ in range(7)]
    grid[0][0], grid[0][2], grid[1][2] = 0.315, 0.202, 0.483
    return grid


def test_general_certifies_the_coset_pair_by_the_ppt_dual(tmp_path, capsys):
    argv, docs = _general_docs(tmp_path, capsys, _l7_grid())
    doc = strict_json(docs["json"])
    alternating = doc["alternating"]
    assert doc["certified"] is True
    assert (alternating["restarts"], alternating["half_steps"], alternating["restart_values"]) == (0, 0, [])
    assert alternating["converged"] is True
    assert 0.0 <= doc["upper_bound"] - alternating["best_value"] <= 1e-12
    assert abs(alternating["best_value"] - 0.798) <= 1e-12
    C = parse_config(argv).scattering
    assert doc["upper_bound"] < whprecode.fidelity_upper_bound(C) - 0.1
    header, row = docs["csv"].splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["certified"], cells["restarts"]) == ("true", "0")
    assert float(cells["upper_bound"]) == doc["upper_bound"]


def test_general_seeks_no_dual_where_the_search_beats_the_pair_or_L_is_large(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("ppt_certificate called")

    monkeypatch.setattr(cli, "ppt_certificate", refuse)
    # The isotropic L = 4 grid: the search's 0.5825 beats the coset pair's 0.5701.
    doc = strict_json(_general_docs(tmp_path, capsys, _gaussian_grid(4, 1.0, 1.0))[1]["json"])
    assert doc["certified"] is False and doc["lower_bound"] > 0.58
    # The L = 7 grid's taps at L = 11, above the largest L of the benchmark
    # decks: U is not reached and the search stays below the pair's 0.798,
    # so only the L cap keeps the dual from being sought.
    grid = [[0.0] * 11 for _ in range(11)]
    grid[0][0], grid[0][2], grid[1][2] = 0.315, 0.202, 0.483
    doc = strict_json(_general_docs(tmp_path, capsys, grid)[1]["json"])
    assert doc["certified"] is False and doc["lower_bound"] < 0.798
    assert doc["alternating"]["restarts"] >= 8


def test_general_keeps_the_restarts_where_the_dual_fails(tmp_path, capsys):
    # L = 4, origin and three taps: the relaxation's optimum lies above K = 0.776.
    grid = [[0.0] * 4 for _ in range(4)]
    grid[0][0], grid[2][1], grid[3][0], grid[3][3] = 0.365, 0.125, 0.099, 0.411
    argv, docs = _general_docs(tmp_path, capsys, grid)
    assert strict_json(docs["json"])["certified"] is False
    cfg = parse_config(argv)
    doc = dispatch(cfg)
    assert doc["upper_bound"] == whprecode.fidelity_upper_bound(cfg.scattering)
    trace = whprecode.alternating_fidelity_max(cfg.scattering, 4, whprecode.OptimizerConfig(seed=3))
    assert doc["alternating"]["best_value"] == trace.best_value
    assert doc["alternating"]["restart_values"] == list(trace.restart_values)


def _ridge16_grid():
    """The isotropic L = 16 ridge grid of the CI console-script step."""
    d = [min(m, 16 - m) for m in range(16)]
    return [[math.exp(-a * a - b * b) for b in d] for a in d]


def _sparse9_grid():
    """The slow L = 9 sparse grid of the CI console-script step."""
    grid = [[0.0] * 9 for _ in range(9)]
    grid[0][0], grid[0][4], grid[5][8], grid[6][3], grid[8][1] = 0.233678, 0.197041, 0.233176, 0.24322, 0.092885
    return grid


@pytest.mark.parametrize("make_grid", [_ridge16_grid, _sparse9_grid], ids=["ridge16", "sparse9"])
def test_general_restarts_report_no_value_above_the_best_or_the_bound(tmp_path, capsys, make_grid):
    # Uncertified grids whose restarts park: a parked restart reports the
    # gain it reached, so none exceeds the best, and the best stays within U.
    grid = make_grid()
    total = sum(map(sum, grid))
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"L": len(grid), "scattering": [[v / total for v in row] for row in grid]}))
    code, out, err = run_cli(capsys, "general", "--config", str(config), "--samples", "2000", "--seed", "0")
    assert (code, err) == (0, "")
    doc = strict_json(out)
    alternating = doc["alternating"]
    assert doc["certified"] is False
    assert alternating["converged"] is True and alternating["half_steps"] < 1001
    assert max(alternating["restart_values"]) == alternating["best_value"]
    assert alternating["best_value"] <= doc["upper_bound"] + 1e-12
