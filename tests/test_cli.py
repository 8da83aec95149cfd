"""Tests for the command line front end."""

import json

import numpy as np
import pytest

from whprecode.cli import main, parse_config, render_json
from whprecode.errors import InvalidConfigError


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


def test_json_round_trip_is_stable(capsys):
    for argv in (
        ["solve", "--p", "0.4,0.3,0.2,0.1"],
        ["oracle", "--p", "0.1,0.2,0.3,0.4", "--samples", "500"],
        ["simulate", "--p", "0.25,0.25,0.25,0.25", "--trials", "100"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert render_json(json.loads(out)) == out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "solve", "--p", "1,0,0,0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["fidelity"] == 1.0


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

    monkeypatch.setitem(cli._COMMANDS, "solve", explode)
    code = cli.main(["solve", "--p", "1,0,0,0"])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure" in captured.err


def test_solve_oracle_agreement(capsys):
    _, solve_out, _ = run_cli(capsys, "solve", "--p", "0.3,0.3,0.25,0.15")
    _, oracle_out, _ = run_cli(
        capsys, "oracle", "--p", "0.3,0.3,0.25,0.15", "--samples", "1000"
    )
    solved = json.loads(solve_out)["fidelity"]
    oracle = json.loads(oracle_out)
    assert abs(solved - oracle["closed_form"]) <= 1e-12
    assert abs(solved - oracle["oracle_axes"]) <= abs(oracle["gap_axes"]) + 1e-15


_QUAD = "0.4,0.3,0.2,0.1"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "nan,0,0,1"],
        ["oracle", "--p", _QUAD, "--samples", "100", "--seed", "-1"],
        ["simulate", "--p", _QUAD, "--trials", "100", "--sigma2", "nan"],
        ["solve", "--p", _QUAD, "--out", "{tmp}/missing-dir/out.json"],
    ],
    ids=["nan_weight", "negative_seed", "nan_sigma2", "unwritable_out"],
)
def test_contract_holes_exit_two(argv, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing-dir").exists()
