"""Command line front end.

Commands: ``solve`` (closed-form pulse design), ``classify`` (channel
regime), ``oracle`` (closed form vs brute-force cross-check), ``simulate``
(Monte Carlo verification of the designed link), ``sweep`` (evenly-spread
family over a p0 grid) and ``general`` (numerical optimization at general L).

Inputs come from flags, optionally underlaid by a JSON config file whose
recognized keys are ``p``, ``L``, ``sigma2``, ``trials``, ``samples``,
``seed`` and ``scattering``; flags override file values.  Output is JSON
(canonical: sorted keys, floats at 12 significant digits), CSV with fixed
per-command columns, or human-oriented text.  Exit codes: 0 success,
2 invalid input, 3 internal numerical failure.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .bloch import (
    ChannelClass,
    ScatteringQuad,
    classify_channel,
    solve_fidelity,
)
from .errors import InvalidConfigError, WHPrecodeError
from .linalg import require_array, require_int, require_real
from .multiplex import select_schemes
from .wssus import ScatteringFunction

# The scalars a flag or the config file may set, and their defaults.
_SCALAR_DEFAULTS = {"L": 2, "sigma2": 0.1, "trials": 100_000, "samples": 100_000, "seed": 0}
_CONFIG_KEYS = ("p", *_SCALAR_DEFAULTS, "scattering")
# The one option table, flag: (namespace name, type, choices, metavar, help).
# It builds _scan's lookups and the --help text, in this order.
_OPTIONS = {
    "--p": ("p", str, None, "P0,P1,P2,P3", "four scattering weights, comma separated"),
    "--p0": ("p0", float, None, None, "weight of the identity shift"),
    "--p1": ("p1", float, None, None, "weight of the time shift"),
    "--p2": ("p2", float, None, None, "weight of the joint shift"),
    "--p3": ("p3", float, None, None, "weight of the frequency shift"),
    "--L": ("L", int, None, None, "signal space dimension"),
    "--sigma2": ("sigma2", float, None, None, "noise power"),
    "--trials": ("trials", int, None, None, "Monte Carlo trials"),
    "--samples": ("samples", int, None, None, "oracle samples"),
    "--seed": ("seed", int, None, None, "master RNG seed"),
    "--format": ("output_format", str, ("json", "csv", "text"), None,
                 "output format (default json)"),
    "--out": ("out", str, None, "PATH", "write output to PATH"),
    "--config": ("config", str, None, "PATH", "JSON config file"),
}
# A next-token value that may start with "-", as a negative number: a minus
# sign, then a digit, a point, inf or nan.
_NEGATIVE_NUMBER = re.compile(r"-([\d.]|inf|nan)", re.IGNORECASE)
# Per channel class: its case number (None for a generic channel, whose
# case comes from the extremal families) and its narrative.
_CASES = {
    ChannelClass.NON_DISPERSIVE: (1, "all power on a single shift: flat fading, gain 1 with any pulse"),
    ChannelClass.SINGLE_DISPERSIVE: (
        2, "dispersion confined to one shift axis: gain 1 with the matching pulse"
    ),
    ChannelClass.UNDERSPREAD: (3, "a dominant weight above one half keeps the gain above one half"),
    ChannelClass.COMPLETELY_OVERSPREAD: (
        4, "uniform weights over all four shifts: gain pinned at the floor 1/2"
    ),
    ChannelClass.GENERIC: (None, "doubly dispersive profile without a dominant weight"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one invocation."""

    command: str
    quad: ScatteringQuad | None
    scattering: ScatteringFunction | None
    L: int
    sigma2: float
    trials: int
    samples: int
    seed: int
    output_format: str
    output_path: str | None


def _help() -> str:
    """The --help text, built from _COMMANDS, _OPTIONS and _SCALAR_DEFAULTS."""
    lines = ["usage: whprecode COMMAND [FLAG VALUE ...]", "",
             "Design and verify statistics-adapted pulses for dispersive channels.", "",
             "commands:"]
    lines += [f"  {name:<10}{text}" for name, (_, text, _) in _COMMANDS.items()]
    lines += ["", "flags, before or after the command, each in full or as a prefix that names one:",
              f"  {'-h, --help':<24}print this help and exit"]
    for flag, (dest, _, choices, metavar, text) in _OPTIONS.items():
        value = metavar or ("|".join(choices) if choices else dest.upper())
        if dest in _SCALAR_DEFAULTS:
            text += f" (default {_SCALAR_DEFAULTS[dest]})"
        lines.append(f"  {flag + ' ' + value:<24}{text}")
    return "\n".join(lines)


def _scan(argv: list[str]) -> dict:
    """The command and the flag values of ``argv``, by namespace name, read in one pass.

    Each token is the command, a flag of _OPTIONS, ``-h``, ``--help`` or
    ``--``.  A flag is given in full or as a prefix that names exactly one
    flag (``--sam``, ``--he``), with its value after "=" or in the next
    token; a next-token value may start with "-" only as a negative number
    (_NEGATIVE_NUMBER).  ``--`` ends the flags, so only the command may
    follow it.  Help prints the help text to stdout and raises
    SystemExit(0).  Every other fault raises InvalidConfigError:
    an unknown or ambiguous flag, a missing value or a value "--", a value
    its flag's type or choices reject, and no command or a second one.
    """
    given = {}
    tokens = iter(argv)
    flags = True
    for token in tokens:
        if not flags or not token.startswith("-"):
            if "command" in given or token not in _COMMANDS:
                raise InvalidConfigError(
                    f"command: expected one of {', '.join(_COMMANDS)}, got {token!r}"
                    + (f" after {given['command']!r}" if "command" in given else ""))
            given["command"] = token
            continue
        if token == "--":
            flags = False
            continue
        name, eq, value = token.partition("=")
        found = [name] if name in _OPTIONS else [
            flag for flag in (*_OPTIONS, "--help", "-h") if len(name) > 1 and flag.startswith(name)]
        if len(found) != 1:
            raise InvalidConfigError(
                f"{name}: ambiguous flag, could be {', '.join(found)}" if found else f"{name}: unknown flag")
        flag = found[0]
        if flag not in _OPTIONS:  # -h or --help
            if eq:
                raise InvalidConfigError(f"{flag}: takes no value")
            try:
                print(_help())
            except OSError:  # a full stdout or a closed pipe: still no traceback
                pass
            raise SystemExit(0)
        if not eq:
            value = next(tokens, None)
        if value is None or value == "--" or (
                not eq and value.startswith("-") and not _NEGATIVE_NUMBER.match(value)):
            raise InvalidConfigError(
                f"{flag}: expected one value" + ("" if value is None else f", got {value!r}"))
        dest, kind, choices, _, _ = _OPTIONS[flag]
        try:
            given[dest] = kind(value)
        except ValueError:
            raise InvalidConfigError(f"{flag}: invalid {kind.__name__} value {value!r}") from None
        if choices and given[dest] not in choices:
            raise InvalidConfigError(
                f"{flag}: invalid choice {value!r} (choose from {', '.join(choices)})")
    if "command" not in given:
        raise InvalidConfigError(f"command: expected one of {', '.join(_COMMANDS)}")
    return given


def _load_config_file(path: str, violations: list[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        violations.append(f"config: cannot read {path!r}: {exc}")
        return {}
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, integers too long
        violations.append(f"config: invalid JSON in {path!r}: {exc}")
        return {}
    if not isinstance(data, dict):
        violations.append("config: top level must be a JSON object")
        return {}
    for key in data:
        if key not in _CONFIG_KEYS:
            violations.append(f"config: unknown key {key!r}")
    return data


def _read(violations: list[str], field: str, reader, *args):
    """``reader(*args)``, or None with its WHPrecodeError filed under ``field``."""
    try:
        return reader(*args)
    except WHPrecodeError as exc:
        violations.append(f"{field}: {exc}")
        return None


def _assemble_quad(given, file_cfg, violations) -> ScatteringQuad | None:
    components: list[float | None] = [None, None, None, None]
    if "p" in file_cfg:
        raw = _read(violations, "p", require_array, file_cfg["p"], "config value", float)
        if raw is not None and raw.shape != (4,):
            violations.append("p: config value must be a list of four numbers")
        elif raw is not None:
            components = list(raw)
    p_flag = given.get("p")
    if p_flag is not None:
        try:
            components = [float(v) for v in p_flag.split(",")]
        except ValueError:
            components = []
        if len(components) != 4:
            violations.append("p: expected four comma-separated numbers")
            return None
    for i, name in enumerate(("p0", "p1", "p2", "p3")):
        flag = given.get(name)
        if flag is not None:
            components[i] = flag
    if all(v is None for v in components):
        return None
    if any(v is None for v in components):
        missing = [f"p{i}" for i, v in enumerate(components) if v is None]
        violations.append(f"p: all four weights are required (missing {', '.join(missing)})")
        return None
    return _read(violations, "p", ScatteringQuad, *components)


def _assemble_scattering(file_cfg, L, quad, violations) -> ScatteringFunction | None:
    if "scattering" in file_cfg:
        # Read for its shape only: ScatteringFunction checks the values.
        grid = _read(violations, "scattering", require_array,
                     file_cfg["scattering"], "weights", float, False)
        if grid is None:
            return None
        if grid.shape == (L * L,):
            grid = grid.reshape(L, L)
        return _read(violations, "scattering", ScatteringFunction, L, grid)
    if quad is not None and L == 2:
        return quad.to_scattering_function()
    return None


def parse_config(argv=None) -> RunConfig:
    """Parse flags and optional config file into a validated RunConfig.

    ``argv`` is a sequence of strings (default ``sys.argv[1:]``); a string,
    bytes or a non-string entry is an InvalidConfigError.  _scan, the one
    parser, reads it: a usage error raises InvalidConfigError, and
    ``-h``/``--help`` prints the help text and raises SystemExit(0).  The
    values are then read by the library's readers; every violation found is
    reported at once, each naming the offending field, via InvalidConfigError.
    """
    argv = sys.argv[1:] if argv is None else argv
    if isinstance(argv, (str, bytes)):
        raise InvalidConfigError(f"argv: expected a list of strings, got {type(argv).__name__}")
    argv = list(argv)
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            raise InvalidConfigError(f"argv: entry {i} is {type(arg).__name__}, not str")
    given = _scan(argv)
    command = given["command"]
    violations: list[str] = []
    config_path = given.get("config")
    file_cfg = _load_config_file(config_path, violations) if config_path is not None else {}

    # Lower bounds; trials and samples bind only the commands that use them.
    lower = {"L": 1, "sigma2": 0.0, "seed": 0,
             "trials": 2 if command in ("simulate", "sweep") else None,
             "samples": 1 if command == "oracle" else None}
    # A flag overrides the file; a value given by neither takes its default,
    # which is valid, so only given values are read.
    L, sigma2, trials, samples, seed = (
        _read(violations, name, require_int if _OPTIONS[f"--{name}"][1] is int else require_real,
              given.get(name, file_cfg.get(name)), "value", lower[name])
        if name in given or name in file_cfg else default
        for name, default in _SCALAR_DEFAULTS.items()
    )

    quad = _assemble_quad(given, file_cfg, violations)
    _, _, reads_quad = _COMMANDS[command]
    if reads_quad:
        if quad is None and not any(v.startswith("p:") for v in violations):
            violations.append("p: four scattering weights are required (--p or --p0..--p3)")
        if L not in (2, None):
            violations.append(f"L: command '{command}' is defined for L=2, got {L}")

    scattering = None
    if command == "general" and L is not None:
        scattering = _assemble_scattering(file_cfg, L, quad, violations)
        if scattering is None and not any(v.startswith("scattering:") for v in violations):
            violations.append(
                "scattering: an LxL weight grid is required for 'general' "
                "(config key 'scattering', or --p at L=2)"
            )

    if violations:
        raise InvalidConfigError("; ".join(violations))
    return RunConfig(
        command=command,
        quad=quad,
        scattering=scattering,
        L=L,
        sigma2=sigma2,
        trials=trials,
        samples=samples,
        seed=seed,
        output_format=given.get("output_format") or "json",
        output_path=given.get("out"),
    )


def _complex_pairs(v) -> list[list[float]]:
    return [[z.real, z.imag] for z in np.asarray(v, dtype=complex).tolist()]


def _scheme_doc(scheme) -> list[list[int]]:
    return [list(mu) for mu in scheme]


def _family_flags(quad: ScatteringQuad) -> tuple[bool, bool]:
    rest = (quad.p1, quad.p2, quad.p3)
    worst = max(rest) - min(rest) <= 1e-9
    best = sum(1 for v in rest if v <= 1e-9) == 2 and max(rest) > 1e-9
    return worst, best


def _cmd_solve(cfg: RunConfig) -> dict:
    solution = solve_fidelity(cfg.quad)
    return {
        "fidelity": solution.fidelity,
        "n_star": solution.n_star,
        "sign": solution.sign,
        "degenerate": solution.degenerate,
        "tied": list(solution.tied),
        "x_opt": solution.x_opt.tolist(),
        "y_opt": solution.y_opt.tolist(),
        "precoder": _complex_pairs(solution.precoder),
        "equalizer": _complex_pairs(solution.equalizer),
        "channel_class": classify_channel(cfg.quad).value,
        "schemes": [_scheme_doc(s) for s in select_schemes(solution.n_star)],
    }


def _cmd_classify(cfg: RunConfig) -> dict:
    channel_class = classify_channel(cfg.quad)
    worst, best = _family_flags(cfg.quad)
    case, narrative = _CASES[channel_class]
    if case is None:
        case = 5 if worst else (6 if best else None)
    if worst:
        narrative += "; evenly spread off-origin power (gain-minimizing family for this p0)"
    if best:
        narrative += "; off-origin power on one axis (gain-maximizing family for this p0)"
    return {
        "channel_class": channel_class.value,
        "case": case,
        "narrative": narrative,
        "fidelity": solve_fidelity(cfg.quad).fidelity,
        "worst_case_family": worst,
        "best_case_family": best,
    }


@functools.cache
def _numerical():
    """The Monte Carlo and optimizer layers, ``(mc, optimize)``, imported together.

    ``solve`` and ``classify`` call neither, so a process that runs only
    them never compiles or runs these modules.  Each numerical command
    calls this first, before its first draw, and loads both: a process
    whose first numerical job is ``simulate`` has ``optimize`` in place
    before the Monte Carlo heap grows, for a later ``oracle`` job.  The
    cache spares each later job the import statement's lookups.
    """
    from . import mc, optimize

    return mc, optimize


def _cmd_oracle(cfg: RunConfig) -> dict:
    _, optimize = _numerical()
    closed = solve_fidelity(cfg.quad).fidelity
    random_only = optimize.brute_force_bloch_oracle(
        cfg.quad, cfg.samples, include_axes=False, seed=cfg.seed)
    # include_axes=True adds one candidate, 1/2 + max_k |b_k|, to the same
    # samples, and that candidate is the closed form to the last bit.
    with_axes = max(closed, random_only)
    return {
        "samples": cfg.samples,
        "seed": cfg.seed,
        "closed_form": closed,
        "oracle_axes": with_axes,
        "oracle_random": random_only,
        "gap_axes": closed - with_axes,
        "gap_random": closed - random_only,
    }


def _cmd_simulate(cfg: RunConfig) -> dict:
    mc, _ = _numerical()
    solution = solve_fidelity(cfg.quad)
    scheme = select_schemes(solution.n_star)[0]
    report = mc.estimate_expectations(
        cfg.quad.to_scattering_function(),
        solution.precoder,
        solution.equalizer,
        scheme,
        sigma2=cfg.sigma2,
        trials=cfg.trials,
        seed=cfg.seed,
    )
    return {
        "sigma2": cfg.sigma2,
        "trials": report.trials,
        "seed": report.seed,
        "fidelity": solution.fidelity,
        "n_star": solution.n_star,
        "precoder": _complex_pairs(solution.precoder),
        "equalizer": _complex_pairs(solution.equalizer),
        "scheme": _scheme_doc(scheme),
        "mean_gain": report.mean_gain,
        "stderr_gain": report.stderr_gain,
        "mean_interf": report.mean_interf,
        "stderr_interf": report.stderr_interf,
        "analytic_gain": report.analytic_gain,
        "analytic_interf": report.analytic_interf,
        "sinr_empirical": report.sinr_empirical,
        "sinr_analytic": report.sinr_analytic,
    }


def _cmd_sweep(cfg: RunConfig) -> dict:
    mc, _ = _numerical()
    grid = [i / 100.0 for i in range(101)]
    rows = mc.sweep_p0(grid, trials=cfg.trials, seed=cfg.seed)
    return {
        "trials": cfg.trials,
        "seed": cfg.seed,
        "points": len(rows),
        "rows": [dataclasses.asdict(row) for row in rows],
    }


def _cmd_general(cfg: RunConfig) -> dict:
    _, optimize = _numerical()
    design = optimize.general_design(cfg.scattering, optimize.OptimizerConfig(seed=cfg.seed))
    trace = design.trace
    return {
        "L": cfg.L,
        "seed": cfg.seed,
        "scattering": cfg.scattering.weights.tolist(),
        "lower_bound": design.lower_bound,
        "upper_bound": design.upper_bound,
        "certified": design.certified,
        "alternating": {
            "best_value": trace.best_value,
            "converged": trace.converged,
            "restarts": len(trace.restart_values),
            "half_steps": len(trace.objective_history),
            "restart_values": list(trace.restart_values),
        },
    }


# The one subcommand table, name: (handler, --help line, reads an L=2 quad).
# It builds the --help text in this order; _scan, dispatch and the L=2
# checks read it.
_COMMANDS = {
    "solve": (_cmd_solve, "closed-form optimal pulses and schemes", True),
    "classify": (_cmd_classify, "qualitative channel regime", True),
    "oracle": (_cmd_oracle, "closed form vs brute-force cross-check", True),
    "simulate": (_cmd_simulate, "Monte Carlo link verification", True),
    "sweep": (_cmd_sweep, "evenly-spread family over a p0 grid", False),
    "general": (_cmd_general, "numerical optimization at general L", False),
}


def dispatch(cfg: RunConfig) -> dict:
    """Run the configured command and return its report document.

    The document starts with the command name and, for the L=2 commands,
    the weights it ran on.
    """
    run, _, reads_quad = _COMMANDS[cfg.command]
    doc = {"command": cfg.command}
    if reads_quad:
        doc["p"] = list(cfg.quad.as_tuple())
    doc.update(run(cfg))
    return doc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _float_token(value: float) -> str:
    """The canonical JSON token of a float: ``repr(float(f"{value:.12g}"))``, infinities as strings.

    The ``%.12g`` text is the token itself, with ".0" added when it has no
    ".", unless it has an exponent: a decimal of at most 12 digits
    round-trips through a double, repr prints the shortest decimal that
    round-trips, and no other decimal of at most 15 digits reads as the
    same double, so repr's digits are the text's.  Both formats are
    positional in ``[1e-4, 1e12)``, where ``%.12g`` has no exponent; an
    exponent form keeps the repr round trip, which may print it
    positionally.  NaN raises FloatingPointError.
    """
    text = f"{value:.12g}"
    if text[-1] in "fn":  # "inf", "-inf" or "nan"
        if text == "nan":
            raise FloatingPointError("NaN in the report")
        return f'"{text}"'
    if "e" in text:
        return repr(float(text))
    return text if "." in text else text + ".0"


def _json(value, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at indent pad, its floats canonical.

    A float is rounded to 12 significant digits (_float_token), an infinity
    becomes the string "inf" or "-inf" as in the CSV and text formats, and
    NaN raises FloatingPointError.
    """
    if isinstance(value, float):
        return _float_token(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_float_token(v) if type(v) is float else _json(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{_json_string(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)  # other objects raise TypeError


def render_json(doc: dict) -> str:
    """Canonical JSON: sorted string keys, 12 significant digits, infinities as "inf"."""
    return _json(doc, "") + "\n"


def _joined(sep, item=_fmt):
    return lambda value: sep.join(map(item, value))


_complex_cell = _joined(";", "{0[0]:.12g}{0[1]:+.12g}j".format)
_shift_cell = _joined("|", "{0[0]},{0[1]}".format)
# How each report field becomes CSV cells: one cell, or a dict of named
# cells.  Fields not listed here are one cell formatted by _fmt.
_CSV_CELLS = {
    "command": lambda value: {},
    "p": lambda value: {f"p{i}": _fmt(v) for i, v in enumerate(value)},
    "precoder": _complex_cell,
    "equalizer": _complex_cell,
    "scheme": _shift_cell,
    "schemes": _joined(" ", _shift_cell),
    "tied": _joined("|"),
    "x_opt": _joined("|"),
    "y_opt": _joined("|"),
    "scattering": _joined("|", _joined("|")),
    "alternating": lambda value: {
        "alternating_best": _fmt(value["best_value"]),
        "alternating_converged": _fmt(value["converged"]),
        "restarts": _fmt(value["restarts"]),
    },
}


def _csv_row(record: dict) -> dict:
    row = {}
    for key, value in record.items():
        cells = _CSV_CELLS.get(key, _fmt)(value)
        row.update(cells if isinstance(cells, dict) else {key: cells})
    return row


def render_csv(doc: dict) -> str:
    """Fixed per-command columns: one row, or one per grid point for sweep."""
    rows = [_csv_row(record) for record in doc.get("rows", [doc])]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows(row.values() for row in rows)
    return buffer.getvalue()


def render_text(doc: dict) -> str:
    """Human-oriented key/value lines; format carries no stability guarantee."""
    lines = []
    for key, value in doc.items():
        if key == "rows":
            lines.append("p0      fidelity        mc_gain         stderr")
            for row in value:
                lines.append(
                    f"{row['p0']:<8.4g}{row['fidelity']:<16.10g}"
                    f"{row['mc_gain']:<16.10g}{row['stderr']:.4g}"
                )
        elif isinstance(value, dict):
            for sub_key, sub_value in value.items():
                lines.append(f"{key}.{sub_key}: {_fmt(sub_value)}")
        else:
            lines.append(f"{key}: {_fmt(value)}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        cfg = parse_config(argv)
        rendered = _RENDERERS[cfg.output_format](dispatch(cfg))
    except SystemExit:  # -h or --help: _scan printed the help text
        return 0
    except WHPrecodeError as exc:  # InvalidConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # One guarded write for both destinations: a file that cannot be
    # written and a full or closed stdout are input errors, not tracebacks.
    try:
        if cfg.output_path is not None:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        elif sys.stdout is None:
            raise OSError("standard output is closed")
        else:
            sys.stdout.write(rendered)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {'stdout' if cfg.output_path is None else 'out'}: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            # A failed stdout keeps its unwritten bytes; send them to
            # os.devnull, or the exit flush fails again and exits 120.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    run()
