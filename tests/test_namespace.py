"""The lazy package namespace, and the layers each command loads.

Every check runs in a fresh interpreter, since the modules an import
loads stay loaded for the rest of a process.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import whprecode

_NUMERICAL = ("whprecode.mc", "whprecode.optimize")


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this package; return its stdout."""
    package_root = str(pathlib.Path(whprecode.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _loaded_after_main(argv: list[str], expected_code: int) -> set[str]:
    """The numerical modules in sys.modules after one cli.main call in a fresh interpreter."""
    code = ("import contextlib, io, sys; from whprecode import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            f"assert code == {expected_code}, code\n"
            f"print(' '.join(m for m in {_NUMERICAL!r} if m in sys.modules))\n")
    return set(_fresh(code).split())


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import sys, whprecode\n"
                    "print(' '.join(m for m in sys.modules if m.startswith(('whprecode', 'numpy'))))")
    assert loaded.split() == ["whprecode"]


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["solve", "--p", "0.4,0.3,0.2,0.1"], 0),
        (["solve", "--p", "0.4,0.3,0.2,0.1", "--format", "csv"], 0),
        (["solve", "--p", "0.4,0.3,0.2,0.1", "--format", "text"], 0),
        (["classify", "--p", "0.4,0.3,0.2,0.1"], 0),
        (["classify", "--p", "0.25,0.25,0.25,0.25", "--format", "csv"], 0),
        (["classify", "--p", "1,0,0,0", "--format", "text"], 0),
        (["classify", "--p", "0.4,0.3,0.2"], 2),
    ],
    ids=["solve-json", "solve-csv", "solve-text", "classify-json", "classify-csv",
         "classify-text", "classify-malformed"],
)
def test_closed_form_commands_load_no_numerical_layer(argv, expected_code):
    assert _loaded_after_main(argv, expected_code) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--p", "0.4,0.3,0.2,0.1", "--samples", "10"],
        ["simulate", "--p", "0.4,0.3,0.2,0.1", "--trials", "2"],
        ["sweep", "--trials", "2"],
        ["general", "--p", "0.4,0.3,0.2,0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_numerical_command_loads_both_numerical_layers(argv):
    assert _loaded_after_main(argv, 0) == set(_NUMERICAL)


def test_every_public_name_is_its_home_modules_object():
    # The home module is the one the object names as its own, so the check
    # does not read the namespace's table.  The star import runs first, on
    # a namespace no earlier access has filled.
    _fresh("from whprecode import *\n"
           "import importlib, whprecode\n"
           "names = whprecode.__all__\n"
           "assert len(names) == len(set(names)) == 56, len(names)\n"
           "unbound = [n for n in names if n not in globals()]\n"
           "assert not unbound, unbound\n"
           "for name in names:\n"
           "    obj = globals()[name]\n"
           "    home = importlib.import_module(obj.__module__)\n"
           "    assert home.__name__.startswith('whprecode.'), name\n"
           "    assert getattr(home, name) is obj is getattr(whprecode, name), name\n")


def test_dir_lists_every_public_name_and_unknown_names_raise():
    _fresh("import sys, whprecode\n"
           "listed = dir(whprecode)\n"
           "missing = sorted(set(whprecode.__all__) - set(listed))\n"
           "assert not missing, missing\n"
           "assert listed == sorted(listed)\n"
           "for name in ('no_such_name', 'mc', '__wrapped__'):\n"
           "    try:\n"
           "        getattr(whprecode, name)\n"
           "    except AttributeError as exc:\n"
           "        assert repr(name) in str(exc), exc\n"
           "    else:\n"
           "        raise AssertionError(name)\n"
           "assert not any(m.startswith('whprecode.') for m in sys.modules)\n")
