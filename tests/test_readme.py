"""The README's library tour runs, and the values its comments state hold."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# A trailing comment that is a bare number states the statement's value.
_STATED = re.compile(r"#\s*(-?\d+(?:\.\d+)?)\s*$")


def _tour_source() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README should hold exactly one python block"
    return blocks[0]


def test_readme_tour_runs_and_states_true_values():
    source = _tour_source()
    lines = source.splitlines()
    namespace: dict = {}
    checked = {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        stated = _STATED.search(lines[node.end_lineno - 1])
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            if stated:
                checked[code] = (float(value), float(stated.group(1)))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert len(checked) >= 4  # sol.fidelity, channel_fidelity, sinr, the oracle
    for code, (value, expected) in checked.items():
        assert abs(value - expected) <= 1e-12, code
