"""The README's library example runs, and gives the values its comments
state, its export list is what the package exports, and the graph file of
its CLI section parses as the graph it names."""

import ast
import re
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

import gerbe

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                         re.M | re.S)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert [r.exact for r in ns["roots"]] == [Fraction(-1, 3), Fraction(1, 1)]
    assert ns["dim"] == 3 == len(ns["u"].signs)
    assert ns["u"].signs == (1, 1, 1)
    assert ns["grp"].order == 48
    assert ns["orbits_on_lines"](ns["grp"]).is_2_transitive is True
    assert ns["sigma"].shape == ns["nu"].shape == (48, 4)
    # u_i -> nu_i u_sigma(i) preserves the Gram matrix of the cube's diagonals
    g = gerbe.quadspace.build_S(ns["eps"], 1.0, -1 / 3)
    for s, v in zip(ns["sigma"], ns["nu"]):
        assert np.array_equal(g, np.outer(v, v) * g[np.ix_(s, s)])


def test_cli_graph_file():
    # the CLI section's graph file, its comment included, is the 4-cycle
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^## CLI\n.*?^```\n(.*?)^```$", text, re.M | re.S)
    assert block.startswith("4       # the 4-cycle\n")
    g = gerbe.parse_graph(block)
    assert np.array_equal(g.entries, gerbe.epsilon_matrix(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).entries)


def test_export_list():
    # the Library section names gerbe's public names: those its example
    # imports and those its export sentence adds
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    [imports] = [node for node in ast.walk(ast.parse(block))
                 if isinstance(node, ast.ImportFrom) and node.module == "gerbe"]
    [sentence] = re.findall(r"The package exports the names this example imports, and (.*?)\.",
                            text, re.S)
    listed = {alias.name for alias in imports.names} | set(re.findall(r"`(\w+)`", sentence))
    public = {name for name, value in vars(gerbe).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert listed == public
