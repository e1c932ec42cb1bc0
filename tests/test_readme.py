"""The README's library example runs, and gives the values its comments state."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example():
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                         re.M | re.S)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert [r.exact for r in ns["roots"]] == [Fraction(-1, 3), Fraction(1, 1)]
    assert ns["dim"] == 3 == ns["u"].degree
    assert ns["grp"].order == 48
    assert ns["orbits_on_lines"](ns["grp"]).is_2_transitive is True
    assert ns["sigma"].shape == ns["nu"].shape == (48, 4)
    # u_i -> nu_i u_sigma(i) preserves the Gram matrix of the cube's diagonals
    g = ns["u"].gram
    for s, v in zip(ns["sigma"], ns["nu"]):
        assert np.array_equal(g, np.outer(v, v) * g[np.ix_(s, s)])
