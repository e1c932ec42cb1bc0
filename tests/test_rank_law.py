"""The rank law against an independent oracle.

``represent`` takes its degree from chi: n - mu, with mu the multiplicity
of c as a root.  Here the dimension and the signs it prints are checked
against the signs of the float eigenvalues of S(1, c) from numpy, at every
root of chi and at the rational points +-1/k, roots and non-roots alike.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings

from gerbe import cli
from oracles import eigenvalue_sign_counts, format_graph
from test_graph import graphs

# eigvalsh is accurate to about 1e-14 on these matrices (entries +-1,
# n <= 12): below this, relative to the spectral radius, an eigenvalue is 0
EIG_TOL = 1e-9


def run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--json"]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=40, deadline=None)
@given(g=graphs(max_n=12))
def test_dim_and_signs_match_the_spectrum(g, tmp_path_factory):
    path = tmp_path_factory.mktemp("g") / "g.txt"
    path.write_text(format_graph(g))
    roots = run_json(["poly", str(path)])["roots"]
    mult = {r["exact"]: r["multiplicity"] for r in roots if r["exact"]}
    selectors = [(f"--root-index={k}", r["multiplicity"]) for k, r in enumerate(roots)]
    for k in range(1, g.n + 1):
        for x in (Fraction(1, k), Fraction(-1, k)):
            selectors.append((f"--c={x}", mult.get(str(x), 0)))
    for selector, mu in selectors:
        out = run_json(["represent", str(path), selector])
        assert out["dim"] == g.n - mu, selector
        signs = out["signs"]
        counts = eigenvalue_sign_counts(g, 1.0, out["c"], EIG_TOL)
        assert (signs.count(1), signs.count(-1)) == counts, selector
