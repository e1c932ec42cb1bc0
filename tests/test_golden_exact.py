"""The exact outputs of ``classes`` and ``group`` held to stored bytes.

``golden_exact.json`` holds the exit code, stdout and stderr of each case
below: ``classes`` and ``group`` without ``--realize``, as text and as
``--json``, on the four fixtures, Petersen and K3,4, at c in
{1, -1, 1/3, -1/3} and at every root index.  These outputs are the line
partition, the linking rules and the sheaf group, all decided in integers,
so no float of an eigendecomposition enters them.  It also holds ``poly``
and ``analyze``, as text and as ``--json``, on the graphs whose roots are
all rational (triangle, square, Petersen and K3,4): chi, its factored
form and its roots, each exact.

``PYTHONPATH=src python tests/test_golden_exact.py`` writes the file again
from the current code.
"""

import itertools
import json
from pathlib import Path

import pytest

from gerbe import cli, fixtures
from gerbe.exactpoly import chi_and_roots
from gerbe.graph import epsilon_matrix
from oracles import format_graph
from test_autgroup import petersen

GOLDEN = Path(__file__).with_name("golden_exact.json")


def _graphs():
    graphs = {fx.name: fx.graph for fx in fixtures.ALL}
    graphs.update(petersen=petersen(),
                  k34=epsilon_matrix(7, [(i, j) for i in range(3) for j in range(3, 7)]))
    return graphs


def _cases():
    """{case id: (graph name, argv after the graph file)}."""
    cases = {}
    for name, m in _graphs().items():
        selectors = [f"--c={c}" for c in ("1", "-1", "1/3", "-1/3")]
        selectors += [f"--root-index={k}" for k in range(len(chi_and_roots(m)[2]))]
        for cmd, sel, fmt in itertools.product(("classes", "group"), selectors, ("", "--json")):
            argv = [sel, fmt] if fmt else [sel]
            cases["-".join([name, cmd, sel.lstrip("-"), *(["json"] if fmt else [])])] = (
                name, [cmd, *argv])
    for name, cmd, fmt in itertools.product(("triangle", "square", "petersen", "k34"),
                                            ("poly", "analyze"), ("", "--json")):
        cases["-".join([name, cmd, *(["json"] if fmt else [])])] = (
            name, [cmd, *([fmt] if fmt else [])])
    return cases


CASES = _cases()


def _argv(tmp_dir, name, argv):
    """The command line of a case, its graph written to a file in tmp_dir."""
    path = Path(tmp_dir) / f"{name}.txt"
    if not path.exists():
        path.write_text(format_graph(_graphs()[name]))
    return [argv[0], str(path), *argv[1:]]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_output_bytes(case, golden, tmp_path, capsys):
    code = cli.main(_argv(tmp_path, *CASES[case]))
    out, err = capsys.readouterr()
    assert {"code": code, "stdout": out, "stderr": err} == golden[case]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(_argv(tmp, *CASES[case]))
            records[case] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}")
