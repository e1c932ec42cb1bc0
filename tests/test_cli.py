import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

import gerbe
from gerbe import cli, config, exactpoly, fixtures, graph, quadspace, sheaf
from gerbe.autgroup import SheafGroup, enumerate_group, forced_signs
from gerbe.errors import InvariantError
from gerbe.exactpoly import char_poly, real_roots_with_multiplicity, squarefree_decomposition
from gerbe.fixtures import SQUARE
from gerbe.graph import epsilon_matrix
from oracles import csv_text, format_graph, json_text, matrices_text, sign_compatible
from test_autgroup import clebsch, latin_square_graph, petersen, triangular
from test_exactpoly import half_edge_square

SQUARE_TXT = "4\n1 2\n2 3\n3 4\n1 4\n"
PENTAGON_TXT = "5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
TRIANGLE_TXT = "3\n1 2\n2 3\n1 3\n"
# chi = -42x^7 - 131x^6 + ... + 1, square-free
SQUAREFREE_TXT = "7\n1 3\n1 4\n1 6\n2 3\n2 4\n3 4\n3 7\n5 7\n"


@pytest.fixture()
def square_file(tmp_path):
    p = tmp_path / "square.txt"
    p.write_text(SQUARE_TXT)
    return str(p)


@pytest.fixture()
def pentagon_file(tmp_path):
    p = tmp_path / "pentagon.txt"
    p.write_text(PENTAGON_TXT)
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counting(monkeypatch, *targets):
    """Patch each (owner, name) to count its calls; returns the counts by name."""
    calls = {}
    for owner, name in targets:
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestPoly:
    def test_text_output(self, square_file, capsys):
        code, out, _ = run(["poly", square_file], capsys)
        assert code == 0
        assert "chi(x)" in out
        assert "-3x^4" in out
        assert "multiplicity 3" in out

    def test_json_round_trip(self, square_file, capsys):
        code, out, _ = run(["poly", square_file, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["1", "0", "-6", "8", "-3"]
        roots = payload["roots"]
        assert [r["exact"] for r in roots] == ["-1/3", "1"]
        assert [r["multiplicity"] for r in roots] == [1, 3]
        assert [r["degree"] for r in roots] == [3, 1]

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_TXT))
        code, out, _ = run(["poly", "-"], capsys)
        assert code == 0
        assert "-2x^3" in out

    def test_one_vertex_json(self, tmp_path, capsys):
        # chi = 1 has no factors, and its factored text is the lead alone
        p = tmp_path / "point.txt"
        p.write_text("1\n")
        code, out, _ = run(["poly", str(p), "--json"], capsys)
        assert code == 0
        assert out == (
            '{\n  "coefficients": [\n    "1"\n  ],\n  "factored": "1",\n'
            '  "factors": [],\n  "n": 1,\n  "roots": [],\n  "text": "1"\n}\n'
        )

    def test_corrupted_chi_residue_exits_one(self, tmp_path, capsys, monkeypatch):
        # T(8), n = 28, takes the primes; the square would take the integers
        t8 = tmp_path / "t8.txt"
        t8.write_text(format_graph(triangular(8)))
        real = exactpoly._chi_residues

        def corrupted(m, primes):
            rows = real(m, primes)
            rows[1][0] = (rows[1][0] + 1) % primes[0]
            return rows

        monkeypatch.setattr(exactpoly, "_chi_residues", corrupted)
        code, out, err = run(["poly", str(t8)], capsys)
        assert code == 1
        assert out == ""
        assert "internal invariant violated" in err and "check prime" in err
        assert "Traceback" not in err

    def test_inexact_chi_division_exits_one(self, square_file, capsys, monkeypatch):
        # the square's trace at step 2 of Faddeev-LeVerrier over Z is 10.5
        monkeypatch.setattr(cli, "parse_graph", lambda text: half_edge_square())
        code, out, err = run(["poly", square_file], capsys)
        assert code == 1
        assert out == ""
        assert "internal invariant violated" in err and "step 2" in err
        assert "Traceback" not in err


class TestRepresent:
    def test_json_vectors_unit(self, square_file, capsys):
        code, out, _ = run(["represent", square_file, "--c=-1/3", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert payload["signs"] == [1, 1, 1]
        vecs = np.array(payload["vectors"])
        # unit vectors with pairwise inner products +-1/3
        assert np.abs(np.linalg.norm(vecs, axis=1) - 1).max() < 1e-9
        assert abs(abs(vecs[0] @ vecs[1]) - 1 / 3) < 1e-9

    def test_csv_output(self, square_file, tmp_path, capsys):
        csv = tmp_path / "vecs.csv"
        code, _, _ = run(
            ["represent", square_file, "--c=-1/3", "--csv", str(csv)], capsys
        )
        assert code == 0
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 4
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_root_index(self, square_file, capsys):
        code, out, _ = run(
            ["represent", square_file, "--root-index", "0", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["c"] == pytest.approx(-1 / 3)

    def test_root_index_out_of_range(self, square_file, capsys):
        code, _, err = run(["represent", square_file, "--root-index", "9"], capsys)
        assert code == 2
        assert "out of range" in err

    def test_decimal_rejected_without_approx(self, square_file, capsys):
        code, _, err = run(["represent", square_file, "--c", "0.25"], capsys)
        assert code == 2
        assert "--approx" in err

    def test_decimal_accepted_with_approx(self, square_file, capsys):
        code, out, _ = run(
            ["represent", square_file, "--c", "0.25", "--approx", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["c"] == pytest.approx(0.25)

    def test_small_decimal_kept_with_approx(self, square_file, capsys):
        code, out, _ = run(
            ["represent", square_file, "--c", "1e-13", "--approx", "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["c"] == 1e-13
        code, out, _ = run(
            ["group", square_file, "--c", "1e-13", "--approx", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["group_order"], payload["lines"]) == (48, 4)


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 18)
    return epsilon_matrix(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                              if rng.random() < 0.5])


class TestRootIndex:
    """--root-index k takes c = omega x_k, x_k the k-th root of chi, since
    det S(omega, c) = omega^n chi(c / omega); only root k is refined."""

    def test_square_at_omega_two(self, square_file, capsys):
        code, out, _ = run(["represent", square_file, "--root-index", "0", "--omega", "2"],
                           capsys)
        assert code == 0
        assert out.splitlines()[0] == "# omega=2 c=-0.666666666667 dim=3 signs=+++"

    @pytest.mark.parametrize("omega", ["2", "-1/2"])
    def test_c_is_omega_times_root(self, omega, square_file, pentagon_file, capsys):
        for path, n in ((square_file, 4), (pentagon_file, 5)):
            roots = json.loads(run(["poly", path, "--json"], capsys)[1])["roots"]
            for k, root in enumerate(roots):
                code, out, _ = run(["represent", path, "--root-index", str(k),
                                    f"--omega={omega}", "--json"], capsys)
                assert code == 0
                payload = json.loads(out)
                x = Fraction(root["exact"]) if root["exact"] else root["value"]
                assert payload["c"] == float(Fraction(omega) * x)
                assert payload["dim"] == n - root["multiplicity"]

    def test_zero_omega_refused(self, square_file, capsys):
        code, out, err = run(["represent", square_file, "--root-index", "0", "--omega", "0"],
                             capsys)
        assert code == 2
        assert out == "" and err.count("\n") == 1 and "--root-index" in err
        # --c at omega = 0 is still a valid request
        assert run(["represent", square_file, "--c=1", "--omega", "0"], capsys)[0] == 0

    def test_c_outside_float_range_refused(self, tmp_path, capsys):
        # root 0 of this graph is about -3.458, so omega = 1e308 puts c beyond a float
        path = tmp_path / "g.txt"
        path.write_text("7\n1 3\n1 4\n1 6\n2 3\n2 4\n3 4\n3 7\n5 7\n")
        code, _, err = run(["represent", str(path), "--root-index", "0", "--omega", "1e308",
                            "--approx"], capsys)
        assert code == 2 and "outside the range of a float" in err

    def test_one_refinement(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text(format_graph(random_graph(5)))
        calls = {"_refine": 0, "_sturm_cells": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(exactpoly, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(exactpoly, name, counted)
        code, out, _ = run(["poly", str(path), "--json"], capsys)
        roots = len(json.loads(out)["roots"])
        assert code == 0 and roots > 1 and calls == {"_refine": roots, "_sturm_cells": 0}
        for k in range(roots):
            calls["_refine"] = 0
            assert run(["represent", str(path), "--root-index", str(k)], capsys)[0] == 0
            assert calls == {"_refine": 1, "_sturm_cells": 0}

    def test_squarefree_chi_takes_no_gcd(self, tmp_path, capsys, monkeypatch):
        # poly and represent --root-index certify a square-free chi from
        # its root cells: no decomposition runs
        path = tmp_path / "g.txt"
        path.write_text(SQUAREFREE_TXT)
        calls = counting(monkeypatch, (exactpoly, "squarefree_decomposition"))
        code, out, _ = run(["poly", str(path), "--json"], capsys)
        assert code == 0 and len(json.loads(out)["roots"]) == 7
        for k in range(7):
            assert run(["represent", str(path), "--root-index", str(k)], capsys)[0] == 0
        assert calls == {"squarefree_decomposition": 0}
        # the pentagon's repeated irrational roots, (5x^2 - 1)^2, take one
        path.write_text(PENTAGON_TXT)
        assert run(["poly", str(path)], capsys)[0] == 0
        assert calls == {"squarefree_decomposition": 1}

    @pytest.mark.parametrize("graphs", ["random", "ladder"])
    def test_picks_the_root_poly_prints(self, graphs, tmp_path, capsys):
        if graphs == "random":
            cases = [random_graph(seed) for seed in range(40)]
        else:
            cases = [fx.graph for fx in fixtures.ALL] + [petersen(), clebsch(), triangular(8)]
        for i, eps in enumerate(cases):
            path = tmp_path / f"g{i}.txt"
            path.write_text(format_graph(eps))
            printed = json.loads(run(["poly", str(path), "--json"], capsys)[1])["roots"]
            records = real_roots_with_multiplicity(eps, squarefree_decomposition(char_poly(eps)))
            for k, (root, rec) in enumerate(zip(printed, records)):
                code, out, _ = run(["represent", str(path), "--root-index", str(k), "--json"],
                                   capsys)
                assert code == 0
                c = json.loads(out)["c"]
                if root["exact"] is not None:
                    assert c == float(Fraction(root["exact"]))
                else:
                    assert c == root["value"]
                    assert rec.interval[0] <= Fraction(c) <= rec.interval[1]


class TestParserReuse:
    """The parser is built once per process; no option of one call may
    reach the next."""

    @staticmethod
    def fresh(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(gerbe.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "gerbe.cli", *argv], env=env,
                              capture_output=True, check=True).stdout

    def test_not_built_at_import(self):
        out = subprocess.run(
            [sys.executable, "-c", "import gerbe.cli; print(gerbe.cli.build_parser.cache_info())"],
            env=dict(os.environ, PYTHONPATH=str(Path(gerbe.__file__).parents[1])),
            capture_output=True, check=True, text=True).stdout
        assert "currsize=0" in out

    def test_options_do_not_leak(self, square_file, tmp_path, capsys):
        csv = tmp_path / "vecs.csv"
        calls = [
            ["group", square_file, "--c=-1/3", "--realize", "--json"],
            ["group", square_file, "--c=-1/3", "--json"],
            ["represent", square_file, "--c=-1/3", "--csv", str(csv)],
            ["represent", square_file, "--c=-1/3"],
        ]
        outs = []
        for argv in calls:
            if csv.exists():
                csv.unlink()
            code, out, _ = run(argv, capsys)
            assert code == 0 and csv.exists() == ("--csv" in argv)
            assert out.encode() == self.fresh(argv)
            outs.append(out)
        assert "isometries" in outs[0] and "isometries" not in outs[1]
        assert cli.build_parser() is cli.build_parser()


class TestClasses:
    def test_square_at_one(self, square_file, capsys):
        code, out, _ = run(["classes", square_file, "--c", "1", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        part = payload["partition"]
        assert part["m"] == 1
        assert part["classes"][0]["plus"] == [1, 3]
        assert part["classes"][0]["minus"] == [2, 4]
        assert payload["linking"]["ok"] is True

    # lines coincide only at c = ±1 exactly: 10^-9 away from 1 the square's
    # four lines are as distinct as at -1/3, and no linking block is reported
    @pytest.mark.parametrize("c", ["-1/3", "1000000001/1000000000", "999999999/1000000000"])
    def test_generic_c_skips_linking(self, square_file, c, capsys):
        code, out, _ = run(["classes", square_file, f"--c={c}", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["partition"]["m"] == 4
        assert "linking" not in payload

    def test_zero_c_rejected(self, square_file, capsys):
        code, _, err = run(["classes", square_file, "--c", "0"], capsys)
        assert code == 2
        assert "nonzero" in err


class TestGroup:
    def test_square_orders(self, square_file, capsys):
        code, out, _ = run(["group", square_file, "--c=-1/3", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == 48
        assert payload["n_sigma"] == 24
        assert payload["aut_graph_order"] == 8
        assert payload["is_2_transitive"] is True

    def test_pentagon_reports_both_orders(self, pentagon_file, capsys):
        code, out, _ = run(
            ["group", pentagon_file, "--root-index", "1", "--json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == 20
        assert payload["group_order_mod_center"] == 10
        assert payload["is_transitive"] is True
        assert payload["is_2_transitive"] is False

    def test_collapsed_lines_restrict(self, square_file, capsys):
        # at c = 1 the four vertices share one line; the group acts on 1 line
        code, out, _ = run(["group", square_file, "--c", "1", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["lines"] == 1

    @pytest.mark.parametrize("text, c, lines, order, two_transitive", [
        (SQUARE_TXT, "1000000001/1000000000", 4, 48, True),
        (SQUARE_TXT, "999999999/1000000000", 4, 48, True),
        (TRIANGLE_TXT, "-1000000001/1000000000", 3, 12, True),
        (TRIANGLE_TXT, "-999999999/1000000000", 3, 12, True),
        (SQUARE_TXT, "1", 1, 2, False),
        (TRIANGLE_TXT, "-1", 1, 2, False),
    ], ids=["square-above", "square-below", "triangle-above", "triangle-below",
            "square-at-1", "triangle-at-minus-1"])
    def test_lines_near_unit_c(self, text, c, lines, order, two_transitive,
                               tmp_path, capsys):
        # lines coincide only at c = ±1 exactly; 10^-9 away they are as
        # distinct as at c = 1/3
        p = tmp_path / "g.txt"
        p.write_text(text)
        code, out, _ = run(["group", str(p), f"--c={c}", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lines"] == lines
        assert payload["group_order"] == order
        assert payload["is_2_transitive"] is two_transitive

    @pytest.mark.parametrize("cmd", ["classes", "group"])
    @pytest.mark.parametrize("graph_name, sel", [
        ("t8", "--c=1"), ("t8", "--root-index=0"), ("square", "--c=1"),
    ], ids=["t8-c1", "t8-root0", "square-c1"])
    def test_no_float_representation(self, cmd, graph_name, sel, tmp_path, capsys,
                                     monkeypatch):
        # the lines and Gamma_Y are read off (epsilon, c): no degree, no
        # eigh, no Gram factorization, no span test (SVD), no Representation
        g = {"t8": triangular(8), "square": SQUARE.graph}[graph_name]
        path = tmp_path / "g.txt"
        path.write_text(format_graph(g))
        calls = counting(monkeypatch, (cli, "degree_at"), (quadspace, "jacobi_eigh"),
                         (quadspace, "gram_factorize"), (quadspace, "_span"),
                         (quadspace.Representation, "_validate"))
        code, out, _ = run([cmd, str(path), sel, "--json"], capsys)
        assert code == 0
        assert calls == dict.fromkeys(calls, 0)

    def test_realize_spans_once(self, square_file, capsys, monkeypatch):
        # at c = 1 the four vertices share one line: --realize factors S,
        # checks the representative's vector, and isometry_between's span
        # test is the only SVD
        calls = counting(monkeypatch, (quadspace, "_span"), (quadspace, "gram_factorize"))
        code, out, _ = run(["group", square_file, "--c=1", "--realize", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["lines"] == 1
        assert calls == {"_span": 1, "gram_factorize": 1}

    def test_realize_json(self, square_file, capsys):
        code, out, _ = run(
            ["group", square_file, "--c=-1/3", "--realize", "--json"], capsys
        )
        assert code == 0
        mats = [np.array(m) for m in json.loads(out)["isometries"]]
        assert len(mats) == 48
        for m in mats:
            assert np.abs(m.T @ m - np.eye(3)).max() < 1e-8

    def test_realize_json_names_the_frame(self, tmp_path, capsys):
        # the matrices act on the representation's own vectors, so --realize
        # names the same pivot vertices as represent, 1-based in column order,
        # and the matrices fix the pivot rows' frame: M u_p = nu_p u_sigma(p)
        path = tmp_path / "petersen.txt"
        path.write_text(PETERSEN_TXT)
        code, out, _ = run(["represent", str(path), "--c=1/3", "--json"], capsys)
        assert code == 0
        rep = json.loads(out)
        code, out, _ = run(["group", str(path), "--c=1/3", "--realize", "--json"], capsys)
        assert code == 0
        grp = json.loads(out)
        assert grp["pivots"] == rep["pivots"]
        assert len(rep["pivots"]) == len(set(rep["pivots"])) == rep["dim"] == 5
        vectors = np.array(rep["vectors"])
        basis = vectors[np.array(rep["pivots"]) - 1]
        mats = np.array(grp["isometries"])
        # each isometry maps the vector system onto itself up to signs
        images = np.einsum("kij,pj->kpi", mats, vectors)
        gaps = np.abs(np.abs(images[:, :, None, :]) - np.abs(vectors)[None, None]).max(axis=3)
        assert (gaps.min(axis=2) < 1e-9).all()
        assert np.abs(basis[0] - [1, 0, 0, 0, 0]).max() == 0  # vertex 1's row: unit diagonal

    def test_realize_formats_few_magnitudes(self, tmp_path, capsys, monkeypatch):
        # structural guard, not a timing: in the pivot frame Petersen's 1440
        # matrices at c = 1/3 repeat their magnitudes, and the JSON writer
        # formats each distinct one once per block; the eigh frame took
        # 17,236 repr calls
        calls = []
        monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or x.__repr__(),
                            raising=False)
        path = tmp_path / "petersen.txt"
        path.write_text(PETERSEN_TXT)
        code, out, _ = run(["group", str(path), "--c=1/3", "--realize", "--json"], capsys)
        assert code == 0
        assert len(json.loads(out)["isometries"]) == 1440
        assert 0 < len(calls) <= 1000

    def test_realize_csv(self, square_file, tmp_path, capsys):
        csv = tmp_path / "mats.csv"
        code, _, _ = run(
            ["group", square_file, "--c=-1/3", "--realize", "--csv", str(csv)],
            capsys,
        )
        assert code == 0
        blocks = csv.read_text().strip().split("\n\n")
        assert len(blocks) == 48

    def test_csv_without_realize_refused(self, tmp_path, capsys, monkeypatch):
        # --csv writes the realized matrices: without --realize it is refused
        # before the graph is read, and no file is written
        monkeypatch.setattr(cli, "_read_graph", None)
        csv = tmp_path / "mats.csv"
        code, out, err = run(["group", "missing.txt", "--c=-1/3", "--csv", str(csv)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --csv writes the realized matrices; it needs --realize\n"
        assert not csv.exists()

    def test_realize_text_prints_matrices(self, square_file, capsys):
        code, out, _ = run(["group", square_file, "--c=-1/3", "--realize"], capsys)
        assert code == 0
        lines = out.splitlines()
        heads = [k for k, line in enumerate(lines) if line.startswith("isometry ")]
        assert [lines[k] for k in heads] == [f"isometry {k}:" for k in range(1, 49)]
        assert heads[0] > 0 and lines[0].startswith("|H(graph)| = ")
        assert len(lines) == heads[0] + 48 * 4
        for k in heads:
            m = np.array([[float(x) for x in lines[k + i].split()] for i in (1, 2, 3)])
            assert m.shape == (3, 3)
            assert np.abs(m.T @ m - np.eye(3)).max() < 1e-10

    def test_realize_failure_exits_one(self, square_file, capsys, monkeypatch):
        # an element of the group's own listing that is not an isometry is a
        # defect in gerbe, not bad input
        sigma, nu = enumerate_group(SQUARE.graph).listing
        bad = (1, 0, 2, 3), (1, 1, 1, 1)
        assert not sign_compatible(*bad, SQUARE.graph)
        listing = (np.vstack([sigma, bad[0]]), np.vstack([nu, bad[1]]))
        monkeypatch.setattr(SheafGroup, "listing", property(lambda self: listing))
        code, out, err = run(["group", square_file, "--c=-1/3", "--realize", "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("internal invariant violated: ")
        assert "Traceback" not in err

    def test_realize_non_isometry_pair_exits_one(self, square_file, capsys, monkeypatch):
        # a non-isometry appended as a pair (sigma, -nu), (sigma, nu) passes
        # the pair check, and its realization fails the Gram check
        sigma, nu = enumerate_group(SQUARE.graph).listing
        bad = np.array([1, 0, 2, 3]), np.array([1, 1, 1, 1])
        assert not sign_compatible(*bad, SQUARE.graph)
        listing = np.vstack([sigma, bad[0], bad[0]]), np.vstack([nu, -bad[1], bad[1]])
        monkeypatch.setattr(SheafGroup, "listing", property(lambda self: listing))
        code, out, err = run(["group", square_file, "--c=-1/3", "--realize", "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("internal invariant violated: sheaf group element is not an "
                              "isometry: ")
        assert "Traceback" not in err

    def test_realize_csv_and_text_match_the_oracles(self, square_file, tmp_path, capsys):
        code, out, _ = run(["group", square_file, "--c=-1/3", "--realize", "--json"], capsys)
        assert code == 0
        mats = np.array(json.loads(out)["isometries"])  # repr round-trips every float
        csv = tmp_path / "mats.csv"
        code, _, _ = run(["group", square_file, "--c=-1/3", "--realize", "--csv", str(csv)],
                         capsys)
        assert code == 0
        assert csv.read_text() == csv_text(mats)
        code, out, _ = run(["group", square_file, "--c=-1/3", "--realize"], capsys)
        assert code == 0
        assert out.endswith("\n" + matrices_text(mats))

    def test_bound_exceeded(self, tmp_path, capsys, monkeypatch):
        # a group search past its node budget exits 3 from group and from
        # analyze, with the budget named and no traceback
        monkeypatch.setattr(config, "MAX_SEARCH_NODES", 5)
        lines = ["11"] + [f"{i} {i + 1}" for i in range(1, 11)]
        p = tmp_path / "big.txt"
        p.write_text("\n".join(lines) + "\n")
        for argv in (["group", str(p), "--c", "1"], ["analyze", str(p), "--json"]):
            code, out, err = run(argv, capsys)
            assert code == 3
            assert out == ""
            assert err.startswith("bound exceeded: ")
            assert "budget of 5 backtracking nodes (config.MAX_SEARCH_NODES)" in err
            assert "Traceback" not in err


PETERSEN_TXT = "10\n" + "".join(f"{i} {j}\n" for i, j in (
    (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
    (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)))


class TestLargeC:
    # the Gram checks scale with max|S|, as eigh's error does: at |c| = 10^7
    # an absolute 1e-9 refused these valid representations
    @pytest.mark.parametrize("text, n, order", [(SQUARE_TXT, 4, 48), (PETERSEN_TXT, 10, 1440)],
                             ids=["square", "petersen"])
    @pytest.mark.parametrize("c", ["10000000", "-10000000/3", "1000000000000",
                                   "-1000000000000"])
    def test_valid_large_c_accepted(self, text, n, order, c, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(text)
        code, out, _ = run(["represent", str(p), f"--c={c}", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["dim"] == n
        code, out, _ = run(["classes", str(p), f"--c={c}", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["partition"]["m"] == n
        code, out, _ = run(["group", str(p), f"--c={c}", "--realize", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == order
        assert len(payload["isometries"]) == order


class TestExactDegree:
    # the degree is n - mu(c/omega) by the rank law, read off chi: no float
    # threshold decides it, near a root or at a small scale
    @pytest.mark.parametrize("c, signature", [
        ("1000000001/1000000000", (1, 3)), ("999999999/1000000000", (4, 0)),
    ], ids=["above", "below"])
    def test_near_root_consistent(self, square_file, c, signature, capsys):
        code, out, _ = run(["represent", square_file, f"--c={c}", "--json"], capsys)
        assert code == 0
        signs = json.loads(out)["signs"]
        assert (signs.count(1), signs.count(-1)) == signature
        code, out, _ = run(["classes", square_file, f"--c={c}", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["partition"]["m"] == 4
        code, out, _ = run(["group", square_file, f"--c={c}", "--realize", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == 48
        form = np.diag(signs)
        mats = np.array(payload["isometries"])
        assert mats.shape == (48, 4, 4)
        for m in mats:
            assert np.abs(m.T @ form @ m - form).max() < 1e-6
        gaps = [np.abs(a - b).max() for a, b in itertools.combinations(mats, 2)]
        assert min(gaps) > 1e-3

    @pytest.mark.parametrize("omega, c, dim", [
        ("1/10000000000", "1/10000000000", 1),  # c/omega = 1, a triple root
        ("0", "1/10000000000", 4),  # deg chi
        ("1/10000000000", "-1/30000000000", 3),  # c/omega = -1/3, a simple root
    ], ids=["root-one", "omega-zero", "root-third"])
    def test_small_scale(self, square_file, omega, c, dim, capsys):
        code, out, _ = run(["represent", square_file, f"--omega={omega}", f"--c={c}",
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out)["dim"] == dim

    def test_float_of_c_is_a_root(self, square_file, capsys):
        # 1 + 10^-17 is no root, but its float, 1.0, is: the numeric stages
        # see c = 1, and so do the degree and the lines
        c = ["--c", "1.00000000000000001", "--approx", "--json"]
        code, out, _ = run(["represent", square_file, *c], capsys)
        assert code == 0
        assert json.loads(out)["dim"] == 1
        code, out, _ = run(["classes", square_file, *c], capsys)
        assert code == 0
        assert json.loads(out)["partition"]["m"] == 1
        code, out, _ = run(["group", square_file, *c], capsys)
        assert code == 0
        assert json.loads(out)["group_order"] == 2

    @pytest.mark.parametrize("argv", [
        ["represent", "--omega", "1e308", "--c", "1e308"], ["group", "--c", "1e308", "--realize"],
    ], ids=["represent", "group"])
    def test_overflowing_spectrum_refused(self, square_file, argv, capsys):
        # each entry of S is a float, but its eigenvalues are not
        code, out, err = run([argv[0], square_file, *argv[1:], "--approx"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: the eigenvalues of the matrix overflow the range of a float\n"

    @pytest.mark.parametrize("argv", [["represent"], ["group", "--realize"]],
                             ids=["represent", "group"])
    def test_overflowing_inner_products_refused(self, pentagon_file, argv, capsys):
        # the 5-cycle's S(1, 4e307) and its spectrum are floats, but the
        # pivot-frame vectors of this indefinite S are long enough that
        # their inner products overflow: the parameters are refused, and
        # the message names the float range, not the vectors
        code, out, err = run([argv[0], pentagon_file, *argv[1:], "--c", "4e307", "--approx"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: the inner products of the vectors overflow the range of a float\n"
        code, out, _ = run([argv[0], pentagon_file, *argv[1:], "--c", "3e307", "--approx"],
                           capsys)
        assert code == 0 and out

    def test_row_sums_bound_the_spectrum(self, tmp_path, capsys, monkeypatch):
        # the refusal is decided by the row sums of |S|, which bound its
        # spectrum, and takes no eigendecomposition: Petersen's S(1, 2e307)
        # has spectral radius 6e307, a float, but row sums 1.8e308
        monkeypatch.setattr(np.linalg, "eigh", None)
        path = tmp_path / "petersen.txt"
        path.write_text(PETERSEN_TXT)
        code, out, err = run(["represent", str(path), "--c", "2e307", "--approx"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: the eigenvalues of the matrix overflow the range of a float\n"
        code, out, _ = run(["represent", str(path), "--c", "1e307", "--approx", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["dim"] == 10

    def test_overflowing_spectrum_needs_no_vectors(self, square_file, capsys):
        # classes and group factor no S: at |c| != 1 the lines are distinct
        code, out, _ = run(["classes", square_file, "--c", "1e308", "--approx", "--json"],
                           capsys)
        assert code == 0
        assert json.loads(out)["partition"]["m"] == 4
        code, out, _ = run(["group", square_file, "--c", "1e308", "--approx", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["lines"], payload["group_order"]) == (4, 48)

    def test_degree_takes_no_decomposition(self, square_file, capsys, monkeypatch):
        # degree_at divides chi by 3x + 1 exactly: no decomposition runs
        calls = counting(monkeypatch, (exactpoly, "squarefree_decomposition"))
        code, out, _ = run(["represent", square_file, "--c=-1/3", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["dim"] == 3
        assert calls == {"squarefree_decomposition": 0}

    def test_largest_spectrum_accepted(self, square_file, capsys):
        code, out, _ = run(["group", square_file, "--c", "5e307", "--approx", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["group_order"] == 48


class TestAnalyze:
    def test_square_report(self, square_file, capsys):
        code, out, _ = run(["analyze", square_file, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"]["n"] == 4
        assert payload["chi"]["coefficients"] == ["1", "0", "-6", "8", "-3"]
        ranks = {r["exact"]: r["rank"] for r in payload["roots"]}
        assert ranks == {"-1/3": 3, "1": 1}
        assert payload["group"]["order"] == 48
        unit_root = next(r for r in payload["roots"] if r["exact"] == "1")
        assert unit_root["linking_ok"] is True
        assert unit_root["partition"]["m"] == 1

    def test_edges_read_off_the_sign_matrix(self, square_file, tmp_path, capsys):
        # the edge list comes from the sign matrix, sorted and 1-based,
        # whatever the order and orientation of the file's lines
        p = tmp_path / "shuffled.txt"
        p.write_text("4\n4 1\n3 2\n2 1\n4 3\n")
        edges = [json.loads(run(["analyze", path, "--json"], capsys)[1])["graph"]["edges"]
                 for path in (square_file, str(p))]
        assert edges == [[[1, 2], [1, 4], [2, 3], [3, 4]]] * 2

    @pytest.mark.parametrize("q", [13, 17, 37])
    def test_paley_two_graph(self, q, tmp_path, capsys):
        # Paley(q) plus an isolated point: q + 1 equiangular lines in
        # dimension (q + 1)/2, chi = (1 - q x^2)^((q + 1)/2), and a
        # 2-transitive group of order q(q^2 - 1)
        squares = {x * x % q for x in range(1, q)}
        edges = [f"{i + 1} {j + 1}" for i in range(q) for j in range(i + 1, q)
                 if (j - i) % q in squares]
        p = tmp_path / "paley.txt"
        p.write_text("\n".join([str(q + 1)] + edges) + "\n")
        code, out, _ = run(["analyze", str(p), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        k = (q + 1) // 2
        chi = [0] * (2 * k + 1)
        for j in range(k + 1):
            chi[2 * j] = comb(k, j) * (-q) ** j
        assert payload["chi"]["coefficients"] == [str(a) for a in chi]
        assert payload["aut_graph_order"] == q * (q - 1) // 2
        assert payload["group"]["order"] == q * (q * q - 1)
        assert payload["group"]["is_2_transitive"] is True

    @pytest.mark.parametrize("m, order", [(5, 1200), (7, 3528)])
    def test_latin_square_graph(self, m, order, tmp_path, capsys):
        # the Latin-square graph of Z_m: |G| = 2 |Aut| = 12 m^2 phi(m) on
        # these rungs (observed; brute force cannot reach n = 25 or 49).  The
        # chain of G on Z_7 takes about 300 backtracking nodes
        eps = latin_square_graph(m)
        p = tmp_path / "latin.txt"
        p.write_text(format_graph(eps))
        code, out, _ = run(["analyze", str(p), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["group"]["order"] == order
        assert payload["aut_graph_order"] == order // 2
        reps = np.array([u for level in enumerate_group(eps).levels for u in level])
        assert all(sign_compatible(*el, eps) for el in zip(reps, forced_signs(reps, eps)))

    def test_text_mode(self, pentagon_file, capsys):
        code, out, _ = run(["analyze", pentagon_file], capsys)
        assert code == 0
        assert "|G| = 20" in out

    def test_squarefree_decomposition_runs_once(self, pentagon_file, tmp_path, capsys,
                                                monkeypatch):
        # chi of the pentagon is (5x^2 - 1)^2, so the decomposition runs Yun
        # once; a square-free chi is certified by its root cells, with none
        calls = []
        original = exactpoly.squarefree_decomposition

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(exactpoly, "squarefree_decomposition", counted)
        code, _, _ = run(["analyze", pentagon_file, "--json"], capsys)
        assert code == 0
        assert len(calls) == 1
        p = tmp_path / "squarefree.txt"
        p.write_text(SQUAREFREE_TXT)
        calls.clear()
        assert run(["analyze", str(p), "--json"], capsys)[0] == 0
        assert calls == []


class TestDemo:
    def test_demo_passes(self, capsys):
        code, out, _ = run(["demo"], capsys)
        assert code == 0
        assert "4/4 fixtures pass" in out

    def test_demo_json(self, capsys):
        code, out, _ = run(["demo", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["fixtures"]) == 4

    def test_corrupt_negative_control(self, capsys):
        # deliberately falsified expectation must be caught, exit code 1
        code, out, _ = run(["demo", "--corrupt", "triangle"], capsys)
        assert code == 1
        assert "FAIL" in out


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(["poly", "/nonexistent/graph.txt"], capsys)
        assert code == 2

    def test_malformed_graph(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("3\n1 1\n")
        code, _, err = run(["poly", str(p)], capsys)
        assert code == 2
        assert "input error" in err

    def test_vertex_out_of_range(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("3\n1 5\n")
        code, _, _ = run(["poly", str(p)], capsys)
        assert code == 2

    def test_vertex_bound_exits_three(self, tmp_path, capsys, monkeypatch):
        # refused at parse time: nothing of size n or n^2 is built
        def refuse(n, edges):
            raise AssertionError("epsilon_matrix reached")

        monkeypatch.setattr(graph, "epsilon_matrix", refuse)
        p = tmp_path / "huge.txt"
        p.write_text("1000000000\n")
        code, _, err = run(["poly", str(p)], capsys)
        assert code == 3
        assert "vertex bound" in err

    def test_bad_rational(self, square_file, capsys):
        code, _, err = run(["classes", square_file, "--c", "abc"], capsys)
        assert code == 2

    def test_bad_decimal(self, square_file, capsys):
        code, out, err = run(["represent", square_file, "--c=1.x", "--approx"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: could not convert string to float: '1.x'\n"

    def test_undecodable_file(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"4\n1 2\xff\n")
        code, out, err = run(["classes", str(p), "--c=1"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 5: "
                       "invalid start byte\n")

    def test_internal_value_error_exits_one(self, square_file, capsys, monkeypatch):
        # a ValueError that is not an InputError is a defect in gerbe
        def broken(m, c):
            raise ValueError("broken partition")

        monkeypatch.setattr(sheaf, "partition_from_sign_matrix", broken)
        code, out, err = run(["classes", square_file, "--c=1"], capsys)
        assert (code, out) == (1, "")
        assert err == "internal invariant violated: broken partition\n"

    @pytest.mark.parametrize("cmd, args", [
        ("group", ["--c=1" + "0" * 400]),
        ("represent", ["--c", "1e400", "--approx"]),
        ("represent", ["--c", "1e-400", "--approx"]),
        ("classes", ["--c=1/1" + "0" * 400]),
        ("represent", ["--c=1/3", "--omega=-1" + "0" * 400]),
    ], ids=["c-overflow", "c-approx-overflow", "c-approx-underflow",
            "c-underflow", "omega-overflow"])
    def test_rational_outside_float_range(self, square_file, cmd, args, capsys):
        code, out, err = run([cmd, square_file, *args], capsys)
        assert code == 2
        assert out == ""
        assert "outside the range of a float" in err
        assert "Traceback" not in err



class TestJsonWriter:
    # every --json output is json.dumps of its payload with the arrays as
    # nested lists, byte for byte, though the writer renders arrays itself
    @pytest.mark.parametrize("a", [
        np.zeros((4, 0)),
        np.zeros((0, 3)),
        np.array([[[-0.0]], [[1e16]], [[1e-17]], [[5e-324]], [[0.1]]]),
        np.array([[-0.0, 1e16, 1e-17], [5e-324, 0.1, -1.5]]),
        np.arange(24.0).reshape(2, 3, 4) / 7 - 1,
        np.arange(2 * 1 * 3 * 2).reshape(2, 1, 3, 2) - 5,
        np.array([[1, -1], [-1, 1]]),
        np.array([0.1, -0.0]),
    ], ids=["n-by-0", "0-by-r", "k-1-1", "values", "3d", "4d-int", "int", "1d"])
    def test_arrays_match_the_oracle(self, a, capsys):
        payload = {"vectors": a, "dim": 2, "signs": [1, -1], "c": 0.1, "epsilon": a.astype(int)}
        cli._print_json(payload)
        assert capsys.readouterr().out == json_text(payload) + "\n"

    @pytest.mark.parametrize("block_rows", [1, 2, 3, cli.TEXT_BLOCK_ROWS])
    def test_blocks_of_rows_keep_the_bytes(self, block_rows, capsys, monkeypatch):
        # the writers format each block of rows on its own: a block that ends
        # inside a matrix, and magnitudes shared across signs and blocks,
        # change no byte of the JSON, CSV or text
        monkeypatch.setattr(cli, "TEXT_BLOCK_ROWS", block_rows)
        values = np.array([0.0, -0.0, 0.1, -0.1, 1 / 3, -1 / 3, 1e16, -1e-17, 5e-324, -2.5])
        mats = np.random.default_rng(block_rows).choice(values, size=(5, 3, 4))
        mats[0, 0, :2] = 0.0, -0.0
        payload = {"isometries": mats, "n": 3}
        cli._print_json(payload)
        assert capsys.readouterr().out == json_text(payload) + "\n"
        for a in (mats, mats[0], np.zeros((4, 0))):
            assert "".join(cli._csv_text(a)) == csv_text(a)
        cli._print_matrices(mats)
        assert capsys.readouterr().out == matrices_text(mats)

    def test_non_finite_refused(self, capsys):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvariantError, match="non-finite"):
                cli._print_json({"isometries": np.array([[[1.0, value]]])})
        assert capsys.readouterr().out == ""

    def test_non_finite_isometry_exits_one(self, square_file, capsys, monkeypatch):
        def nan_matrices(sigma, nu, u):
            return np.full((len(sigma), u.degree, u.degree), np.nan)

        monkeypatch.setattr(cli, "realize_isometry", nan_matrices)
        code, out, err = run(["group", square_file, "--c=-1/3", "--realize", "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("internal invariant violated: ")
        assert "Traceback" not in err

    CASES = [(fx.name, format_graph(fx.graph), "--root-index=0") for fx in fixtures.ALL] + [
        ("petersen", PETERSEN_TXT, "--c=1/3")]

    @pytest.mark.parametrize("name, text, c", CASES, ids=[case[0] for case in CASES])
    def test_cli_bytes_match_the_oracle(self, name, text, c, tmp_path, capsys, monkeypatch):
        payloads = []
        writer = cli._print_json

        def spy(payload):
            payloads.append(payload)
            writer(payload)

        monkeypatch.setattr(cli, "_print_json", spy)
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        for argv in (["poly"], ["represent", c], ["classes", c], ["group", c, "--realize"],
                     ["analyze"]):
            code, out, _ = run([argv[0], str(p), *argv[1:], "--json"], capsys)
            assert code == 0
            assert out == json_text(payloads[-1]) + "\n"
        arrays = [key for payload in payloads for key, v in payload.items()
                  if isinstance(v, np.ndarray)]
        assert arrays == ["vectors", "isometries", "epsilon"]

    def test_empty_vectors_keep_their_layout(self, square_file, capsys):
        code, out, _ = run(["represent", square_file, "--omega", "0", "--c", "0", "--json"], capsys)
        assert code == 0
        assert '"dim": 0' in out
        assert '  "vectors": [\n    [],\n    [],\n    [],\n    []\n  ]\n}' in out
