import json
from math import comb

import numpy as np
import pytest

from gerbe import cli, config, exactpoly, quadspace
from gerbe.autgroup import SheafGroup, SignedPermutation, enumerate_group
from gerbe.fixtures import SQUARE
from gerbe.graph import Permutation, epsilon_matrix

SQUARE_TXT = "4\n1 2\n2 3\n3 4\n1 4\n"
PENTAGON_TXT = "5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
TRIANGLE_TXT = "3\n1 2\n2 3\n1 3\n"


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

    def test_at_one_ranks_three_times(self, square_file, capsys, monkeypatch):
        # structural guard: line_classes in cli._lines and in restrict_to_Y, and
        # the restricted system's own check, each take one rank (one eigh)
        calls = []
        original = quadspace.rank

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quadspace, "rank", counted)
        code, out, _ = run(["group", square_file, "--c=1", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["lines"] == 1
        assert len(calls) == 3

    def test_realize_json(self, square_file, capsys):
        code, out, _ = run(
            ["group", square_file, "--c=-1/3", "--realize", "--json"], capsys
        )
        assert code == 0
        mats = [np.array(m) for m in json.loads(out)["isometries"]]
        assert len(mats) == 48
        for m in mats:
            assert np.abs(m.T @ m - np.eye(3)).max() < 1e-8

    def test_realize_csv(self, square_file, tmp_path, capsys):
        csv = tmp_path / "mats.csv"
        code, _, _ = run(
            ["group", square_file, "--c=-1/3", "--realize", "--csv", str(csv)],
            capsys,
        )
        assert code == 0
        blocks = csv.read_text().strip().split("\n\n")
        assert len(blocks) == 48

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
        good = enumerate_group(epsilon_matrix(SQUARE.graph)).elements
        bad = SignedPermutation(Permutation((1, 0, 2, 3)), (1, 1, 1, 1))
        monkeypatch.setattr(SheafGroup, "elements", property(lambda self: good + (bad,)))
        code, out, err = run(["group", square_file, "--c=-1/3", "--realize", "--json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("internal invariant violated: ")
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("q", [13, 17])
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

    def test_text_mode(self, pentagon_file, capsys):
        code, out, _ = run(["analyze", pentagon_file], capsys)
        assert code == 0
        assert "|G| = 20" in out

    def test_rank_law_violation_exits_one(self, square_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "rank", lambda *args, **kwargs: -1)
        code, _, err = run(["analyze", square_file, "--json"], capsys)
        assert code == 1
        assert "internal invariant violated" in err
        assert "Traceback" not in err

    def test_squarefree_decomposition_runs_once(self, pentagon_file, capsys, monkeypatch):
        # chi of the pentagon is (5x^2 - 1)^2, so the decomposition runs Yun
        calls = []
        original = exactpoly.squarefree_decomposition

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(exactpoly, "squarefree_decomposition", counted)
        monkeypatch.setattr(cli, "squarefree_decomposition", counted)
        code, _, _ = run(["analyze", pentagon_file, "--json"], capsys)
        assert code == 0
        assert len(calls) == 1


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
        def refuse(g):
            raise AssertionError("epsilon_matrix reached")

        monkeypatch.setattr(cli, "epsilon_matrix", refuse)
        p = tmp_path / "huge.txt"
        p.write_text("1000000000\n")
        code, _, err = run(["poly", str(p)], capsys)
        assert code == 3
        assert "vertex bound" in err

    def test_bad_rational(self, square_file, capsys):
        code, _, err = run(["classes", square_file, "--c", "abc"], capsys)
        assert code == 2

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

