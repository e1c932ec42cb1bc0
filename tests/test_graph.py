import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbe import _backend, config, graph
from gerbe.autgroup import enumerate_group
from gerbe.errors import BoundExceededError, ParseError
from gerbe.graph import (
    SignMatrix,
    automorphism_order,
    epsilon_matrix,
    graph_automorphisms,
    parse_graph,
)
from oracles import edges_of, format_graph, parse_graph_lines

TRIANGLE = "3\n1 2\n2 3\n1 3"
SQUARE = "4\n1 2\n2 3\n3 4\n1 4"


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return epsilon_matrix(n, edges)


@st.composite
def edge_lists(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return n, chosen


def graphs(max_n=6):
    return edge_lists(max_n).map(lambda args: epsilon_matrix(*args))


class TestParse:
    def test_triangle(self):
        g = parse_graph(TRIANGLE)
        assert g.n == 3
        assert edges_of(g) == [(0, 1), (0, 2), (1, 2)]

    def test_square_with_comments(self):
        g = parse_graph("# the 4-cycle\n" + SQUARE + "\n# trailing\n")
        assert g.n == 4
        assert edges_of(g) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_graph("3\n1 1")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph("3\n1 4")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_graph("3\n1 2\n2 1")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_graph("3\n1 x")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_graph("# nothing\n")

    def test_roundtrip(self):
        g = parse_graph(SQUARE)
        assert np.array_equal(parse_graph(format_graph(g)).entries, g.entries)

    def test_vertex_bound(self):
        assert parse_graph(f"{config.MAX_VERTICES}\n").n == config.MAX_VERTICES
        with pytest.raises(BoundExceededError, match="vertex bound"):
            parse_graph(f"{config.MAX_VERTICES + 1}\n")
        with pytest.raises(BoundExceededError):
            parse_graph("1000000000\n")


# edge lines, valid and not, for a graph on at most 4 vertices
EDGE_LINES = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from([
        "1 2", "2 1", "1\t3", "  4   1 ", "1", "1 2 3", "1 2 3 3 4", "x 2", "1 y", "1 ;",
        "; 1 2", "1;2 3", "+1 2", "-1 2", "1_0 2", "2 0x1", "99999999999999999999 1",
        "-9223372036854775808 1", "1 1", "3 3", "# a comment", "", "   ", "\u00a01 2",
        "1\u00a02"]))


def parse_outcome(parse, text):
    try:
        return "ok", parse(text).entries.tolist()
    except (ParseError, BoundExceededError) as exc:
        return type(exc).__name__, str(exc)


class TestParseAgainstLines:
    """parse_graph reads the edges as one array, and line by line only
    after a check fails; the per-line parser is the oracle."""

    @given(n=st.sampled_from(["1", "2", "4", " 3 "]), lines=st.lists(EDGE_LINES, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_same_matrix_or_same_first_error(self, n, lines):
        text = "\n".join([n, *lines])
        assert parse_outcome(parse_graph, text) == parse_outcome(parse_graph_lines, text)

    @pytest.mark.parametrize("text, error", [
        ("3\n1 2\n2 1\n1 x\n", "duplicate edge 2 1"),
        ("4\n1 2 3 3 4\n", "expected two vertex indices, got '1 2 3 3 4'"),
        ("4\n1 2 3\n4\n", "expected two vertex indices, got '1 2 3'"),
        ("4\n1 ;\n", "non-integer vertex index in '1 ;'")],
        ids=["duplicate-first", "five-tokens", "three-then-one", "semicolon"])
    def test_first_error_in_line_order(self, text, error):
        # a duplicate wins over a later malformed line, and lines whose
        # tokens would pair up across line ends are still refused
        assert parse_outcome(parse_graph, text) == ("ParseError", error)
        assert parse_outcome(parse_graph_lines, text) == ("ParseError", error)

    @given(edge_lists(max_n=12))
    @settings(max_examples=50, deadline=None)
    def test_valid_files_take_no_line_loop(self, edge_list):
        n, edges = edge_list
        text = format_graph(epsilon_matrix(n, edges))
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph, "_raise_first_error", lambda *a: calls.append(a))
            assert np.array_equal(parse_graph(text).entries, epsilon_matrix(n, edges).entries)
        assert calls == []


class TestEpsilonMatrix:
    def test_triangle_all_minus_off_diagonal(self):
        m = parse_graph(TRIANGLE)
        expected = np.array([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        assert np.array_equal(m.entries, expected)

    def test_edgeless_all_plus(self):
        m = epsilon_matrix(3, [])
        assert np.array_equal(m.entries, np.ones((3, 3), dtype=int))

    def test_square_matches_known_matrix(self):
        m = parse_graph(SQUARE)
        expected = np.array([
            [1, -1, 1, -1],
            [-1, 1, -1, 1],
            [1, -1, 1, -1],
            [-1, 1, -1, 1],
        ])
        assert np.array_equal(m.entries, expected)

    @pytest.mark.parametrize("edges, message", [
        ([(0, 3)], "out of range"), ([(-1, 0)], "out of range"), ([(1, 1)], "diagonal")])
    def test_refuses_bad_edges(self, edges, message):
        with pytest.raises(ValueError, match=message):
            epsilon_matrix(3, edges)

    @given(edge_lists())
    def test_bijection_with_graphs(self, graph):
        n, edges = graph
        assert edges_of(epsilon_matrix(n, edges)) == sorted(edges)
        assert edges_of(epsilon_matrix(n, [(j, i) for i, j in edges])) == sorted(edges)


class TestConjugation:
    def test_automorphism_fixes_matrix(self):
        e = parse_graph(SQUARE).entries
        rotation = [1, 2, 3, 0]
        assert np.array_equal(e[np.ix_(rotation, rotation)], e)

    def test_relabeling_oracle(self):
        # independent oracle: relabel the edge set, rebuild the matrix; the
        # matrix of the relabelled graph is e[s^-1, s^-1]
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            images = list(range(n))
            rng.shuffle(images)
            relabeled = epsilon_matrix(n, [(images[i], images[j]) for i, j in edges_of(g)])
            inv = np.argsort(images)
            assert np.array_equal(g.entries[np.ix_(inv, inv)], relabeled.entries)


class TestAutomorphisms:
    def test_square_dihedral(self):
        assert len(graph_automorphisms(parse_graph(SQUARE))) == 8

    def test_pentagon_dihedral(self):
        g = epsilon_matrix(5, [(i, (i + 1) % 5) for i in range(5)])
        assert len(graph_automorphisms(g)) == 10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edgeless_full_symmetric(self, n):
        assert len(graph_automorphisms(epsilon_matrix(n, []))) == math.factorial(n)

    def test_bound(self, monkeypatch):
        # |Aut| = 10! = 3,628,800 is known from the chain; the listing must
        # be refused before a single product of representatives is formed
        def refuse(levels):
            raise AssertionError("automorphisms listed")

        monkeypatch.setattr(graph, "chain_products", refuse)
        with pytest.raises(BoundExceededError, match="listing bound 10000"):
            graph_automorphisms(epsilon_matrix(10, []))
        assert automorphism_order(epsilon_matrix(10, [])) == math.factorial(10)

    def test_search_budget(self, monkeypatch):
        # a chain may visit exactly MAX_SEARCH_NODES backtracking nodes,
        # summed over its searches; the chain of G and that of Aut each get
        # the whole budget
        spent = []

        def kernel(*args, budget, **kwargs):
            spent.append(budget)
            return signed_stabilizer(*args, budget=budget, **kwargs)

        signed_stabilizer = _backend.signed_stabilizer
        monkeypatch.setattr(_backend, "signed_stabilizer", kernel)
        g = epsilon_matrix(10, [(i, (i + 1) % 5) for i in range(5)]
                           + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                           + [(i, i + 5) for i in range(5)])  # Petersen
        chains = {"G": lambda: enumerate_group(g).order,
                  "Aut": lambda: automorphism_order(g)}
        used = {}
        for name, chain in chains.items():
            chain()
            used[name] = config.MAX_SEARCH_NODES - spent[-1][0]
        assert used == {"G": 38, "Aut": 38}

        for name, order in (("G", 1440), ("Aut", 120)):
            monkeypatch.setattr(config, "MAX_SEARCH_NODES", used[name])
            assert chains[name]() == order
            monkeypatch.setattr(config, "MAX_SEARCH_NODES", used[name] - 1)
            with pytest.raises(BoundExceededError,
                               match=f"budget of {used[name] - 1} backtracking nodes"):
                chains[name]()

    @given(graphs(max_n=5))
    @settings(max_examples=40)
    def test_group_properties(self, g):
        auts = graph_automorphisms(g)
        e = g.entries
        images = set(map(tuple, auts.tolist()))
        assert tuple(range(g.n)) in images
        for a in auts:
            assert np.array_equal(e[np.ix_(a, a)], e)
            assert tuple(np.argsort(a).tolist()) in images
        for a in auts[:4]:
            for b in auts[:4]:
                assert tuple(a[b].tolist()) in images


class TestSignMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SignMatrix([[1, 1], [-1, 1]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            SignMatrix([[-1, 1], [1, 1]])

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            SignMatrix([[1, 0], [0, 1]])

    def test_linked_masks(self):
        m = parse_graph(TRIANGLE)
        assert m.linked_masks() == [0b110, 0b101, 0b011]
        # against the bit-by-bit loop, up to the 64-bit masks of MAX_VERTICES
        rng = random.Random(71)
        for n in (1, 7, 8, 9, 16, 17, 33, 63, 64):
            m = random_graph(rng, n)
            masks = m.linked_masks()
            assert all(type(mask) is int for mask in masks)
            assert masks == [sum(1 << j for j in range(n) if m.entries[i, j] == -1)
                             for i in range(n)]
