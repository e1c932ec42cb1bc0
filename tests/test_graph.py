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
    Graph,
    Permutation,
    SignMatrix,
    automorphism_order,
    conjugate_matrix,
    epsilon_matrix,
    graph_automorphisms,
    parse_graph,
)
from oracles import format_graph, graph_from_sign_matrix

TRIANGLE = "3\n1 2\n2 3\n1 3"
SQUARE = "4\n1 2\n2 3\n3 4\n1 4"


def random_graph(rng, n):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, chosen)


@st.composite
def permutations(draw, n):
    images = list(range(n))
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(images)
    return Permutation(tuple(images))


class TestParse:
    def test_triangle(self):
        g = parse_graph(TRIANGLE)
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_square_with_comments(self):
        g = parse_graph("# the 4-cycle\n" + SQUARE + "\n# trailing\n")
        assert g.n == 4
        assert g.sorted_edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

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
        assert parse_graph(format_graph(g)) == g

    def test_vertex_bound(self):
        assert parse_graph(f"{config.MAX_VERTICES}\n").n == config.MAX_VERTICES
        with pytest.raises(BoundExceededError, match="vertex bound"):
            parse_graph(f"{config.MAX_VERTICES + 1}\n")
        with pytest.raises(BoundExceededError):
            parse_graph("1000000000\n")


class TestEpsilonMatrix:
    def test_triangle_all_minus_off_diagonal(self):
        m = epsilon_matrix(parse_graph(TRIANGLE))
        expected = np.array([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        assert np.array_equal(m.entries, expected)

    def test_edgeless_all_plus(self):
        m = epsilon_matrix(Graph(3, frozenset()))
        assert np.array_equal(m.entries, np.ones((3, 3), dtype=int))

    def test_square_matches_known_matrix(self):
        m = epsilon_matrix(parse_graph(SQUARE))
        expected = np.array([
            [1, -1, 1, -1],
            [-1, 1, -1, 1],
            [1, -1, 1, -1],
            [-1, 1, -1, 1],
        ])
        assert np.array_equal(m.entries, expected)

    @given(graphs())
    def test_bijection_with_graphs(self, g):
        assert graph_from_sign_matrix(epsilon_matrix(g)) == g


class TestConjugation:
    def test_identity(self):
        m = epsilon_matrix(parse_graph(SQUARE))
        assert conjugate_matrix(Permutation.identity(4), m) == m

    def test_automorphism_fixes_matrix(self):
        m = epsilon_matrix(parse_graph(SQUARE))
        rotation = Permutation((1, 2, 3, 0))
        assert conjugate_matrix(rotation, m) == m

    def test_relabeling_oracle(self):
        # independent oracle: relabel the edge set, rebuild the matrix
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 7)
            g = random_graph(rng, n)
            images = list(range(n))
            rng.shuffle(images)
            s = Permutation(tuple(images))
            relabeled = Graph.from_edges(n, [(s(i), s(j)) for i, j in g.edges])
            assert conjugate_matrix(s, epsilon_matrix(g)) == epsilon_matrix(relabeled)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            conjugate_matrix(Permutation.identity(3), epsilon_matrix(parse_graph(SQUARE)))

    @given(st.data())
    @settings(max_examples=60)
    def test_action_property(self, data):
        g = data.draw(graphs(max_n=6))
        s = data.draw(permutations(g.n))
        t = data.draw(permutations(g.n))
        m = epsilon_matrix(g)
        assert conjugate_matrix(s.compose(t), m) == conjugate_matrix(s, conjugate_matrix(t, m))


class TestAutomorphisms:
    def test_square_dihedral(self):
        assert len(graph_automorphisms(parse_graph(SQUARE))) == 8

    def test_pentagon_dihedral(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert len(graph_automorphisms(g)) == 10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edgeless_full_symmetric(self, n):
        assert len(graph_automorphisms(Graph(n, frozenset()))) == math.factorial(n)

    def test_bound(self, monkeypatch):
        # |Aut| = 10! = 3,628,800 is known from the chain; the listing must
        # be refused before a single product of representatives is formed
        def refuse(levels):
            raise AssertionError("automorphisms listed")

        monkeypatch.setattr(graph, "chain_products", refuse)
        with pytest.raises(BoundExceededError, match="listing bound 10000"):
            graph_automorphisms(Graph(10, frozenset()))
        assert automorphism_order(Graph(10, frozenset())) == math.factorial(10)

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
        g = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                             + [(i, i + 5) for i in range(5)])  # Petersen
        chains = {"G": lambda: enumerate_group(epsilon_matrix(g)).order,
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
        m = epsilon_matrix(g)
        images = {a.images for a in auts}
        assert tuple(range(g.n)) in images
        for a in auts:
            assert conjugate_matrix(a, m) == m
            assert a.inverse().images in images
        for a in auts[:4]:
            for b in auts[:4]:
                assert a.compose(b).images in images


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
        m = epsilon_matrix(parse_graph(TRIANGLE))
        assert m.linked_masks() == [0b110, 0b101, 0b011]
        # against the bit-by-bit loop, up to the 64-bit masks of MAX_VERTICES
        rng = random.Random(71)
        for n in (1, 7, 8, 9, 16, 17, 33, 63, 64):
            m = epsilon_matrix(random_graph(rng, n))
            masks = m.linked_masks()
            assert all(type(mask) is int for mask in masks)
            assert masks == [sum(1 << j for j in range(n) if m[i, j] == -1) for i in range(n)]
