import itertools
import random

import numpy as np
import pytest

from gerbe.autgroup import enumerate_group
from gerbe.errors import DeficientSpanError, GramMismatchError
from gerbe.exactpoly import char_poly, real_roots_with_multiplicity, squarefree_decomposition
from gerbe.fixtures import ALL, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import Graph, epsilon_matrix
from gerbe.quadspace import (
    QuadraticSpace,
    Representation,
    build_S,
    gram_factorize,
    isometry_between,
    jacobi_eigh,
    rank,
    reduce_representation,
    sum_representations,
)


def random_graph(rng, n):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def triangular_graph(k):
    """T(k), the line graph of K_k: 2-subsets linked when they meet."""
    verts = list(itertools.combinations(range(k), 2))
    return Graph.from_edges(
        len(verts),
        [(a, b) for a, b in itertools.combinations(range(len(verts)), 2)
         if set(verts[a]) & set(verts[b])],
    )


def petersen_graph():
    """Kneser graph K(5,2): 2-subsets of a 5-set, linked when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    return Graph.from_edges(10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                                 if not set(verts[a]) & set(verts[b])])


def group_targets(g, c):
    """The representation of g at (1, c) and the stack of its images
    nu_i * u_{sigma(i)} under every element of the sheaf group."""
    u = Representation.build(g, 1.0, c)
    els = enumerate_group(epsilon_matrix(g)).elements
    return u, np.array([[el.nu[i] * u.vectors[el.sigma(i)] for i in range(g.n)]
                        for el in els])


class TestJacobi:
    def test_diagonal_input(self):
        evals, q = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert sorted(evals) == pytest.approx([-1.0, 2.0, 3.0])
        assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(1, 9)
            a = rng.normal(size=(n, n))
            s = a + a.T
            evals, q = jacobi_eigh(s)
            assert np.abs(q @ np.diag(evals) @ q.T - s).max() < 1e-10
            assert np.abs(q @ q.T - np.eye(n)).max() < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_degenerate_spectrum(self):
        # the Seidel matrix J - I of the edgeless graph on 8 vertices has
        # eigenvalue -1 with multiplicity 7, and eigenvalue 7 once
        s = epsilon_matrix(Graph.from_edges(8, [])).entries - np.eye(8)
        evals, q = jacobi_eigh(s)
        assert evals == pytest.approx([-1.0] * 7 + [7.0])
        assert np.abs(q.T @ q - np.eye(8)).max() < 1e-12
        assert np.abs(q @ np.diag(evals) @ q.T - s).max() < 1e-12


class TestBuildS:
    def test_trivial_c_zero(self):
        m = epsilon_matrix(TRIANGLE.graph)
        assert np.array_equal(build_S(m, 1.0, 0.0), np.eye(3))

    def test_triangle_pattern(self):
        m = epsilon_matrix(TRIANGLE.graph)
        s = build_S(m, 1.0, 0.25)
        assert s[0, 0] == 1.0 and s[0, 1] == -0.25 and s[1, 2] == -0.25

    def test_square_third(self):
        m = epsilon_matrix(SQUARE.graph)
        s = build_S(m, 1.0, -1 / 3)
        assert s[0, 1] == pytest.approx(1 / 3)
        assert s[0, 2] == pytest.approx(-1 / 3)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_triangle_rank_one(self):
        assert rank(build_S(epsilon_matrix(TRIANGLE.graph), 1.0, -1.0)) == 1

    def test_square_rank_three(self):
        assert rank(build_S(epsilon_matrix(SQUARE.graph), 1.0, -1 / 3)) == 3

    @pytest.mark.parametrize("fx", ALL, ids=lambda f: f.name)
    def test_rank_law_on_fixtures(self, fx):
        m = epsilon_matrix(fx.graph)
        chi = char_poly(m)
        for rec in real_roots_with_multiplicity(m, squarefree_decomposition(chi)):
            c = rec.exact if rec.exact is not None else rec.value
            assert rank(build_S(m, 1.0, float(c))) == fx.graph.n - rec.multiplicity


class TestGramFactorize:
    def test_identity(self):
        space, vectors = gram_factorize(np.eye(3))
        assert space.signs == (1, 1, 1)
        assert np.abs(space.gram(vectors) - np.eye(3)).max() < 1e-12

    def test_equilateral_triangle(self):
        s = build_S(epsilon_matrix(TRIANGLE.graph), 1.0, 0.5)
        space, vectors = gram_factorize(s)
        assert space.dim == 2
        assert space.signs == (1, 1)
        for i in range(3):
            assert np.linalg.norm(vectors[i]) == pytest.approx(1.0)
        assert vectors[0] @ vectors[1] == pytest.approx(-0.5)

    def test_cube_diagonals(self):
        s = build_S(epsilon_matrix(SQUARE.graph), 1.0, -1 / 3)
        space, vectors = gram_factorize(s)
        assert space.dim == 3 and space.signs == (1, 1, 1)
        g = space.gram(vectors)
        assert np.abs(g - s).max() < 1e-12

    def test_indefinite_signature(self):
        s = build_S(epsilon_matrix(TRIANGLE.graph), 1.0, 2.0)
        space, vectors = gram_factorize(s)
        # chi(2) != 0 so full rank; the form cannot be definite at c = 2
        assert space.dim == 3
        assert -1 in space.signs
        assert np.abs(space.gram(vectors) - s).max() < 1e-9

    def test_round_trip_random(self):
        rng = random.Random(31)
        nprng = np.random.default_rng(31)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 6))
            c = float(nprng.uniform(-1, 1))
            s = build_S(epsilon_matrix(g), 1.0, c)
            space, vectors = gram_factorize(s)
            assert np.abs(space.gram(vectors) - s).max() < 1e-9

    def test_signature_stable_under_orthogonal_shuffle(self):
        s = build_S(epsilon_matrix(SQUARE.graph), 1.0, 2.0)
        space, _ = gram_factorize(s)
        base = sorted(space.signs)
        rng = np.random.default_rng(8)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            space2, _ = gram_factorize(q @ s @ q.T)
            # signature is a congruence invariant; q s qT is congruent to s
            assert sorted(space2.signs) == base

    def test_triangular_graph_roots(self):
        # chi of T(8) is (9x - 1)^7 (3x + 1)^21: 28 lines in R^7 at c = -1/3
        m = epsilon_matrix(triangular_graph(8))
        for c, dim in ((-1 / 3, 7), (1 / 9, 21)):
            s = build_S(m, 1.0, c)
            space, vectors = gram_factorize(s)
            assert space.dim == dim and space.signs == (1,) * dim
            assert np.abs(space.gram(vectors) - s).max() < 1e-12

    def test_rank_zero(self):
        space, vectors = gram_factorize(np.zeros((3, 3)))
        assert space.dim == 0
        assert vectors.shape == (3, 0)


class TestRepresentation:
    def test_build_validates_gram(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5)
        assert u.is_reduced()
        assert u.degree == 2

    def test_mismatched_vectors_rejected(self):
        space = QuadraticSpace((1, 1, 1))
        with pytest.raises(GramMismatchError):
            Representation(TRIANGLE.graph, 1.0, 0.5, space, np.eye(3))

    def test_null_representation(self):
        u = Representation(TRIANGLE.graph, 0.0, 0.0, QuadraticSpace(()), np.zeros((3, 0)))
        assert u.degree == 0
        assert u.is_trivial()


class TestSum:
    def test_null_summand_is_neutral(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5)
        null = Representation(TRIANGLE.graph, 0.0, 0.0, QuadraticSpace(()), np.zeros((3, 0)))
        w = sum_representations(u, null)
        assert w.degree == u.degree
        assert np.abs(w.gram - u.gram).max() < 1e-12

    def test_parameters_and_gram_add(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c1, c2 = rng.uniform(-1, 1, size=2)
            u = Representation.build(TRIANGLE.graph, 1.0, c1)
            v = Representation.build(TRIANGLE.graph, 2.0, c2)
            w = sum_representations(u, v)
            assert w.omega == pytest.approx(3.0)
            assert w.c == pytest.approx(c1 + c2)
            assert np.abs(w.gram - (u.gram + v.gram)).max() < 1e-9
            assert w.degree == u.degree + v.degree

    def test_triangle_positive_combination(self):
        # rank-1 piece at c=-1 plus rank-2 piece at c=1/2 gives a rank-3 rep
        u = Representation.build(TRIANGLE.graph, 1.0, -1.0)
        v = Representation.build(TRIANGLE.graph, 1.0, 0.5)
        w = sum_representations(u, v)
        assert (w.omega, w.c) == (2.0, -0.5)
        assert w.degree == 3

    def test_graph_mismatch(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5)
        v = Representation.build(SQUARE.graph, 1.0, 0.5)
        with pytest.raises(ValueError, match="graph"):
            sum_representations(u, v)


class TestReduce:
    def test_idempotent_on_reduced(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        v = reduce_representation(u)
        assert v.degree == u.degree
        assert np.abs(v.gram - u.gram).max() < 1e-9

    def test_padding_removed(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5)
        padded_space = QuadraticSpace(u.space.signs + (1, -1))
        padded_vectors = np.hstack([u.vectors, np.zeros((3, 2))])
        padded = Representation(TRIANGLE.graph, 1.0, 0.5, padded_space, padded_vectors)
        assert not padded.is_reduced()
        v = reduce_representation(padded)
        assert v.degree == 2
        assert np.abs(v.gram - u.gram).max() < 1e-9

    def test_square_at_one_reduces_to_line(self):
        m = epsilon_matrix(SQUARE.graph)
        s = build_S(m, 1.0, 1.0)
        space, vectors = gram_factorize(np.eye(4) * 0 + s)
        u = Representation(SQUARE.graph, 1.0, 1.0, space, vectors, gram=s)
        assert reduce_representation(u).degree == 1


class TestIsometry:
    def test_identity(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        f = isometry_between(u.vectors, u.vectors, u.space, u.space)
        assert np.abs(f - np.eye(3)).max() < 1e-9

    def test_global_sign(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        f = isometry_between(u.vectors, -u.vectors, u.space, u.space)
        assert np.abs(f + np.eye(3)).max() < 1e-9

    def test_recovers_orthogonal_shuffle(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        rng = np.random.default_rng(21)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            v = u.vectors @ q.T
            f = isometry_between(u.vectors, v, u.space, u.space)
            assert np.abs(f - q).max() < 1e-8
            assert np.abs(u.vectors @ f.T - v).max() < 1e-8

    def test_gram_mismatch_rejected(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        v = Representation.build(SQUARE.graph, 1.0, 0.5)
        with pytest.raises(GramMismatchError):
            isometry_between(u.vectors, v.vectors, u.space, v.space)

    def test_deficient_span_rejected(self):
        # vectors confined to a plane inside a 3-dim space
        space = QuadraticSpace((1, 1, 1))
        vecs = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        with pytest.raises(DeficientSpanError):
            isometry_between(vecs, vecs, space, space)


class TestIsometryStack:
    @pytest.mark.parametrize("g, c", [
        (petersen_graph(), 1 / 3),
        (POINTED_HEXAGON.graph, -1 / 5 ** 0.5),  # the smallest root of chi
    ])
    def test_stack_equals_single_calls_bitwise(self, g, c):
        u, targets = group_targets(g, c)
        stack = isometry_between(u.vectors, targets, u.space, u.space)
        single = np.array([isometry_between(u.vectors, t, u.space, u.space)
                           for t in targets])
        assert stack.shape == single.shape == (len(targets), u.degree, u.degree)
        assert stack.tobytes() == single.tobytes()

    def test_single_call_keeps_its_shape(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        assert isometry_between(u.vectors, u.vectors, u.space, u.space).shape == (3, 3)
        stack = isometry_between(u.vectors, np.stack([u.vectors, -u.vectors]),
                                 u.space, u.space)
        assert np.abs(stack - [np.eye(3), -np.eye(3)]).max() < 1e-9

    def test_one_bad_target_fails_the_stack(self):
        u, targets = group_targets(SQUARE.graph, -1 / 3)
        bad = targets.copy()
        bad[7, [0, 1]] = bad[7, [1, 0]]  # swap two images: not an isometry
        with pytest.raises(GramMismatchError):
            isometry_between(u.vectors, bad, u.space, u.space)
        # a linear map that is no isometry leaves no residual: only the
        # Gram check of that target sees it
        scaled = targets.copy()
        scaled[7] *= 1.5
        with pytest.raises(GramMismatchError, match="Gram"):
            isometry_between(u.vectors, scaled, u.space, u.space)
        isometry_between(u.vectors, targets, u.space, u.space)

    def test_residual_check_per_target(self):
        # three nearly parallel vectors in the plane: moving the third by 1e-6
        # orthogonally to the others keeps every inner product within the
        # Gram tolerance, and only the residual check sees it
        space = QuadraticSpace((1, 1))
        u = np.array([[1.0, 0.0], [1.0, 1e-3], [1.0, -1e-3]])
        moved = u.copy()
        moved[2, 1] += 1e-6
        stack = np.stack([u, -u, moved])
        gram_dev = np.abs(space.gram(moved) - space.gram(u)).max()
        assert gram_dev < 1e-8  # below ISOMETRY_TOL: the Gram check passes
        assert isometry_between(u, stack[:2], space, space).shape == (2, 2, 2)
        with pytest.raises(GramMismatchError, match="residual"):
            isometry_between(u, stack, space, space)
        with pytest.raises(GramMismatchError, match="residual"):
            isometry_between(u, moved, space, space)

    def test_deficient_span_on_a_stack(self):
        space = QuadraticSpace((1, 1, 1))
        vecs = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        with pytest.raises(DeficientSpanError):
            isometry_between(vecs, np.stack([vecs, -vecs]), space, space)
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3)
        padded = QuadraticSpace((1, 1, 1, 1))
        with pytest.raises(DeficientSpanError):
            isometry_between(u.vectors, np.stack([np.hstack([u.vectors, np.zeros((4, 1))])] * 2),
                             u.space, padded)
