import itertools
import random

import numpy as np
import pytest

from gerbe.autgroup import enumerate_group, realize_isometry
from gerbe.errors import DeficientSpanError, GramMismatchError
from gerbe.exactpoly import (
    char_poly,
    chi_and_roots,
    real_roots_with_multiplicity,
    squarefree_decomposition,
)
from gerbe.fixtures import ALL, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import epsilon_matrix
from gerbe.quadspace import (
    QuadraticSpace,
    Representation,
    build_S,
    gram_factorize,
    isometry_between,
    jacobi_eigh,
    rank,
)
from oracles import eigenvalue_sign_counts


def random_graph(rng, n):
    return epsilon_matrix(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def triangular_graph(k):
    """T(k), the line graph of K_k: 2-subsets linked when they meet."""
    verts = list(itertools.combinations(range(k), 2))
    return epsilon_matrix(
        len(verts),
        [(a, b) for a, b in itertools.combinations(range(len(verts)), 2)
         if set(verts[a]) & set(verts[b])],
    )


def petersen_graph():
    """Kneser graph K(5,2): 2-subsets of a 5-set, linked when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    return epsilon_matrix(10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                               if not set(verts[a]) & set(verts[b])])


def pivot_blocks(square):
    """The diagonal blocks, of one or two indices, under which a square
    matrix is block lower-triangular for some order of its rows and columns
    taken together, peeled from the first: a block's rows are zero outside
    its own columns and those of the blocks before it.  None if no such
    order exists."""
    nonzero = square != 0
    left = list(range(len(square)))
    blocks = []
    while left:
        block = next((b for size in (1, 2) for b in itertools.combinations(left, size)
                      if not nonzero[np.ix_(b, [j for j in left if j not in b])].any()), None)
        if block is None:
            return None
        blocks.append(block)
        left = [j for j in left if j not in block]
    return blocks


def random_roots(seed, count, max_n):
    """(graph, root, degree) at a seeded root of each of count random
    graphs, the degree n - mu by the rank law."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        g = random_graph(rng, rng.randint(2, max_n))
        _, _, roots = chi_and_roots(g)
        rec = roots[rng.randrange(len(roots))]
        c = float(rec.exact) if rec.exact is not None else rec.value
        cases.append((g, c, g.n - rec.multiplicity))
    return cases


def group_targets(g, c):
    """The representation of g at (1, c) and the stack of its images
    nu_i * u_{sigma(i)} under every element of the sheaf group.  c is a
    float near a root, so its degree is the numeric rank of S(1, c)."""
    u = Representation.build(g, 1.0, c, rank(build_S(g, 1.0, c)))
    sigma, nu = enumerate_group(g).listing
    return u, nu[:, :, None] * u.vectors[sigma]


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
        s = epsilon_matrix(8, []).entries - np.eye(8)
        evals, q = jacobi_eigh(s)
        assert evals == pytest.approx([-1.0] * 7 + [7.0])
        assert np.abs(q.T @ q - np.eye(8)).max() < 1e-12
        assert np.abs(q @ np.diag(evals) @ q.T - s).max() < 1e-12


class TestBuildS:
    def test_trivial_c_zero(self):
        m = TRIANGLE.graph
        assert np.array_equal(build_S(m, 1.0, 0.0), np.eye(3))

    def test_triangle_pattern(self):
        m = TRIANGLE.graph
        s = build_S(m, 1.0, 0.25)
        assert s[0, 0] == 1.0 and s[0, 1] == -0.25 and s[1, 2] == -0.25

    def test_square_third(self):
        m = SQUARE.graph
        s = build_S(m, 1.0, -1 / 3)
        assert s[0, 1] == pytest.approx(1 / 3)
        assert s[0, 2] == pytest.approx(-1 / 3)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_triangle_rank_one(self):
        assert rank(build_S(TRIANGLE.graph, 1.0, -1.0)) == 1

    def test_square_rank_three(self):
        assert rank(build_S(SQUARE.graph, 1.0, -1 / 3)) == 3

    @pytest.mark.parametrize("fx", ALL, ids=lambda f: f.name)
    def test_rank_law_on_fixtures(self, fx):
        m = fx.graph
        chi = char_poly(m)
        for rec in real_roots_with_multiplicity(m, squarefree_decomposition(chi)):
            c = rec.exact if rec.exact is not None else rec.value
            assert rank(build_S(m, 1.0, float(c))) == fx.graph.n - rec.multiplicity


class TestGramFactorize:
    def test_identity(self):
        space, vectors, _ = gram_factorize(np.eye(3), 3)
        assert space.signs == (1, 1, 1)
        assert np.abs(space.gram(vectors) - np.eye(3)).max() < 1e-12

    def test_equilateral_triangle(self):
        s = build_S(TRIANGLE.graph, 1.0, 0.5)
        space, vectors, _ = gram_factorize(s, rank(s))
        assert space.dim == 2
        assert space.signs == (1, 1)
        for i in range(3):
            assert np.linalg.norm(vectors[i]) == pytest.approx(1.0)
        assert vectors[0] @ vectors[1] == pytest.approx(-0.5)

    def test_cube_diagonals(self):
        s = build_S(SQUARE.graph, 1.0, -1 / 3)
        space, vectors, _ = gram_factorize(s, rank(s))
        assert space.dim == 3 and space.signs == (1, 1, 1)
        g = space.gram(vectors)
        assert np.abs(g - s).max() < 1e-12

    def test_indefinite_signature(self):
        s = build_S(TRIANGLE.graph, 1.0, 2.0)
        space, vectors, _ = gram_factorize(s, rank(s))
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
            s = build_S(g, 1.0, c)
            space, vectors, _ = gram_factorize(s, rank(s))
            assert np.abs(space.gram(vectors) - s).max() < 1e-9

    def test_signature_stable_under_orthogonal_shuffle(self):
        s = build_S(SQUARE.graph, 1.0, 2.0)
        space, _, _ = gram_factorize(s, rank(s))
        base = sorted(space.signs)
        rng = np.random.default_rng(8)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            space2, _, _ = gram_factorize(q @ s @ q.T, rank(q @ s @ q.T))
            # signature is a congruence invariant; q s qT is congruent to s
            assert sorted(space2.signs) == base

    def test_triangular_graph_roots(self):
        # chi of T(8) is (9x - 1)^7 (3x + 1)^21: 28 lines in R^7 at c = -1/3
        m = triangular_graph(8)
        for c, dim in ((-1 / 3, 7), (1 / 9, 21)):
            s = build_S(m, 1.0, c)
            space, vectors, _ = gram_factorize(s, dim)
            assert space.dim == dim and space.signs == (1,) * dim
            assert np.abs(space.gram(vectors) - s).max() < 1e-12

    def test_keeps_the_largest_moduli(self):
        # 10^-9 above the square's triple root 1, the three eigenvalues
        # 1 - c are small but not zero: all four are kept, the positive
        # one first, and the Gram matrix is reproduced
        s = build_S(SQUARE.graph, 1.0, 1 + 1e-9)
        space, vectors, _ = gram_factorize(s, 4)
        assert space.signs == (1, -1, -1, -1)
        assert np.abs(space.gram(vectors) - s).max() < 1e-12
        assert gram_factorize(s, 1)[0].signs == (1,)

    def test_overflowing_spectrum_refused(self):
        # the entries are floats, but the eigenvalue 4e308 is not
        s = build_S(SQUARE.graph, 1e308, 1e308)
        with pytest.raises(ValueError, match="range of a float"):
            gram_factorize(s, 1)
        assert gram_factorize(s / 4, 1)[0].dim == 1

    def test_rank_zero(self):
        space, vectors, _ = gram_factorize(np.zeros((3, 3)), 0)
        assert space.dim == 0
        assert vectors.shape == (3, 0)


class TestRepresentation:
    def test_build_validates_gram(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        assert np.linalg.matrix_rank(u.vectors) == u.degree
        assert u.degree == 2

    def test_mismatched_vectors_rejected(self):
        space = QuadraticSpace((1, 1, 1))
        with pytest.raises(GramMismatchError):
            Representation(TRIANGLE.graph, 1.0, 0.5, space, np.eye(3))

    def test_large_c_perturbation_rejected(self):
        # the Gram tolerance is relative to max|S| = 10^7, not lost in it
        u = Representation.build(SQUARE.graph, 1.0, 1e7, 4)
        with pytest.raises(GramMismatchError):
            Representation(SQUARE.graph, 1.0, 1e7, u.space, u.vectors * (1 + 1e-6))
        targets = np.stack([u.vectors, -u.vectors, u.vectors * (1 + 1e-6)])
        assert isometry_between(u.vectors, targets[:2], u.space, u.space, u.pivots).shape == (2, 4, 4)
        with pytest.raises(GramMismatchError, match="Gram"):
            isometry_between(u.vectors, targets, u.space, u.space, u.pivots)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, value):
        # a NaN deviation is not larger than the tolerance, yet fails it
        with pytest.raises(GramMismatchError, match="max deviation"):
            Representation(epsilon_matrix(3, []), 1.0, 0.5, QuadraticSpace((1, 1)),
                           np.full((3, 2), value))

    def test_null_representation(self):
        u = Representation(TRIANGLE.graph, 0.0, 0.0, QuadraticSpace(()), np.zeros((3, 0)))
        assert u.degree == 0
        assert u.c == 0.0
        assert np.linalg.matrix_rank(u.vectors) == u.degree


class TestSum:
    # the orthogonal sum of realizations at (omega_k, c_k), its vectors side
    # by side, realizes the summed parameters: Representation checks its Gram
    def test_null_summand_is_neutral(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        w = Representation(TRIANGLE.graph, 1.0, 0.5, u.space, np.hstack([u.vectors, np.zeros((3, 0))]))
        assert w.degree == u.degree
        assert np.abs(w.gram - u.gram).max() < 1e-12

    def test_parameters_and_gram_add(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c1, c2 = rng.uniform(-1, 1, size=2)
            u = Representation.build(TRIANGLE.graph, 1.0, c1, 3)
            v = Representation.build(TRIANGLE.graph, 2.0, c2, 3)
            w = Representation(TRIANGLE.graph, 3.0, c1 + c2, QuadraticSpace(u.space.signs + v.space.signs),
                               np.hstack([u.vectors, v.vectors]))
            assert np.abs(w.gram - (u.gram + v.gram)).max() < 1e-9
            assert w.degree == u.degree + v.degree

    def test_triangle_positive_combination(self):
        # rank-1 piece at c=-1 plus rank-2 piece at c=1/2 gives a rank-3 rep
        u = Representation.build(TRIANGLE.graph, 1.0, -1.0, 1)
        v = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        w = Representation(TRIANGLE.graph, 2.0, -0.5, QuadraticSpace(u.space.signs + v.space.signs),
                           np.hstack([u.vectors, v.vectors]))
        assert w.degree == 3 and np.linalg.matrix_rank(w.vectors) == w.degree


class TestReduce:
    # factorizing the Gram matrix of a system at its numeric rank drops the
    # null summand: same Gram, minimal degree
    def test_idempotent_on_reduced(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        space, vectors, _ = gram_factorize(u.gram, rank(u.gram))
        assert space.dim == u.degree
        assert np.abs(space.gram(vectors) - u.gram).max() < 1e-9

    def test_padding_removed(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        padded_space = QuadraticSpace(u.space.signs + (1, -1))
        padded_vectors = np.hstack([u.vectors, np.zeros((3, 2))])
        padded = Representation(TRIANGLE.graph, 1.0, 0.5, padded_space, padded_vectors)
        assert np.linalg.matrix_rank(padded.vectors) < padded.degree
        v = Representation(TRIANGLE.graph, 1.0, 0.5, *gram_factorize(padded.gram, rank(padded.gram)))
        assert v.degree == 2 and np.linalg.matrix_rank(v.vectors) == v.degree
        assert np.abs(v.gram - u.gram).max() < 1e-9

    def test_square_at_one_reduces_to_line(self):
        m = SQUARE.graph
        s = build_S(m, 1.0, 1.0)
        # one pivot leaves a zero Schur complement: S has no rank 4 to factor
        with pytest.raises(ValueError, match="rank below 4"):
            gram_factorize(s, 4)
        line = Representation(SQUARE.graph, 1.0, 1.0, *gram_factorize(s, 1))
        padded = Representation(SQUARE.graph, 1.0, 1.0, QuadraticSpace((1, 1, -1, -1)),
                                np.hstack([line.vectors, np.zeros((4, 3))]))
        assert np.linalg.matrix_rank(padded.vectors) < padded.degree
        assert rank(padded.gram) == 1
        assert Representation(SQUARE.graph, 1.0, 1.0, *gram_factorize(s, rank(s))).degree == 1


class TestIsometry:
    def test_identity(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        f = isometry_between(u.vectors, u.vectors, u.space, u.space, u.pivots)
        assert np.abs(f - np.eye(3)).max() < 1e-9

    def test_global_sign(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        f = isometry_between(u.vectors, -u.vectors, u.space, u.space, u.pivots)
        assert np.abs(f + np.eye(3)).max() < 1e-9

    def test_recovers_orthogonal_shuffle(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        rng = np.random.default_rng(21)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            v = u.vectors @ q.T
            f = isometry_between(u.vectors, v, u.space, u.space, u.pivots)
            assert np.abs(f - q).max() < 1e-8
            assert np.abs(u.vectors @ f.T - v).max() < 1e-8

    def test_gram_mismatch_rejected(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        v = Representation.build(SQUARE.graph, 1.0, 0.5, 4)
        with pytest.raises(GramMismatchError):
            isometry_between(u.vectors, v.vectors, u.space, v.space, u.pivots)

    def test_deficient_span_rejected(self):
        # vectors confined to a plane inside a 3-dim space
        space = QuadraticSpace((1, 1, 1))
        vecs = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        with pytest.raises(DeficientSpanError):
            isometry_between(vecs, vecs, space, space, (0, 1, 2))


class TestIsometryStack:
    @pytest.mark.parametrize("g, c", [
        (petersen_graph(), 1 / 3),
        (POINTED_HEXAGON.graph, -1 / 5 ** 0.5),  # the smallest root of chi
    ])
    def test_stack_equals_single_calls_bitwise(self, g, c):
        u, targets = group_targets(g, c)
        stack = isometry_between(u.vectors, targets, u.space, u.space, u.pivots)
        single = np.array([isometry_between(u.vectors, t, u.space, u.space, u.pivots)
                           for t in targets])
        assert stack.shape == single.shape == (len(targets), u.degree, u.degree)
        assert stack.tobytes() == single.tobytes()

    def test_single_call_keeps_its_shape(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        assert isometry_between(u.vectors, u.vectors, u.space, u.space, u.pivots).shape == (3, 3)
        stack = isometry_between(u.vectors, np.stack([u.vectors, -u.vectors]),
                                 u.space, u.space, u.pivots)
        assert np.abs(stack - [np.eye(3), -np.eye(3)]).max() < 1e-9

    def test_one_bad_target_fails_the_stack(self):
        u, targets = group_targets(SQUARE.graph, -1 / 3)
        bad = targets.copy()
        bad[7, [0, 1]] = bad[7, [1, 0]]  # swap two images: not an isometry
        with pytest.raises(GramMismatchError):
            isometry_between(u.vectors, bad, u.space, u.space, u.pivots)
        # a linear map that is no isometry leaves no residual: only the
        # Gram check of that target sees it
        scaled = targets.copy()
        scaled[7] *= 1.5
        with pytest.raises(GramMismatchError, match="Gram"):
            isometry_between(u.vectors, scaled, u.space, u.space, u.pivots)
        isometry_between(u.vectors, targets, u.space, u.space, u.pivots)

    def test_non_finite_target_fails_the_stack(self):
        u, targets = group_targets(SQUARE.graph, -1 / 3)
        for value in (np.nan, np.inf):
            bad = targets.copy()
            bad[7, 2, 1] = value
            with pytest.raises(GramMismatchError, match="Gram"):
                isometry_between(u.vectors, bad, u.space, u.space, u.pivots)
            with pytest.raises(GramMismatchError, match="Gram"):
                isometry_between(u.vectors, bad[7], u.space, u.space, u.pivots)

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
        assert isometry_between(u, stack[:2], space, space, (0, 1)).shape == (2, 2, 2)
        with pytest.raises(GramMismatchError, match="residual"):
            isometry_between(u, stack, space, space, (0, 1))
        with pytest.raises(GramMismatchError, match="residual"):
            isometry_between(u, moved, space, space, (0, 1))

    def test_deficient_span_on_a_stack(self):
        space = QuadraticSpace((1, 1, 1))
        vecs = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        with pytest.raises(DeficientSpanError):
            isometry_between(vecs, np.stack([vecs, -vecs]), space, space, (0, 1, 2))
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        padded = QuadraticSpace((1, 1, 1, 1))
        with pytest.raises(DeficientSpanError):
            isometry_between(u.vectors, np.stack([np.hstack([u.vectors, np.zeros((4, 1))])] * 2),
                             u.space, padded, u.pivots)


class TestPivotFrame:
    # the vectors are written in the frame of their pivot rows: an LDL^T
    # of S(1, c) that pivots on vertices, fixed by (Gamma, c)
    def test_pivot_rows_block_lower_triangular(self):
        two_by_two = 0
        for g, c, degree in random_roots(17, 60, 18):
            u = Representation.build(g, 1.0, c, degree)
            assert len(u.pivots) == len(set(u.pivots)) == degree
            rows = u.vectors[list(u.pivots)]
            blocks = pivot_blocks(rows)
            assert blocks is not None, (g.entries, c)
            for b in blocks:
                assert abs(np.linalg.det(rows[np.ix_(b, b)])) > 0
                if len(b) == 2:  # an indefinite block: one column of each sign
                    assert sorted(u.space.signs[j] for j in b) == [-1, 1]
            two_by_two += any(len(b) == 2 for b in blocks)
        assert two_by_two  # both kinds of pivot ran

    def test_pivot_ties_go_to_the_lowest_vertex(self):
        # S(1, 1/3) of Petersen has unit diagonal: the first pivot is vertex 0
        u = Representation.build(petersen_graph(), 1.0, 1 / 3, 5)
        assert u.pivots[0] == 0
        assert np.array_equal(u.vectors[0], [1.0, 0, 0, 0, 0])

    def test_signs_match_the_spectrum_away_from_roots(self):
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            g = random_graph(rng, rng.randint(1, 12))
            c = rng.uniform(-2, 2)
            s = build_S(g, 1.0, c)
            if np.abs(np.linalg.eigvalsh(s)).min() < 1e-6:
                continue  # near a root: tests/test_rank_law.py covers roots
            space, vectors, _ = gram_factorize(s, g.n)
            signs = space.signs
            assert (signs.count(1), signs.count(-1)) == eigenvalue_sign_counts(g, 1.0, c, 1e-9)
            assert list(signs) == sorted(signs, reverse=True)  # positive columns first
            checked += 1

    @pytest.mark.parametrize("g, c, degree", [
        (POINTED_HEXAGON.graph, -1 / 5 ** 0.5, 3),  # root 0, of multiplicity 3
        (petersen_graph(), 1 / 3, 5),
        (petersen_graph(), -1 / 3, 5),
    ], ids=["hexagon-root0", "petersen-third", "petersen-minus-third"])
    def test_frame_continuous_in_c(self, g, c, degree):
        # a relative move of c by 2^-40 moves the vectors and the realized
        # matrices as little: the frame is a function of c, not of an
        # eigensolver's choice of basis in a degenerate space.  On Petersen
        # the last pivot moves (a tie in rationals that rounding breaks),
        # and the vectors stay, since the last Schur complement has rank one
        listing = enumerate_group(g).listing
        near = []
        for x in (c, c * (1 + 2 ** -40)):
            u = Representation.build(g, 1.0, x, degree)
            near.append((u.vectors, realize_isometry(*listing, u)))
        (v0, m0), (v1, m1) = near
        assert np.abs(v0 - v1).max() <= 1e-9
        assert np.abs(m0 - m1).max() <= 1e-9
