import itertools
import random

import numpy as np
import pytest

from gerbe import config
from gerbe.autgroup import enumerate_group, realize_isometry
from gerbe.errors import GramMismatchError
from gerbe.exactpoly import (
    char_poly,
    chi_and_roots,
    real_roots_with_multiplicity,
    squarefree_decomposition,
)
from gerbe.fixtures import ALL, PENTAGON, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import epsilon_matrix
from gerbe.quadspace import (
    Representation,
    build_S,
    gram_factorize,
    isometry_between,
    jacobi_eigh,
    rank,
)
from oracles import eigenvalue_sign_counts, sign_compatible


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


def group_rows(g, c):
    """The representation of g at (1, c) and the rows (sigma, nu) of every
    element of the sheaf group.  c is a float near a root, so its degree is
    the numeric rank of S(1, c)."""
    u = Representation.build(g, 1.0, c, rank(build_S(g, 1.0, c)))
    return u, *enumerate_group(g).listing


def identity(n, sign=1):
    return np.arange(n)[None], np.full((1, n), sign)


def gram(signs, vectors):
    """Gram matrix of row-vectors under the diagonal form ``signs``."""
    v = np.asarray(vectors, dtype=float)
    return (v * np.array(signs, dtype=float)) @ v.T


def s_of(u):
    """S(omega, c) of a representation, the matrix its vectors realize."""
    return build_S(u.graph, u.omega, u.c)


def summed(u, v):
    """The orthogonal sum of two systems: their forms joined, their vectors
    side by side."""
    return u.signs + v.signs, np.hstack([u.vectors, v.vectors])


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
        signs, vectors, _ = gram_factorize(np.eye(3), 3)
        assert signs == (1, 1, 1)
        assert np.abs(gram(signs, vectors) - np.eye(3)).max() < 1e-12

    def test_equilateral_triangle(self):
        s = build_S(TRIANGLE.graph, 1.0, 0.5)
        signs, vectors, _ = gram_factorize(s, rank(s))
        assert len(signs) == 2
        assert signs == (1, 1)
        for i in range(3):
            assert np.linalg.norm(vectors[i]) == pytest.approx(1.0)
        assert vectors[0] @ vectors[1] == pytest.approx(-0.5)

    def test_cube_diagonals(self):
        s = build_S(SQUARE.graph, 1.0, -1 / 3)
        signs, vectors, _ = gram_factorize(s, rank(s))
        assert len(signs) == 3 and signs == (1, 1, 1)
        g = gram(signs, vectors)
        assert np.abs(g - s).max() < 1e-12

    def test_indefinite_signature(self):
        s = build_S(TRIANGLE.graph, 1.0, 2.0)
        signs, vectors, _ = gram_factorize(s, rank(s))
        # chi(2) != 0 so full rank; the form cannot be definite at c = 2
        assert len(signs) == 3
        assert -1 in signs
        assert np.abs(gram(signs, vectors) - s).max() < 1e-9

    def test_round_trip_random(self):
        rng = random.Random(31)
        nprng = np.random.default_rng(31)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 6))
            c = float(nprng.uniform(-1, 1))
            s = build_S(g, 1.0, c)
            signs, vectors, _ = gram_factorize(s, rank(s))
            assert np.abs(gram(signs, vectors) - s).max() < 1e-9

    def test_signature_stable_under_orthogonal_shuffle(self):
        s = build_S(SQUARE.graph, 1.0, 2.0)
        signs, _, _ = gram_factorize(s, rank(s))
        base = sorted(signs)
        rng = np.random.default_rng(8)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            signs2, _, _ = gram_factorize(q @ s @ q.T, rank(q @ s @ q.T))
            # signature is a congruence invariant; q s qT is congruent to s
            assert sorted(signs2) == base

    def test_triangular_graph_roots(self):
        # chi of T(8) is (9x - 1)^7 (3x + 1)^21: 28 lines in R^7 at c = -1/3
        m = triangular_graph(8)
        for c, dim in ((-1 / 3, 7), (1 / 9, 21)):
            s = build_S(m, 1.0, c)
            signs, vectors, _ = gram_factorize(s, dim)
            assert len(signs) == dim and signs == (1,) * dim
            assert np.abs(gram(signs, vectors) - s).max() < 1e-12

    def test_keeps_the_largest_moduli(self):
        # 10^-9 above the square's triple root 1, the three eigenvalues
        # 1 - c are small but not zero: all four are kept, the positive
        # one first, and the Gram matrix is reproduced
        s = build_S(SQUARE.graph, 1.0, 1 + 1e-9)
        signs, vectors, _ = gram_factorize(s, 4)
        assert signs == (1, -1, -1, -1)
        assert np.abs(gram(signs, vectors) - s).max() < 1e-12
        assert gram_factorize(s, 1)[0] == (1,)

    def test_overflowing_spectrum_refused(self):
        # the entries are floats, but the eigenvalue 4e308 is not
        s = build_S(SQUARE.graph, 1e308, 1e308)
        with pytest.raises(ValueError, match="range of a float"):
            gram_factorize(s, 1)
        assert len(gram_factorize(s / 4, 1)[0]) == 1

    def test_rank_zero(self):
        signs, vectors, _ = gram_factorize(np.zeros((3, 3)), 0)
        assert len(signs) == 0
        assert vectors.shape == (3, 0)


class TestRepresentation:
    def test_build_validates_gram(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        assert np.linalg.matrix_rank(u.vectors) == len(u.signs)
        assert len(u.signs) == 2

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(GramMismatchError):
            Representation(TRIANGLE.graph, 1.0, 0.5, (1, 1, 1), np.eye(3), (0, 1, 2))

    def test_large_c_perturbation_rejected(self):
        # the Gram tolerance is relative to max|S| = 10^7, not lost in it
        u = Representation.build(SQUARE.graph, 1.0, 1e7, 4)
        with pytest.raises(GramMismatchError):
            Representation(SQUARE.graph, 1.0, 1e7, u.signs, u.vectors * (1 + 1e-6), u.pivots)
        f = isometry_between(u, *map(np.vstack, zip(identity(4), identity(4, -1))))
        assert np.abs(f - [np.eye(4), -np.eye(4)]).max() < 1e-9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vectors_rejected(self, value):
        # a NaN deviation is not larger than the tolerance, yet fails it
        with pytest.raises(GramMismatchError, match="max deviation"):
            Representation(epsilon_matrix(3, []), 1.0, 0.5, (1, 1),
                           np.full((3, 2), value), (0, 1))

    @pytest.mark.parametrize("pivots", [(0, 0, 1), (0, 1, 4), (-1, 0, 1), (0, 1), (0, 1, 2, 3)],
                             ids=["repeated", "past-n", "negative", "too-few", "too-many"])
    def test_pivots_are_distinct_vertices(self, pivots):
        # isometry_between solves on the pivot rows: pivots that are not
        # dim distinct vertices are refused when the system is built
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        with pytest.raises(ValueError, match="distinct vertices"):
            Representation(SQUARE.graph, 1.0, -1 / 3, u.signs, u.vectors, pivots)

    @pytest.mark.parametrize("signs", [(1, 1, 0), (1, 1, 2), (1, 1)])
    def test_signs_are_a_form(self, signs):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        with pytest.raises(ValueError):
            Representation(SQUARE.graph, 1.0, -1 / 3, signs, u.vectors, u.pivots)

    @pytest.mark.parametrize("g, c", [(SQUARE.graph, 1e7), (PENTAGON.graph, 3.0),
                                      (petersen_graph(), -1e150)])
    def test_scaled_check_keeps_the_unscaled_verdict(self, g, c):
        # the check compares both sides times a power of two, which is
        # exact: around its threshold it accepts what the unscaled
        # comparison accepts, on vectors longer than 1
        s = build_S(g, 1.0, c)
        u = Representation.build(g, 1.0, c, rank(s))
        assert np.abs(u.vectors).max() > 1

        def accepted(v):
            try:
                Representation(g, 1.0, c, u.signs, v, u.pivots)
            except GramMismatchError:
                return False
            return True

        bound = config.GRAM_TOL * max(1.0, np.abs(s).max())
        verdicts = [(accepted(v), bool(np.abs(gram(u.signs, v) - s).max() <= bound))
                    for v in (u.vectors * (1 + t) for t in np.geomspace(1e-13, 1e-7, 60))]
        assert all(a == b for a, b in verdicts)
        assert {a for a, _ in verdicts} == {True, False}

    def test_null_representation(self):
        u = Representation(TRIANGLE.graph, 0.0, 0.0, (), np.zeros((3, 0)), ())
        assert len(u.signs) == 0
        assert u.c == 0.0
        assert np.linalg.matrix_rank(u.vectors) == len(u.signs)


class TestSum:
    # the orthogonal sum of realizations at (omega_k, c_k), its vectors side
    # by side, realizes the summed parameters: its Gram matrix is their S
    def test_null_summand_is_neutral(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        null = Representation(TRIANGLE.graph, 0.0, 0.0, (), np.zeros((3, 0)), ())
        signs, vectors = summed(u, null)
        assert signs == u.signs
        w = Representation(TRIANGLE.graph, 1.0, 0.5, signs, vectors, u.pivots)
        assert np.abs(gram(w.signs, w.vectors) - s_of(u)).max() < 1e-12

    def test_parameters_and_gram_add(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            c1, c2 = rng.uniform(-1, 1, size=2)
            u = Representation.build(TRIANGLE.graph, 1.0, c1, 3)
            v = Representation.build(TRIANGLE.graph, 2.0, c2, 3)
            signs, vectors = summed(u, v)
            assert np.abs(gram(signs, vectors) - (s_of(u) + s_of(v))).max() < 1e-9
            assert np.abs(gram(signs, vectors) - build_S(TRIANGLE.graph, 3.0, c1 + c2)).max() < 1e-9
            assert len(signs) == len(u.signs) + len(v.signs)

    def test_triangle_positive_combination(self):
        # rank-1 piece at c=-1 plus rank-2 piece at c=1/2 gives a rank-3 rep
        u = Representation.build(TRIANGLE.graph, 1.0, -1.0, 1)
        v = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        signs, vectors = summed(u, v)
        assert np.abs(gram(signs, vectors) - build_S(TRIANGLE.graph, 2.0, -0.5)).max() < 1e-9
        assert len(signs) == 3 and np.linalg.matrix_rank(vectors) == len(signs)


class TestReduce:
    # factorizing the Gram matrix of a system at its numeric rank drops the
    # null summand: same Gram, minimal degree
    def test_idempotent_on_reduced(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        s = s_of(u)
        signs, vectors, _ = gram_factorize(s, rank(s))
        assert len(signs) == len(u.signs)
        assert np.abs(gram(signs, vectors) - s).max() < 1e-9

    def test_padding_removed(self):
        u = Representation.build(TRIANGLE.graph, 1.0, 0.5, 2)
        padded_signs = u.signs + (1, -1)
        padded_vectors = np.hstack([u.vectors, np.zeros((3, 2))])
        assert np.linalg.matrix_rank(padded_vectors) < len(padded_signs)
        padded = gram(padded_signs, padded_vectors)
        assert np.abs(padded - s_of(u)).max() < 1e-12
        v = Representation(TRIANGLE.graph, 1.0, 0.5, *gram_factorize(padded, rank(padded)))
        assert len(v.signs) == 2 and np.linalg.matrix_rank(v.vectors) == len(v.signs)
        assert np.abs(gram(v.signs, v.vectors) - s_of(u)).max() < 1e-9

    def test_square_at_one_reduces_to_line(self):
        m = SQUARE.graph
        s = build_S(m, 1.0, 1.0)
        # one pivot leaves a zero Schur complement: S has no rank 4 to factor
        with pytest.raises(ValueError, match="rank below 4"):
            gram_factorize(s, 4)
        line = Representation(SQUARE.graph, 1.0, 1.0, *gram_factorize(s, 1))
        padded_signs = (1, 1, -1, -1)
        padded_vectors = np.hstack([line.vectors, np.zeros((4, 3))])
        assert np.linalg.matrix_rank(padded_vectors) < len(padded_signs)
        assert np.abs(gram(padded_signs, padded_vectors) - s_of(line)).max() < 1e-12
        assert rank(gram(padded_signs, padded_vectors)) == 1
        assert Representation(SQUARE.graph, 1.0, 1.0, *gram_factorize(s, rank(s))).signs == (1,)


class TestIsometry:
    def test_identity(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        [f] = isometry_between(u, *identity(4))
        assert np.abs(f - np.eye(3)).max() < 1e-9

    def test_global_sign(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        [f] = isometry_between(u, *identity(4, -1))
        assert np.abs(f + np.eye(3)).max() < 1e-9

    def test_recovers_orthogonal_shuffle(self):
        # S(1, -1/3) of the square is positive semidefinite: each element
        # shuffles the cube's diagonals by an orthogonal map
        u, sigma, nu = group_rows(SQUARE.graph, -1 / 3)
        assert u.signs == (1, 1, 1)
        for f, s, v in zip(isometry_between(u, sigma, nu), sigma, nu):
            assert np.abs(f @ f.T - np.eye(3)).max() < 1e-9
            assert np.abs(u.vectors @ f.T - v[:, None] * u.vectors[s]).max() < 1e-9

    def test_gram_mismatch_rejected(self):
        # the group of the pentagon acts on its lines as D5, which holds no
        # transposition: swapping vertices 0 and 1 fails with every sign row
        u = Representation.build(PENTAGON.graph, 1.0, 0.5, 5)
        swap = np.array([[1, 0, 2, 3, 4]])
        for nu in itertools.product((1, -1), repeat=5):
            assert not sign_compatible(swap[0], nu, PENTAGON.graph)
            with pytest.raises(GramMismatchError, match="sign matrix"):
                isometry_between(u, swap, np.array([nu]))


class TestIsometryStack:
    @pytest.mark.parametrize("g, c", [
        (petersen_graph(), 1 / 3),
        (POINTED_HEXAGON.graph, -1 / 5 ** 0.5),  # the smallest root of chi
    ])
    def test_stack_equals_single_calls_bitwise(self, g, c):
        u, sigma, nu = group_rows(g, c)
        stack = isometry_between(u, sigma, nu)
        single = np.array([isometry_between(u, sigma[k:k + 1], nu[k:k + 1])[0]
                           for k in range(len(sigma))])
        assert stack.shape == single.shape == (len(sigma), len(u.signs), len(u.signs))
        assert stack.tobytes() == single.tobytes()

    def test_single_call_keeps_its_shape(self):
        # one row is a stack of one matrix
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        assert isometry_between(u, *identity(4)).shape == (1, 3, 3)
        stack = isometry_between(u, *map(np.vstack, zip(identity(4), identity(4, -1))))
        assert np.abs(stack - [np.eye(3), -np.eye(3)]).max() < 1e-9

    def test_one_bad_target_fails_the_stack(self):
        u, sigma, nu = group_rows(SQUARE.graph, -1 / 3)
        isometry_between(u, sigma, nu)
        swapped = sigma.copy(), nu.copy()
        for a in swapped:
            a[7, [0, 1]] = a[7, [1, 0]]  # swap the signed images of 0 and 1
        flipped = nu.copy()
        flipped[7, 2] *= -1  # flip one sign
        assert not sign_compatible(swapped[0][7], swapped[1][7], SQUARE.graph)
        assert not sign_compatible(sigma[7], flipped[7], SQUARE.graph)
        repeated = sigma.copy()
        repeated[7, 0] = repeated[7, 1]  # not a permutation
        for bad, message in [(swapped, "sign matrix"), ((sigma, flipped), "sign matrix"),
                             ((repeated, nu), "not a signed permutation")]:
            with pytest.raises(GramMismatchError, match=message):
                isometry_between(u, *bad)

    def test_non_finite_target_fails_the_stack(self):
        # a sign that is not ±1, a non-finite one among them, would give a
        # target off the system: the integer check refuses it
        u, sigma, nu = group_rows(SQUARE.graph, -1 / 3)
        for value in (np.nan, np.inf, 0, 2):
            bad = nu.astype(float)
            bad[7, 2] = value
            with pytest.raises(GramMismatchError, match="not a signed permutation"):
                isometry_between(u, sigma, bad)
            with pytest.raises(GramMismatchError, match="not a signed permutation"):
                isometry_between(u, sigma[7:8], bad[7:8])

    def test_residual_check_per_target(self, monkeypatch):
        # a solve that is off for one target, by far less than the rows'
        # integer check could see, fails the stack on that target's residual
        u, sigma, nu = group_rows(SQUARE.graph, -1 / 3)
        solve = np.linalg.solve

        def off_at_seven(a, b):
            x = solve(a, b)
            x[:, 7 * 3:8 * 3] *= 1 + 1e-6  # target 7's matrix, if the stack has it
            return x

        monkeypatch.setattr(np.linalg, "solve", off_at_seven)
        assert isometry_between(u, sigma[:7], nu[:7]).shape == (7, 3, 3)
        with pytest.raises(GramMismatchError, match="residual"):
            isometry_between(u, sigma, nu)


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
                    assert sorted(u.signs[j] for j in b) == [-1, 1]
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
            signs, vectors, _ = gram_factorize(s, g.n)
            signs = signs
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
