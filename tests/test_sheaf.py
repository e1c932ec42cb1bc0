import random
from fractions import Fraction

import numpy as np
import pytest

from gerbe.errors import InputError
from gerbe.fixtures import PENTAGON, SQUARE, TRIANGLE
from gerbe.exactpoly import degree_at
from gerbe.graph import epsilon_matrix
from gerbe.quadspace import Representation
from gerbe.sheaf import (
    LinePartition,
    check_class_linking,
    line_classes,
    partition_from_sign_matrix,
    restrict_to_Y,
)
from test_linking_sweep import twin_class_graph


def random_graph(rng, n):
    return epsilon_matrix(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def trivial(n) -> LinePartition:
    """n distinct lines."""
    return LinePartition(np.arange(n), np.ones(n, dtype=int))


def representative_vertices(p) -> np.ndarray:
    return np.flatnonzero(np.asarray(p.rep) == np.arange(len(p.rep)))


def assert_lines_of_vectors(u, p, tol=1e-8):
    """Check a partition against the vectors themselves, independently of
    the exact rule: every vertex is sign times its representative, and no
    two representatives span the same line."""
    vecs = u.vectors
    for i in range(u.graph.n):
        r = p.rep[i]
        assert np.abs(vecs[i] - p.sign[i] * vecs[r]).max() <= tol, (i, r)
    reps = representative_vertices(p)
    dirs = [vecs[r] / np.linalg.norm(vecs[r]) for r in reps]
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            gap = min(np.abs(dirs[a] - dirs[b]).max(), np.abs(dirs[a] + dirs[b]).max())
            assert gap > tol, (reps[a], reps[b])


def representatives(u, p):
    """The representation of Gamma_Y at u's parameters, as ``gerbe group
    --realize`` builds it: S of Gamma_Y has the rank of S of Gamma."""
    return Representation.build(restrict_to_Y(u.graph, p), u.omega, u.c, len(u.signs))


class TestLineClasses:
    # the partition is read off (epsilon, omega, c); the vectors built at
    # (omega, c) are the independent check
    def test_triangle_collapsed(self):
        u = Representation.build(TRIANGLE.graph, 1.0, -1.0, 1)
        p = line_classes(TRIANGLE.graph, 1.0, -1.0)
        assert p.rep.tolist() == [0, 0, 0]
        # all three vertices land on the same vector, not just the same line
        assert p.sign.tolist() == [1, 1, 1]
        assert_lines_of_vectors(u, p)

    def test_square_at_one(self):
        u = Representation.build(SQUARE.graph, 1.0, 1.0, 1)
        p = line_classes(SQUARE.graph, 1.0, 1.0)
        assert p.rep.tolist() == [0, 0, 0, 0]
        assert p.sign.tolist() == [1, -1, 1, -1]
        assert_lines_of_vectors(u, p)

    def test_square_generic_all_singletons(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        p = line_classes(SQUARE.graph, 1.0, -1 / 3)
        assert np.array_equal(p, trivial(4))
        assert_lines_of_vectors(u, p)

    def test_trivial_rejected(self):
        for c in (0.0, -0.0, Fraction(0)):
            with pytest.raises(InputError, match="c must be nonzero"):
                line_classes(SQUARE.graph, 1.0, c)

    def test_distinct_lines_when_moduli_differ(self):
        # 200 random samples with |omega| != |c| must give all singletons
        rng = random.Random(47)
        nprng = np.random.default_rng(47)
        for _ in range(200):
            g = random_graph(rng, rng.randint(2, 6))
            c = float(nprng.uniform(-0.9, 0.9))
            if abs(c) < 1e-3:
                c = 0.5
            u = Representation.build(g, 1.0, c, degree_at(g, 1, c))
            p = line_classes(g, 1.0, c)
            assert np.array_equal(p, trivial(g.n))
            assert_lines_of_vectors(u, p)

    @pytest.mark.parametrize("graph, c", [
        (SQUARE.graph, 1 + 1e-9), (SQUARE.graph, 1 - 1e-9),
        (TRIANGLE.graph, -1 + 1e-9), (TRIANGLE.graph, -1 - 1e-9),
    ], ids=["square-above", "square-below", "triangle-above", "triangle-below"])
    def test_near_unit_c_all_singletons(self, graph, c):
        # lines coincide only where |c| = |omega| exactly
        u = Representation.build(graph, 1.0, c, degree_at(graph, 1, c))
        p = line_classes(graph, 1.0, c)
        assert np.array_equal(p, trivial(graph.n))
        assert_lines_of_vectors(u, p)

    @pytest.mark.parametrize("omega, c", [(2.0, 2.0), (-1.0, 1.0), (0.5, -0.5)])
    def test_partition_at_c_over_omega(self, omega, c):
        rng = random.Random(67)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 7))
            u = Representation.build(g, omega, c, degree_at(g, omega, c))
            p = line_classes(g, omega, c)
            assert np.array_equal(p, partition_from_sign_matrix(g, int(c / omega)))
            assert_lines_of_vectors(u, p)

    def test_decided_at_the_floats(self):
        # 1 + 10^-20 is no unit, but S is built from its float, 1.0
        c = Fraction(10**20 + 1, 10**20)
        assert np.array_equal(line_classes(SQUARE.graph, 1, c),
                              partition_from_sign_matrix(SQUARE.graph, 1))


class TestCombinatorialPartition:
    def test_matches_numeric_at_unit_c(self):
        rng = random.Random(53)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 7))
            for c in (1, -1):
                u = Representation.build(g, 1.0, float(c), degree_at(g, 1, c))
                p = partition_from_sign_matrix(g, c)
                assert np.array_equal(p, line_classes(g, 1, c))
                assert_lines_of_vectors(u, p)

    def test_rejects_other_c(self):
        with pytest.raises(ValueError):
            partition_from_sign_matrix(SQUARE.graph, 0)


class TestRestrictToY:
    def test_singletons_unchanged(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        p = line_classes(SQUARE.graph, 1.0, -1 / 3)
        assert np.array_equal(restrict_to_Y(SQUARE.graph, p).entries, SQUARE.graph.entries)
        assert np.array_equal(representatives(u, p).vectors, u.vectors)

    def test_square_at_one(self):
        u = Representation.build(SQUARE.graph, 1.0, 1.0, 1)
        v = representatives(u, line_classes(SQUARE.graph, 1.0, 1.0))
        assert v.graph.n == 1
        assert len(v.signs) == 1
        assert np.linalg.matrix_rank(v.vectors) == len(v.signs)

    def test_triangle_collapsed(self):
        y = restrict_to_Y(TRIANGLE.graph, line_classes(TRIANGLE.graph, 1.0, -1.0))
        assert y.entries.tolist() == [[1]]
        u = Representation.build(TRIANGLE.graph, 1.0, -1.0, 1)
        assert representatives(u, line_classes(TRIANGLE.graph, 1.0, -1.0)).signs == (1,)

    def test_result_has_distinct_lines(self):
        rng = random.Random(59)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            c = rng.choice([1.0, -1.0])
            u = Representation.build(g, 1.0, c, degree_at(g, 1, c))
            p = line_classes(g, 1.0, c)
            assert_lines_of_vectors(u, p)
            y = restrict_to_Y(g, p)
            reps = representative_vertices(p)
            assert np.array_equal(y.entries, g.entries[np.ix_(reps, reps)])
            assert np.array_equal(line_classes(y, 1.0, c), trivial(y.n))
            v = representatives(u, p)
            assert np.linalg.matrix_rank(v.vectors) == len(v.signs)
            assert_lines_of_vectors(v, trivial(v.graph.n))

    @pytest.mark.parametrize("c", [1, -1])
    def test_gamma_y_factors_as_gamma_at_the_representatives(self, c):
        # group --realize factors S of Gamma_Y itself: the same bytes as
        # factoring S of Gamma and keeping the representatives' rows, with
        # the same signs and the pivots of Gamma's factorization
        rng = random.Random(73 + c)
        merged = 0
        for _ in range(200):
            g = twin_class_graph(rng, rng.randint(6, 13), c)
            degree = degree_at(g, 1, c)
            p = line_classes(g, 1.0, c)
            reps = representative_vertices(p)
            u = Representation.build(g, 1.0, c, degree)
            v = Representation.build(restrict_to_Y(g, p), 1.0, c, degree)
            assert v.vectors.tobytes() == u.vectors[reps].tobytes()
            assert v.signs == u.signs
            assert reps[list(v.pivots)].tolist() == list(u.pivots)
            merged += len(reps) < g.n
        assert merged == 200

    def test_trivial_rejected(self):
        # c = 0 has no partition to restrict by
        with pytest.raises(InputError, match="c must be nonzero"):
            restrict_to_Y(SQUARE.graph, line_classes(SQUARE.graph, 1.0, 0.0))

    @pytest.mark.parametrize("c, degree, p", [
        # too fine: the square's four vertices share one line at c = 1
        (1.0, 1, trivial(4)),
        # too coarse: distinct lines at c = -1/3 merged
        (-1 / 3, 3, LinePartition(np.array([0, 1, 0, 3]), np.ones(4, dtype=int))),
        # right blocks, wrong signs: vertices 2 and 4 are -u_1 at c = 1
        (1.0, 1, LinePartition(np.zeros(4, dtype=int), np.ones(4, dtype=int))),
    ], ids=["too-fine", "too-coarse", "wrong-signs"])
    def test_wrong_partition_rejected(self, c, degree, p):
        # the vector oracle the partition tests rest on refuses a partition
        # that is not the line partition: a negative control
        u = Representation.build(SQUARE.graph, 1.0, c, degree)
        assert not np.array_equal(p, line_classes(SQUARE.graph, 1.0, c))
        with pytest.raises(AssertionError):
            assert_lines_of_vectors(u, p)


class TestClassLinking:
    def test_square_at_plus_one(self):
        p = partition_from_sign_matrix(SQUARE.graph, 1)
        report = check_class_linking(SQUARE.graph, p, 1)
        assert report.ok
        assert report.failures == ()

    def test_triangle_at_minus_one(self):
        p = partition_from_sign_matrix(TRIANGLE.graph, -1)
        report = check_class_linking(TRIANGLE.graph, p, -1)
        assert report.ok

    def test_all_singletons_trivially_pass(self):
        p = trivial(PENTAGON.graph.n)
        report = check_class_linking(PENTAGON.graph, p, 1)
        assert report.ok

    def test_detects_broken_partition(self):
        # deliberately wrong partition on the square: merge vertices 1 and 2,
        # which are linked, with the same sign at c = 1
        p = LinePartition(np.array([0, 0, 2, 3]), np.ones(4, dtype=int))
        report = check_class_linking(SQUARE.graph, p, 1)
        assert not report.ok
        assert report.failures == ("all-or-nothing rule broken", "cross-class rule broken",
                                   "within-class rule broken")

    def test_bad_c_rejected(self):
        p = trivial(4)
        with pytest.raises(ValueError):
            check_class_linking(SQUARE.graph, p, 2)

    def test_exhaustive_small(self):
        # every true partition from a real graph satisfies the rules
        rng = random.Random(61)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 6))
            for c in (1, -1):
                p = partition_from_sign_matrix(g, c)
                assert check_class_linking(g, p, c).ok


class TestLinePartitionType:
    def test_trivial(self):
        # off c = ±1 the partition is n singletons, as int arrays
        p = line_classes(PENTAGON.graph, 1.0, 0.5)
        assert p.rep.tolist() == [0, 1, 2, 3, 4] and p.sign.tolist() == [1] * 5
        assert p.rep.dtype.kind == p.sign.dtype.kind == "i"
        assert partition_from_sign_matrix(PENTAGON.graph, 1).rep.dtype.kind == "i"

    def test_rep_invariant_enforced(self):
        # a partition from outside is checked where the linking rules read
        # it: a representative with sign -1, and one that is another's
        for rep, sign in ([0, 0], [-1, 1]), ([1, 0], [1, 1]):
            with pytest.raises(ValueError):
                check_class_linking(epsilon_matrix(2, []),
                                    LinePartition(np.array(rep), np.array(sign)), 1)
