import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbe import exactpoly
from gerbe.exactpoly import (
    IntPolynomial,
    bareiss_determinant,
    char_poly,
    real_roots_with_multiplicity,
    reconstruct,
    squarefree_decomposition,
)
from gerbe.fixtures import ALL, PENTAGON, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import Graph, Permutation, SignMatrix, conjugate_matrix, epsilon_matrix


def P(*coeffs):
    """ascending coefficients"""
    return IntPolynomial.from_coeffs(coeffs)


def random_sign_matrix(rng, n):
    g = Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )
    return epsilon_matrix(g)


def scaled_det(m, a, b):
    """det(b I + a (eps - I)) = b^n chi(a/b), by fraction-free elimination."""
    n = m.n
    return bareiss_determinant(
        [[b if i == j else m[i, j] * a for j in range(n)] for i in range(n)]
    )


def spy(monkeypatch, name):
    """Wrap exactpoly.<name>, recording each call's first argument."""
    calls = []
    real = getattr(exactpoly, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(exactpoly, name, wrapper)
    return calls


class TestIntPolynomial:
    def test_eval_exact(self):
        p = P(1, 0, -3, -2)
        assert p(Fraction(1, 2)) == 0
        assert p(-1) == 0
        assert p(0) == 1

    def test_mul(self):
        assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)

    def test_pow(self):
        assert P(1, 1) ** 2 == P(1, 2, 1)

    def test_pretty(self):
        assert P(1, 0, -3, -2).pretty() == "-2x^3 - 3x^2 + 1"
        assert P(0, 1).pretty() == "x"
        assert P(-5,).pretty() == "-5"
        assert IntPolynomial(()).pretty() == "0"


class TestBareiss:
    def test_small(self):
        assert bareiss_determinant([[2, 1], [1, 2]]) == 3
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    def test_against_expansion(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant(m) == _permanent_style_det(m)


def _permanent_style_det(m):
    """cofactor-expansion oracle"""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _permanent_style_det(minor)
    return total


class TestCharPoly:
    @pytest.mark.parametrize("fx", ALL, ids=lambda f: f.name)
    def test_fixture_polynomials(self, fx):
        assert char_poly(epsilon_matrix(fx.graph)).coeffs == fx.chi_coeffs

    def test_chi_at_zero_is_one(self):
        rng = random.Random(3)
        for _ in range(30):
            m = random_sign_matrix(rng, rng.randint(1, 7))
            assert char_poly(m)(0) == 1

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_rational_points_against_determinant(self, n, seed):
        # chi(a/b) must equal det(S(1, a/b)), computed exactly by scaling
        # the matrix by b and dividing the integer determinant by b^n
        rng = random.Random(seed)
        m = random_sign_matrix(rng, n)
        chi = char_poly(m)
        for _ in range(8):
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            assert chi(Fraction(a, b)) == Fraction(scaled_det(m, a, b), b**n)

    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_switching_and_relabelling_invariance(self, n, seed):
        # switching a vertex set is the similarity D S D, relabelling is
        # P S P^T; neither changes det S(1, x)
        rng = random.Random(seed)
        m = random_sign_matrix(rng, n)
        d = np.array([rng.choice((-1, 1)) for _ in range(n)])
        images = list(range(n))
        rng.shuffle(images)
        m2 = conjugate_matrix(Permutation(tuple(images)),
                              SignMatrix(m.entries * np.outer(d, d)))
        assert char_poly(m2).coeffs == char_poly(m).coeffs


class TestSquarefree:
    def test_perfect_square(self):
        assert squarefree_decomposition(P(1, 2, 1)) == [(P(1, 1), 2)]

    def test_triangle_chi(self):
        factors = squarefree_decomposition(P(*TRIANGLE.chi_coeffs))
        assert factors == [(P(-1, 2), 1), (P(1, 1), 2)]

    def test_pentagon_chi(self):
        factors = squarefree_decomposition(P(*PENTAGON.chi_coeffs))
        assert factors == [(P(-1, 0, 5), 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decomposition(IntPolynomial(()))

    def test_constant(self):
        assert squarefree_decomposition(P(7,)) == []

    def test_modular_test_agrees_with_yun(self, monkeypatch):
        # a square-free chi is proved so by the gcd modulo 2^61 - 1, and
        # Yun's scheme does not run for it, yet both give the same answer
        rng = random.Random(41)
        chis = [char_poly(random_sign_matrix(rng, rng.randint(5, 14)))
                for _ in range(20)]
        yun = [exactpoly._yun(chi) for chi in chis]
        calls = spy(monkeypatch, "_yun")
        assert [squarefree_decomposition(chi) for chi in chis] == yun
        repeated = [chi for chi, f in zip(chis, yun) if [e for _, e in f] != [1]]
        assert calls == repeated
        assert len(repeated) < len(chis) // 2

    def test_repeated_factor_goes_through_yun(self, monkeypatch):
        chi = P(*POINTED_HEXAGON.chi_coeffs)
        calls = spy(monkeypatch, "_yun")
        factors = squarefree_decomposition(chi)
        assert calls == [chi]
        assert [e for _, e in factors] == [3]
        lead = Fraction(chi.coeffs[-1], factors[0][0].coeffs[-1] ** 3)
        assert reconstruct(factors, lead) == chi

    def test_prime_dividing_lead_goes_through_yun(self):
        # modulo 2^61 - 1 this square reduces to the constant 1, which the
        # modular test would wrongly call square-free
        f = P(-1, 2**61 - 1)
        assert squarefree_decomposition(f * f) == [(f, 2)]

    def test_reconstruction_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = random_sign_matrix(rng, n)
            chi = char_poly(m)
            factors = squarefree_decomposition(chi)
            prod = IntPolynomial((1,))
            for f, e in factors:
                prod = prod * (f ** e)
            lead = Fraction(chi.coeffs[-1], prod.coeffs[-1])
            assert reconstruct(factors, lead) == chi
            # factors pairwise coprime: no shared roots among small rationals
            assert prod.degree == chi.degree


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                                if (j - i) % q in squares])


def triangular(k):
    verts = list(itertools.combinations(range(k), 2))
    return Graph.from_edges(len(verts), [
        (a, b) for a, b in itertools.combinations(range(len(verts)), 2)
        if set(verts[a]) & set(verts[b])])


def rational_remainder(a, b):
    """Remainder of a by b over the rationals, by long division."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        factor, shift = r[-1] / b[-1], len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        while r and r[-1] == 0:
            r.pop()
    return r


def assert_squarefree_factors(chi):
    factors = squarefree_decomposition(chi)
    for f, _ in factors:
        assert f.coeffs[-1] > 0 and math.gcd(*f.coeffs) == 1
    prod = IntPolynomial((1,))
    for f, e in factors:
        prod = prod * (f ** e)
    assert reconstruct(factors, Fraction(chi.coeffs[-1], prod.coeffs[-1])) == chi
    # a gcd of degree 0 modulo a prime dividing no lead is one over Q
    q = next(q for q in (2**61 - 1, 2**31 - 1)
             if all(f.coeffs[-1] % q for f, _ in factors))
    for k, (f, _) in enumerate(factors):
        assert exactpoly._gcd_degree_mod(f.coeffs, exactpoly._deriv(f.coeffs), q) == 0
        for g, _ in factors[k + 1:]:
            assert exactpoly._gcd_degree_mod(f.coeffs, g.coeffs, q) == 0


class TestIntegerArithmetic:
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_chi_factors(self, n, seed):
        assert_squarefree_factors(char_poly(random_sign_matrix(random.Random(seed), n)))

    @pytest.mark.parametrize("g", [Graph.from_edges(8, []), triangular(8), paley(13)],
                             ids=["edgeless-8", "T8", "paley-13"])
    def test_known_chi_factors(self, g):
        assert_squarefree_factors(char_poly(epsilon_matrix(g)))

    def test_yun_on_squarefree_chi(self):
        rng = random.Random(17)
        checked = 0
        while checked < 5:
            chi = char_poly(random_sign_matrix(rng, rng.randint(4, 12)))
            if [e for _, e in squarefree_decomposition(chi)] != [1]:
                continue
            content = math.gcd(*chi.coeffs) * (1 if chi.coeffs[-1] > 0 else -1)
            assert exactpoly._yun(chi) == [(P(*(c // content for c in chi.coeffs)), 1)]
            checked += 1

    def test_div_exact(self):
        assert exactpoly._div_exact([-1, 0, 1], [-1, 1]) == [1, 1]
        with pytest.raises(ArithmeticError):
            exactpoly._div_exact([1, 0, 1], [1, 1])  # remainder 2
        with pytest.raises(ArithmeticError):
            exactpoly._div_exact([1, 3], [1, 2])  # quotient 3/2

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 1], [1, -2]),  # remainder 5/4
        ([1, 0, 0, 1], [1, -2]),  # remainder 9/8, scaled by 2^3
        ([-3, 0, 0, 1], [1, -2]),  # remainder -23/8
        ([4, -1, 7, 0, -3], [5, 1, -3]),
        ([2, 0, -6, 1, 3], [-1, 4, 0, -2]),
    ])
    def test_prem_keeps_remainder_sign(self, a, b):
        # lead(b) < 0: scaling by |lead b|, not lead b, keeps the
        # remainder's sign also when deg a - deg b + 1 is odd
        scale = abs(b[-1]) ** (len(a) - len(b) + 1)
        assert exactpoly._prem(a, b) == [scale * c for c in rational_remainder(a, b)]


def roots_of(m):
    return real_roots_with_multiplicity(m, squarefree_decomposition(char_poly(m)))


# one edge on five vertices: chi = (8x^3 + 7x^2 - 2x - 1)(x - 1)^2
ONE_EDGE = epsilon_matrix(Graph.from_edges(5, [(1, 2)]))


class TestRealRoots:
    def test_triangle(self):
        roots = roots_of(epsilon_matrix(TRIANGLE.graph))
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1), 2),
            (Fraction(1, 2), 1),
        ]

    def test_square(self):
        roots = roots_of(epsilon_matrix(SQUARE.graph))
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1, 3), 1),
            (Fraction(1), 3),
        ]

    def test_pentagon_irrational(self):
        roots = roots_of(epsilon_matrix(PENTAGON.graph))
        assert len(roots) == 2
        target = 5 ** -0.5
        assert roots[0].exact is None and roots[1].exact is None
        assert abs(roots[0].value + target) < 1e-11
        assert abs(roots[1].value - target) < 1e-11
        assert all(r.multiplicity == 2 for r in roots)
        for r in roots:
            lo, hi = r.interval
            assert hi - lo <= Fraction(1, 10**12) * 2
            assert lo < Fraction(r.value) < hi

    def test_pointed_hexagon_multiplicity(self):
        roots = roots_of(epsilon_matrix(POINTED_HEXAGON.graph))
        assert [r.multiplicity for r in roots] == [3, 3]

    def test_constant_no_roots(self):
        # one vertex: eps - I = 0, so chi = 1
        assert roots_of(epsilon_matrix(Graph.from_edges(1, []))) == []

    def test_interval_brackets_root(self):
        roots = roots_of(ONE_EDGE)
        # 8x^3 + 7x^2 - 2x - 1 = (x + 1)(8x^2 - x - 1)
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1), 1), (None, 1), (None, 1), (Fraction(1), 2)
        ]
        f = P(-1, -1, 8)
        for r in roots[1:3]:
            lo, hi = r.interval
            assert f(lo) * f(hi) < 0

    def test_sturm_fallback(self, monkeypatch):
        # seeds far beyond every root leave no cell with a sign change, so
        # every factor goes to Sturm isolation, with the same roots
        for m in (epsilon_matrix(SQUARE.graph), ONE_EDGE):
            want = roots_of(m)
            factors = squarefree_decomposition(char_poly(m))
            with monkeypatch.context() as patch:
                calls = spy(patch, "_sturm_cells")
                patch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), 1e-9))
                got = roots_of(m)
            assert calls == [f for f, _ in factors]
            assert [(r.exact, r.multiplicity) for r in got] == [
                (r.exact, r.multiplicity) for r in want]
            for a, b in zip(got, want):
                assert a.interval is None or max(a.interval[0], b.interval[0]) < min(
                    a.interval[1], b.interval[1])

    def test_sturm_cells_agree_with_seeded_cells(self):
        rng = random.Random(43)
        width = Fraction(1, 10**12)
        for _ in range(10):
            m = random_sign_matrix(rng, rng.randint(6, 16))
            factors = squarefree_decomposition(char_poly(m))
            via_seeds = real_roots_with_multiplicity(m, factors)
            # (left end, exact, interval, multiplicity), in root order
            via_sturm = sorted(
                (exact if interval is None else interval[0], exact, interval, e)
                for f, e in factors for lo, hi, s in exactpoly._sturm_cells(f)
                for exact, interval in [exactpoly._refine(f, lo, hi, s, width)])
            assert [(r.exact, r.multiplicity) for r in via_seeds] == [
                (exact, e) for _, exact, _, e in via_sturm]
            for r, (_, _, b, _) in zip(via_seeds, via_sturm):
                a = r.interval
                assert a is None or max(a[0], b[0]) < min(a[1], b[1])

    @pytest.mark.parametrize("n", [40, 48, 64])
    def test_large_random_graphs_need_no_sturm(self, n, monkeypatch):
        m = random_sign_matrix(random.Random(n), n)
        calls = spy(monkeypatch, "_sturm_cells")
        roots = roots_of(m)
        assert calls == []
        got = [r.value for r in roots for _ in range(r.multiplicity)]
        lams = np.linalg.eigvalsh(m.entries - np.eye(n))
        want = sorted(-1 / lam for lam in lams if abs(lam) > 1e-9)
        assert got == pytest.approx(want, rel=1e-8)


class TestSpectralOracle:
    """chi(x) = prod (1 + x lambda) over the eigenvalues lambda of the
    Seidel matrix eps - I, so its roots are -1/lambda for the nonzero
    lambda, with the same multiplicities, and a root is rational exactly
    when its lambda is an integer."""

    @given(n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roots_are_minus_inverse_eigenvalues(self, n, seed):
        m = random_sign_matrix(random.Random(seed), n)
        lams = np.linalg.eigvalsh(m.entries - np.eye(n))
        lams = sorted((lam for lam in lams if abs(lam) > 1e-9),
                      key=lambda lam: -1 / lam)
        roots = roots_of(m)
        got = [r for r in roots for _ in range(r.multiplicity)]
        assert len(got) == len(lams)
        for r, lam in zip(got, lams):
            assert r.value == pytest.approx(-1 / lam, rel=1e-8, abs=1e-8)
            k = round(lam)
            # det(k I - (eps - I)) == 0 exactly when k is an eigenvalue
            integral = abs(lam - k) < 1e-6 and scaled_det(m, -1, k) == 0
            assert (r.exact is not None) == integral
            if integral:
                assert r.exact == Fraction(-1, k)
