import random
import time
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


class TestRealRoots:
    def test_triangle(self):
        roots = real_roots_with_multiplicity(P(*TRIANGLE.chi_coeffs))
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1), 2),
            (Fraction(1, 2), 1),
        ]

    def test_square(self):
        roots = real_roots_with_multiplicity(P(*SQUARE.chi_coeffs))
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1, 3), 1),
            (Fraction(1), 3),
        ]

    def test_pentagon_irrational(self):
        roots = real_roots_with_multiplicity(P(*PENTAGON.chi_coeffs))
        assert len(roots) == 2
        target = 5 ** -0.5
        assert roots[0].exact is None and roots[1].exact is None
        assert abs(roots[0].value + target) < 1e-11
        assert abs(roots[1].value - target) < 1e-11
        assert all(r.multiplicity == 2 for r in roots)
        for r in roots:
            lo, hi = r.interval
            assert hi - lo <= Fraction(1, 10**12) * 2
            assert lo < Fraction(r.value).limit_denominator(10**15) < hi or True

    def test_pointed_hexagon_multiplicity(self):
        roots = real_roots_with_multiplicity(P(*POINTED_HEXAGON.chi_coeffs))
        assert [r.multiplicity for r in roots] == [3, 3]

    def test_constant_no_roots(self):
        assert real_roots_with_multiplicity(P(1,)) == []

    def test_zero_root(self):
        roots = real_roots_with_multiplicity(P(0, 0, 1))  # x^2
        assert [(r.exact, r.multiplicity) for r in roots] == [(Fraction(0), 2)]

    def test_rational_candidate_outside_cell_rejected(self):
        # x (x^2 + 3x - 1): the integer nearest the irrational root 0.30...
        # is the root 0, which lies in another cell
        roots = real_roots_with_multiplicity(P(0, -1, 3, 1))
        assert [r.exact for r in roots] == [None, Fraction(0), None]

    def test_interval_brackets_root(self):
        roots = real_roots_with_multiplicity(P(-2, 0, 1))  # x^2 - 2
        for r in roots:
            lo, hi = r.interval
            f = P(-2, 0, 1)
            assert f(lo) * f(hi) < 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            real_roots_with_multiplicity(IntPolynomial(()))

    def test_sturm_fallback(self, monkeypatch):
        # the complex pair +-i gives two equal real seeds, so the seeded
        # cells cannot certify and Sturm isolation takes over
        f = P(1, 0, 1) * P(-1, 3) * P(-2, 0, 1)
        calls = spy(monkeypatch, "_sturm_cells")
        roots = real_roots_with_multiplicity(f)
        assert calls == [f]
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (None, 1), (Fraction(1, 3), 1), (None, 1)
        ]
        (lo0, hi0), (lo2, hi2) = roots[0].interval, roots[2].interval
        assert lo0 < hi0 < 0 < lo2 < hi2
        assert lo0 * lo0 > 2 > hi0 * hi0 and lo2 * lo2 < 2 < hi2 * hi2
        assert hi0 - lo0 < Fraction(1, 10**12) and hi2 - lo2 < Fraction(1, 10**12)

    def test_sturm_cells_agree_with_seeded_cells(self):
        rng = random.Random(43)
        for _ in range(10):
            chi = char_poly(random_sign_matrix(rng, rng.randint(6, 16)))
            f = squarefree_decomposition(chi)[-1][0]
            seeded = exactpoly._seeded_cells(f)
            assert seeded is not None
            width = Fraction(1, 10**12)
            via_seeds = [exactpoly._refine(f, lo, hi, s, width) for lo, hi, s in seeded]
            via_sturm = [exactpoly._refine(f, lo, hi, s, width)
                         for lo, hi, s in sorted(exactpoly._sturm_cells(f))]
            assert [e for e, _ in via_seeds] == [e for e, _ in via_sturm]
            for (_, a), (_, b) in zip(via_seeds, via_sturm):
                assert a is None or max(a[0], b[0]) < min(a[1], b[1])

    def test_rational_root_with_huge_denominator(self):
        # a trial division over the divisors of the leading coefficient
        # would take about 1.5e9 steps here
        p = 2**61 - 1
        t0 = time.perf_counter()
        roots = real_roots_with_multiplicity(P(-1, p) * P(-2, 0, 1))
        assert time.perf_counter() - t0 < 1.0
        assert [r.exact for r in roots] == [None, Fraction(1, p), None]


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
        roots = real_roots_with_multiplicity(char_poly(m))
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
