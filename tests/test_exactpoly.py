import functools
import itertools
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbe import config, exactpoly
from gerbe.errors import BoundExceededError, InvariantError
from gerbe.exactpoly import (
    IntPolynomial,
    char_poly,
    chi_and_roots,
    degree_at,
    real_roots_with_multiplicity,
    squarefree_decomposition,
)
from gerbe.fixtures import ALL, PENTAGON, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import SignMatrix, epsilon_matrix
from oracles import bareiss_determinant, edges_of, gcd_degree_mod, reconstruct
from test_autgroup import clebsch, petersen


def P(*coeffs):
    """ascending coefficients"""
    return IntPolynomial.from_coeffs(coeffs)


def random_sign_matrix(rng, n):
    return epsilon_matrix(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def scaled_det(m, a, b):
    """det(b I + a (eps - I)) = b^n chi(a/b), by fraction-free elimination."""
    n = m.n
    return bareiss_determinant(
        [[b if i == j else m.entries[i, j] * a for j in range(n)] for i in range(n)]
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
        # the product the reconstruct oracle forms coefficient by coefficient
        assert reconstruct([(P(1, 1), 1), (P(-1, 1), 1)], 1) == P(-1, 0, 1)

    def test_pow(self):
        assert reconstruct([(P(1, 1), 2)], 1) == P(1, 2, 1)
        assert reconstruct([(P(1, 1), 0)], 3) == P(3)

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
        assert char_poly(fx.graph).coeffs == fx.chi_coeffs

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
        m2 = SignMatrix((m.entries * np.outer(d, d))[np.ix_(images, images)])
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

    def test_repeated_factor_goes_through_yun(self, monkeypatch):
        # the pointed hexagon's chi = -(5x^2 - 1)^3 has no rational root to
        # divide out, so chi_and_roots decomposes chi itself, taken primitive
        chi = P(*POINTED_HEXAGON.chi_coeffs)
        calls = spy(monkeypatch, "squarefree_decomposition")
        _, factors, _ = chi_and_roots(POINTED_HEXAGON.graph)
        assert calls == [P(*(-c for c in chi.coeffs))]
        assert [e for _, e in factors] == [3]
        lead = Fraction(chi.coeffs[-1], factors[0][0].coeffs[-1] ** 3)
        assert reconstruct(factors, lead) == chi

    def test_prime_dividing_lead_goes_through_yun(self):
        # modulo 2^61 - 1 this square reduces to the constant 1, which a gcd
        # modulo that prime would call square-free; Yun's scheme over the
        # integers takes no prime
        f = P(-1, 2**61 - 1)
        assert squarefree_decomposition(reconstruct([(f, 2)], 1)) == [(f, 2)]

    def test_reconstruction_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = random_sign_matrix(rng, n)
            chi = char_poly(m)
            factors = squarefree_decomposition(chi)
            lead = Fraction(chi.coeffs[-1], math.prod(f.coeffs[-1] ** e for f, e in factors))
            assert reconstruct(factors, lead) == chi
            # factors pairwise coprime: no shared roots among small rationals
            assert sum(f.degree * e for f, e in factors) == chi.degree


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return epsilon_matrix(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                              if (j - i) % q in squares])


def triangular(k):
    verts = list(itertools.combinations(range(k), 2))
    return epsilon_matrix(len(verts), [
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
    lead = Fraction(chi.coeffs[-1], math.prod(f.coeffs[-1] ** e for f, e in factors))
    assert reconstruct(factors, lead) == chi
    # a gcd of degree 0 modulo a prime dividing no lead is one over Q
    q = next(q for q in (2**61 - 1, 2**31 - 1)
             if all(f.coeffs[-1] % q for f, _ in factors))
    for k, (f, _) in enumerate(factors):
        assert gcd_degree_mod(f.coeffs, exactpoly._deriv(f.coeffs), q) == 0
        for g, _ in factors[k + 1:]:
            assert gcd_degree_mod(f.coeffs, g.coeffs, q) == 0


class TestIntegerArithmetic:
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_chi_factors(self, n, seed):
        assert_squarefree_factors(char_poly(random_sign_matrix(random.Random(seed), n)))

    @pytest.mark.parametrize("g", [epsilon_matrix(8, []), triangular(8), paley(13)],
                             ids=["edgeless-8", "T8", "paley-13"])
    def test_known_chi_factors(self, g):
        assert_squarefree_factors(char_poly(g))

    def test_yun_on_squarefree_chi(self):
        # a chi whose own cells certify it square-free (one factor, exponent
        # 1, in chi_and_roots) is, by Yun's scheme, chi taken primitive
        rng = random.Random(17)
        checked = 0
        while checked < 5:
            m = random_sign_matrix(rng, rng.randint(4, 12))
            chi, factors, _ = chi_and_roots(m)
            if [e for _, e in factors] != [1]:
                continue
            content = math.gcd(*chi.coeffs) * (1 if chi.coeffs[-1] > 0 else -1)
            assert squarefree_decomposition(chi) == [(P(*(c // content for c in chi.coeffs)), 1)]
            checked += 1

    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1), cliques=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_degree_at_matches_the_factor_formula(self, n, seed, cliques):
        # degree_at divides chi by q x -+ 1; the reference is n minus the
        # exponents of the square-free factors that vanish at x.  A disjoint
        # union of cliques has the root -1 of multiplicity n - #cliques
        rng = random.Random(seed)
        if cliques:
            label = [rng.randrange(n) for _ in range(n)]
            m = epsilon_matrix(n, [(i, j) for i, j in itertools.combinations(range(n), 2)
                                   if label[i] == label[j]])
        else:
            m = random_sign_matrix(rng, n)
        factors = squarefree_decomposition(char_poly(m))
        for k in range(1, n + 1):
            for x in (Fraction(1, k), Fraction(-1, k)):
                want = n - sum(e for f, e in factors if f(x) == 0)
                assert degree_at(m, 1, x) == want
                assert degree_at(m, Fraction(-3, 2), Fraction(-3, 2) * x) == want

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


def faddeev_leverrier(m):
    """chi over Python ints, the reference for char_poly: Faddeev–LeVerrier
    on object arrays, one exact product per degree, each division by k
    checked to come out exact."""
    n = m.n
    minus_a = (np.eye(n, dtype=np.int64) - m.entries).astype(object)
    ident = np.eye(n, dtype=np.int64).astype(object)
    coeffs = [1]
    mk = ident
    for k in range(1, n + 1):
        prod = minus_a @ mk
        c, r = divmod(-int(prod.trace()), k)
        assert r == 0
        coeffs.append(c)
        mk = prod + c * ident
    return IntPolynomial.from_coeffs(coeffs)


def is_prime(q):
    """Deterministic Miller–Rabin: the prime bases up to 41 decide every
    q below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if q < 2 or any(q % b == 0 for b in bases):
        return q in bases
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def paley_point(q):
    """Paley(q) plus an isolated vertex: for q = 1 mod 4 its Seidel matrix
    is a conference matrix, whose minors meet Hadamard's bound."""
    return epsilon_matrix(q + 1, edges_of(paley(q)))


# 150 graphs: every n = 3..32 four or five times, then the largest n that
# two, three and four primes serve, and the vertex bound
ORACLE_SIZES = [3 + i % 30 for i in range(146)] + [34, 47, 59, 64]


def float_exact(n):
    """Whether every partial sum of Faddeev-LeVerrier over Z stays below
    2^53: n (n - 1) max_s C(n - 1, s) s^(s/2) < 2^53, as squares."""
    return max((n * (n - 1) * math.comb(n - 1, s)) ** 2 * s ** s for s in range(n)) < 2 ** 106


def crt_primes(n):
    """The fewest primes of the table, one kept back as the check, whose
    product exceeds twice the principal-minor bound C(n, k) (k - 1)^(k/2)
    on chi's coefficients (as squares), or None."""
    bound_sq = max(math.comb(n, k) ** 2 * (k - 1) ** k for k in range(n + 1))
    primes = exactpoly._CHI_PRIMES
    return next((k for k in range(1, len(primes)) if math.prod(primes[:k]) ** 2 > 4 * bound_sq),
                None)


def half_edge_square():
    """The square's entries with one linked pair at -1/2: not a sign
    matrix, so the trace at step 2 of Faddeev-LeVerrier is 10.5."""
    entries = SQUARE.graph.entries.astype(float)
    entries[0, 1] = entries[1, 0] = -0.5
    return types.SimpleNamespace(n=4, entries=entries)


class TestMultimodularChi:
    def test_random_graphs_match_big_int_oracle(self):
        rng = random.Random(10)
        for n in ORACLE_SIZES:
            m = random_sign_matrix(rng, n)
            assert char_poly(m) == faddeev_leverrier(m), n

    @pytest.mark.parametrize("g, chi", [
        (epsilon_matrix(64, []), reconstruct([(P(1, -1), 63), (P(1, 63), 1)], 1)),
        (epsilon_matrix(66, []), reconstruct([(P(1, -1), 65), (P(1, 65), 1)], 1)),
        (triangular(8), reconstruct([(P(1, 3), 21), (P(1, -9), 7)], 1)),
        *((paley_point(q), reconstruct([(P(1, 0, -q), (q + 1) // 2)], 1)) for q in (5, 13, 37, 61)),
    ], ids=["edgeless-64", "edgeless-66", "T8", "paley-5+pt", "paley-13+pt",
            "paley-37+pt", "paley-61+pt"])
    def test_closed_forms(self, g, chi):
        # edgeless: eps - I = J - I; T(8): Seidel spectrum 3^21, -9^7;
        # Paley(q) + point: S^2 = q I, so chi = (1 - q x^2)^((q + 1)/2)
        assert char_poly(g) == chi

    def test_prime_table_covers_the_vertex_bound(self):
        assert [q for q in range(200) if is_prime(q)] == [
            q for q in range(2, 200) if all(q % d for d in range(2, q))]
        assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
        primes = exactpoly._CHI_PRIMES
        assert len(set(primes)) == len(primes)
        assert all(is_prime(p) and p < 2**45 for p in primes)
        # all but the check prime exceed twice the principal-minor bound ...
        n = config.MAX_VERTICES
        assert crt_primes(n) is not None
        # ... and the stacked float product stays exact: n * 2p < 2^53
        assert n * 2 * max(primes) < 2**53

    def test_beyond_the_prime_table_is_refused(self):
        first = next(n for n in itertools.count(config.MAX_VERTICES) if crt_primes(n) is None)
        assert char_poly(epsilon_matrix(first - 1, [])) == reconstruct(
            [(P(1, -1), first - 2), (P(1, first - 2), 1)], 1)
        with pytest.raises(BoundExceededError):
            char_poly(epsilon_matrix(first, []))

    @pytest.mark.parametrize("column", [0, -1], ids=["crt-prime", "check-prime"])
    def test_corrupted_residue_is_caught(self, column, monkeypatch):
        # T(8), n = 28, takes the primes; the square would take the integers
        real = exactpoly._chi_residues

        def corrupted(m, primes):
            rows = real(m, primes)
            rows[2][column] = (rows[2][column] + 1) % primes[column]
            return rows

        monkeypatch.setattr(exactpoly, "_chi_residues", corrupted)
        with pytest.raises(InvariantError):
            char_poly(triangular(8))


class TestIntegerChi:
    @pytest.mark.parametrize("g", [
        paley_point(17),
        *(graph(n) for n in (19, 20) for graph in (
            lambda n: random_sign_matrix(random.Random(n), n),
            lambda n: epsilon_matrix(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                         if (i * j + i + j) % 7]))),
        epsilon_matrix(20, []),
        random_sign_matrix(random.Random(21), 21),
    ], ids=["paley-17+pt", "random-19", "dense-19", "random-20", "dense-20", "edgeless-20",
            "random-21"])
    def test_cut_graphs_match_big_int_oracle(self, g):
        # Paley(17) + point: a conference matrix, whose minors meet
        # Hadamard's bound; n = 21 is the first size off the integers
        assert char_poly(g) == faddeev_leverrier(g)

    def test_arithmetic_follows_the_bounds(self, monkeypatch):
        calls = []
        real = exactpoly._chi_residues

        def recording(m, primes):
            calls.append((m.n, len(primes)))
            return real(m, primes)

        monkeypatch.setattr(exactpoly, "_chi_residues", recording)
        assert max(n for n in range(1, 40) if float_exact(n)) == 20
        assert not float_exact(21)
        rng = random.Random(4)
        for n in [*range(1, 23), 28, 64]:
            char_poly(random_sign_matrix(rng, n))
        # the integers (no primes) through n = 20; then the CRT primes and a check
        assert calls == [(n, 0) for n in range(1, 21)] + [
            (n, crt_primes(n) + 1) for n in (21, 22, 28, 64)]
        assert [crt_primes(n) for n in (28, 64)] == [2, 5]

    def test_inexact_division_is_caught(self):
        with pytest.raises(InvariantError, match="step 2"):
            char_poly(half_edge_square())


def roots_of(m):
    return real_roots_with_multiplicity(m, squarefree_decomposition(char_poly(m)))


# one edge on five vertices: chi = (8x^3 + 7x^2 - 2x - 1)(x - 1)^2
ONE_EDGE = epsilon_matrix(5, [(1, 2)])


class TestRealRoots:
    def test_triangle(self):
        roots = roots_of(TRIANGLE.graph)
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1), 2),
            (Fraction(1, 2), 1),
        ]

    def test_square(self):
        roots = roots_of(SQUARE.graph)
        assert [(r.exact, r.multiplicity) for r in roots] == [
            (Fraction(-1, 3), 1),
            (Fraction(1), 3),
        ]

    def test_pentagon_irrational(self):
        roots = roots_of(PENTAGON.graph)
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
        roots = roots_of(POINTED_HEXAGON.graph)
        assert [r.multiplicity for r in roots] == [3, 3]

    def test_constant_no_roots(self):
        # one vertex: eps - I = 0, so chi = 1
        assert roots_of(epsilon_matrix(1, [])) == []

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
        for m in (SQUARE.graph, ONE_EDGE):
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
            via_sturm = sorted(
                (exactpoly._refine(f, e, cell, None, width)
                 for f, e in factors for cell in exactpoly._sturm_cells(f)),
                key=lambda r: r.value)
            assert [(r.exact, r.multiplicity) for r in via_seeds] == [
                (r.exact, r.multiplicity) for r in via_sturm]
            for r, s in zip(via_seeds, via_sturm):
                a, b = r.interval, s.interval
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


def evaluate(coeffs, x):
    """f(x) in Fraction arithmetic, by Horner."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@functools.cache
def certified_root_graphs():
    """160 seeded G(n, 1/2), n = 3..64 (every n twice or three times), then
    T(8), Paley(13) + point and edgeless 8: (name, matrix, factors), the
    factors from chi_and_roots, which equal squarefree_decomposition's
    (``TestChiAndRoots``) without Yun's scheme on a square-free chi of
    degree up to 64."""
    out = []
    for seed in range(160):
        m = random_sign_matrix(random.Random(seed), 3 + seed % 62)
        out.append((f"G{seed}", m))
    out += [("T8", triangular(8)),
            ("paley-13+pt", paley_point(13)),
            ("edgeless-8", epsilon_matrix(8, []))]
    return [(name, m, chi_and_roots(m)[1]) for name, m in out]


def assert_certified(name, m, factors, roots):
    """Check each root against the Seidel spectrum and, in Fractions, the
    certificate of each irrational root: its factor changes sign between
    the interval's dyadic ends, which are closer than the interval width."""
    width = Fraction(config.ROOT_INTERVAL_WIDTH)
    lams = np.linalg.eigvalsh(m.entries - np.eye(m.n))
    lams = sorted((lam for lam in lams if abs(lam) > 1e-9), key=lambda lam: -1 / lam)
    got = [r for r in roots for _ in range(r.multiplicity)]
    assert len(got) == len(lams), name
    for r, lam in zip(got, lams):
        # the root's own square-free factor is the one of its exponent
        [f] = [f for f, e in factors if e == r.multiplicity]
        if r.exact is not None:
            assert evaluate(f.coeffs, r.exact) == 0, name
            assert abs(-1 / r.exact - lam) < 1e-9, name
            continue
        lo, hi = r.interval
        assert evaluate(f.coeffs, lo) * evaluate(f.coeffs, hi) < 0, name
        for end in (lo, hi):
            assert end.denominator & (end.denominator - 1) == 0, name
        assert 0 < hi - lo < width, name
        # compared as eigenvalues: near a small lam, -1/lam carries
        # eigvalsh's error times x^2 (x = -1232 on G35)
        tol = Fraction(1e-9)
        assert -1 / lo - tol <= Fraction(lam) <= -1 / hi + tol, name
        assert lo <= Fraction(r.value) <= hi


class TestCertifiedRoots:
    """The refinement of each root starts from a window of half-width
    n eps rho x^2 around its seed; exact integer signs certify the result."""

    def test_about_three_sign_evaluations_per_root(self, monkeypatch):
        graphs = certified_root_graphs()
        signs = spy(monkeypatch, "_sign_at")
        sturm = spy(monkeypatch, "_sturm_cells")
        roots = sum(len(real_roots_with_multiplicity(m, factors)) for _, m, factors in graphs)
        assert sturm == []
        assert len(signs) / roots <= 4

    def test_refined_roots_against_fraction_oracle(self):
        for name, m, factors in certified_root_graphs():
            assert_certified(name, m, factors, real_roots_with_multiplicity(m, factors))

    def test_zero_window_gives_the_same_roots(self, monkeypatch):
        # with delta forced to 0 both first cuts fall on the seed, so they
        # cannot bracket the root: bisection does the work, at more cost
        graphs = certified_root_graphs()[::4]
        want = [real_roots_with_multiplicity(m, factors) for _, m, factors in graphs]
        signs = spy(monkeypatch, "_sign_at")
        monkeypatch.setattr(np, "finfo", lambda dtype: types.SimpleNamespace(eps=0.0))
        got = [real_roots_with_multiplicity(m, factors) for _, m, factors in graphs]
        assert len(signs) > 10 * sum(map(len, got))
        for (name, m, factors), roots in zip(graphs, got):
            assert_certified(name, m, factors, roots)
        for a, b in zip(want, got):
            assert [(r.exact, r.multiplicity) for r in a] == [
                (r.exact, r.multiplicity) for r in b]
            for r, s in zip(a, b):
                assert r.interval is None or max(r.interval[0], s.interval[0]) < min(
                    r.interval[1], s.interval[1])
                assert abs(r.value - s.value) < config.ROOT_INTERVAL_WIDTH

    def test_index_with_sturm_cells_refines_all(self, monkeypatch):
        # seeds far beyond every root leave the cuts no sign change
        m = ONE_EDGE
        factors = squarefree_decomposition(char_poly(m))
        want = roots_of(m)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), 1e-9))
        refine = spy(monkeypatch, "_refine")
        for k, rec in enumerate(want):
            [got] = real_roots_with_multiplicity(m, factors, index=k)
            assert (got.exact, got.multiplicity) == (rec.exact, rec.multiplicity)
        assert len(refine) == len(want) ** 2


def switched_copy(m, rng):
    """m relabelled and switched at a random vertex set: the same chi."""
    d = np.array([rng.choice((-1, 1)) for _ in range(m.n)])
    images = list(range(m.n))
    rng.shuffle(images)
    return SignMatrix((m.entries * np.outer(d, d))[np.ix_(images, images)])


def separate_passes(m, index=None):
    """What chi_and_roots must return: char_poly, squarefree_decomposition
    and real_roots_with_multiplicity, each on its own."""
    chi = char_poly(m)
    factors = squarefree_decomposition(chi)
    if index is not None and not 0 <= index < sum(f.degree for f, _ in factors):
        return chi, factors, []
    return chi, factors, real_roots_with_multiplicity(m, factors, index)


def cofactor(chi, roots):
    """chi divided by the linear factor of each rational root as often as
    its multiplicity, taken primitive."""
    g = list(chi.coeffs)
    for r in roots:
        for _ in range(r.multiplicity if r.exact is not None else 0):
            g = exactpoly._div_exact(g, [-r.exact.numerator, r.exact.denominator])
    content = math.gcd(*g) * (1 if g[-1] > 0 else -1)
    return P(*(c // content for c in g))


def repeated_irrational(roots):
    return any(r.exact is None and r.multiplicity > 1 for r in roots)


class TestChiAndRoots:
    """chi_and_roots divides out the rational roots the Seidel spectrum
    proposes, certifies the cofactor square-free by its own cells, and
    decomposes the cofactor only when that fails; either way it returns
    what the separate passes return, record for record."""

    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_separate_passes(self, n, seed):
        rng = random.Random(seed)
        m = random_sign_matrix(rng, n)
        for g in (m, switched_copy(m, rng)):
            chi, factors, roots = chi_and_roots(g)
            assert (chi, factors, roots) == separate_passes(g)
            for k in range(-1, len(roots) + 1):
                assert chi_and_roots(g, index=k) == separate_passes(g, index=k)

    def test_squarefree_chi_takes_no_decomposition(self, monkeypatch):
        # neither a square-free chi nor one whose repeated roots are all
        # rational takes a decomposition
        rng = random.Random(7)
        graphs = [random_sign_matrix(rng, rng.randint(10, 18)) for _ in range(30)]
        want = [separate_passes(m) for m in graphs]
        squarefree = [m for m, (_, factors, _) in zip(graphs, want)
                      if [e for _, e in factors] == [1]]
        assert 20 < len(squarefree) < len(graphs)
        assert not any(repeated_irrational(roots) for _, _, roots in want)
        calls = spy(monkeypatch, "squarefree_decomposition")
        assert [chi_and_roots(m) for m in graphs] == want
        assert calls == []

    @pytest.mark.parametrize("name", [fx.name for fx in ALL] + [
        "petersen", "clebsch", "T8", "edgeless-5", "edgeless-8"])
    def test_repeated_roots_take_the_fallback(self, name, monkeypatch):
        # every one of these chi has a repeated root.  A decomposition runs
        # exactly when one is irrational (the pentagon's and the pointed
        # hexagon's), on the cofactor the rational roots leave, and the
        # separate isolation never runs
        m = ({fx.name: fx.graph for fx in ALL} | {
            "petersen": petersen(), "clebsch": clebsch(), "T8": triangular(8),
            "edgeless-5": epsilon_matrix(5, []), "edgeless-8": epsilon_matrix(8, [])})[name]
        chi, factors, roots = want = separate_passes(m)
        assert max(e for _, e in factors) > 1
        assert repeated_irrational(roots) == (name in ("pentagon", "pointed-hexagon"))
        decompositions = spy(monkeypatch, "squarefree_decomposition")
        isolations = spy(monkeypatch, "real_roots_with_multiplicity")
        assert chi_and_roots(m) == want
        assert decompositions == ([cofactor(chi, roots)] if repeated_irrational(roots) else [])
        assert isolations == []

    @pytest.mark.parametrize("name", ["petersen", "edgeless-5", "random"])
    def test_one_spectrum_per_call(self, name, monkeypatch):
        # the failed certificate and the fallback's cuts share one eigvalsh
        m = {"petersen": petersen(), "edgeless-5": epsilon_matrix(5, []),
             "random": random_sign_matrix(random.Random(7), 12)}[name]
        want = separate_passes(m)
        spectra = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(1) or eigvalsh(a))
        assert chi_and_roots(m) == want
        assert len(spectra) == 1

    def test_a_root_beyond_the_cuts_is_not_certified(self, monkeypatch):
        # seeds that leave the lowest root below every cut show d - 1 sign
        # changes, one per other root: the cofactor of the rational roots
        # -1/3 and 1 must not be certified from them, and the fallback
        # decomposes it and still isolates all d roots
        m = epsilon_matrix(7, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3), (2, 6), (4, 6)])
        chi, [(f, e)], want = chi_and_roots(m)
        assert (f.degree, e, len(want)) == (7, 1, 7)
        g = cofactor(chi, want)
        assert g.degree == 5
        lams = np.linalg.eigvalsh(m.entries - np.eye(7))
        lams[np.argmin(-1 / lams)] = -1 / (want[-1].value + 10)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: lams.copy())
        cuts, _, k = exactpoly._cuts(lams, 7, 7)
        signs = [exactpoly._sign_at(f.coeffs, a, k) for a in cuts]
        assert sum(s * t == -1 for s, t in zip(signs, signs[1:])) == 6
        sturm = spy(monkeypatch, "_sturm_cells")
        decompositions = spy(monkeypatch, "squarefree_decomposition")
        _, factors, got = chi_and_roots(m)
        assert factors == [(f, 1)] and sturm == [g] and decompositions == [g]
        assert [(r.exact, r.multiplicity) for r in got] == [
            (r.exact, r.multiplicity) for r in want]
        for r, s in zip(got, want):
            assert r.interval is None or max(r.interval[0], s.interval[0]) < min(
                r.interval[1], s.interval[1])

    @pytest.mark.parametrize("name", ["petersen", "clebsch"])
    def test_integers_moved_off_propose_nothing(self, name, monkeypatch):
        # negative control: the spectrum only proposes rational roots.  With
        # every integer eigenvalue moved 10^-3 off, no root is proposed, no
        # division takes place, and the decomposition of chi decides; the
        # result is still the separate passes'
        m = {"petersen": petersen(), "clebsch": clebsch()}[name]
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 1e-3)
        chi, _, roots = want = separate_passes(m)
        assert all(r.exact is not None and r.multiplicity > 1 for r in roots)
        divisions = spy(monkeypatch, "_divide_out")
        decompositions = spy(monkeypatch, "squarefree_decomposition")
        assert chi_and_roots(m) == want
        assert divisions == [] and decompositions == [cofactor(chi, [])]

    @pytest.mark.parametrize("name", ["pentagon", "random"])
    def test_a_non_integer_moved_onto_one_divides_nothing(self, name, monkeypatch):
        # negative control: an irrational eigenvalue moved onto the integer
        # next to it proposes a root that the exact division refuses
        m = {"pentagon": PENTAGON.graph,
             "random": random_sign_matrix(random.Random(3), 12)}[name]
        lams = np.linalg.eigvalsh(m.entries - np.eye(m.n))
        near = np.rint(lams)
        [at] = np.flatnonzero((near != 0) & (np.abs(lams - near) > 0.1))[-1:]
        q = int(near[at])
        lams[at] = q
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: lams.copy())
        want = separate_passes(m)
        assert Fraction(-1, q) not in [r.exact for r in want[2]]
        divisions = {}
        divide_out = exactpoly._divide_out

        def recorded(f, b):  # by the root of the linear factor b
            divisions[Fraction(-b[0], b[1])] = divide_out(f, b)
            return divisions[Fraction(-b[0], b[1])]

        monkeypatch.setattr(exactpoly, "_divide_out", recorded)
        assert chi_and_roots(m) == want
        assert divisions[Fraction(-1, q)][1] == 0

    def test_out_of_range_index_gives_no_root(self):
        for m in (SQUARE.graph, ONE_EDGE, epsilon_matrix(1, [])):
            _, factors, _ = chi_and_roots(m)
            distinct = sum(f.degree for f, _ in factors)
            for k in (-1, distinct, distinct + 5):
                assert chi_and_roots(m, index=k)[2] == []
