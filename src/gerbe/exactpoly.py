"""Exact integer polynomial arithmetic.

Provides the characteristic polynomial det(S(1, x)) of a sign matrix as an
exact integer polynomial by Faddeev–LeVerrier, one float64 product per
step: over the integers up to n = 20, where Hadamard's bound on the
adjugate coefficients keeps every partial sum below 2^53 and each step
checks that its trace divides exactly, and beyond that modulo primes below
2^45 stacked side by side, rebuilt by the Chinese remainder theorem past
the principal-minor bound C(n, k) (k - 1)^(k/2) and checked modulo one
more prime.  Also the degree of the representation at a rational point
(``degree_at``), and, in ``chi_and_roots``, chi's square-free factors and
its real roots with multiplicities.  The Seidel spectrum proposes the
rational roots -1/q, which exact division by q x + 1 confirms and counts;
the cofactor left is certified square-free by its sign changes across the
cells that the seeds -1/lam cut, and only a cofactor with a repeated
irrational root takes Yun's scheme (``squarefree_decomposition``), with
Sturm chains as the fallback of a factor its cells do not certify.  All
arithmetic is over the integers: by Gauss's lemma a primitive divisor of
an integer polynomial divides it over Z, so Yun's scheme divides exactly
by primitive gcds, and the Sturm chain takes pseudo-remainders.  Signs are
taken at dyadic points a / 2^k; Fractions appear only in the results,
which are exact but for the float approximation attached to each root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import BoundExceededError, InvariantError
from .graph import SignMatrix


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with exact integer coefficients; coeffs[k] is the x^k term."""

    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use trimmed coeffs)")

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPolynomial":
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def pretty(self, var: str = "x") -> str:
        """Canonical text form: descending powers, explicit signs."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xpow = var if k == 1 else f"{var}^{k}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


@dataclass(frozen=True)
class RootRecord:
    """A real root with its multiplicity.

    ``exact`` is the rational value when the root is rational, else None;
    ``interval`` is a certified isolating enclosure (Fraction endpoints)
    for irrational roots.  ``value`` is always a float approximation.
    """

    value: float
    multiplicity: int
    exact: Fraction | None = None
    interval: tuple | None = None


# ---------------------------------------------------------------------------
# char_poly

def _float_exact(n: int) -> bool:
    """Whether Faddeev-LeVerrier over Z keeps every partial sum below 2^53
    at n vertices.  After step s the entries of M_s are adjugate
    coefficients of x I + A, each a sum of C(n - 1, s) s-minors of a 0/+-1
    matrix, so at most C(n - 1, s) s^(s/2) by Hadamard's bound; a row of
    -A has n - 1 nonzero entries, so a partial sum of the next product is
    at most n - 1 times that, and of its trace n (n - 1) times.  Compared
    as squares, in integers."""
    return all((n * (n - 1) * math.comb(n - 1, s)) ** 2 * s ** s < 4 ** 53 for s in range(n))


# the largest n whose chi float64 computes over Z (20)
_FLOAT_EXACT_N = next(n for n in itertools.count(1) if not _float_exact(n + 1))

# The seven largest primes below 2^45.  chi of a larger graph needs the
# first k of them, with k the fewest whose product exceeds twice the bound
# on its coefficients (``_coefficient_bound_sq``), and the next one as a
# check: six suffice up to n = 82, so the table serves
# config.MAX_VERTICES = 64.
_CHI_PRIMES = (
    35184372088777, 35184372088763, 35184372088751, 35184372088739,
    35184372088711, 35184372088699, 35184372088693,
)


def _coefficient_bound_sq(n: int) -> int:
    """The square of a bound on |coef of x^k| in chi over all k.  That
    coefficient sums the C(n, k) principal k x k minors of A = eps - I,
    whose diagonal is 0 and whose other entries are +-1: each row has norm
    sqrt(k - 1), so by Hadamard each minor is at most (k - 1)^(k/2)."""
    return max(math.comb(n, k) ** 2 * (k - 1) ** k for k in range(n + 1))


def _chi_residues(m: SignMatrix, primes) -> list:
    """Faddeev-LeVerrier for chi: row k holds the coefficient of x^k, as
    one integer with no primes, else as its residues in [0, p) modulo each
    prime at once.

    The loop holds M_k in one float array, n x n over Z, or with primes the
    residues modulo each side by side, n x (len(primes) n), so each step is
    one BLAS product by -A = I - eps, whose entries are 0 and +-1.

    Over Z (n up to ``_FLOAT_EXACT_N``, by ``_float_exact``) every partial
    sum is an integer below 2^53, which float64 holds exactly in any
    summation order; the trace must then divide exactly by the step, and
    an inexact division raises InvariantError.

    Modulo primes, the entries of M_k lie in (-p, 2p), so every partial sum
    of a product entry is an integer of modulus below n * 2p < 2^53 for
    n < 128 and p < 2^45 (the prime table stops at n = 82).  Rounding
    x * (1/p), which is within 2^-44 of x / p, gives a quotient q with
    |x - q p| below p/2 + 2, and x - q p is computed exactly; so each entry
    lands in (-p, p), and the diagonal update adds the new coefficient in
    [0, p).
    """
    n, k = m.n, max(len(primes), 1)
    minus_a = np.eye(n) - m.entries
    mk = np.tile(np.eye(n), k)
    if primes:
        moduli = np.repeat(np.array(primes, dtype=float), n)
        inverses = 1 / moduli
    # flat index of the diagonal entry (i, j n + i) of block j
    diag = np.arange(n)[:, None] * (k * n + 1) + np.arange(k) * n
    rows = [[1] * k]
    for step in range(1, n + 1):
        mk = minus_a @ mk
        if primes:
            mk -= np.rint(mk * inverses) * moduli
        flat = mk.reshape(-1)
        traces = flat[diag].sum(axis=0)
        if primes:
            coeffs = [-int(t) * pow(step, -1, p) % p for t, p in zip(traces, primes)]
        elif traces[0] % step:
            raise InvariantError(f"chi over Z: the trace {traces[0]} at step {step} "
                                 "does not divide by it")
        else:
            coeffs = [-int(traces[0]) // step]
        rows.append(coeffs)
        flat[diag] += coeffs
    return rows


def char_poly(m: SignMatrix) -> IntPolynomial:
    """det(S(1, x)) as an exact integer polynomial.

    S(1, x) = I + x·A with A = ε − I the Seidel matrix, so χ is the
    characteristic polynomial of −A with its coefficients reversed, by
    Faddeev–LeVerrier (``_chi_residues``).  Up to n = ``_FLOAT_EXACT_N``
    (20) the loop runs over Z in float64, exact by Hadamard's bound on
    the adjugate coefficients (``_float_exact``), and each step checks its
    division.  Beyond, it runs modulo the fewest primes whose product P
    exceeds twice the principal-minor bound C(n, k) (k − 1)^(k/2) on the
    coefficients (``_coefficient_bound_sq``), and the Chinese remainder
    theorem rebuilds each coefficient in (−P/2, P/2].  One more prime
    checks the result: its residues must agree with it.
    """
    n = m.n
    if n <= _FLOAT_EXACT_N:
        return IntPolynomial.from_coeffs(row[0] for row in _chi_residues(m, ()))
    bound_sq = 4 * _coefficient_bound_sq(n)
    k, modulus = 1, _CHI_PRIMES[0]
    while modulus * modulus <= bound_sq:
        if k + 1 >= len(_CHI_PRIMES):
            raise BoundExceededError(f"chi at n = {n} needs more primes than the table holds")
        modulus *= _CHI_PRIMES[k]
        k += 1
    primes, check = _CHI_PRIMES[:k], _CHI_PRIMES[k]
    basis = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    coeffs = []
    for row in _chi_residues(m, _CHI_PRIMES[:k + 1]):
        c = sum(r * b for r, b in zip(row, basis)) % modulus
        c = c - modulus if 2 * c > modulus else c
        if (c - row[k]) % check:
            raise InvariantError(f"chi modulo the check prime {check} disagrees with its CRT value")
        coeffs.append(c)
    return IntPolynomial.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# integer polynomial helpers (internal): ascending int lists, trimmed

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _deriv(a):
    return [k * c for k, c in enumerate(a)][1:]


def _sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _primitive(a) -> list:
    """a divided by its content, signed so that the lead is positive."""
    if not a:
        return []
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _div_exact(a, b):
    """The quotient a / b, which must be an integer polynomial.  A step
    whose division is inexact leaves a residue in a coefficient that no
    later step touches, so the final check on r catches it."""
    r, n = list(a), len(b)
    q = [0] * max(0, len(r) - n + 1)
    for shift in range(len(q) - 1, -1, -1):
        q[shift] = r[shift + n - 1] // b[-1]
        for i, c in enumerate(b):
            r[shift + i] -= q[shift] * c
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _prem(a, b):
    """Remainder of |lead b|^(deg a - deg b + 1) * a by b: an integer
    polynomial, and a positive multiple of the remainder over the rationals."""
    r, n = list(a), len(b)
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    for shift in range(len(r) - n, -1, -1):
        top = sign * r.pop()
        r = [scale * c for c in r]
        for i, c in enumerate(b[:-1]):
            r[shift + i] -= top * c
    return _trim(r)


def _gcd(a, b):
    """Primitive gcd with positive lead, by primitive remainder sequences."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


# ---------------------------------------------------------------------------
# square-free decomposition and rational roots

def squarefree_decomposition(p: IntPolynomial) -> list:
    """Write p as lead * prod f_k^{e_k} with the f_k square-free and coprime,
    by Yun's derivative-gcd scheme: the (factor, exponent) pairs, exponents
    ascending, each factor primitive with a positive lead; constant content
    is not included.  Every gcd is taken primitive, so by Gauss's lemma
    each division by one is exact over Z."""
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free decomposition")
    f = list(p.coeffs)
    fp = _deriv(f)
    a = _gcd(f, fp)
    b = _div_exact(f, a)
    d = _sub(_div_exact(fp, a), _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((IntPolynomial(tuple(g)), i))
        b = _div_exact(b, g)
        d = _sub(_div_exact(d, g), _deriv(b))
        i += 1
    return out


def _divide_out(a, b):
    """(a / b^mu, mu) for the largest power of b that divides a exactly."""
    mu = 0
    try:
        while True:
            a, mu = _div_exact(a, b), mu + 1
    except ArithmeticError:  # b divides a no more
        return a, mu


def degree_at(m: SignMatrix, omega, c) -> int:
    """The rank of S(omega, c) = omega I + c (eps - I), the degree of the
    reduced representation, by the rank law: deg chi at omega = 0 (0 at
    c = 0), else n - mu, mu the multiplicity as a root of chi of c/omega,
    or else of the floats' exact ratio (S is factored at the floats).
    Since chi(0) = 1, a rational root is x = s/q with s = +-1, and mu is
    the number of exact divisions of chi by the primitive factor q x - s
    (Gauss's lemma: a rational division by it is an integer one)."""
    omega, c = Fraction(omega), Fraction(c)
    if omega == 0:
        return char_poly(m).degree if c else 0
    points = [x for x in (c / omega, Fraction(float(c)) / Fraction(float(omega)))
              if abs(x.numerator) == 1]
    if not points:
        return m.n
    chi = list(char_poly(m).coeffs)
    return m.n - max(_divide_out(chi, [-x.numerator, x.denominator])[1] for x in points)


def _regroup(factors) -> list:
    """Coprime square-free factors (f, e) multiplied together per exponent,
    ascending: a product of primitive factors with positive leads is one
    (Gauss's lemma), so this is the decomposition Yun's scheme gives."""
    products = {}
    for f, e in factors:
        products[e] = np.convolve(products.get(e, [1]), np.array(f.coeffs, dtype=object))
    return [(IntPolynomial(tuple(products[e].tolist())), e) for e in sorted(products)]


# ---------------------------------------------------------------------------
# real roots

def _sign_at(coeffs, a: int, k: int) -> int:
    """Sign of the integer polynomial with these coefficients at a / 2^k,
    by Horner in integers on its homogenization 2^(k deg) f(a / 2^k)."""
    acc, shift = 0, 0
    for c in reversed(coeffs):
        acc = acc * a + (c << shift)
        shift += k
    return (acc > 0) - (acc < 0)


def _sturm_chain(f: IntPolynomial) -> list:
    """Sturm sequence of f over the integers: each member is minus the
    pseudo-remainder of the two before it, which is a positive multiple of
    the remainder over the rationals, divided by its positive content, so
    it keeps its signs and its size small."""
    chain = [list(f.coeffs)]
    r = _deriv(chain[0])
    while r:
        content = math.gcd(*r)
        chain.append([c // content for c in r])
        r = [-c for c in _prem(chain[-2], chain[-1])]
    return chain


def _sign_variations(chain, a: int, k: int) -> int:
    signs = [s for s in (_sign_at(poly, a, k) for poly in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _sturm_cells(f: IntPolynomial) -> list:
    """One cell (lo, hi, k, sign of f at lo / 2^k) per real root of the
    square-free f, by Sturm counts over bisections of (-b, b), b Cauchy's
    root bound.  Split points that hit a root are moved, so no cell end is."""
    chain = _sturm_chain(f)
    bound = 2 + max(abs(c) for c in f.coeffs[:-1]) // abs(f.coeffs[-1])
    stack = [(-bound, bound, 0)]
    cells = []
    while stack:
        lo, hi, k = stack.pop()
        count = _sign_variations(chain, lo, k) - _sign_variations(chain, hi, k)
        if count == 1:
            cells.append((lo, hi, k, _sign_at(f.coeffs, lo, k)))
        elif count > 1:
            mid, lo, hi, k = lo + hi, 2 * lo, 2 * hi, k + 1
            while _sign_at(f.coeffs, mid, k) == 0:
                mid, lo, hi, k = lo + mid, 2 * lo, 2 * hi, k + 1
            stack += [(lo, mid, k), (mid, hi, k)]
    return cells


def _refine(f: IntPolynomial, mult: int, cell, window, width: Fraction) -> RootRecord:
    """The root of the square-free factor f of chi in the cell (lo, hi, k,
    sign): between lo / 2^k and hi / 2^k, neither a root, f of that sign at
    the first; exact when rational, else in a dyadic interval narrower than
    width.  A linear f's root is read off it.  Bisection keeps the ends
    over one power of two and takes every
    sign in integers; its first two cuts are the window's ends (integers
    over 2^k around the root's seed).  If they bracket the root, the cell
    shrinks to them at once; if not, bisection goes on: they cost or save
    cuts, and the certificate rests on exact signs alone.  By Gauss's lemma
    f(0) divides chi(0) = 1, so a rational root is -1/q for an integer q,
    tested in the final cell (which holds no 0: every root of chi has
    modulus at least 1/(n - 1)) as q^deg f * f(-1/q), f reversed with
    alternating signs at q.
    """
    if f.degree == 1:
        x = Fraction(-f.coeffs[0], f.coeffs[1])
        return RootRecord(float(x), mult, exact=x)
    lo, hi, k, sign = cell
    guesses = list(window or ())
    while (hi - lo) * width.denominator >= width.numerator << k:
        if guesses:
            x = guesses.pop()
            if not lo < x < hi:
                continue
        else:
            x, lo, hi, k = lo + hi, 2 * lo, 2 * hi, k + 1
        s = _sign_at(f.coeffs, x, k)
        if s == 0:
            return RootRecord(x / (1 << k), mult, exact=Fraction(x, 1 << k))
        lo, hi = (x, hi) if s == sign else (lo, x)
    one, d = 1 << k, f.degree
    for q in range(-one // lo + 1, -(one // hi)):
        reverse = [c if (d - i) % 2 == 0 else -c for i, c in enumerate(reversed(f.coeffs))]
        if _sign_at(reverse, q, 0) == 0:
            return RootRecord(-1 / q, mult, exact=Fraction(-1, q))
    return RootRecord((lo + hi) / (2 * one), mult,
                      interval=(Fraction(lo, one), Fraction(hi, one)))


# the width below which _refine stops, as a ratio of integers
_WIDTH = Fraction(config.ROOT_INTERVAL_WIDTH).limit_denominator(10**18)


def _seidel_spectrum(m: SignMatrix) -> np.ndarray:
    """The eigenvalues of eps - I, ascending."""
    return np.linalg.eigvalsh(m.entries - np.eye(m.n))


def _cuts(lams, degree: int, distinct: int):
    """The cuts and root windows for chi = char_poly(m) of this degree
    with ``distinct`` distinct roots, from the spectrum lams of m
    (``_seidel_spectrum``), all integers over one power of two 2^k:
    (distinct + 1 ascending cuts, distinct windows (lo, hi), k).

    chi(x) = prod (1 + x lam) over the eigenvalues lam of eps - I, and
    deg chi = rank(eps - I), so the roots are -1/lam for the deg chi
    eigenvalues of largest modulus.  Sorted, these seeds split at their
    distinct - 1 widest gaps into one cluster per distinct root.  The cuts
    are the midpoints of those gaps and one point beyond each end.  A
    root's window is its cluster's mean x +- n eps rho x^2, with eps the
    machine epsilon and rho the spectral radius: eigvalsh is backward
    stable (Weyl; Demmel, Applied Numerical Linear Algebra, 5.2), so each
    lam is off by about n eps rho at most, and -1/lam by that times x^2.
    """
    n = len(lams)
    seeds = np.sort(-1 / lams[np.argsort(np.abs(lams))[n - degree:]])
    splits = np.sort(np.argsort(np.diff(seeds))[degree - distinct:]) + 1
    bounds = np.concatenate(([0], splits, [degree]))
    means = np.add.reduceat(seeds, bounds[:-1]) / np.diff(bounds)
    deltas = n * np.finfo(float).eps * np.abs(lams).max() * means**2
    ratios = [x.as_integer_ratio() for x in np.concatenate((
        [seeds[0] - 1], (seeds[splits - 1] + seeds[splits]) / 2, [seeds[-1] + 1],
        means - deltas, means + deltas)).tolist()]
    den = max(d for _, d in ratios)
    points, k = [a * (den // d) for a, d in ratios], den.bit_length() - 1
    return points[:distinct + 1], list(zip(points[distinct + 1:], points[-distinct:])), k


def _seeded_cells(factor: IntPolynomial, mult: int, cuts, windows, k: int):
    """The cells (gap, factor, mult, (lo, hi, k, sign at lo), window) of
    the gaps between consecutive cuts over which the square-free factor
    changes sign, or None unless there are deg factor of them.  When there
    are, each holds one root of the factor and it has no other.  A factor
    changes sign across at most deg factor gaps, so the scan stops once
    more than len(windows) - deg factor gaps show no change."""
    misses = len(windows) - factor.degree
    cells, lo = [], _sign_at(factor.coeffs, cuts[0], k)
    for i, window in enumerate(windows):
        hi = _sign_at(factor.coeffs, cuts[i + 1], k)
        if lo * hi == -1:
            cells.append((i, factor, mult, (cuts[i], cuts[i + 1], k, lo), window))
        else:
            misses -= 1
            if misses < 0:
                return None
        lo = hi
    return cells


def _factor_cells(factors, cuts, windows, k: int) -> list:
    """Each square-free factor's seeded cells, or else its Sturm cells,
    whose gap is None."""
    cells = []
    for factor, mult in factors:
        cells += (_seeded_cells(factor, mult, cuts, windows, k)
                  or [(None, factor, mult, cell, None) for cell in _sturm_cells(factor)])
    return cells


def _refine_cells(cells, distinct: int, index):
    """The roots of the cells, ascending, or with ``index`` the index-th
    alone, refining only its own cell when every gap between the cuts
    holds exactly one (so the cells are in root order)."""
    gaps = [cell[0] for cell in cells]
    if index is not None and set(gaps) == set(range(distinct)):
        cells, index = [cells[gaps.index(index)]], 0
    records = sorted((_refine(*cell[1:], _WIDTH) for cell in cells), key=lambda rec: rec.value)
    return records if index is None else [records[index]]


def real_roots_with_multiplicity(m: SignMatrix, factors, index=None) -> list:
    """Every real root of chi = char_poly(m), once each, with its exact
    multiplicity, or with ``index`` the index-th alone (ascending, 0-based);
    ``factors`` is ``squarefree_decomposition(chi)``.

    The D = sum deg f distinct roots get D + 1 cuts from the Seidel
    spectrum (``_cuts``).  A factor f's cells are those between
    consecutive cuts over which f changes sign: when there are deg f of
    them, each holds one root of f and f has no other (else Sturm chains
    isolate its roots), and when no two factors share a cell, ``index``
    refines only its own.
    """
    if not factors:
        return []
    distinct = sum(f.degree for f, _ in factors)
    cuts = _cuts(_seidel_spectrum(m), sum(f.degree * e for f, e in factors), distinct)
    return _refine_cells(_factor_cells(factors, *cuts), distinct, index)


def chi_and_roots(m: SignMatrix, index=None):
    """(chi, factors, roots): chi = char_poly(m), its square-free
    decomposition and ``real_roots_with_multiplicity(m, factors, index)``,
    with roots [] when ``index`` is not that of a distinct root.

    chi(x) = prod (1 + x lam) over the Seidel spectrum, taken once, and
    chi(0) = 1, so by Gauss's lemma a rational root is -1/q for an integer
    eigenvalue q.  Each q proposed is divided out of chi as often as
    q x + 1 divides it.  The
    primitive cofactor g is certified square-free by its own cells: if its
    exact signs change across deg g of the gaps between the cuts for all
    distinct roots, it has deg g distinct roots, one in each.  Only a g
    with a repeated irrational root (or seeds too far off) fails, and takes
    ``squarefree_decomposition``.  On its cells each factor of chi differs
    from its part in g by linear factors of constant sign, so the records
    are those of ``real_roots_with_multiplicity``, from the same cuts.
    """
    chi = char_poly(m)
    if chi.degree < 1:
        return chi, [], []
    lams = _seidel_spectrum(m)
    # an eigenvalue within 10^-6 of an integer q proposes it: eigvalsh is
    # off by about n eps rho < 10^-12, and the exact division decides
    near = np.rint(lams)
    linear, g = [], list(chi.coeffs)
    for q in sorted(set(near[(near != 0) & (np.abs(lams - near) < 1e-6)].tolist())):
        f = _primitive([1, int(q)])
        g, mu = _divide_out(g, f)
        if mu:
            linear.append((IntPolynomial(tuple(f)), mu))
    g = IntPolynomial(tuple(_primitive(g)))
    parts = [(g, 1)] if g.degree else []
    cuts = _cuts(lams, chi.degree, len(linear) + g.degree)
    cells = _seeded_cells(g, 1, *cuts) if parts else []
    if cells is None:
        parts = squarefree_decomposition(g)
        cuts = _cuts(lams, chi.degree, len(linear) + sum(f.degree for f, _ in parts))
        cells = _factor_cells(parts, *cuts)
    factors = _regroup(linear + parts)
    distinct = sum(f.degree for f, _ in factors)
    if index is not None and not 0 <= index < distinct:
        return chi, factors, []
    return chi, factors, _refine_cells(_factor_cells(linear, *cuts) + cells, distinct, index)
