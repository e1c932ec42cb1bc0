"""Exact integer polynomial arithmetic.

Provides the characteristic polynomial det(S(1, x)) of a sign matrix as an
exact integer polynomial (Faddeev–LeVerrier), its square-free decomposition
(a gcd modulo a prime, else Yun's scheme), and its real roots with
multiplicities: float seeds cut the line into cells that exact integer signs
certify, with Sturm chains as the fallback.  Everything here is exact except
the float approximation attached to each root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import InvariantError
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

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial.from_coeffs(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial.from_coeffs([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial.from_coeffs(out)

    __rmul__ = __mul__

    def __neg__(self):
        return IntPolynomial.from_coeffs([-c for c in self.coeffs])

    def __pow__(self, e: int):
        result = IntPolynomial((1,))
        for _ in range(e):
            result = result * self
        return result

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
# exact determinant and char_poly

def bareiss_determinant(rows) -> int:
    """Fraction-free determinant of an integer matrix."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly(m: SignMatrix) -> IntPolynomial:
    """det(S(1, x)) as an exact integer polynomial.

    S(1, x) = I + x·A with A = ε − I the Seidel matrix, so χ is the
    characteristic polynomial of −A with its coefficients reversed.
    Faddeev–LeVerrier builds it over the integers, one matrix product per
    degree; each of its divisions by k must come out exact.
    """
    n = m.n
    minus_a = (np.eye(n, dtype=np.int64) - m.entries).astype(object)
    ident = np.eye(n, dtype=np.int64).astype(object)
    coeffs = [1]
    mk = ident
    for k in range(1, n + 1):
        prod = minus_a @ mk
        c, r = divmod(-int(prod.trace()), k)
        if r:
            raise InvariantError(f"Faddeev-LeVerrier trace is not divisible by {k}")
        coeffs.append(c)
        mk = prod + c * ident
    return IntPolynomial.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# rational-coefficient helpers (internal)

def _fpoly(p: IntPolynomial) -> list:
    return [Fraction(c) for c in p.coeffs]


def _ftrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _fsub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _ftrim(out)


def _fderiv(a):
    return _ftrim([k * c for k, c in enumerate(a)][1:])


def _fdivmod(a, b):
    """Polynomial division over the rationals."""
    a = list(a)
    if not _ftrim(b):
        raise ZeroDivisionError("polynomial division by zero")
    b = _ftrim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _ftrim(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = _ftrim(r)
    return _ftrim(q), r


def _fdiv_exact(a, b):
    q, r = _fdivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _fgcd(a, b):
    """Monic gcd over the rationals."""
    a, b = _ftrim(a), _ftrim(b)
    while b:
        _, r = _fdivmod(a, b)
        a, b = b, r
    if not a:
        return a
    lead = a[-1]
    return [c / lead for c in a]


def _primitive(fracs) -> IntPolynomial:
    """Primitive integer polynomial with positive lead, proportional to input."""
    fracs = _ftrim(fracs)
    if not fracs:
        return IntPolynomial(())
    denom = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * denom) for c in fracs]
    g = math.gcd(*(abs(c) for c in ints))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(tuple(ints))


# ---------------------------------------------------------------------------
# square-free decomposition

# A repeated factor g^2 of p over the rationals, taken primitive, keeps its
# degree modulo a prime that does not divide lead(p), and there it divides
# both p and p'.  So a unit gcd(p, p') modulo such a prime proves p
# square-free.  When the prime divides lead(p), or the gcd is not a unit,
# Yun's scheme decides.
_GCD_PRIME = 2**61 - 1


def _gcd_degree_mod(a, b, q: int) -> int:
    """Degree of gcd(a, b) over GF(q); a, b ascending integer coefficients."""
    a, b = _ftrim(c % q for c in a), _ftrim(c % q for c in b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            factor, shift = a[-1] * inv % q, len(a) - len(b)
            a = _ftrim(a[:shift] + [(x - factor * y) % q for x, y in zip(a[shift:], b)])
        a, b = b, a
    return len(a) - 1


def squarefree_decomposition(p: IntPolynomial) -> list:
    """Write p as lead * prod f_k^{e_k} with the f_k square-free and coprime.

    Returns the list of (factor, exponent) pairs with each factor primitive
    and of positive leading coefficient; constant content is not included.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no square-free decomposition")
    if p.degree == 0:
        return []
    if (p.coeffs[-1] % _GCD_PRIME
            and _gcd_degree_mod(p.coeffs, p.derivative().coeffs, _GCD_PRIME) == 0):
        return [(_primitive(p.coeffs), 1)]
    return _yun(p)


def _yun(p: IntPolynomial) -> list:
    """Yun's derivative-gcd scheme over the rationals (p of degree >= 1)."""
    f = _fpoly(p)
    fp = _fderiv(f)
    a = _fgcd(f, fp)
    if len(a) <= 1:
        return [(_primitive(f), 1)]
    b = _fdiv_exact(f, a)
    c = _fdiv_exact(fp, a)
    d = _fsub(c, _fderiv(b))
    out = []
    i = 1
    while len(b) > 1:
        g = _fgcd(b, d)
        if len(g) > 1:
            out.append((_primitive(g), i))
        b = _fdiv_exact(b, g)
        c = _fdiv_exact(d, g)
        d = _fsub(c, _fderiv(b))
        i += 1
    return out


def reconstruct(factors, lead: Fraction) -> IntPolynomial:
    """prod f_k^{e_k} scaled by lead; helper for checking decompositions."""
    prod = IntPolynomial((1,))
    for f, e in factors:
        prod = prod * (f ** e)
    scaled = [lead * c for c in prod.coeffs]
    if any(s.denominator != 1 for s in scaled):
        raise ArithmeticError("reconstruction scale is not integral")
    return IntPolynomial.from_coeffs([s.numerator for s in scaled])


# ---------------------------------------------------------------------------
# real roots

# Half-width of the first cuts around a float seed, relative to max(1, |seed|).
_SEED_WINDOW = 2.0**-32


def _sign_at(coeffs, x: Fraction) -> int:
    """Sign of the integer polynomial with these coefficients at rational x,
    evaluated in integers as its homogenization at (numerator, denominator)."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _root_bound(f: IntPolynomial) -> int:
    """An integer beyond the modulus of every complex root (Cauchy)."""
    return 2 + max(abs(c) for c in f.coeffs[:-1]) // abs(f.coeffs[-1])


def _seeded_cells(f: IntPolynomial):
    """One cell (lo, hi, seed) per real root of the square-free f, or None.

    The cuts are ± the root bound and the float midpoints (exact dyadic
    Fractions) between the sorted real parts of ``numpy.roots``.  When the
    exact signs of f alternate over these d + 1 nondecreasing cuts, each of
    the d cells holds a root, and f has no more.  Complex or clustered seeds
    fail the test.
    """
    seeds = np.sort(np.roots([float(c) for c in reversed(f.coeffs)]).real)
    bound = _root_bound(f)
    cuts = [Fraction(-bound)]
    cuts += [Fraction((a + b) / 2) for a, b in zip(seeds, seeds[1:])]
    cuts.append(Fraction(bound))
    signs = [_sign_at(f.coeffs, x) for x in cuts]
    if any(s * t != -1 for s, t in zip(signs, signs[1:])):
        return None
    return [(lo, hi, float(seed)) for lo, hi, seed in zip(cuts, cuts[1:], seeds)]


def _sturm_chain(f: IntPolynomial) -> list:
    """Sturm sequence of f, each member scaled by a positive rational to a
    primitive integer polynomial, which keeps its signs and its size small."""
    chain = [list(f.coeffs)]
    r = _fderiv(_fpoly(f))
    while r:
        g = list(_primitive(r).coeffs)
        chain.append(g if r[-1] > 0 else [-c for c in g])
        a, b = ([Fraction(c) for c in poly] for poly in chain[-2:])
        _, rem = _fdivmod(a, b)
        r = [-c for c in rem]
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign_at(poly, x) for poly in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_cells(f: IntPolynomial) -> list:
    """One cell (lo, hi, None) per real root of the square-free f, by
    Sturm counts over bisections of the root bound's interval.  Split
    points that hit a root are moved, so no cell endpoint is a root."""
    chain = _sturm_chain(f)
    bound = _root_bound(f)
    stack = [(Fraction(-bound), Fraction(bound))]
    cells = []
    while stack:
        lo, hi = stack.pop()
        count = _sign_variations(chain, lo) - _sign_variations(chain, hi)
        if count == 1:
            cells.append((lo, hi, None))
        elif count > 1:
            mid = (lo + hi) / 2
            while _sign_at(f.coeffs, mid) == 0:
                mid = (lo + mid) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    return cells


def _refine(f: IntPolynomial, lo: Fraction, hi: Fraction, seed, width: Fraction):
    """The root of the square-free f in the cell (lo, hi), whose endpoints
    are not roots, by bisection that first cuts either side of the seed:
    (exact, None) when it is rational, else (None, (lo, hi)) narrower than
    width.  A rational root's denominator divides L = |lead f|, and such
    rationals lie 1/L^2 apart, so below width 1/(2 L^2) the midpoint's
    ``limit_denominator(L)`` is the only candidate.
    """
    lead = abs(f.coeffs[-1])
    fine = min(width, Fraction(1, 2 * lead * lead))
    sign_lo = _sign_at(f.coeffs, lo)
    guesses = []
    if seed is not None:
        delta = _SEED_WINDOW * max(1.0, abs(seed))
        guesses = [Fraction(seed - delta), Fraction(seed + delta)]
    while hi - lo >= fine:
        x = guesses.pop() if guesses else (lo + hi) / 2
        if not lo < x < hi:
            continue
        s = _sign_at(f.coeffs, x)
        if s == 0:
            return x, None
        if s == sign_lo:
            lo = x
        else:
            hi = x
    cand = ((lo + hi) / 2).limit_denominator(lead)
    if lo < cand < hi and _sign_at(f.coeffs, cand) == 0:
        return cand, None
    return None, (lo, hi)


def real_roots_with_multiplicity(p: IntPolynomial, factors=None) -> list:
    """Every real root of p, once each, with its exact multiplicity.

    Each square-free factor's roots are isolated from float seeds, or by
    Sturm chains when the seeds do not certify, then refined exactly:
    rational roots come out exact, irrational roots with a certified
    isolating interval narrower than ``config.ROOT_INTERVAL_WIDTH`` plus a
    float approximation.  ``factors``, when given, must be
    ``squarefree_decomposition(p)``; it saves computing it again.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    width = Fraction(config.ROOT_INTERVAL_WIDTH).limit_denominator(10**18)
    records = []
    if factors is None:
        factors = squarefree_decomposition(p)
    for factor, mult in factors:
        for lo, hi, seed in _seeded_cells(factor) or _sturm_cells(factor):
            exact, interval = _refine(factor, lo, hi, seed, width)
            value = exact if interval is None else (interval[0] + interval[1]) / 2
            records.append(
                RootRecord(float(value), mult, exact=exact, interval=interval)
            )
    records.sort(key=lambda rec: rec.value)
    return records
