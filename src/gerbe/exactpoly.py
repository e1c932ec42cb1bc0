"""Exact integer polynomial arithmetic.

Provides the characteristic polynomial det(S(1, x)) of a sign matrix as an
exact integer polynomial (Faddeev–LeVerrier), its square-free decomposition
(a gcd modulo a prime, else Yun's scheme), and its real roots with
multiplicities: seeds -1/lam from the Seidel spectrum cut the line into
cells that exact integer signs certify, with Sturm chains as the fallback,
and a rational root is found by testing the points -1/k.  The polynomial
arithmetic is over the integers: by Gauss's lemma a primitive divisor of an
integer polynomial divides it over Z, so Yun's scheme divides exactly by
primitive gcds, and the Sturm chain takes pseudo-remainders.  Fractions
appear only as the rational points where signs are taken.  Everything here
is exact except the float approximation attached to each root.
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
# square-free decomposition

# A repeated factor g^2 of p over the rationals, taken primitive, keeps its
# degree modulo a prime that does not divide lead(p), and there it divides
# both p and p'.  So a unit gcd(p, p') modulo such a prime proves p
# square-free.  When the prime divides lead(p), or the gcd is not a unit,
# Yun's scheme decides.
_GCD_PRIME = 2**61 - 1


def _gcd_degree_mod(a, b, q: int) -> int:
    """Degree of gcd(a, b) over GF(q); a, b ascending integer coefficients."""
    a, b = _trim(c % q for c in a), _trim(c % q for c in b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            factor, shift = a[-1] * inv % q, len(a) - len(b)
            a = _trim(a[:shift] + [(x - factor * y) % q for x, y in zip(a[shift:], b)])
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
            and _gcd_degree_mod(p.coeffs, _deriv(p.coeffs), _GCD_PRIME) == 0):
        return [(IntPolynomial(tuple(_primitive(p.coeffs))), 1)]
    return _yun(p)


def _yun(p: IntPolynomial) -> list:
    """Yun's derivative-gcd scheme over the integers (p of degree >= 1).

    Every gcd is taken primitive, so by Gauss's lemma each division by one
    is exact over Z, and no rational number is ever formed.
    """
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
    """The root of the square-free factor f of chi in the cell (lo, hi),
    whose endpoints are not roots, by bisection that first cuts either side
    of the seed: (exact, None) when it is rational, else (None, (lo, hi))
    narrower than width.  By Gauss's lemma f divides chi over Z, so f(0)
    divides chi(0) = 1, and a rational root of f is -1/k for an integer k:
    the final cell is tested at each such point inside it.  That cell does
    not hold 0, as every root -1/lam of chi has modulus at least 1/(n - 1).
    """
    sign_lo = _sign_at(f.coeffs, lo)
    guesses = []
    if seed is not None:
        delta = _SEED_WINDOW * max(1.0, abs(seed))
        guesses = [Fraction(seed - delta), Fraction(seed + delta)]
    while hi - lo >= width:
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
    for k in range(math.floor(-1 / lo) + 1, math.ceil(-1 / hi)):
        if _sign_at(f.coeffs, Fraction(-1, k)) == 0:
            return Fraction(-1, k), None
    return None, (lo, hi)


def real_roots_with_multiplicity(m: SignMatrix, factors) -> list:
    """Every real root of chi = char_poly(m), once each, with its exact
    multiplicity; ``factors`` is ``squarefree_decomposition(chi)``.

    chi(x) = prod (1 + x lam) over the eigenvalues lam of eps - I, and
    deg chi = rank(eps - I), so the roots are -1/lam for the deg chi
    eigenvalues of largest modulus.  Sorted, these seeds split at their
    D - 1 widest gaps into D = sum deg f clusters, one per distinct root.
    The cuts are the midpoints of those gaps (exact dyadic Fractions) and
    one point beyond each end.  A factor f's cells are those between
    consecutive cuts over which f changes sign: when there are deg f of
    them, each holds one root of f and f has no other; else Sturm chains
    isolate its roots.  Each root is then refined exactly: rational roots
    come out exact, irrational roots with a certified isolating interval
    narrower than ``config.ROOT_INTERVAL_WIDTH`` plus a float approximation.
    """
    if not factors:
        return []
    n = m.n
    lams = np.linalg.eigvalsh(m.entries - np.eye(n))
    degree = sum(f.degree * e for f, e in factors)
    seeds = np.sort(-1 / lams[np.argsort(np.abs(lams))[n - degree:]])
    distinct = sum(f.degree for f, _ in factors)
    splits = np.sort(np.argsort(np.diff(seeds))[degree - distinct:]) + 1
    means = [float(cluster.mean()) for cluster in np.split(seeds, splits)]
    cuts = [Fraction(x) for x in (
        seeds[0] - 1, *((seeds[i - 1] + seeds[i]) / 2 for i in splits), seeds[-1] + 1)]
    width = Fraction(config.ROOT_INTERVAL_WIDTH).limit_denominator(10**18)
    records = []
    for factor, mult in factors:
        signs = [_sign_at(factor.coeffs, x) for x in cuts]
        cells = [(lo, hi, seed) for lo, hi, seed, s, t
                 in zip(cuts, cuts[1:], means, signs, signs[1:]) if s * t == -1]
        if len(cells) != factor.degree:
            cells = _sturm_cells(factor)
        for lo, hi, seed in cells:
            exact, interval = _refine(factor, lo, hi, seed, width)
            value = exact if interval is None else (interval[0] + interval[1]) / 2
            records.append(
                RootRecord(float(value), mult, exact=exact, interval=interval)
            )
    records.sort(key=lambda rec: rec.value)
    return records
