"""The signed-permutation isometry group of a line sheaf.

Elements are pairs (sigma, nu) of a permutation and a ±1 sign vector
compatible with the ambient sign matrix; they act on the representation
vectors by u_i -> nu_i * u_{sigma(i)}.  G -> S_n has kernel {±id}, so G is
fixed by a stabilizer chain on the base 0..n-1 (Sims 1970): one coset
representative per point of each basic orbit.  The order, the orbits and
2-transitivity on lines and membership come from the chain; the elements
are listed only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import BoundExceededError
from .graph import Permutation, SignMatrix, chain_products, stabilizer_chain
from .quadspace import Representation, isometry_between


@dataclass(frozen=True)
class SignedPermutation:
    sigma: Permutation
    nu: tuple  # entries in {-1, +1}

    def __post_init__(self):
        if len(self.nu) != self.sigma.n:
            raise ValueError("sign vector length must match the permutation")
        if any(v not in (-1, 1) for v in self.nu):
            raise ValueError("signs must be -1 or +1")

    @classmethod
    def identity(cls, n) -> "SignedPermutation":
        return cls(Permutation.identity(n), (1,) * n)

    @classmethod
    def central(cls, n) -> "SignedPermutation":
        return cls(Permutation.identity(n), (-1,) * n)

    @property
    def n(self) -> int:
        return self.sigma.n

    def is_valid(self, m: SignMatrix) -> bool:
        """Sign-compatibility with the ambient matrix, checked on all pairs."""
        if self.n != m.n:
            return False
        for i in range(self.n):
            for j in range(i + 1, self.n):
                si, sj = self.sigma(i), self.sigma(j)
                if self.nu[i] * self.nu[j] * m[si, sj] != m[i, j]:
                    return False
        return True

    def sort_key(self):
        return (self.sigma.images, self.nu)


def compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """Group law: (a * b).sigma = a.sigma after b.sigma, and the signs of a
    are pulled back along b.sigma before multiplying."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    sigma = a.sigma.compose(b.sigma)
    nu = tuple(a.nu[b.sigma(i)] * b.nu[i] for i in range(a.n))
    return SignedPermutation(sigma, nu)


def inverse(a: SignedPermutation) -> SignedPermutation:
    inv = a.sigma.inverse()
    nu = tuple(a.nu[inv(i)] for i in range(a.n))
    return SignedPermutation(inv, nu)


def extend_signs(s: Permutation, m: SignMatrix):
    """The sign vectors making a permutation compatible with the matrix.

    The first sign is pinned to +1, which forces all the others; the
    result is the pair {nu, -nu} when the forced vector checks out on all
    index pairs, and [] otherwise.  Needs at least three vertices.
    """
    n = m.n
    if n < 3:
        raise ValueError("sign extension requires n >= 3")
    if s.n != n:
        raise ValueError("size mismatch")
    nu = [1] * n
    for j in range(1, n):
        nu[j] = m[0, j] * m[s(0), s(j)]
    cand = SignedPermutation(s, tuple(nu))
    if not cand.is_valid(m):
        return []
    return [tuple(nu), tuple(-v for v in nu)]


def _from_bits(sigma, sbits) -> SignedPermutation:
    return SignedPermutation(Permutation(sigma), tuple(-1 if b else 1 for b in sbits))


class SheafGroup:
    """The group of sign-compatible signed permutations of a sign matrix.

    Held either as the coset representatives of a stabilizer chain on the
    base 0..n-1 (``levels``, as returned by ``graph.stabilizer_chain``) or as
    an explicit tuple of elements.  The group always contains ±id, the
    kernel of its map to S_n, so |G| = 2 * n_sigma.
    """

    def __init__(self, ambient: SignMatrix, elements=None, levels=None):
        if (elements is None) == (levels is None):
            raise ValueError("give either the elements or the chain levels")
        self.ambient = ambient
        self.levels = levels
        self._elements = elements

    @property
    def order(self) -> int:
        if self.levels is None:
            return len(self._elements)
        return 2 * math.prod(len(level) for level in self.levels)

    @property
    def n_sigma(self) -> int:
        """Number of distinct underlying permutations."""
        return self.order // 2

    @property
    def generators(self) -> tuple:
        """Elements that generate the group together with -id: the coset
        representatives, or every listed element."""
        if self.levels is None:
            return self._elements
        return tuple(_from_bits(*u) for level in self.levels for u in level)

    @property
    def elements(self) -> tuple:
        """Every element, sorted; built on first use from ± each product of
        coset representatives."""
        if self._elements is None:
            signed = []
            for sigma, sbits in chain_products(self.levels):
                nu = tuple(-1 if b else 1 for b in sbits)
                signed.append((sigma, nu))
                signed.append((sigma, tuple(-v for v in nu)))
            signed.sort()
            self._elements = tuple(
                SignedPermutation(Permutation(sigma), nu) for sigma, nu in signed
            )
        return self._elements

    def __contains__(self, el: SignedPermutation) -> bool:
        if self.levels is None:
            return el in set(self._elements)
        return el.is_valid(self.ambient)


def enumerate_group(m: SignMatrix, naive=False) -> SheafGroup:
    """The sheaf group of the given matrix.

    The default path builds the stabilizer chain, one exhaustive
    first-solution search per candidate coset, without listing the group;
    ``naive=True`` lists every valid (permutation, signs) pair by brute
    force, n! 2^n candidates, and serves as the oracle for the chain up to
    n = 8.
    """
    if m.n < 1:
        raise ValueError("group enumeration requires n >= 1")
    if not naive:
        return SheafGroup(m, levels=stabilizer_chain(m))
    if m.n > 8:
        raise BoundExceededError(f"n={m.n} exceeds the brute-force bound 8")
    elements = [_from_bits(*el) for el in _backend.naive_signed_elements(m.linked_masks())]
    elements.sort(key=SignedPermutation.sort_key)
    return SheafGroup(m, tuple(elements))


# elements realized per batched solve: the k x n x n Gram stack of a chunk
# stays under 1 MB at n = 10 and near 34 MB at n = 64
REALIZE_CHUNK = 1024


def realize_isometries(elements, u: Representation) -> np.ndarray:
    """Matrices of the isometries sending each u_i to nu_i * u_{sigma(i)},
    one per element, as a len(elements) x r x r array.

    The targets of a chunk of REALIZE_CHUNK elements are built by fancy
    indexing and solved with one SVD of u (``isometry_between`` on a
    stack); raises GramMismatchError if an
    element is not an isometry of u, and DeficientSpanError if u is not
    reduced.
    """
    r = u.space.dim
    out = np.empty((len(elements), r, r))
    for start in range(0, len(elements), REALIZE_CHUNK):
        chunk = elements[start:start + REALIZE_CHUNK]
        sigma = np.array([a.sigma.images for a in chunk], dtype=np.intp)
        nu = np.array([a.nu for a in chunk], dtype=float)
        targets = nu[:, :, None] * u.vectors[sigma]
        out[start:start + len(chunk)] = isometry_between(
            u.vectors, targets, u.space, u.space)
    return out


def realize_isometry(a: SignedPermutation, u: Representation) -> np.ndarray:
    """Matrix of the isometry sending each u_i to nu_i * u_{sigma(i)}: the
    one-element case of ``realize_isometries``."""
    return realize_isometries((a,), u)[0]


@dataclass(frozen=True)
class OrbitStructure:
    orbits: tuple  # tuple of sorted tuples of line-class indices
    is_transitive: bool
    is_2_transitive: bool


def orbits_on_lines(grp: SheafGroup) -> OrbitStructure:
    """Orbit partition of the lines, plus transitivity flags.

    The group acts on the lines of its sign matrix through the underlying
    permutations, one vertex per line (callers pass the group of the
    restricted graph).  Union-find over the images of the generators only,
    which -id joins without moving a line.  2-transitivity is decided
    directly: one orbit on ordered pairs of distinct lines.
    """
    m = grp.ambient.n
    actions = [el.sigma.images for el in grp.generators]
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for act in actions:
        for j in range(m):
            a, b = find(j), find(act[j])
            if a != b:
                parent[a] = b
    groups = {}
    for j in range(m):
        groups.setdefault(find(j), []).append(j)
    orbits = tuple(tuple(sorted(v)) for v in sorted(groups.values()))
    transitive = len(orbits) == 1

    two_transitive = False
    if m >= 2 and transitive:
        pair_ids = {(i, j): k for k, (i, j) in enumerate(
            (i, j) for i in range(m) for j in range(m) if i != j
        )}
        pparent = list(range(len(pair_ids)))

        def pfind(x):
            while pparent[x] != x:
                pparent[x] = pparent[pparent[x]]
                x = pparent[x]
            return x

        for act in actions:
            for (i, j), k in pair_ids.items():
                k2 = pair_ids[(act[i], act[j])]
                a, b = pfind(k), pfind(k2)
                if a != b:
                    pparent[a] = b
        two_transitive = len({pfind(k) for k in pair_ids.values()}) == 1

    return OrbitStructure(orbits, transitive, two_transitive)
