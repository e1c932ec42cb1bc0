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

    Held as the coset representatives of a stabilizer chain on the base
    0..n-1 (``levels``, as returned by ``graph.stabilizer_chain``).  The
    group always contains ±id, the kernel of its map to S_n, so
    |G| = 2 * n_sigma.
    """

    def __init__(self, ambient: SignMatrix, levels):
        self.ambient = ambient
        self.levels = levels
        self._elements = None

    @property
    def order(self) -> int:
        return 2 * math.prod(len(level) for level in self.levels)

    @property
    def n_sigma(self) -> int:
        """Number of distinct underlying permutations."""
        return self.order // 2

    @property
    def generators(self) -> tuple:
        """The coset representatives, which generate the group together
        with -id."""
        return tuple(_from_bits(*u) for level in self.levels for u in level)

    @property
    def listing(self):
        """Every element as two 2 n_sigma x n integer arrays (sigma, nu) of
        images and ±1 signs, sorted by (sigma, nu): ± each product of coset
        representatives, the sign vector with nu_0 = -1 first."""
        sigma, sbits = chain_products(self.levels)
        nu = 1 - 2 * sbits
        nu *= -nu[:, :1]
        return np.repeat(sigma, 2, axis=0), np.stack([nu, -nu], axis=1).reshape(-1, self.ambient.n)

    @property
    def elements(self) -> tuple:
        """Every element as a SignedPermutation, in the order of ``listing``;
        built on first use."""
        if self._elements is None:
            self._elements = tuple(
                SignedPermutation(Permutation(tuple(s)), tuple(v))
                for s, v in zip(*(a.tolist() for a in self.listing))
            )
        return self._elements

    def __contains__(self, el: SignedPermutation) -> bool:
        return el.is_valid(self.ambient)


def enumerate_group(m: SignMatrix) -> SheafGroup:
    """The sheaf group of the given matrix: its stabilizer chain, one
    exhaustive first-solution search per candidate coset, without listing
    the group."""
    if m.n < 1:
        raise ValueError("group enumeration requires n >= 1")
    return SheafGroup(m, stabilizer_chain(m))


# elements realized per batched solve: the k x n x n Gram stack of a chunk
# stays under 1 MB at n = 10 and near 34 MB at n = 64
REALIZE_CHUNK = 1024


def realize_isometries(sigma, nu, u: Representation) -> np.ndarray:
    """Matrices of the isometries sending each u_i to nu_i * u_{sigma(i)},
    one per row of the k x n arrays of images ``sigma`` and signs ``nu``
    (``SheafGroup.listing``), as a k x r x r array.

    The targets of a chunk of REALIZE_CHUNK elements are built by fancy
    indexing and solved with one SVD of u (``isometry_between`` on a
    stack); raises GramMismatchError if an
    element is not an isometry of u, and DeficientSpanError if u is not
    reduced.
    """
    r = u.space.dim
    out = np.empty((len(sigma), r, r))
    for start in range(0, len(sigma), REALIZE_CHUNK):
        stop = start + REALIZE_CHUNK
        targets = nu[start:stop, :, None] * u.vectors[sigma[start:stop]]
        out[start:stop] = isometry_between(u.vectors, targets, u.space, u.space)
    return out


def realize_isometry(a: SignedPermutation, u: Representation) -> np.ndarray:
    """Matrix of the isometry sending each u_i to nu_i * u_{sigma(i)}: the
    one-element case of ``realize_isometries``."""
    return realize_isometries(np.array([a.sigma.images]), np.array([a.nu]), u)[0]


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
