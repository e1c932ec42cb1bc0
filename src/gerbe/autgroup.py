"""The signed-permutation isometry group of a line sheaf.

Elements are pairs (sigma, nu) of a permutation and a ±1 sign vector
compatible with the ambient sign matrix, nu nu^T * e[sigma, sigma] = e;
they act on the representation vectors by u_i -> nu_i * u_{sigma(i)}.
G -> S_n has kernel {±id}, and its image is read off the descendants
Gamma_b, the graph switched so that b is isolated: sigma lies in it
exactly when sigma is an isomorphism Gamma_0 -> Gamma_sigma(0), and nu is
then forced up to the central sign (Seidel, *A survey of two-graphs*,
1976).  So G/{±id} is fixed by the
stabilizer chain of these isomorphisms on the base 0..n-1 (Sims 1970): one
coset representative per point of each basic orbit.  The order, the orbits
and 2-transitivity on lines come from the chain; the elements are listed
only on request, as arrays of rows (sigma, nu), and realized as isometry
matrices in batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import SignMatrix, chain_products, stabilizer_chain
from .quadspace import Representation, isometry_between


def forced_signs(sigma, m: SignMatrix) -> np.ndarray:
    """The sign vectors nu_j = e_0j e_sigma(0)sigma(j) of the rows of a k x n
    array of images: with nu_0 = +1 they are the only signs that can make
    each sigma compatible with m, and they do exactly when sigma is in the
    image of G."""
    e = m.entries
    return e[0] * e[sigma[:, :1], sigma]


class SheafGroup:
    """The group of sign-compatible signed permutations of a sign matrix.

    Held as the coset representatives of a stabilizer chain of its image in
    S_n on the base 0..n-1 (``levels``, as returned by
    ``graph.stabilizer_chain``), permutations only: each carries the signs
    of ``forced_signs`` and their negatives.  The group always contains
    ±id, the kernel of its map to S_n, so |G| = 2 * n_sigma.
    """

    def __init__(self, ambient: SignMatrix, levels):
        self.ambient = ambient
        self.levels = levels

    @property
    def order(self) -> int:
        return 2 * math.prod(len(level) for level in self.levels)

    @property
    def n_sigma(self) -> int:
        """Number of distinct underlying permutations."""
        return self.order // 2

    @property
    def listing(self):
        """Every element as two 2 n_sigma x n integer arrays (sigma, nu) of
        images and ±1 signs, sorted by (sigma, nu): ± each product of coset
        representatives, the sign vector with nu_0 = -1 first, so rows 2k
        and 2k + 1 are (sigma, -nu) and (sigma, nu)."""
        sigma = chain_products(self.levels)
        nu = forced_signs(sigma, self.ambient)
        return np.repeat(sigma, 2, axis=0), np.stack([-nu, nu], axis=1).reshape(-1, self.ambient.n)


def enumerate_group(m: SignMatrix) -> SheafGroup:
    """The sheaf group of the given matrix, without listing it: the
    stabilizer chain of the isomorphisms Gamma_0 -> Gamma_b, searched only
    for the descendants Gamma_b whose sorted degree sequence is that of
    Gamma_0."""
    if m.n < 1:
        raise ValueError("group enumeration requires n >= 1")
    masks = m.descendant_masks()
    degrees = np.sort(np.bitwise_count(masks), axis=1)
    matching = np.flatnonzero((degrees == degrees[0]).all(1)).tolist()
    targets = {b: masks[b].tolist() for b in matching}
    return SheafGroup(m, stabilizer_chain(targets[0], targets))


# elements realized per batched solve: the k x n x n Gram stack of a chunk
# stays under 1 MB at n = 10 and near 34 MB at n = 64
REALIZE_CHUNK = 1024


def realize_isometry(sigma, nu, u: Representation) -> np.ndarray:
    """Matrices of the isometries sending each u_i to nu_i * u_{sigma(i)},
    one per row of the k x n arrays of images ``sigma`` and signs ``nu``
    (rows of ``SheafGroup.listing``), as a k x r x r array.  ``gerbe group
    --realize`` passes the nu_0 = +1 row of each pair of the listing and
    takes the other matrix of the pair by negation.

    The targets of a chunk of REALIZE_CHUNK elements are built by fancy
    indexing and solved on the pivot rows of u with one batched
    ``numpy.linalg.solve`` (``isometry_between`` on a stack), so the
    matrices are written in u's pivot frame; raises GramMismatchError if
    an element is not an isometry of u, and DeficientSpanError if u is not
    reduced.
    """
    r = u.space.dim
    out = np.empty((len(sigma), r, r))
    for start in range(0, len(sigma), REALIZE_CHUNK):
        stop = start + REALIZE_CHUNK
        targets = nu[start:stop, :, None] * u.vectors[sigma[start:stop]]
        out[start:stop] = isometry_between(u.vectors, targets, u.space, u.space, u.pivots)
    return out


@dataclass(frozen=True)
class OrbitStructure:
    orbits: tuple  # tuple of sorted tuples of line-class indices
    is_transitive: bool
    is_2_transitive: bool


def orbits_on_lines(grp: SheafGroup) -> OrbitStructure:
    """Orbit partition of the lines, plus transitivity flags.

    The group acts on the lines of its sign matrix through the underlying
    permutations, one vertex per line (callers pass the group of the
    restricted graph), which the coset representatives generate; -id moves
    no line.  Each line takes the least label among its images under the
    representatives, with pointer jumping, until no label changes.  The
    group is 2-transitive when the chain's first two basic orbits are all
    lines and all other lines.
    """
    m = grp.ambient.n
    gens = np.array([u for level in grp.levels for u in level])
    lab = np.arange(m)
    while True:
        new = np.minimum(lab, lab[gens].min(0))
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    orbits = tuple(tuple(np.flatnonzero(lab == r).tolist()) for r in np.unique(lab))
    sizes = [len(level) for level in grp.levels]
    two_transitive = m >= 2 and sizes[0] == m and sizes[1] == m - 1
    return OrbitStructure(orbits, len(orbits) == 1, two_transitive)
