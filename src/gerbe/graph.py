"""Graph data model, sign matrices, and the stabilizer chain of graph
isomorphisms that serves both Aut of a graph and the sheaf group.

Vertices are 0-based everywhere inside the library; the 1-based convention
of the file format and the CLI is translated at the parse/print boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend, _kernels_py, config
from .errors import BoundExceededError, ParseError


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset  # frozenset of (i, j) tuples with i < j

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            i, j = e
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n, edges) -> "Graph":
        """Build from an iterable of (i, j) pairs in either order, 0-based."""
        normalized = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return cls(n, normalized)

    def linked(self, i, j) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self) -> list:
        return sorted(self.edges)


class SignMatrix:
    """Symmetric matrix over {-1, +1} with +1 diagonal."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("sign matrix must be square")
        if not np.all(np.abs(a) == 1):
            raise ValueError("entries must be -1 or +1")
        if not np.array_equal(a, a.T):
            raise ValueError("sign matrix must be symmetric")
        if not np.all(np.diag(a) == 1):
            raise ValueError("diagonal must be +1")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def __setattr__(self, name, value):
        raise AttributeError("SignMatrix is immutable")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, ij):
        return int(self.entries[ij])

    def __eq__(self, other):
        return isinstance(other, SignMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())

    def __repr__(self):
        return f"SignMatrix({self.entries.tolist()})"

    def linked_masks(self) -> list:
        """Row bitmasks: bit j of mask i set iff entry (i, j) = -1."""
        return ((self.entries == -1) @ _kernels_py._row_bits(self.n)).tolist()

    def descendant_masks(self) -> np.ndarray:
        """Row bitmasks of the descendants, as an n x n integer array: row b
        holds the masks of the matrix switched so that b is isolated, with
        entries e_bi e_bj e_ij; in bits -1 is 1 and the product an exclusive
        or."""
        a = self.entries == -1
        return (a[:, :, None] ^ a[:, None, :] ^ a) @ _kernels_py._row_bits(self.n)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    images: tuple

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("images do not form a bijection")

    @classmethod
    def identity(cls, n) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, im in enumerate(self.images):
            inv[im] = i
        return Permutation(tuple(inv))


def parse_graph(text: str) -> Graph:
    """Parse the text graph format.

    Lines starting with '#' are comments.  The first significant line is the
    vertex count n, at most ``config.MAX_VERTICES``; every following
    significant line is an edge "i j" with 1-based endpoints.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append(stripped)
    if not lines:
        raise ParseError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"vertex count is not an integer: {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}")
    if n > config.MAX_VERTICES:
        raise BoundExceededError(f"n={n} exceeds the vertex bound {config.MAX_VERTICES}")
    edges = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two vertex indices, got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex index in {line!r}") from None
        if i == j:
            raise ParseError(f"self-loop at vertex {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"vertex index out of range in {line!r} (n={n})")
        e = (min(i, j) - 1, max(i, j) - 1)
        if e in edges:
            raise ParseError(f"duplicate edge {i} {j}")
        edges.add(e)
    return Graph(n, frozenset(edges))


def epsilon_matrix(g: Graph) -> SignMatrix:
    """The graph's sign matrix: -1 exactly at linked pairs, +1 elsewhere."""
    a = np.ones((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        a[i, j] = -1
        a[j, i] = -1
    return SignMatrix(a)


def conjugate_matrix(s: Permutation, m: SignMatrix) -> SignMatrix:
    """Relabel m by s: result[s(i)][s(j)] = m[i][j]."""
    if s.n != m.n:
        raise ValueError(f"size mismatch: permutation on {s.n}, matrix on {m.n}")
    out = np.empty((m.n, m.n), dtype=np.int64)
    out[np.ix_(s.images, s.images)] = m.entries
    return SignMatrix(out)


def stabilizer_chain(src, targets=None) -> list:
    """Coset representatives of a stabilizer chain on the base 0..n-1.

    The group is that of the permutations sigma mapping the graph of the
    row bitmasks ``src`` isomorphically onto targets[sigma(0)], a dict of
    row bitmasks by vertex that holds src at 0; without ``targets`` it is
    Aut of the graph of src.  Level t holds one permutation for each point
    b of the basic orbit Delta_t: it fixes 0..t-1 and sends t to b.  The
    levels are built from t = n-1 down to 0.  At level t the orbit of t is
    closed under the representatives found so far, which generate a
    subgroup of the stabilizer of 0..t-1, and each b outside it costs one
    exhaustive first-solution search (``_backend.signed_stabilizer``) into
    src or, at level 0, into targets[b]; a b that targets leaves out has
    no element.  The identity stands for b = t, and the group order is
    prod |Delta_t|.  The searches share a budget of
    ``config.MAX_SEARCH_NODES`` backtracking nodes; past it the chain
    raises BoundExceededError.
    """
    n = len(src)
    budget = [config.MAX_SEARCH_NODES]
    gens = []
    levels = [None] * n
    for t in reversed(range(n)):
        reps = {t: tuple(range(n))}
        for b in range(t + 1, n):
            dst = src if t or targets is None else targets.get(b)
            if b in reps or dst is None or dst[b].bit_count() != src[t].bit_count():
                continue  # in the orbit already, or no element sends t to b
            found = _backend.signed_stabilizer(
                src, dst, tuple(range(t)) + (b,), first=True, budget=budget)
            if found:
                reps[b] = found[0]
                gens.append(found[0])
                queue = list(reps)
                for p in queue:  # the orbit of t, with a representative per point
                    for g in gens:
                        if g[p] not in reps:
                            reps[g[p]] = tuple(g[x] for x in reps[p])
                            queue.append(g[p])
        levels[t] = list(reps.values())
    return levels


def chain_products(levels):
    """The products u_0 u_1 ... u_{n-1}, one u_t from each level of a
    stabilizer chain, as a k x n integer array of images sorted by rows.
    Each element of the group arises exactly once, so the rows are
    distinct."""
    n = len(levels)
    sigma = np.arange(n)[None]
    for level in reversed(levels):
        # u_t after each product h of the later levels
        sigma = np.array(level)[:, sigma].reshape(-1, n)
    return sigma[np.lexsort(sigma.T[::-1])]


def automorphism_order(g: Graph) -> int:
    """|Aut g|, the product of the basic orbit lengths, without listing."""
    levels = stabilizer_chain(epsilon_matrix(g).linked_masks())
    return math.prod(len(level) for level in levels)


def graph_automorphisms(g: Graph) -> list:
    """All permutations preserving the edge set, sorted by their images:
    the products of the stabilizer chain's coset representatives.  Refuses
    before listing when |Aut g| exceeds ``config.MAX_LISTED_ORDER``."""
    levels = stabilizer_chain(epsilon_matrix(g).linked_masks())
    order = math.prod(len(level) for level in levels)
    if order > config.MAX_LISTED_ORDER:
        raise BoundExceededError(
            f"|Aut| = {order} exceeds the listing bound {config.MAX_LISTED_ORDER}")
    return [Permutation(tuple(s)) for s in chain_products(levels).tolist()]
