"""Graphs as their sign matrices, and the stabilizer chain of graph
isomorphisms that serves both Aut of a graph and the sheaf group.

A graph on n vertices is held as one ``SignMatrix``: epsilon_ij = -1
exactly when i and j are linked, +1 elsewhere and on the diagonal, so the
edges are the -1 entries above the diagonal.  Permutations are integer
arrays of images, one row per permutation.

Vertices are 0-based everywhere inside the library; the 1-based convention
of the file format and the CLI is translated at the parse/print boundary.
"""

from __future__ import annotations

import math

import numpy as np

from . import _backend, _kernels_py, config
from .errors import BoundExceededError, InvariantError, ParseError


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
        _check_diagonal(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def _of_valid(cls, a: np.ndarray) -> "SignMatrix":
        """The sign matrix of an int64 array its builder made valid, unchecked."""
        m = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(m, "entries", a)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("SignMatrix is immutable")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

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


def _check_diagonal(a):
    """Refuse a -1 on the diagonal of a +-1 matrix: its trace is n exactly
    when there is none."""
    if a.trace() != len(a):
        raise ValueError("diagonal must be +1")


def parse_graph(text: str) -> SignMatrix:
    """Parse the text graph format into the graph's sign matrix.

    Lines starting with '#' are comments.  The first significant line is the
    vertex count n, at most ``config.MAX_VERTICES``; every following
    significant line is an edge "i j" with 1-based endpoints.  The edge
    lines are read and checked as one integer array; only when a check
    fails are they read again line by line, so that the error names the
    first offending line.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
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
    edges = lines[1:]
    # each edge line ends in the token ";".  With three tokens a line, every
    # line is a pair exactly when the ";" are the third of each triple, and
    # int refuses any ";" left after those are deleted
    tokens = " ; ".join(edges + [""]).split()
    if len(tokens) == 3 * len(edges):
        del tokens[2::3]
        try:
            ij = np.fromiter(map(int, tokens), np.int64, len(tokens)).reshape(-1, 2) - 1
        except (ValueError, OverflowError):
            pass
        else:
            # in range, and each pair (i, j) and (j, i) once: no self-loop, no duplicate
            i, j = ij.T
            if 0 <= ij.min(initial=0) and ij.max(initial=0) < n and np.bincount(
                    np.concatenate((i * n + j, j * n + i)), minlength=1).max() <= 1:
                return epsilon_matrix(n, ij)
    _raise_first_error(edges, n)


def _raise_first_error(edges, n):
    """Raise the ParseError of the first invalid edge line."""
    seen = set()
    for line in edges:
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
        e = (min(i, j), max(i, j))
        if e in seen:
            raise ParseError(f"duplicate edge {i} {j}")
        seen.add(e)
    raise InvariantError("the edge array was refused, but every edge line is valid")


def epsilon_matrix(n, edges) -> SignMatrix:
    """The sign matrix of the graph on vertices 0..n-1 with these edges,
    pairs (i, j) of distinct vertices in either order: -1 exactly at
    linked pairs, +1 elsewhere.  A vertex outside 0..n-1 is refused, and
    so is a self-loop, as a -1 on the diagonal; the rest is valid by
    construction, so ``SignMatrix`` does not check it again."""
    ij = np.array(edges if isinstance(edges, np.ndarray) else list(edges),
                  dtype=np.intp).reshape(-1, 2)
    if not ((ij >= 0) & (ij < n)).all():
        raise ValueError(f"edge vertex out of range for n={n}")
    a = np.ones((n, n), dtype=np.int64)
    a[ij[:, 0], ij[:, 1]] = a[ij[:, 1], ij[:, 0]] = -1
    _check_diagonal(a)
    return SignMatrix._of_valid(a)


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


def automorphism_order(m: SignMatrix) -> int:
    """|Aut| of the graph of m, the product of the basic orbit lengths,
    without listing."""
    levels = stabilizer_chain(m.linked_masks())
    return math.prod(len(level) for level in levels)


def graph_automorphisms(m: SignMatrix) -> np.ndarray:
    """All permutations preserving the graph of m, as the k x n array of
    their images sorted by rows: the products of the stabilizer chain's
    coset representatives.  Refuses before listing when |Aut| exceeds
    ``config.MAX_LISTED_ORDER``."""
    levels = stabilizer_chain(m.linked_masks())
    order = math.prod(len(level) for level in levels)
    if order > config.MAX_LISTED_ORDER:
        raise BoundExceededError(
            f"|Aut| = {order} exceeds the listing bound {config.MAX_LISTED_ORDER}")
    return chain_products(levels)
