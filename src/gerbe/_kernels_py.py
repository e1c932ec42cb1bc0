"""Compute kernels: the hot loops of the package.

The search for graph isomorphisms takes each graph as row bitmasks: bit
j of mask i is set when the sign-matrix entry (i, j) is -1.  The line
partition at c = ±1 and its linking rules work on batches of graphs, as
boolean adjacency tensors ``A[B, n, n]`` and row bitmasks of up to 64 bits:
``sheaf`` calls them on a batch of one, the exhaustive linking sweep on
chunks of graphs.
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import BoundExceededError

# graphs per chunk of the linking sweep: about 2 MB of tables at n = 7;
# 2^15 takes 14 MB and is no faster, 2^10 is slower by its per-chunk cost
_CHUNK = 1 << 12


def signed_stabilizer(src, dst=None, prefix=(), first=False, budget=None):
    """All permutations sigma, as sorted tuples of images, with src[i][j] =
    dst[sigma(i)][sigma(j)] for all i, j: the isomorphisms from the graph
    of the row bitmasks ``src`` to that of ``dst`` (``src`` itself when
    omitted, which gives its automorphisms).

    Backtracking with forward checking.  Every vertex of src not yet placed
    keeps the mask of the vertices of dst it may still go to: at first
    those of its degree, and of its links to 0..k-1 when the search is one
    of automorphisms whose prefix fixes 0..k-1.  Each node places the vertex
    with the fewest candidates, narrows every other mask to the unused
    vertices whose link to the new image matches, and gives up the branch
    as soon as a mask is empty.  Only maps with sigma[i] = prefix[i] for
    i < len(prefix) are searched; ``first`` stops at the first solution
    found.  ``budget``, a one-element list shared by the searches of one
    chain, holds the nodes left of ``config.MAX_SEARCH_NODES``; each node
    takes one, and the search raises BoundExceededError when none is left.
    """
    n = len(src)
    dst = src if dst is None else dst
    k = 0
    while dst is src and k < len(prefix) and prefix[k] == k:
        k += 1
    fixed = (1 << k) - 1

    def key(row):
        return row.bit_count(), row & fixed

    if any(key(src[p]) != key(dst[prefix[p]]) for p in range(k, len(prefix))):
        return []  # before any node
    classes = {}
    for v in range(k, n):
        classes[key(dst[v])] = classes.get(key(dst[v]), 0) | 1 << v
    cand = {p: classes.get(key(src[p]), 0) for p in range(k, n)}
    cand.update((p, 1 << prefix[p]) for p in range(k, len(prefix)))
    if not all(cand.values()):
        return []
    sigma = list(range(n))
    out = []

    def rec(cand):
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise BoundExceededError("group search passed its budget of "
                                         f"{config.MAX_SEARCH_NODES:,} backtracking "
                                         "nodes (config.MAX_SEARCH_NODES)")
        if not cand:
            out.append(tuple(sigma))
            return first
        p = min(cand, key=lambda q: cand[q].bit_count())
        options = cand.pop(p)
        row = src[p]
        while options:
            bit = options & -options
            options ^= bit
            v = bit.bit_length() - 1
            linked, unlinked = dst[v] & ~bit, ~dst[v] & ~bit
            narrowed = {}
            for q, mask in cand.items():
                mask &= linked if (row >> q) & 1 else unlinked
                if not mask:
                    break
                narrowed[q] = mask
            else:
                sigma[p] = v
                if rec(narrowed):
                    return True
        return False

    rec(cand)
    return sorted(out)


def _batch_graphs(n, start, stop):
    """Adjacency tensors [B, n, n] of the graphs with edge masks
    start..stop-1: bit b of a mask is the b-th pair (i, j), i < j, in
    row-major order."""
    iu, ju = np.triu_indices(n, 1)
    em = np.arange(start, stop, dtype=np.min_scalar_type(stop))
    bits = (em[:, None] >> np.arange(len(iu), dtype=em.dtype)) & 1
    a = np.zeros((len(em), n, n), dtype=bool)
    a[:, iu, ju] = bits
    a[:, ju, iu] = bits
    return a


def _row_bits(n):
    """The bits 1 << k, k < n, in the smallest unsigned dtype holding n
    bits; ``a @ bits`` turns adjacency rows into row bitmasks."""
    return (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))


def _batch_partition(a, cbit):
    """Line partition at c = ±1 of each graph in a batch.

    cbit is 0 for c = +1 and 1 for c = -1.  Returns (rep, sbit), both
    [B, n]: the representative of each vertex, the least r whose row agrees
    with the vertex's row away from the two of them up to the sign bit
    a[r, i] ^ cbit, and that sign bit.  Proportional rows of S(1, c) form an
    equivalence relation, so the least such r is the least vertex of the
    class.
    """
    n = a.shape[1]
    eye = np.eye(n, dtype=bool)
    sb = a ^ (bool(cbit) & ~eye)  # a vertex is its own representative, sign +
    bit = _row_bits(n)
    rows = a @ bit
    away = bit.sum(dtype=bit.dtype) - (bit[:, None] | bit[None, :])  # k not in {r, i}
    diff = (rows[:, :, None] ^ rows[:, None, :]) & away  # [B, r, i]
    match = diff == away * sb
    match &= np.triu(~eye)  # r < i only
    match |= eye
    rep = match.argmax(axis=1)
    sbit = np.take_along_axis(sb, rep[:, None, :], axis=1)[:, 0, :]
    return rep, sbit


def _signed_rows(a, sbit):
    """Rows of t = a ^ s_x ^ s_y, the adjacency switched by the sign bits
    of a partition, as bitmasks [B, n]; with the bits 1 << k and the full
    mask."""
    bit = _row_bits(a.shape[1])
    full = bit.sum(dtype=bit.dtype)
    t = (a @ bit) ^ (sbit @ bit)[:, None] ^ (sbit * full)
    return t, bit, full


def _batch_rules(a, rep, sbit, cbit):
    """Per-graph verdicts (within, across) of the linking rules at c = ±1.

    With t = a ^ s_x ^ s_y, the within-class rule is t[x, y] = cbit for
    x != y in one class, and the cross-class rule is t[x, y] =
    t[rep x, rep y] for x, y in different classes.  As t is symmetric, the
    second is row x of t agreeing with row rep x outside the class of x;
    both are checked on row bitmasks.  Together they imply the
    all-or-nothing rule.
    """
    t, bit, full = _signed_rows(a, sbit)
    cls = (rep[:, :, None] == rep[:, None, :]) @ bit  # the class of x
    within = ~((t ^ (full * cbit)) & cls & ~bit).any(axis=1)
    across = ~((t ^ np.take_along_axis(t, rep, axis=1)) & ~cls).any(axis=1)
    return within, across


def _batch_all_or_nothing(a, rep, sbit):
    """Per-graph verdict of the all-or-nothing rule: between two signed
    blocks (the vertices of one class and one sign), or within one, the
    edges are all present or all absent.

    On t that reads: with b(x) the least vertex of x's block, rows x and
    b(x) of t agree outside the block, and row x is 0 or full inside it
    (away from x).  As t is symmetric, the first makes t constant on every
    pair of distinct blocks.
    """
    t, bit, _ = _signed_rows(a, sbit)
    same = (rep[:, :, None] == rep[:, None, :]) & (sbit[:, :, None] == sbit[:, None, :])
    blk = same @ bit  # the block of x
    outside = (t ^ np.take_along_axis(t, same.argmax(axis=2), axis=1)) & ~blk
    inside = t & blk & ~bit
    return ~outside.any(axis=1) & ((inside == 0) | (inside == (blk & ~bit))).all(axis=1)


def linking_sweep(n, c):
    """Check the linking rules at c = ±1 on every labeled graph on n >= 1
    vertices, a chunk of graphs at a time.

    Returns (graph_count, failure_count).
    """
    if c not in (1, -1):
        raise ValueError("linking rules apply only at c = ±1")
    cbit = 0 if c == 1 else 1
    total = 1 << (n * (n - 1) // 2)
    failures = 0
    for start in range(0, total, _CHUNK):
        a = _batch_graphs(n, start, min(start + _CHUNK, total))
        rep, sbit = _batch_partition(a, cbit)
        within, across = _batch_rules(a, rep, sbit, cbit)
        failures += int(np.count_nonzero(~(within & across)))
    return total, failures
