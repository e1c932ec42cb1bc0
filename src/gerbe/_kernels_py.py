"""Compute kernels: the hot loops of the package.

The search for sign-compatible permutations takes a graph as row
bitmasks: bit j of mask i is set when the sign-matrix entry (i, j) is -1.
Sign vectors use bits too: bit value 1 stands for the sign -1.  The line
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


def signed_stabilizer(masks, prefix=(), first=False, signed=True, budget=None):
    """All pairs (sigma, sbits) with sbits[0] = 0 such that the signs
    (-1)**sbits[i] make sigma compatible with the sign matrix.

    Backtracking over partial injective maps: once two indices are placed
    the remaining sign bits are forced, and every later placement is checked
    against all earlier ones, pruning dead branches immediately.  Only maps
    with sigma[i] = prefix[i] for i < len(prefix) are searched; ``first``
    stops at the first solution; ``signed=False`` pins every sign to +1, so
    the solutions are the automorphisms of the graph the masks describe.
    ``budget``, a one-element list shared by the searches of one chain, holds
    the nodes left of ``config.MAX_SEARCH_NODES``; each node takes one, and
    the search raises BoundExceededError when none is left.
    """
    n = len(masks)
    e = [[(masks[i] >> j) & 1 for j in range(n)] for i in range(n)]
    sigma = [0] * n
    s = [0] * n
    used = [False] * n
    out = []

    def rec(t):
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise BoundExceededError("group search passed its budget of "
                                         f"{config.MAX_SEARCH_NODES:,} backtracking "
                                         "nodes (config.MAX_SEARCH_NODES)")
        if t == n:
            out.append((tuple(sigma), tuple(s)))
            return first
        for cand in (prefix[t],) if t < len(prefix) else range(n):
            if used[cand]:
                continue
            if t > 0:
                st = e[0][t] ^ e[sigma[0]][cand]
                if st and not signed:
                    continue
                ok = True
                for i in range(1, t):
                    if (s[i] ^ st ^ e[sigma[i]][cand]) != e[i][t]:
                        ok = False
                        break
                if not ok:
                    continue
                s[t] = st
            sigma[t] = cand
            used[cand] = True
            done = rec(t + 1)
            used[cand] = False
            if done:
                return True
        return False

    rec(0)
    return out


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
