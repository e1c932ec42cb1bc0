"""Compute kernels: the hot loops of the package.

The search for graph isomorphisms takes each graph as row bitmasks: bit
j of mask i is set when the sign-matrix entry (i, j) is -1.  The line
partition at c = ±1 and its linking rules take a batch of graphs as row
bitmasks laid out rows[n, B], batch axis last, in the smallest unsigned
dtype holding n bits; they compare the rows of the pairs r < i.  ``sheaf``
calls them on a batch of one, the exhaustive linking sweep on chunks.
"""

from __future__ import annotations

import functools

import numpy as np

from . import config
from .errors import BoundExceededError

# graphs per chunk of the linking sweep: its largest table, the n x n x B
# uint8 square of the partition, takes 200 kB at n = 7 and stays in cache;
# 2^13 and up are slower, and 2^11 and down slower by the per-chunk cost
_CHUNK = 1 << 12


def signed_stabilizer(src, dst, t, b, budget):
    """The first isomorphism sigma found from the graph of the row bitmasks
    ``src`` to that of ``dst`` (src[i][j] = dst[sigma(i)][sigma(j)] for all
    i, j) that fixes 0..t-1 and sends t to b, as [sigma] with sigma a tuple
    of images, or [] when there is none.  At t > 0, ``dst`` is ``src``.

    Backtracking with forward checking.  Every vertex of src not yet placed
    keeps the mask of the vertices of dst it may still go to: at first
    those of its degree and of its links to the fixed 0..t-1, t itself only
    b.  Each node places the vertex with the fewest candidates, narrows
    every other mask to the unused vertices whose link to the new image
    matches, and gives up the branch as soon as a mask is empty.
    ``budget``, a one-element list shared by the searches of one chain,
    holds the nodes left of ``config.MAX_SEARCH_NODES``; each node takes
    one, and the search raises BoundExceededError when none is left.
    """
    n = len(src)
    fixed = (1 << t) - 1

    def key(row):
        return row.bit_count(), row & fixed

    if key(src[t]) != key(dst[b]):
        return []  # before any node
    classes = {}
    for v in range(t, n):
        classes[key(dst[v])] = classes.get(key(dst[v]), 0) | 1 << v
    cand = {p: classes.get(key(src[p]), 0) for p in range(t, n)}
    cand[t] = 1 << b
    if not all(cand.values()):
        return []
    sigma = list(range(n))

    def rec(cand):
        budget[0] -= 1
        if budget[0] < 0:
            raise BoundExceededError("group search passed its budget of "
                                     f"{config.MAX_SEARCH_NODES:,} backtracking "
                                     "nodes (config.MAX_SEARCH_NODES)")
        if not cand:
            return [tuple(sigma)]
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
                found = rec(narrowed)
                if found:
                    return found
        return []

    return rec(cand)


@functools.cache
def _row_bits(n):
    """The bits 1 << k, k < n, read-only, in the row dtype: the smallest
    unsigned one holding n bits.  ``a @ bits`` packs adjacency rows."""
    bits = (1 << np.arange(n)).astype(np.min_scalar_type((1 << n) - 1))
    bits.flags.writeable = False
    return bits


@functools.cache
def _pairs(n):
    """The pairs r < i by i, then r: read-only rows r, i, (bits r, i) in the row dtype."""
    i, r = np.tril_indices(n, -1)
    pairs = np.array((r, i, (1 << r) | (1 << i)), dtype=_row_bits(n).dtype)
    pairs.flags.writeable = False
    return pairs


def _edge_rows(n, start, stop):
    """Row bitmasks [n, B] of the graphs with edge masks start..stop-1,
    bit k of a mask the k-th pair r < i in row-major order.  Row r's bits
    i > r are n-1-r consecutive bits of the mask, shifted into place at
    once; its bits i < r are the transpose of those."""
    em = np.arange(start, stop, dtype=np.min_scalar_type((1 << n * (n - 1) // 2) - 1))[None]
    v = np.arange(n, dtype=em.dtype)[:, None]
    first = v * (2 * n - 1 - v) // 2  # the index of the pair (v, v+1)
    upper = (((em >> first) & ((1 << (n - 1 - v)) - 1)) << (v + 1)).astype(_row_bits(n).dtype)
    v = v.astype(upper.dtype)
    return upper | (((upper >> v[:, None]) & 1) << v).sum(axis=1, dtype=upper.dtype)


def _batch_partition(rows, cbit):
    """Line partition at c = ±1 (cbit 0 or 1) of each graph of a batch.

    Returns (rep, sbit), both [n, B] uint8: for each vertex i, the least r
    whose row agrees with row i away from r and i up to the sign bit
    a[r, i] ^ cbit, and that bit, or i itself, sign +: as proportional rows
    of S(1, c) are an equivalence, the least vertex of i's class.  Bits r
    and i of rows[r] ^ rows[i] both hold a[r, i], so xor with a[r, i] * full
    clears them and must leave cbit elsewhere.
    """
    n, b = rows.shape
    r, i, ends = _pairs(n)
    full = (1 << n) - 1
    row = rows.take(r, axis=0)
    e = (row >> i[:, None]) & 1
    match = row ^ rows.take(i, axis=0) ^ e * full == (cbit * (full ^ ends))[:, None]
    # the least code, 2r + sign for a match r or else 2i, is a minimum along r
    square = np.empty((n, n, b), np.uint8)
    square[...] = 2 * np.arange(n, dtype=np.uint8)[:, None, None]
    square[i, r] = (i << 1)[:, None] - match * (((i - r) << 1)[:, None] - (e ^ cbit))
    code = square.min(axis=1)
    return code >> 1, code & 1


def _switched(rows, rep, sbit):
    """What the rules read off a partition (rep, sbit): the rows t[n, B]
    of a ^ s_x ^ s_y, zero on the diagonal; the class masks cls[n, B]; and
    for each pair r < i of ``_pairs``, t[r] ^ t[i] and whether r ~ i."""
    n = len(rows)
    r, i, _ = _pairs(n)
    bit = _row_bits(n)[:, None]
    s = sbit.astype(rows.dtype)
    t = rows ^ (s * bit).sum(axis=0, dtype=s.dtype) ^ s * ((1 << n) - 1)
    cls = ((rep[:, None] == rep) * bit).sum(axis=1, dtype=s.dtype)
    diff = t.take(r, axis=0) ^ t.take(i, axis=0)
    return t, cls, diff, rep.take(r, axis=0) == rep.take(i, axis=0)


def _batch_rules(switched, cbit):
    """Per-graph verdicts (within, across) of the linking rules at c = ±1:
    within a class t[x, y] = cbit, and across classes t[x, y] =
    t[rep x, rep y], so, as t is symmetric, the rows of two vertices of one
    class agree outside it.  Together they imply the all-or-nothing rule."""
    t, cls, diff, same = switched
    within = ~((t ^ cbit * ((1 << len(t)) - 1)) & cls & ~_row_bits(len(t))[:, None]).any(axis=0)
    return within, ~((diff & ~cls.take(_pairs(len(t))[1], axis=0)).astype(bool) & same).any(axis=0)


def _batch_all_or_nothing(switched, sbit):
    """Per-graph verdict of the all-or-nothing rule: between two signed
    blocks (the vertices of one class and one sign), or within one, the
    edges are all present or all absent.  On the symmetric t that is: the
    rows of any two vertices x, y of one block agree away from x and y."""
    t, _, diff, same = switched
    r, i, ends = _pairs(len(t))
    block = same & (sbit.take(r, axis=0) == sbit.take(i, axis=0))
    return ~((diff & ~ends[:, None]).astype(bool) & block).any(axis=0)


def linking_sweep(n, c):
    """Check the linking rules at c = ±1 on every labeled graph on n >= 1
    vertices, a chunk at a time; returns (graph_count, failure_count)."""
    if c not in (1, -1):
        raise ValueError("linking rules apply only at c = ±1")
    cbit = 0 if c == 1 else 1
    total = 1 << (n * (n - 1) // 2)
    failures = 0
    for start in range(0, total, _CHUNK):
        rows = _edge_rows(n, start, min(start + _CHUNK, total))
        within, across = _batch_rules(_switched(rows, *_batch_partition(rows, cbit)), cbit)
        failures += int(np.count_nonzero(~(within & across)))
    return total, failures
