"""Pure-Python compute kernels.

Hot loops of the package: the search for sign-compatible permutations and
the exhaustive linking sweep over all labeled graphs of a given size.  The
compiled twin in ``_speedups`` implements the same interface, except that
its ``signed_stabilizer`` has only the full search; ``_backend`` selects
one at import time.

Graphs are passed around as row bitmasks: bit j of mask i is set when the
sign-matrix entry (i, j) is -1.  Sign vectors use bits too: bit value 1
stands for the sign -1.
"""

from __future__ import annotations

import itertools


def signed_stabilizer(masks, prefix=(), first=False, signed=True):
    """All pairs (sigma, sbits) with sbits[0] = 0 such that the signs
    (-1)**sbits[i] make sigma compatible with the sign matrix.

    Backtracking over partial injective maps: once two indices are placed
    the remaining sign bits are forced, and every later placement is checked
    against all earlier ones, pruning dead branches immediately.  Only maps
    with sigma[i] = prefix[i] for i < len(prefix) are searched; ``first``
    stops at the first solution; ``signed=False`` pins every sign to +1, so
    the solutions are the automorphisms of the graph the masks describe.
    """
    n = len(masks)
    e = [[(masks[i] >> j) & 1 for j in range(n)] for i in range(n)]
    sigma = [0] * n
    s = [0] * n
    used = [False] * n
    out = []

    def rec(t):
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


def naive_signed_elements(masks):
    """Brute force over all (sigma, sbits) pairs; the oracle for
    signed_stabilizer.  Returns every valid pair, both sign choices."""
    n = len(masks)
    e = [[(masks[i] >> j) & 1 for j in range(n)] for i in range(n)]
    out = []
    for sigma in itertools.permutations(range(n)):
        for bits in range(1 << n):
            s = [(bits >> i) & 1 for i in range(n)]
            ok = True
            for i in range(n - 1):
                si = s[i]
                ei = e[i]
                esi = e[sigma[i]]
                for j in range(i + 1, n):
                    if (si ^ s[j] ^ esi[sigma[j]]) != ei[j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((sigma, tuple(s)))
    return out


def _partition_masks(masks, n, cbit):
    """Line partition at c = ±1 from row bitmasks.

    cbit is 0 for c = +1 and 1 for c = -1.  Returns (reps, pi, sbits).
    """
    full = (1 << n) - 1
    pi = [-1] * n
    sbits = [0] * n
    reps = []
    for i in range(n):
        assigned = False
        for j, r in enumerate(reps):
            sb = ((masks[r] >> i) & 1) ^ cbit  # 0 for +, 1 for -
            rest = full & ~(1 << r) & ~(1 << i)
            diff = (masks[r] ^ masks[i]) & rest
            if (sb == 0 and diff == 0) or (sb == 1 and diff == rest):
                pi[i] = j
                sbits[i] = sb
                assigned = True
                break
        if not assigned:
            pi[i] = len(reps)
            reps.append(i)
    return reps, pi, sbits


def linking_check(masks, n, c) -> bool:
    """Verify the all-or-nothing/cross-class/within-class linking rules for
    one graph at c = ±1.  True when every rule holds."""
    cbit = 0 if c == 1 else 1
    reps, pi, sbits = _partition_masks(masks, n, cbit)
    m = len(reps)
    # signed block bitmasks, indexed 2*j + sbit
    blocks = [0] * (2 * m)
    for i in range(n):
        blocks[2 * pi[i] + sbits[i]] |= 1 << i

    def status(a, b):
        # 2 = all, 0 = none, -1 = mixed, None = no pairs
        seen_all = seen_none = False
        x = a
        while x:
            lo = x & (-x)
            i = lo.bit_length() - 1
            x ^= lo
            bb = b & ~lo
            if bb == 0:
                continue
            v = masks[i] & bb
            if v == bb:
                seen_all = True
            elif v == 0:
                seen_none = True
            else:
                return -1
        if seen_all and seen_none:
            return -1
        if seen_all:
            return 2
        if seen_none:
            return 0
        return None

    stat = {}
    for a in range(2 * m):
        if blocks[a] == 0:
            continue
        for b in range(a, 2 * m):
            if blocks[b] == 0:
                continue
            st = status(blocks[a], blocks[b])
            if st == -1:
                return False
            stat[(a, b)] = st
            stat[(b, a)] = st

    for i in range(m):
        for j in range(i + 1, m):
            props = []
            for (sa, sb, want) in ((0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 1, 2)):
                st = stat.get((2 * i + sa, 2 * j + sb))
                if st is not None:
                    props.append(st == want)
            if props and any(props) and not all(props):
                return False

    same = 0 if c == 1 else 2
    opposite = 2 if c == 1 else 0
    for j in range(m):
        for sb in (0, 1):
            st = stat.get((2 * j + sb, 2 * j + sb))
            if st is not None and st != same:
                return False
        st = stat.get((2 * j, 2 * j + 1))
        if st is not None and st != opposite:
            return False
    return True


def linking_sweep(n, c):
    """Run linking_check over every labeled graph on n vertices.

    Returns (graph_count, failure_count).
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    failures = 0
    total = 1 << npairs
    for em in range(total):
        masks = [0] * n
        for b in range(npairs):
            if (em >> b) & 1:
                i, j = pairs[b]
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        if not linking_check(masks, n, c):
            failures += 1
    return total, failures
