"""Reference implementations that the tests check the package against.

These are the direct, per-graph or brute-force forms of what the package
computes another way: the line partition and linking rules at c = ±1 one
vertex pair at a time (the package runs the batched kernels of
``gerbe._kernels_py``), the sheaf group by trying every signed
permutation (the package builds a stabilizer chain), the fraction-free
determinant (the package's chi is multimodular), the signature of
S(omega, c) by counting the signs of its float eigenvalues (the package
takes the degree from chi by the rank law), and the round trips of the
graph format and of the sign matrix, the products of a stabilizer chain
as tuples (the package forms them as arrays), and the JSON text of a
payload by ``json.dumps`` alone (the package renders its arrays itself).
"""

import itertools
import json
from fractions import Fraction

import numpy as np

from gerbe.autgroup import OrbitStructure, SignedPermutation
from gerbe.errors import BoundExceededError
from gerbe.exactpoly import IntPolynomial
from gerbe.graph import Graph, Permutation, SignMatrix
from gerbe.sheaf import LinePartition, LinkingReport


# ---------------------------------------------------------------------------
# line partition and linking rules at c = ±1

def partition_from_sign_matrix(m: SignMatrix, c: int) -> LinePartition:
    """Exact line partition of the reduced representation at (1, c), c = ±1.

    Vertices i and j coincide with sign s iff epsilon_ij * c = s and the
    rows of the sign matrix agree up to the factor s away from i and j.
    """
    if c not in (1, -1):
        raise ValueError("combinatorial partition requires c = ±1")
    n = m.n
    pi = [-1] * n
    sign = [0] * n
    reps = []
    for i in range(n):
        assigned = False
        for j, r in enumerate(reps):
            s = m[r, i] * c
            if all(m[r, k] == s * m[i, k] for k in range(n) if k != r and k != i):
                pi[i] = j
                sign[i] = s
                assigned = True
                break
        if not assigned:
            pi[i] = len(reps)
            sign[i] = 1
            reps.append(i)
    return LinePartition(len(reps), tuple(reps), tuple(pi), tuple(sign))


def _block_link_status(g: Graph, a: list, b: list):
    """'all', 'none' or 'mixed' edge status between two vertex blocks
    (which may be the same block)."""
    statuses = set()
    for x in a:
        for y in b:
            if x == y:
                continue
            statuses.add(g.linked(x, y))
    if not statuses:
        return None
    if statuses == {True}:
        return "all"
    if statuses == {False}:
        return "none"
    return "mixed"


def check_class_linking(g: Graph, p: LinePartition, c: int) -> LinkingReport:
    """Verify the block-linking rules for the partition at parameters (1, c).

    Rule 1: between any two signed blocks, edges are all-or-nothing.
    Rule 2: for distinct classes, same-sign blocks are linked exactly when
            opposite-sign blocks are not.
    Rule 3: within a class, sign blocks are internally linked and mutually
            unlinked for c = -1, and the other way round for c = +1.
    """
    if c not in (1, -1):
        raise ValueError("linking rules apply only at c = ±1")
    failures = []
    blocks = {}
    for j in range(p.m):
        blocks[(j, 1)] = p.plus_block(j)
        blocks[(j, -1)] = p.minus_block(j)

    aon_ok = True
    keys = sorted(blocks, key=lambda k: (k[0], -k[1]))
    status = {}
    for ai in range(len(keys)):
        for bi in range(ai, len(keys)):
            ka, kb = keys[ai], keys[bi]
            st = _block_link_status(g, blocks[ka], blocks[kb])
            status[(ka, kb)] = st
            status[(kb, ka)] = st
            if st == "mixed":
                aon_ok = False
                failures.append(f"mixed edges between blocks {ka} and {kb}")

    def linked(ka, kb):
        return status.get((ka, kb))

    cross_ok = True
    for i in range(p.m):
        for j in range(i + 1, p.m):
            # the four propositions of the cross-class rule; skip the
            # ones involving an empty block
            props = []
            for (sa, sb, want) in ((1, 1, "all"), (1, -1, "none"),
                                   (-1, 1, "none"), (-1, -1, "all")):
                st = linked((i, sa), (j, sb))
                if st in ("all", "none"):
                    props.append(st == want)
            if props and len(set(props)) > 1:
                cross_ok = False
                failures.append(f"inconsistent linking between classes {i} and {j}")

    within_ok = True
    for j in range(p.m):
        same = "none" if c == 1 else "all"
        opposite = "all" if c == 1 else "none"
        for s in (1, -1):
            st = linked((j, s), (j, s))
            if st is not None and st != same:
                within_ok = False
                failures.append(f"within-block rule broken for class {j} sign {s:+d}")
        st = linked((j, 1), (j, -1))
        if st is not None and st != opposite:
            within_ok = False
            failures.append(f"between-sign rule broken for class {j}")

    return LinkingReport(c, aon_ok, cross_ok, within_ok, tuple(failures))


# ---------------------------------------------------------------------------
# the sheaf group by brute force

def naive_isomorphisms(src, dst) -> list:
    """Every permutation sigma with src[i][j] = dst[sigma(i)][sigma(j)],
    for graphs given as row bitmasks, in lexicographic order; the oracle
    for the search kernel."""
    n = len(src)
    return [s for s in itertools.permutations(range(n))
            if all((src[i] >> j & 1) == (dst[s[i]] >> s[j] & 1)
                   for i in range(n) for j in range(n))]


def sign_compatible(sigma, nu, m: SignMatrix) -> bool:
    """nu_i nu_j m[sigma(i), sigma(j)] = m[i, j] on every pair: the loop
    form of SignedPermutation.is_valid."""
    return all(nu[i] * nu[j] * m[sigma[i], sigma[j]] == m[i, j]
               for i in range(m.n) for j in range(i + 1, m.n))


def naive_signed_elements(masks):
    """Brute force over all (sigma, sbits) pairs; the oracle for the
    sheaf group.  Returns every valid pair, both sign choices."""
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


def naive_group_elements(m: SignMatrix) -> tuple:
    """Every element of the sheaf group of m, sorted: every valid
    (permutation, signs) pair, n! 2^n candidates, up to n = 8."""
    if m.n > 8:
        raise BoundExceededError(f"n={m.n} exceeds the brute-force bound 8")
    return tuple(sorted(
        (SignedPermutation(Permutation(sigma), tuple(-1 if b else 1 for b in sbits))
         for sigma, sbits in naive_signed_elements(m.linked_masks())),
        key=SignedPermutation.sort_key))


def naive_orbits(elements, n) -> OrbitStructure:
    """Orbits of the listed elements on 0..n-1 and on ordered pairs of
    distinct points, read off every element's images."""
    orbits = tuple(sorted({tuple(sorted({el.sigma(j) for el in elements}))
                           for j in range(n)}))
    pairs = {(el.sigma(0), el.sigma(1)) for el in elements} if n >= 2 else set()
    return OrbitStructure(orbits, len(orbits) == 1,
                          n >= 2 and len(pairs) == n * (n - 1))


# ---------------------------------------------------------------------------
# the signature of S(omega, c)

def eigenvalue_sign_counts(m: SignMatrix, omega: float, c: float, tol: float) -> tuple:
    """(positive, negative) eigenvalues of S(omega, c) by numpy's eigvalsh,
    an eigenvalue within tol times max(1, spectral radius) counting as 0."""
    s = m.entries * float(c)
    np.fill_diagonal(s, float(omega))
    lams = np.linalg.eigvalsh(s)
    cut = tol * max(1.0, np.abs(lams).max())
    return int(np.sum(lams > cut)), int(np.sum(lams < -cut))


# ---------------------------------------------------------------------------
# exact arithmetic

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
# round trips of the graph format and the sign matrix

def format_graph(g: Graph) -> str:
    """Inverse of parse_graph (1-based output)."""
    out = [str(g.n)]
    for i, j in g.sorted_edges():
        out.append(f"{i + 1} {j + 1}")
    return "\n".join(out) + "\n"


def graph_from_sign_matrix(m: SignMatrix) -> Graph:
    """Inverse of epsilon_matrix."""
    edges = set()
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if m[i, j] == -1:
                edges.add((i, j))
    return Graph(m.n, frozenset(edges))


# ---------------------------------------------------------------------------
# the listing of a stabilizer chain and the JSON output

def chain_products(levels) -> list:
    """The products u_0 u_1 ... u_{n-1}, one u_t from each level, as
    tuples of images, unsorted: each u_t after every product h of the
    later levels."""
    n = len(levels)
    out = [tuple(range(n))]
    for level in reversed(levels):
        out = [tuple(u[j] for j in h) for u in level for h in out]
    return out


def json_text(payload) -> str:
    """The --json text of a payload: json.dumps with every numpy array
    value turned into nested lists."""
    return json.dumps({key: v.tolist() if isinstance(v, np.ndarray) else v
                       for key, v in payload.items()}, indent=2, sort_keys=True)
