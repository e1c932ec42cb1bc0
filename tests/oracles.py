"""Reference implementations that the tests check the package against.

These are the direct, per-graph or brute-force forms of what the package
computes another way: the line partition and linking rules at c = ±1 one
vertex pair at a time, and again in numpy from the proportional rows of
S(1, c) in integers (the package runs the bitmask kernels of
``gerbe._kernels_py``), the sheaf group by trying every signed
permutation (the package builds a stabilizer chain) and its group law on
(sigma, nu) rows, the fraction-free
determinant (the package's chi is multimodular), the value of a
polynomial by Horner in Fractions (the package only takes the signs of
chi's factors, at dyadic points), the degree of a gcd
modulo a prime (the package's factors come from exact divisions and
Yun's scheme over the integers), the signature of
S(omega, c) by counting the signs of its float eigenvalues (the package
takes the degree from chi by the rank law), and the round trips of the
graph format and of the sign matrix, the graph parser one line at a time
(the package reads the edges as one array), the products of a stabilizer chain
as tuples (the package forms them as arrays), and the JSON, CSV and text
renderings of arrays one entry at a time (the package formats each
distinct magnitude of a block of rows once).
"""

import itertools
import json
from fractions import Fraction

import numpy as np

from gerbe import config
from gerbe.autgroup import OrbitStructure
from gerbe.errors import BoundExceededError, ParseError
from gerbe.exactpoly import IntPolynomial
from gerbe.graph import SignMatrix, epsilon_matrix
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
            s = m.entries[r, i] * c
            if all(m.entries[r, k] == s * m.entries[i, k]
                   for k in range(n) if k != r and k != i):
                pi[i] = j
                sign[i] = s
                assigned = True
                break
        if not assigned:
            pi[i] = len(reps)
            sign[i] = 1
            reps.append(i)
    return LinePartition(np.array([reps[j] for j in pi]), np.array(sign))


def _block_link_status(m: SignMatrix, a: list, b: list):
    """'all', 'none' or 'mixed' edge status between two vertex blocks
    (which may be the same block)."""
    statuses = set()
    for x in a:
        for y in b:
            if x == y:
                continue
            statuses.add(bool(m.entries[x, y] == -1))
    if not statuses:
        return None
    if statuses == {True}:
        return "all"
    if statuses == {False}:
        return "none"
    return "mixed"


def check_class_linking(m: SignMatrix, p: LinePartition, c: int) -> LinkingReport:
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
    rep, sign = np.asarray(p.rep).tolist(), np.asarray(p.sign).tolist()
    reps = sorted(set(rep))
    lines = len(reps)
    blocks = {}
    for j, r in enumerate(reps):
        for s in (1, -1):
            blocks[(j, s)] = [i for i in range(len(rep)) if rep[i] == r and sign[i] == s]

    aon_ok = True
    keys = sorted(blocks, key=lambda k: (k[0], -k[1]))
    status = {}
    for ai in range(len(keys)):
        for bi in range(ai, len(keys)):
            ka, kb = keys[ai], keys[bi]
            st = _block_link_status(m, blocks[ka], blocks[kb])
            status[(ka, kb)] = st
            status[(kb, ka)] = st
            if st == "mixed":
                aon_ok = False
                failures.append(f"mixed edges between blocks {ka} and {kb}")

    def linked(ka, kb):
        return status.get((ka, kb))

    cross_ok = True
    for i in range(lines):
        for j in range(i + 1, lines):
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
    for j in range(lines):
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

    return LinkingReport(aon_ok, cross_ok, within_ok, tuple(failures))


def unit_gram(a, c: int) -> np.ndarray:
    """S(1, c) = I + c(J - I - 2A) in integers for each graph of a batch of
    boolean adjacency arrays a[B, n, n], at c = ±1, where every row is a
    ±1 vector."""
    n = a.shape[1]
    return np.where(np.eye(n, dtype=bool), 1, c * (1 - 2 * a.astype(np.int64)))


def proportional_lines(a, c: int):
    """The line partition at (1, c), c = ±1, of each graph of a batch, from
    the rows of S(1, c) in integers: two ±1 rows of length n are
    proportional exactly when their inner product is ±n (Cauchy-Schwarz).
    Returns (rep, sbit), both [B, n]: the least vertex whose row is ±(the
    row of x), and whether it is minus."""
    s = unit_gram(a, c)
    dots = s @ s.transpose(0, 2, 1)
    rep = (np.abs(dots) == a.shape[1]).argmax(axis=1)
    return rep, np.take_along_axis(dots, rep[:, None, :], axis=1)[:, 0, :] < 0


def proportional_verdicts(a, c: int, rep, sbit):
    """The linking verdicts at c = ±1 of a partition (rep, sbit) of each
    graph of a batch, from S(1, c) in integers: the rules hold exactly
    when s_x S_x = S_rep(x) for every vertex x with sign s_x, and the
    within-class rule exactly when s_x s_y S_xy = 1 for x, y in one class.
    Returns (ok, within), both [B]."""
    s = unit_gram(a, c)
    signs = np.where(sbit, -1, 1)
    ok = (signs[:, :, None] * s == np.take_along_axis(s, rep[:, :, None], axis=1)).all(axis=(1, 2))
    same = rep[:, :, None] == rep[:, None, :]
    signed = signs[:, :, None] * s * signs[:, None, :]
    return ok, ((signed == 1) | ~same).all(axis=(1, 2))


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
    """nu_i nu_j m[sigma(i), sigma(j)] = m[i, j] on every pair: the
    membership test of the sheaf group, one pair at a time."""
    return all(nu[i] * nu[j] * m.entries[sigma[i], sigma[j]] == m.entries[i, j]
               for i in range(m.n) for j in range(i + 1, m.n))


def signed_product(a, b):
    """a after b for (sigma, nu) arrays of rows, broadcast row by row:
    (sigma_a[sigma_b], nu_a[sigma_b] nu_b), the group law of the sheaf
    group."""
    (sa, na), (sb, nb) = a, b
    return np.take_along_axis(sa, sb, -1), np.take_along_axis(na, sb, -1) * nb


def naive_group_elements(m: SignMatrix):
    """Every element of the sheaf group of m as (sigma, nu) arrays sorted by
    (sigma, nu): each of the n! 2^n pairs with nu nu^T * e[sigma, sigma] = e,
    checked 720 permutations at a time, up to n = 8."""
    n = m.n
    if n > 8:
        raise BoundExceededError(f"n={n} exceeds the brute-force bound 8")
    e = m.entries.astype(np.int8)
    perms = np.array(list(itertools.permutations(range(n)))).reshape(-1, n)
    signs = (1 - 2 * (np.arange(1 << n)[:, None] >> np.arange(n) & 1)).astype(np.int8)
    outer = signs[:, :, None] * signs[:, None, :]
    hits = []
    for k in range(0, len(perms), 720):  # a block of 720 x 2^n x n x n int8 stays under 12 MB
        s = perms[k:k + 720]
        ok = (outer * e[s[:, :, None], s[:, None]][:, None] == e).all((2, 3))
        hits.append(np.argwhere(ok) + (k, 0))
    i, j = np.concatenate(hits).T
    sigma, nu = perms[i], signs[j].astype(int)
    order = np.lexsort(np.hstack([sigma, nu]).T[::-1])
    return sigma[order], nu[order]


def naive_orbits(sigma, n) -> OrbitStructure:
    """Orbits of the listed permutations (rows of images) on 0..n-1 and on
    ordered pairs of distinct points."""
    orbits = tuple(sorted({tuple(np.unique(sigma[:, j]).tolist()) for j in range(n)}))
    pairs = {tuple(p) for p in sigma[:, :2].tolist()} if n >= 2 else set()
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


def evaluate(coeffs, x):
    """f(x) in Fraction arithmetic, by Horner, for the ascending coefficients of f."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def reconstruct(factors, lead: Fraction) -> IntPolynomial:
    """prod f_k^{e_k} scaled by lead, multiplied out coefficient by
    coefficient; helper for checking decompositions."""
    prod = [lead]
    for f, e in factors:
        for _ in range(e):
            prod = [sum(prod[j] * f.coeffs[k - j] for j in range(len(prod))
                        if 0 <= k - j < len(f.coeffs)) for k in range(len(prod) + f.degree)]
    if any(c.denominator != 1 for c in prod):
        raise ArithmeticError("reconstruction scale is not integral")
    return IntPolynomial.from_coeffs([c.numerator for c in prod])


def gcd_degree_mod(a, b, q: int) -> int:
    """Degree of gcd(a, b) over GF(q), by Euclid's algorithm; a, b
    ascending integer coefficients.  A gcd of degree 0 modulo a prime that
    divides neither lead is one over the rationals too."""
    def trim(c):
        c = [x % q for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            factor, shift = a[-1] * inv % q, len(a) - len(b)
            a = trim(a[:shift] + [x - factor * y for x, y in zip(a[shift:], b)])
        a, b = b, a
    return len(a) - 1


# ---------------------------------------------------------------------------
# round trips of the graph format and the sign matrix

def edges_of(m: SignMatrix) -> list:
    """Inverse of epsilon_matrix: the sorted pairs i < j with entry -1."""
    return [(i, j) for i in range(m.n) for j in range(i + 1, m.n) if m.entries[i, j] == -1]


def parse_graph_lines(text: str) -> SignMatrix:
    """parse_graph one line at a time: every check on each edge line in
    turn, so the first offending line raises its ParseError."""
    lines = []
    for line in text.removeprefix("\ufeff").splitlines():
        significant = line.partition("#")[0].strip()
        if significant:
            lines.append(significant)
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
    return epsilon_matrix(n, edges)


def format_graph(m: SignMatrix) -> str:
    """Inverse of parse_graph (1-based output)."""
    return "".join([f"{m.n}\n"] + [f"{i + 1} {j + 1}\n" for i, j in edges_of(m)])


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


def csv_text(a) -> str:
    """The CSV text of an array of two or three axes, one entry at a time:
    each row by 17 significant digits on a line, and for a stack a blank
    line after each matrix."""
    if a.ndim == 2:
        return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in a.tolist())
    return "".join(csv_text(mat) + "\n" for mat in a)


def matrices_text(mats) -> str:
    """The text listing of a stack of matrices, one entry at a time: an
    ``isometry k:`` header, then each row indented, by 12 significant
    digits, with -0 printed as 0."""
    return "".join(f"isometry {k}:\n" + "".join(
        "  " + " ".join(f"{x + 0.0:.12g}" for x in row) + "\n" for row in mat)
        for k, mat in enumerate(mats.tolist(), 1))
