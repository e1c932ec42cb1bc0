"""Numeric quadratic-space machinery.

Gram factorization of a symmetric matrix of given rank into a diagonal ±1
form, held as its tuple of signs (the rank law fixes the rank exactly;
``rank``, under RANK_TOL, serves where no exact rank is known),
representations of graphs, each given by its sign matrix, at parameters
(omega, c), and the isometries of a representation that signed
permutations of its vectors induce.

The factorization is a symmetric LDL^T that pivots on vertices (Bunch &
Parlett 1971; Golub & Van Loan, *Matrix Computations*, §4.4), so the
vectors are written in the frame of their pivot rows, fixed by (Gamma,
omega, c) and continuous in c away from a change of pivot.  Isometry
recovery checks each signed permutation against the sign matrix in
integers and then solves on those pivot rows (``numpy.linalg.solve``).
Only ``rank`` takes an eigendecomposition (LAPACK's ``numpy.linalg.eigh``).
The lines and the sheaf group need no representation: they come from the
sign matrix.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .errors import GramMismatchError, InputError
from .graph import SignMatrix


def jacobi_eigh(s):
    """Eigendecomposition of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Returns (eigenvalues, Q) with eigenvalues ascending and the columns of Q
    orthonormal eigenvectors.  Eigenvalues outside the range of a float are
    an InputError: the entries came from the caller's omega and c.
    """
    a = np.array(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0):
        raise ValueError("matrix must be symmetric")
    evals, q = np.linalg.eigh(a)
    if not np.isfinite(evals).all():
        raise InputError("the eigenvalues of the matrix overflow the range of a float")
    return evals, q


def build_S(m: SignMatrix, omega: float, c: float) -> np.ndarray:
    """Symmetric matrix with diagonal omega and (i,j) entry epsilon_ij * c."""
    s = m.entries.astype(float) * float(c)
    np.fill_diagonal(s, float(omega))
    return s


def rank(s) -> int:
    """Numeric rank: eigenvalues above RANK_TOL relative to the spectral radius."""
    evals, _ = jacobi_eigh(s)
    thr = config.RANK_TOL * max(1.0, float(np.abs(evals).max(initial=0.0)))
    return int(np.sum(np.abs(evals) > thr))


# Bunch and Parlett's constant: a 1 x 1 pivot at least ALPHA times the
# largest off-diagonal entry of the Schur complement bounds its growth as
# well as a 2 x 2 block would
ALPHA = (1 + 17 ** 0.5) / 8


def gram_factorize(s, rank: int):
    """Realize a symmetric matrix of the given rank as the Gram matrix of
    the rows of an n x rank array in a diagonal ±1 form; returns (signs,
    vectors, pivots), the form as a tuple of ±1.

    A symmetric LDL^T with diagonal pivoting, run on the Schur complement
    a in place for exactly ``rank`` columns.  Each step takes the vertex p
    of largest |a_pp|, the lowest on ties, as a 1 x 1 pivot: the column
    a[:, p] / sqrt|a_pp| with the sign of a_pp.  Where |a_pp| is below
    ALPHA times the largest off-diagonal |a_ij| it takes the first such
    pair (i, j) as a 2 x 2 block instead, diagonalized to one positive and
    one negative column (an indefinite block: a_ii a_jj < a_ij^2).  The
    last column is always a 1 x 1 pivot: a Schur complement of rank one
    has its largest entry on its diagonal.  The pivot rows and columns of a
    are then set to 0, so the pivot rows of the vectors are block
    lower-triangular in pivot order.  Columns come positive first, each
    sign in pivot order; pivots[k] is the vertex of column k, a block
    naming its lower vertex at its positive column.

    The row sums of |s| bound its spectrum: where they overflow the range
    of a float the matrix is refused as an InputError, since its entries
    came from the caller's omega and c.  Otherwise a starts as s times the
    power 2^-2e that brings the row sums below 1, so no step overflows
    (each column grows the largest entry of a by a factor of at most
    1 + 1/ALPHA), and the vectors come back times 2^e; both scalings are
    exact, so they change no pivot decision.  A zero pivot before ``rank``
    columns means the rank was wrong, a ValueError.
    """
    a = np.array(s, dtype=float)
    n = len(a)
    with np.errstate(over="ignore"):
        bound = np.abs(a).sum(axis=1).max(initial=0.0)
    if not np.isfinite(bound):
        raise InputError("the eigenvalues of the matrix overflow the range of a float")
    scale = math.frexp(bound)[1]
    scale += scale % 2
    a = np.ldexp(a, -scale)  # row sums below 1: no Schur complement overflows
    columns = np.empty((rank, n))
    signs = np.empty(rank, dtype=int)
    pivots = np.empty(rank, dtype=np.intp)
    mags = np.empty_like(a)
    diag = mags.reshape(-1)[::n + 1]
    k = 0
    while k < rank:
        np.abs(a, out=mags)
        p, q = divmod(int(mags.argmax()), n)  # the first largest entry
        if p != q:  # off the diagonal: the largest diagonal entry decides
            d = int(diag.argmax())
            if rank - k == 1 or diag[d] >= ALPHA * mags[p, q]:
                p = q = d
        if mags[p, q] == 0:
            raise ValueError(f"matrix has rank below {rank}")
        if p == q:
            col = a[p] / math.sqrt(mags[p, p])
            sign = 1 if a[p, p] > 0 else -1
            a -= np.multiply.outer(col, col if sign > 0 else -col)
            a[p] = 0
            a[:, p] = 0
            columns[k], signs[k], pivots[k] = col, sign, p
            k += 1
        else:  # the 2 x 2 block's eigenvalues m ± r, eigenvectors (g, y), (-y, g)
            x, y, z = a[p, p], a[p, q], a[q, q]
            h, m = (x - z) / 2, (x + z) / 2
            r = math.hypot(h, y)
            g = h + r  # at least (1 - ALPHA)|y|: no cancellation
            norm = math.hypot(g, y)
            rot = np.array([[g, y], [-y, g]]) / norm / np.sqrt([[m + r], [r - m]])
            cols = rot @ a[[p, q]]
            a -= cols.T @ (cols * [[1], [-1]])
            a[[p, q]] = 0
            a[:, [p, q]] = 0
            columns[k:k + 2], signs[k:k + 2], pivots[k:k + 2] = cols, (1, -1), (p, q)
            k += 2
    order = np.argsort(-signs, kind="stable")
    return tuple(signs[order].tolist()), np.ldexp(columns[order].T, scale // 2), pivots[order]


class Representation:
    """Vectors u_1..u_n realizing a graph, given as its sign matrix, at
    parameters (omega, c) in the diagonal form ``signs`` (a tuple of ±1):
    their Gram matrix is S(omega, c).  ``pivots`` names the rows that span
    the space, one distinct vertex per column, as ``gram_factorize``
    returns them.  Signs, shapes and pivots that break this are a
    ValueError, and vectors that do not realize S a GramMismatchError."""

    __slots__ = ("graph", "omega", "c", "signs", "vectors", "pivots")

    def __init__(self, graph: SignMatrix, omega, c, signs, vectors, pivots):
        signs = tuple(signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be -1 or +1")
        vectors = np.array(vectors, dtype=float)  # a copy, made read-only
        if vectors.shape != (graph.n, len(signs)):
            raise ValueError(f"vectors must be {graph.n} x {len(signs)}, got {vectors.shape}")
        pivots = tuple(int(p) for p in pivots)
        if len(pivots) != len(signs) or len(set(pivots) & set(range(graph.n))) != len(pivots):
            raise ValueError(f"pivots {pivots} are not {len(signs)} distinct vertices of the graph")
        vectors.setflags(write=False)
        self.graph = graph
        self.omega = float(omega)
        self.c = float(c)
        self.signs = signs
        self.vectors = vectors
        self.pivots = pivots
        self._validate()

    def _validate(self):
        """The vectors' Gram matrix must match S(omega, c) to GRAM_TOL
        relative to max(1, max|S|): the error of a factorization grows with
        the norm.  Both sides are compared times 2^-2e, where 2^e brings
        max|v| below 1, so no inner product overflows; a power of two
        scales exactly, so the verdict is that of the unscaled comparison.
        A non-finite deviation fails."""
        v = self.vectors
        e = max(0, math.frexp(np.abs(v).max(initial=0.0))[1])
        w = np.ldexp(v, -e)
        expected = np.ldexp(build_S(self.graph, self.omega, self.c), -2 * e)
        deviation = np.abs((w * self.signs) @ w.T - expected).max(initial=0.0)
        if not deviation <= config.GRAM_TOL * max(math.ldexp(1.0, -2 * e),
                                                   np.abs(expected).max(initial=0.0)):
            with np.errstate(over="ignore"):  # a deviation past the float range shows as inf
                deviation = np.ldexp(deviation, 2 * e)
            raise GramMismatchError(
                f"vectors do not realize the stated parameters: max deviation {deviation:.3g}")

    @classmethod
    def build(cls, graph: SignMatrix, omega, c, degree: int) -> "Representation":
        """Construct the reduced representation at (omega, c), whose degree
        (the rank of S(omega, c)) the caller knows, by factorizing S: the
        vectors in the frame of their pivot rows."""
        return cls(graph, omega, c, *gram_factorize(build_S(graph, omega, c), degree))


def isometry_between(u: Representation, sigma, nu) -> np.ndarray:
    """The matrices, in u's pivot frame, of the isometries sending each u_i
    to nu_i * u_{sigma(i)}, one per row of the k x n integer arrays
    ``sigma`` and ``nu``: a k x r x r array.

    For c != 0 a signed permutation preserves S(omega, c) exactly when
    nu_i nu_j e[sigma(i), sigma(j)] = e[i, j] (Seidel, *A survey of
    two-graphs*, 1976), so that is checked in integers, with sigma a
    permutation and nu in {-1, +1}.  The targets are then solved on the
    pivot rows of u, invertible by construction, with one
    ``numpy.linalg.solve``, and each map must send every u_i to its target
    to ISOMETRY_TOL.  Raises GramMismatchError if any row fails.
    """
    e = u.graph.entries.astype(np.int8)
    if not ((np.sort(sigma, axis=1) == np.arange(len(e))).all() and (np.abs(nu) == 1).all()):
        raise GramMismatchError("a row is not a signed permutation of the vertices")
    s = nu.astype(np.int8)
    if not (s[:, :, None] * s[:, None, :] * e[sigma[:, :, None], sigma[:, None, :]] == e).all():
        raise GramMismatchError("a signed permutation does not preserve the sign matrix")
    v = nu[:, :, None] * u.vectors[sigma]
    pivots = list(u.pivots)
    r = len(u.signs)
    # one LU of the pivot rows of u against those of every target, side by side
    rhs = v[:, pivots, :].transpose(1, 0, 2).reshape(r, -1)
    sol = np.linalg.solve(u.vectors[pivots], rhs).reshape(r, len(v), r).transpose(1, 0, 2)
    # -0.0 + 0.0 is 0.0: a zero entry has one sign, so negated targets give
    # exactly the negated matrix
    sol += 0.0
    scale = np.maximum(1.0, np.abs(v).max(axis=(1, 2), initial=0.0))
    diff = u.vectors @ sol
    diff -= v
    residual = np.abs(diff, out=diff).max(axis=(1, 2), initial=0.0)
    if not (residual <= config.ISOMETRY_TOL * scale * 10).all():
        raise GramMismatchError(f"isometry residual too large: {residual.max():.3g}")
    return sol.transpose(0, 2, 1)
