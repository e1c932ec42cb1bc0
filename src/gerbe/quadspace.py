"""Numeric quadratic-space machinery.

Gram factorization of a symmetric matrix of given rank into a diagonal ±1
form (the rank law fixes it exactly; ``rank``, under RANK_TOL, serves where
no exact rank is known), representations of graphs, each given by its sign
matrix, at parameters (omega, c), and the recovery of the isometry between
two of them.

The factorization is a symmetric LDL^T that pivots on vertices (Bunch &
Parlett 1971; Golub & Van Loan, *Matrix Computations*, §4.4), so the
vectors are written in the frame of their pivot rows, fixed by (Gamma,
omega, c) and continuous in c away from a change of pivot.  Isometry
recovery solves on those pivot rows (``numpy.linalg.solve``) after checking
that they span, by numpy's ``matrix_rank`` cut on their singular values.
Only ``rank`` takes an eigendecomposition (LAPACK's ``numpy.linalg.eigh``).
The lines and the sheaf group need no representation: they come from the
sign matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DeficientSpanError, GramMismatchError, InputError
from .graph import SignMatrix


@dataclass(frozen=True)
class QuadraticSpace:
    """R^dim with the diagonal bilinear form given by ``signs``."""

    signs: tuple  # entries in {-1, +1}

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")

    @property
    def dim(self) -> int:
        return len(self.signs)

    def gram(self, vectors) -> np.ndarray:
        """Gram matrix of row-vectors under the diagonal form."""
        v = np.asarray(vectors, dtype=float)
        return (v * np.array(self.signs, dtype=float)) @ v.T


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
    the rows of an n x rank array in a diagonal ±1 form; returns (space,
    vectors, pivots).

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
    return (QuadraticSpace(tuple(signs[order].tolist())), np.ldexp(columns[order].T, scale // 2),
            pivots[order])


def _span(sigma, shape) -> int:
    """The dimension spanned by the rows of a matrix of this shape with
    singular values sigma: those above numpy's ``matrix_rank`` cut,
    sigma_max * max(shape) * machine epsilon."""
    return int(np.sum(sigma > sigma.max(initial=0.0) * max(shape) * np.finfo(float).eps))


class Representation:
    """Vectors u_1..u_n realizing a graph, given as its sign matrix, at
    parameters (omega, c): their Gram matrix matches ``gram``, S(omega, c).
    ``pivots`` names the rows that span the space, one per column (as
    ``gram_factorize`` returns them), or is None for a system given by its
    vectors alone."""

    __slots__ = ("graph", "omega", "c", "space", "vectors", "gram", "pivots")

    def __init__(self, graph: SignMatrix, omega, c, space: QuadraticSpace, vectors,
                 pivots=None):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != (graph.n, space.dim):
            raise ValueError(
                f"vectors must be {graph.n} x {space.dim}, got {vectors.shape}"
            )
        if pivots is not None and len(pivots) != space.dim:
            raise ValueError(f"{len(pivots)} pivots for {space.dim} columns")
        vectors = vectors.copy()
        vectors.setflags(write=False)
        self.graph = graph
        self.omega = float(omega)
        self.c = float(c)
        self.space = space
        self.vectors = vectors
        self.pivots = None if pivots is None else tuple(int(p) for p in pivots)
        self._validate()

    def _validate(self):
        """The vectors' Gram matrix must match S(omega, c) to GRAM_TOL
        relative to max(1, max|S|): the error of a factorization grows with
        the norm.  A non-finite deviation fails too.  Where the vectors are
        finite it comes from products that overflow: near the top of the
        float range the vectors of an indefinite S can be longer than its
        entries are large, and the parameters are refused as an
        InputError.  S is kept as ``gram``."""
        expected = build_S(self.graph, self.omega, self.c)
        with np.errstate(over="ignore", invalid="ignore"):
            deviation = np.abs(self.space.gram(self.vectors) - expected).max(initial=0.0)
        if not np.isfinite(deviation) and np.isfinite(self.vectors).all():
            raise InputError("the inner products of the vectors overflow the range of a float")
        if not deviation <= config.GRAM_TOL * max(1.0, np.abs(expected).max(initial=0.0)):
            raise GramMismatchError(
                "vectors do not realize the stated parameters: "
                f"max deviation {deviation:.3g}"
            )
        expected.setflags(write=False)
        self.gram = expected

    @classmethod
    def build(cls, graph: SignMatrix, omega, c, degree: int) -> "Representation":
        """Construct the reduced representation at (omega, c), whose degree
        (the rank of S(omega, c)) the caller knows, by factorizing S: the
        vectors in the frame of their pivot rows."""
        return cls(graph, omega, c, *gram_factorize(build_S(graph, omega, c), degree))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def degree(self) -> int:
        return self.space.dim


def isometry_between(u_vectors, v_vectors, space_u: QuadraticSpace,
                     space_v: QuadraticSpace, pivots) -> np.ndarray:
    """The linear map f with f(u_i) = v_i, given equal Gram matrices.

    Both systems must be reduced (their vectors span the spaces, which have
    equal dimension).  ``u_vectors`` is n x r, and ``pivots`` names r of its
    rows that span R^r (a representation's ``pivots``), by ``_span``'s cut
    on their singular values.  ``v_vectors`` is one n x r target system, or
    a stack of k of them (k x n x r); a stack shares the Gram matrix of u
    and one ``numpy.linalg.solve`` of the pivot rows of u against those of
    every target, and each of its targets passes the same checks as a
    single one: the Gram matrices must agree to ISOMETRY_TOL relative to
    max(1, max|G_u|), a non-finite entry failing the comparison, and f must
    map every u_i, not only the pivots, to v_i.  Returns the r x r matrix of
    f, or the k x r x r stack of them; raises GramMismatchError or
    DeficientSpanError if any target fails.
    """
    u_vectors = np.asarray(u_vectors, dtype=float)
    v_vectors = np.asarray(v_vectors, dtype=float)
    single = v_vectors.ndim == 2
    v = v_vectors[None] if single else v_vectors
    gu = space_u.gram(u_vectors)
    gv = np.einsum("kis,kjs->kij", v * np.array(space_v.signs, dtype=float), v)
    if gv.shape[1:] != gu.shape:
        raise GramMismatchError("input systems have different Gram matrices")
    gv -= gu  # in place: the k x n x n stack is the largest array here
    gram_tol = config.ISOMETRY_TOL * max(1.0, np.abs(gu).max(initial=0.0))
    if not np.abs(gv, out=gv).max(initial=0.0) <= gram_tol:
        raise GramMismatchError("input systems have different Gram matrices")
    r = space_u.dim
    if space_v.dim != r:
        raise DeficientSpanError("spaces have different dimensions")
    pivots = np.asarray(pivots, dtype=np.intp)
    if pivots.shape != (r,):
        raise ValueError(f"{pivots.size} pivots for {r} columns")
    if r == 0:
        return np.zeros((0, 0) if single else (len(v), 0, 0))
    basis = u_vectors[pivots]
    span = _span(np.linalg.svd(basis, compute_uv=False), basis.shape)
    if span < r:
        raise DeficientSpanError(f"the pivot rows span only {span} of {r} dimensions")
    # one LU of the basis against the pivot rows of every target, side by side
    rhs = v[:, pivots, :].transpose(1, 0, 2).reshape(r, -1)
    sol = np.linalg.solve(basis, rhs).reshape(r, len(v), r).transpose(1, 0, 2)  # k x r x r
    # -0.0 + 0.0 is 0.0: a zero entry has one sign, so negated targets give
    # exactly the negated matrix
    sol += 0.0
    scale = np.maximum(1.0, np.abs(v).max(axis=(1, 2), initial=0.0))
    diff = u_vectors @ sol
    diff -= v
    residual = np.abs(diff, out=diff).max(axis=(1, 2), initial=0.0)
    if not (residual <= config.ISOMETRY_TOL * scale * 10).all():
        raise GramMismatchError(f"isometry residual too large: {residual.max():.3g}")
    f = sol.transpose(0, 2, 1)
    return f[0] if single else f
