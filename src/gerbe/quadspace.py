"""Numeric quadratic-space machinery.

Gram factorization of a symmetric matrix of given rank into a diagonal ±1
form (the rank law fixes it exactly; ``rank``, under RANK_TOL, serves where
no exact rank is known), representations of graphs, each given by its sign
matrix, at parameters (omega, c), and the recovery of the isometry between
two of them.

The eigendecomposition behind factorization and rank is LAPACK's symmetric
solver (``numpy.linalg.eigh``); isometry recovery checks reducedness by
numpy's ``matrix_rank`` cut on one SVD (``numpy.linalg.svd``).  The lines
and the sheaf group need no representation: they come from the sign matrix.
"""

from __future__ import annotations

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


def gram_factorize(s, rank: int):
    """Realize a symmetric matrix of the given rank as the Gram matrix of
    the rows of an n x rank array in a diagonal ±1 form; returns (space,
    vectors).  The columns come from the rank eigenvalues of largest
    modulus, in descending order (so positive first; ties in eigh's)."""
    evals, q = jacobi_eigh(s)
    keep = np.sort(np.argsort(np.abs(evals))[len(evals) - rank:])
    keep = keep[np.argsort(-evals[keep], kind="stable")]
    signs = tuple(1 if e > 0 else -1 for e in evals[keep].tolist())
    return QuadraticSpace(signs), q[:, keep] * np.sqrt(np.abs(evals[keep]))


def _span(sigma, shape) -> int:
    """The dimension spanned by the rows of a matrix of this shape with
    singular values sigma: those above numpy's ``matrix_rank`` cut,
    sigma_max * max(shape) * machine epsilon."""
    return int(np.sum(sigma > sigma.max(initial=0.0) * max(shape) * np.finfo(float).eps))


class Representation:
    """Vectors u_1..u_n realizing a graph, given as its sign matrix, at
    parameters (omega, c): their Gram matrix matches ``gram``, S(omega, c)."""

    __slots__ = ("graph", "omega", "c", "space", "vectors", "gram")

    def __init__(self, graph: SignMatrix, omega, c, space: QuadraticSpace, vectors):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != (graph.n, space.dim):
            raise ValueError(
                f"vectors must be {graph.n} x {space.dim}, got {vectors.shape}"
            )
        vectors = vectors.copy()
        vectors.setflags(write=False)
        self.graph = graph
        self.omega = float(omega)
        self.c = float(c)
        self.space = space
        self.vectors = vectors
        self._validate()

    def _validate(self):
        """The vectors' Gram matrix must match S(omega, c) to GRAM_TOL
        relative to max(1, max|S|): the error of a factorization grows with
        the norm.  A non-finite deviation fails too.  S is kept as
        ``gram``."""
        expected = build_S(self.graph, self.omega, self.c)
        deviation = np.abs(self.space.gram(self.vectors) - expected).max(initial=0.0)
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
        (the rank of S(omega, c)) the caller knows, by factorizing S."""
        space, vectors = gram_factorize(build_S(graph, omega, c), degree)
        return cls(graph, omega, c, space, vectors)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def degree(self) -> int:
        return self.space.dim


def isometry_between(u_vectors, v_vectors, space_u: QuadraticSpace,
                     space_v: QuadraticSpace) -> np.ndarray:
    """The linear map f with f(u_i) = v_i, given equal Gram matrices.

    Both systems must be reduced (their vectors span the spaces, which have
    equal dimension).  ``u_vectors`` is n x r.  ``v_vectors`` is one n x r
    target system, or a stack of k of them (k x n x r); a stack shares the
    Gram matrix of u, one SVD of u and one batched product with its
    pseudo-inverse, and each of its targets passes the same checks as a
    single one.  u must span r dimensions by ``_span``'s cut.  Returns
    the r x r matrix of f, or the k x r x r stack of them; raises
    GramMismatchError or DeficientSpanError if any target fails.  The Gram
    matrices must agree to ISOMETRY_TOL relative to max(1, max|G_u|); a
    non-finite entry fails the comparison.
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
    if r == 0:
        return np.zeros((0, 0) if single else (len(v), 0, 0))
    left, sigma, right_t = np.linalg.svd(u_vectors, full_matrices=False)
    span = _span(sigma, u_vectors.shape)
    if span < r:
        raise DeficientSpanError(f"vectors span only {span} of {r} dimensions")
    sol = ((right_t.T / sigma) @ left.T) @ v  # k x r x r
    scale = np.maximum(1.0, np.abs(v).max(axis=(1, 2), initial=0.0))
    diff = u_vectors @ sol
    diff -= v
    residual = np.abs(diff, out=diff).max(axis=(1, 2), initial=0.0)
    if not (residual <= config.ISOMETRY_TOL * scale * 10).all():
        raise GramMismatchError(f"isometry residual too large: {residual.max():.3g}")
    f = sol.transpose(0, 2, 1)
    return f[0] if single else f
