"""Numeric quadratic-space machinery.

Gram factorization of symmetric matrices into diagonal ±1 forms, numeric
rank, representations of graphs at parameters (omega, c) and the basic
operations on them (sum, reduction, isometry recovery).

The eigendecomposition behind factorization and rank is LAPACK's symmetric
solver (``numpy.linalg.eigh``); isometry recovery takes one SVD
(``numpy.linalg.svd``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DeficientSpanError, GramMismatchError
from .graph import Graph, SignMatrix, epsilon_matrix


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

    @property
    def signature(self) -> tuple:
        p = sum(1 for s in self.signs if s == 1)
        return (p, self.dim - p)

    def inner(self, x, y) -> float:
        return float(np.dot(np.asarray(x) * np.array(self.signs, dtype=float), np.asarray(y)))

    def gram(self, vectors) -> np.ndarray:
        """Gram matrix of row-vectors under the diagonal form."""
        v = np.asarray(vectors, dtype=float)
        if self.dim == 0:
            return np.zeros((v.shape[0], v.shape[0]))
        return (v * np.array(self.signs, dtype=float)) @ v.T


def jacobi_eigh(s):
    """Eigendecomposition of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Returns (eigenvalues, Q) with eigenvalues ascending and the columns of Q
    orthonormal eigenvectors.
    """
    a = np.array(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigh(a)


def build_S(m: SignMatrix, omega: float, c: float) -> np.ndarray:
    """Symmetric matrix with diagonal omega and (i,j) entry epsilon_ij * c."""
    s = m.entries.astype(float) * float(c)
    np.fill_diagonal(s, float(omega))
    return s


def rank(s) -> int:
    """Numeric rank: eigenvalues above RANK_TOL relative to the spectral radius."""
    evals, _ = jacobi_eigh(s)
    if len(evals) == 0:
        return 0
    thr = config.RANK_TOL * max(1.0, float(np.abs(evals).max()))
    return int(np.sum(np.abs(evals) > thr))


def gram_factorize(s):
    """Realize a symmetric matrix as a Gram matrix in a diagonal ±1 form.

    Returns (space, vectors) with vectors an n x r array whose Gram under
    the space's form reproduces s; r is the numeric rank, so the realization
    is reduced.
    """
    s = np.asarray(s, dtype=float)
    evals, q = jacobi_eigh(s)
    if len(evals) == 0:
        raise ValueError("empty matrix")
    thr = config.RANK_TOL * max(1.0, float(np.abs(evals).max()))
    keep = [k for k in range(len(evals)) if abs(evals[k]) > thr]
    keep.sort(key=lambda k: -evals[k])  # positive eigenvalues first
    signs = tuple(1 if evals[k] > 0 else -1 for k in keep)
    if keep:
        vectors = q[:, keep] * np.sqrt(np.abs(evals[keep]))
    else:
        vectors = np.zeros((s.shape[0], 0))
    return QuadraticSpace(signs), vectors


class Representation:
    """Vectors u_1..u_n realizing a graph at parameters (omega, c)."""

    __slots__ = ("graph", "omega", "c", "space", "vectors", "gram")

    def __init__(self, graph: Graph, omega, c, space: QuadraticSpace, vectors, gram=None):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape != (graph.n, space.dim):
            raise ValueError(
                f"vectors must be {graph.n} x {space.dim}, got {vectors.shape}"
            )
        vectors = vectors.copy()
        vectors.setflags(write=False)
        if gram is None:
            gram = space.gram(vectors)
        gram = np.asarray(gram, dtype=float).copy()
        gram.setflags(write=False)
        self.graph = graph
        self.omega = float(omega)
        self.c = float(c)
        self.space = space
        self.vectors = vectors
        self.gram = gram
        self._validate()

    def _validate(self):
        expected = build_S(epsilon_matrix(self.graph), self.omega, self.c)
        actual = self.space.gram(self.vectors)
        if np.abs(actual - expected).max() > config.GRAM_TOL:
            raise GramMismatchError(
                "vectors do not realize the stated parameters: "
                f"max deviation {np.abs(actual - expected).max():.3g}"
            )

    @classmethod
    def build(cls, graph: Graph, omega, c) -> "Representation":
        """Construct the reduced representation at (omega, c) by factorizing
        the parameter matrix."""
        s = build_S(epsilon_matrix(graph), omega, c)
        space, vectors = gram_factorize(s)
        return cls(graph, omega, c, space, vectors, gram=s)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def degree(self) -> int:
        return self.space.dim

    def is_reduced(self) -> bool:
        return self.space.dim == rank(self.gram)

    def is_trivial(self) -> bool:
        return self.c == 0.0


def sum_representations(u: Representation, v: Representation) -> Representation:
    """Orthogonal direct sum: parameters add, Gram matrices add."""
    if u.graph != v.graph:
        raise ValueError("representations must share a graph")
    space = QuadraticSpace(u.space.signs + v.space.signs)
    vectors = np.hstack([u.vectors, v.vectors])
    return Representation(u.graph, u.omega + v.omega, u.c + v.c, space, vectors)


def reduce_representation(u: Representation) -> Representation:
    """Drop the null summand: same graph, parameters and Gram, minimal degree."""
    space, vectors = gram_factorize(u.gram)
    return Representation(u.graph, u.omega, u.c, space, vectors, gram=u.gram)


def isometry_between(u_vectors, v_vectors, space_u: QuadraticSpace,
                     space_v: QuadraticSpace) -> np.ndarray:
    """The linear map f with f(u_i) = v_i, given equal Gram matrices.

    Both systems must be reduced (their vectors span the spaces, which have
    equal dimension).  ``u_vectors`` is n x r.  ``v_vectors`` is one n x r
    target system, or a stack of k of them (k x n x r); a stack shares the
    Gram matrix of u, one SVD of u and one batched product with its
    pseudo-inverse, and each of its targets passes the same checks as a
    single one.  u spans r dimensions when its smallest singular value is
    above numpy's ``matrix_rank`` cut, sigma_max * max(n, r) * machine
    epsilon.  Returns the r x r matrix of f, or the k x r x r stack of them;
    raises GramMismatchError or DeficientSpanError if any target fails.
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
    if np.abs(gv, out=gv).max(initial=0.0) > config.ISOMETRY_TOL:
        raise GramMismatchError("input systems have different Gram matrices")
    r = space_u.dim
    if space_v.dim != r:
        raise DeficientSpanError("spaces have different dimensions")
    if r == 0:
        return np.zeros((0, 0) if single else (len(v), 0, 0))
    left, sigma, right_t = np.linalg.svd(u_vectors, full_matrices=False)
    cut = sigma.max(initial=0.0) * max(u_vectors.shape) * np.finfo(float).eps
    span = int(np.sum(sigma > cut))
    if span < r:
        raise DeficientSpanError(f"vectors span only {span} of {r} dimensions")
    sol = ((right_t.T / sigma) @ left.T) @ v  # k x r x r
    scale = np.maximum(1.0, np.abs(v).max(axis=(1, 2), initial=0.0))
    diff = u_vectors @ sol
    diff -= v
    residual = np.abs(diff, out=diff).max(axis=(1, 2), initial=0.0)
    if (residual > config.ISOMETRY_TOL * scale * 10).any():
        raise GramMismatchError(f"isometry residual too large: {residual.max():.3g}")
    f = sol.transpose(0, 2, 1)
    return f[0] if single else f
