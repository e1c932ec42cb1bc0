"""Line coincidence structure of a representation.

A representation's sheaf is the set of lines spanned by its vectors.  For
the reduced system at (omega, c) the partition into lines is exact: vertices
i and j share a line only if omega = ±epsilon_ij*c, so the lines are all
distinct unless |omega| = |c|, and then they are read off the sign matrix
at c/omega.  No float tolerance and no vector enters.  This module computes
that partition from (epsilon, omega, c), restricts the sign matrix to one
vertex per line (the graph Gamma_Y the sheaf group acts on), and verifies
the all-or-nothing linking rules that govern the signed blocks of the
partition.  The partition and the rules are the batched kernels of
``_kernels_py`` called on a batch of one graph, the same code the
exhaustive linking sweep runs: the graph goes in as its row bitmasks
laid out [n, 1], and a ``LinePartition`` is the kernel's column of
representatives with its sign bits as ±1, which the rules read as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels_py import (_batch_all_or_nothing, _batch_partition, _batch_rules, _row_bits,
                          _switched)
from .errors import TrivialRepresentationError
from .graph import SignMatrix


class LinePartition(NamedTuple):
    """Partition of the vertex set by coincident lines, as two length-n int
    arrays: rep[i] is the least vertex on i's line, and sign[i] is +1 or -1
    as i's vector is plus or minus rep[i]'s.  A representative r has
    rep[r] = r and sign[r] = 1."""

    rep: np.ndarray
    sign: np.ndarray


def line_classes(m: SignMatrix, omega, c) -> LinePartition:
    """The vertices of the reduced representation of m at (omega, c),
    grouped by the lines their vectors span, read off exactly.

    In a reduced system the form is nondegenerate on the span of the
    vectors, so u_i = s*u_j exactly when rows i and j of the Gram matrix
    S(omega, c) agree up to the factor s.  At entries i and j that forces
    omega = s*epsilon_ij*c, so the lines are all distinct unless
    |omega| = |c|, and then they are the sign-matrix partition at c/omega.
    omega and c are compared as the floats S is built from.  The trivial
    representation, c = 0, is refused.
    """
    omega, c = float(omega), float(c)
    if c == 0.0:
        raise TrivialRepresentationError("line classes undefined for c = 0")
    if abs(c) != abs(omega):
        return LinePartition(np.arange(m.n), np.ones(m.n, dtype=int))
    return partition_from_sign_matrix(m, int(c / omega))


def _rows(m: SignMatrix) -> np.ndarray:
    """The row bitmasks of m as a batch of one, [n, 1]."""
    return ((m.entries == -1) @ _row_bits(m.n))[:, None]


def partition_from_sign_matrix(m: SignMatrix, c: int) -> LinePartition:
    """Exact line partition of the reduced representation at (1, c), c = ±1.

    Vertices i and j coincide with sign s iff epsilon_ij * c = s and the
    rows of the sign matrix agree up to the factor s away from i and j.
    """
    if c not in (1, -1):
        raise ValueError("combinatorial partition requires c = ±1")
    rep, sbit = _batch_partition(_rows(m), 0 if c == 1 else 1)
    return LinePartition(rep[:, 0].astype(int), 1 - 2 * sbit[:, 0].astype(int))


def restrict_to_Y(m: SignMatrix, p: LinePartition) -> SignMatrix:
    """Gamma_Y: the sign matrix induced on the representatives of the
    lines of p, relabeled 0..m-1 in vertex order.  For p =
    line_classes(m, omega, c) each vector at (omega, c) is ± a
    representative's, so the representatives' vectors are a reduced
    representation of Gamma_Y, with distinct lines.  A principal
    submatrix of a sign matrix is one, so it is not checked again."""
    reps = np.flatnonzero(p.rep == np.arange(len(p.rep)))
    return SignMatrix._of_valid(m.entries[np.ix_(reps, reps)])


@dataclass(frozen=True)
class LinkingReport:
    """Outcome of the linking-structure verification at c = ±1.

    With t[x, y] the edge bit of x and y flipped by each of their sign
    bits: all-or-nothing means t is constant between any two signed blocks
    and within one; cross-class means t[x, y] = t[rep x, rep y] between
    classes, and is False wherever all-or-nothing fails; within-class means
    t[x, y] = 0 at c = +1 and 1 at c = -1 inside a class.  ``failures``
    names the rules that failed; no partition of a real graph reaches it.
    """

    c: int
    all_or_nothing_ok: bool
    cross_class_ok: bool
    within_class_ok: bool
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return self.all_or_nothing_ok and self.cross_class_ok and self.within_class_ok


def check_class_linking(m: SignMatrix, p: LinePartition, c: int) -> LinkingReport:
    """Verify the block-linking rules for the partition at parameters (1, c).

    Rule 1: between any two signed blocks, edges are all-or-nothing.
    Rule 2: for distinct classes, same-sign blocks are linked exactly when
            opposite-sign blocks are not.
    Rule 3: within a class, sign blocks are internally linked and mutually
            unlinked for c = -1, and the other way round for c = +1.

    A partition whose representatives are not their own, with sign +1, is
    a ValueError.
    """
    if c not in (1, -1):
        raise ValueError("linking rules apply only at c = ±1")
    rep, sign = np.asarray(p.rep), np.asarray(p.sign)
    if not ((rep[rep] == rep) & (sign[rep] == 1)).all():
        raise ValueError("a representative must be its own, with sign +1")
    sbit = (sign == -1)[:, None]
    switched = _switched(_rows(m), rep[:, None], sbit)
    aon = bool(_batch_all_or_nothing(switched, sbit)[0])
    within, across = (bool(v[0]) for v in _batch_rules(switched, 0 if c == 1 else 1))
    cross = aon and across
    failures = tuple(f"{rule} rule broken" for rule, ok in (
        ("all-or-nothing", aon), ("cross-class", cross), ("within-class", within)) if not ok)
    return LinkingReport(c, aon, cross, within, failures)
