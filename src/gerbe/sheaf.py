"""Line coincidence structure of a representation.

A representation's sheaf is the set of lines spanned by its vectors.  For
a reduced system at (omega, c) the partition into lines is exact: vertices
i and j share a line only if omega = ±epsilon_ij*c, so the lines are all
distinct unless |omega| = |c|, and then they are read off the sign matrix
at c/omega.  No float tolerance enters.  This module computes that
partition, restricts a representation to one vertex per line, and
verifies the all-or-nothing linking rules that govern the signed blocks
of the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvariantError, TrivialRepresentationError
from .graph import Graph, SignMatrix, epsilon_matrix
from .quadspace import Representation


@dataclass(frozen=True)
class LinePartition:
    """Partition of the vertex set by coincident lines.

    pi maps each vertex to its class (0-based), rep_index gives the smallest
    vertex of each class, and sign records whether a vertex's vector equals
    plus or minus the representative's.
    """

    m: int
    rep_index: tuple
    pi: tuple
    sign: tuple

    def __post_init__(self):
        for j, r in enumerate(self.rep_index):
            if self.pi[r] != j or self.sign[r] != 1:
                raise ValueError("representative must map to its own class with sign +1")

    @classmethod
    def trivial(cls, n) -> "LinePartition":
        r = tuple(range(n))
        return cls(n, r, r, (1,) * n)

    @property
    def n(self) -> int:
        return len(self.pi)

    def members(self, j) -> list:
        return [i for i in range(self.n) if self.pi[i] == j]

    def plus_block(self, j) -> list:
        return [i for i in range(self.n) if self.pi[i] == j and self.sign[i] == 1]

    def minus_block(self, j) -> list:
        return [i for i in range(self.n) if self.pi[i] == j and self.sign[i] == -1]

    def is_all_singletons(self) -> bool:
        return self.m == self.n


def line_classes(u: Representation) -> LinePartition:
    """Group the vertices of a reduced representation by the lines their
    vectors span, read off exactly from (epsilon, omega, c).

    In a reduced system the form is nondegenerate on the span of the
    vectors, so u_i = s*u_j exactly when rows i and j of the Gram matrix
    S(omega, c) agree up to the factor s.  At entries i and j that forces
    omega = s*epsilon_ij*c, so the lines are all distinct unless
    |omega| = |c|, and then they are the sign-matrix partition at c/omega.
    A system that is not reduced is refused: a padded one can have equal
    Gram rows but different vectors.
    """
    if u.is_trivial():
        raise TrivialRepresentationError("line classes undefined for c = 0")
    if not u.is_reduced():
        raise ValueError("line classes need a reduced representation")
    if abs(u.c) != abs(u.omega):
        return LinePartition.trivial(u.n)
    return partition_from_sign_matrix(epsilon_matrix(u.graph), int(u.c / u.omega))


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


def restrict_to_Y(g: Graph, u: Representation, p: LinePartition):
    """Restrict to one vertex per line: the graph induced on the class
    representatives (relabeled 0..m-1) and the corresponding sub-system of
    vectors, which is again reduced and non-trivial.  ``p`` must be the
    partition ``line_classes(u)``; any other is refused."""
    if u.is_trivial():
        raise TrivialRepresentationError("cannot restrict a trivial representation")
    if not u.is_reduced():
        raise ValueError("representation must be reduced")
    if g != u.graph:
        raise ValueError("graph does not match the representation")
    if p != line_classes(u):
        raise ValueError("partition is not the line partition of the representation")
    reps = list(p.rep_index)
    m = p.m
    edges = set()
    for a in range(m):
        for b in range(a + 1, m):
            if g.linked(reps[a], reps[b]):
                edges.add((a, b))
    gy = Graph(m, frozenset(edges))
    v = Representation(gy, u.omega, u.c, u.space, u.vectors[reps])
    if not v.is_reduced():
        raise InvariantError("restriction lost rank; input was not reduced")
    return gy, v


@dataclass(frozen=True)
class LinkingReport:
    """Outcome of the linking-structure verification at c = ±1."""

    c: int
    all_or_nothing_ok: bool
    cross_class_ok: bool
    within_class_ok: bool
    failures: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.all_or_nothing_ok and self.cross_class_ok and self.within_class_ok


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
