"""Line coincidence structure of a representation.

A representation's sheaf is the set of lines spanned by its vectors.  When
|omega| = |c| several vertices can land on the same line; this module
computes that partition, restricts a representation to one vertex per
line, and verifies the all-or-nothing linking rules that govern the
signed blocks of the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config
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
    """Group vertices whose vectors span the same line.

    Directions are normalized with the first significant coordinate made
    positive, so the coincidence test is a plain comparison and the induced
    relation is transitive by construction.
    """
    t = config.COLINEAR_TOL
    if u.c == 0.0:
        raise TrivialRepresentationError("line classes undefined for c = 0")
    n = u.n
    dirs = []
    flips = []
    for i in range(n):
        v = u.vectors[i]
        norm = float(np.linalg.norm(v))
        if norm <= t:
            raise ValueError(f"vector {i} is numerically zero")
        d = v / norm
        flip = 1
        for coord in d:
            if abs(coord) > t:
                if coord < 0:
                    flip = -1
                break
        dirs.append(d * flip)
        flips.append(flip)
    pi = [-1] * n
    sign = [0] * n
    reps = []
    for i in range(n):
        for j, r in enumerate(reps):
            if np.abs(dirs[i] - dirs[r]).max() <= t:
                pi[i] = j
                sign[i] = flips[i] * flips[r]
                break
        else:
            pi[i] = len(reps)
            sign[i] = 1
            reps.append(i)
    part = LinePartition(len(reps), tuple(reps), tuple(pi), tuple(sign))
    # at omega = 1, c = ±1 the partition is forced combinatorially; use that
    # as an exact cross-check of the floating-point coincidence test
    if u.omega == 1.0 and u.c in (1.0, -1.0) and u.is_reduced():
        combinatorial = partition_from_sign_matrix(
            epsilon_matrix(u.graph), int(u.c)
        )
        if combinatorial != part:
            raise InvariantError(
                "numeric line partition disagrees with the exact sign-matrix partition"
            )
    return part


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
    vectors, which is again reduced and non-trivial."""
    if u.is_trivial():
        raise TrivialRepresentationError("cannot restrict a trivial representation")
    if not u.is_reduced():
        raise ValueError("representation must be reduced")
    if g != u.graph:
        raise ValueError("graph does not match the representation")
    reps = list(p.rep_index)
    m = p.m
    edges = set()
    for a in range(m):
        for b in range(a + 1, m):
            if g.linked(reps[a], reps[b]):
                edges.add((a, b))
    gy = Graph(m, frozenset(edges))
    v = Representation(gy, u.omega, u.c, u.space, u.vectors[reps])
    # the restricted system must carry the same set of lines
    _check_same_lines(u, v)
    if not v.is_reduced():
        raise InvariantError("restriction lost rank; input was not reduced")
    return gy, v


def _check_same_lines(u: Representation, v: Representation):
    for i in range(u.n):
        ui = u.vectors[i]
        nu = float(np.linalg.norm(ui))
        matched = False
        for k in range(v.n):
            vk = v.vectors[k]
            nv = float(np.linalg.norm(vk))
            cross = abs(float(np.dot(ui, vk)))
            if abs(cross - nu * nv) <= config.COLINEAR_TOL * max(1.0, nu * nv):
                matched = True
                break
        if not matched:
            raise InvariantError(f"line of vertex {i} missing after restriction")


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
