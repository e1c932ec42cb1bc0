"""Seeded inputs and independent oracles for the gerbe benchmark.

A workload is a list of items, and one pass runs every item once.  An item
is one call into gerbe: a CLI argv run through ``gerbe.cli.main``, or one
``gerbe._backend.linking_sweep(n, c)`` call.  Each item carries the answer
it must produce, computed here from known results (the Lemmens–Seidel
equiangular-line systems, edgeless graphs, switching invariance) or from
the Seidel spectrum with numpy, never with gerbe's own code.  gerbe sees
only the graph files written by ``build``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-8
# eigvalsh is accurate to about 1e-13 on these matrices (entries +-1, n <= 28);
# eigenvalues closer than this are one eigenvalue, and below it zero
EIG_TOL = 1e-9


@dataclass
class Item:
    """One call and the answer it must give."""

    id: str
    argv: list | None = None  # CLI call
    sweep: tuple | None = None  # (n, c) for linking_sweep
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# graphs, as (n, sorted edge list of 0-based pairs)

def cycle(n):
    return n, sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))


def pointed_hexagon():
    """The 5-cycle plus an isolated vertex."""
    return 6, cycle(5)[1]


def edgeless(n):
    return n, []


def petersen():
    """Kneser graph K(5,2): 2-subsets of a 5-set, linked when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    return 10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                if not set(verts[a]) & set(verts[b])]


def clebsch():
    """Folded 5-cube: 4-bit words linked at Hamming distance 1 or 4."""
    return 16, [(a, b) for a, b in itertools.combinations(range(16), 2)
                if bin(a ^ b).count("1") in (1, 4)]


def triangular(k):
    """T(k), the line graph of K_k: 2-subsets linked when they meet."""
    verts = list(itertools.combinations(range(k), 2))
    m = len(verts)
    return m, [(a, b) for a, b in itertools.combinations(range(m), 2)
               if set(verts[a]) & set(verts[b])]


def switch(graph, subset):
    """Seidel switching: toggle every pair with exactly one end in subset."""
    n, edges = graph
    es = {tuple(sorted(e)) for e in edges}
    for i in subset:
        for j in range(n):
            if j not in subset:
                es ^= {(min(i, j), max(i, j))}
    return n, sorted(es)


def relabel_and_switch(graph, rng):
    """A random relabelling followed by switching a random vertex set."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = (n, sorted((min(perm[i], perm[j]), max(perm[i], perm[j]))
                            for i, j in edges))
    subset = {v for v in range(n) if rng.random() < 0.5}
    return switch(relabelled, subset)


def random_graph(n, rng):
    """G(n, 1/2)."""
    return n, [(i, j) for i, j in itertools.combinations(range(n), 2)
               if rng.random() < 0.5]


def seidel(graph):
    """Seidel matrix: 0 diagonal, -1 at edges, +1 elsewhere (= epsilon - I)."""
    n, edges = graph
    s = np.ones((n, n)) - np.eye(n)
    for i, j in edges:
        s[i, j] = s[j, i] = -1.0
    return s


def graph_text(graph):
    n, edges = graph
    return "\n".join([str(n)] + [f"{i + 1} {j + 1}" for i, j in sorted(edges)]) + "\n"


# ---------------------------------------------------------------------------
# expected answers

def expand(factors):
    """Integer coefficients (ascending) of a product of powers of integer
    polynomials, scaled by -1 if needed so that chi(0) = det I = 1."""
    coeffs = [1]
    for f, e in factors:
        for _ in range(e):
            out = [0] * (len(coeffs) + len(f) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            coeffs = out
    if coeffs[0] == -1:
        coeffs = [-c for c in coeffs]
    if coeffs[0] != 1:
        raise ValueError(f"chi(0) must be 1, the factors give {coeffs[0]}")
    return coeffs


def roots_of(factors):
    """Sorted [(value, exact Fraction or None, multiplicity)] of the factors."""
    out = []
    for f, e in factors:
        for r in np.roots(f[::-1]):
            if abs(r.imag) > 1e-12:
                continue
            exact = Fraction(float(r.real)).limit_denominator(1000)
            if sum(c * exact ** k for k, c in enumerate(f)) != 0:
                exact = None
            out.append((float(r.real), exact, e))
    return sorted(out)


def roots_from_spectrum(s):
    """Roots of chi(x) = det(I + x S) from the Seidel spectrum: -1/lambda
    for each distinct nonzero eigenvalue, with its multiplicity; exact when
    lambda is an integer (an eigenvalue of an integer matrix is rational
    only if it is an integer)."""
    evals = np.sort(np.linalg.eigvalsh(s))
    clusters = []
    for lam in evals:
        if clusters and abs(lam - clusters[-1][-1]) <= EIG_TOL:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    out = []
    for cl in clusters:
        lam = float(np.mean(cl))
        if abs(lam) <= EIG_TOL:
            continue
        k = round(lam)
        exact = Fraction(-1, k) if abs(lam - k) <= 1e-9 else None
        out.append((-1.0 / lam, exact, len(cl)))
    return sorted(out)


# ---------------------------------------------------------------------------
# workloads

def _cli(item_id, path, *args, **expect):
    return Item(item_id, argv=[args[0], str(path), *args[1:], "--json"], expect=expect)


def random_spectra(seed, workdir):
    """45 seeded G(n, 1/2) graphs, five for each n in 10..18, in seeded
    order; for each, poly and represent at a seeded root index."""
    rng = random.Random(f"random-spectra:{seed}")
    sizes = [n for n in range(10, 19) for _ in range(5)]
    rng.shuffle(sizes)
    items = []
    for gi, n in enumerate(sizes):
        g = random_graph(n, rng)
        path = workdir / f"g{gi:02d}-n{n}.txt"
        path.write_text(graph_text(g))
        roots = roots_from_spectrum(seidel(g))
        k = rng.randrange(len(roots))
        value, _, mult = roots[k]
        items.append(_cli(f"g{gi:02d}.poly", path, "poly", n=n, roots=roots))
        items.append(_cli(f"g{gi:02d}.represent", path, "represent",
                          "--root-index", str(k),
                          c=value, dim=n - mult, seidel=seidel(g)))
    return items


def _edgeless_factors(n):
    return [((1, -1), n - 1), ((1, n - 1), 1)]


FIXTURE_FACTORS = {
    "triangle": [((-1, 2), 1), ((1, 1), 2)],
    "square": [((1, 3), 1), ((-1, 1), 3)],
    "pentagon": [((-1, 0, 5), 2)],
    "pointed-hexagon": [((-1, 0, 5), 3)],
}
PETERSEN_FACTORS = [((-1, 0, 9), 5)]
CLEBSCH_FACTORS = [((1, 5), 6), ((-1, 3), 10)]
T8_FACTORS = [((-1, 9), 7), ((1, 3), 21)]


def known_ladder(seed, workdir):
    """The fixtures, the Lemmens–Seidel systems (Petersen, Clebsch, T(8))
    with seeded relabelled and switched copies, edgeless graphs, and the
    linking sweep over all labelled graphs on 2..6 vertices: every answer
    is known in closed form."""
    rng = random.Random(f"known-ladder:{seed}")
    graphs = {
        "triangle": cycle(3),
        "square": cycle(4),
        "pentagon": cycle(5),
        "pointed-hexagon": pointed_hexagon(),
        "petersen": petersen(),
        "edgeless-6": edgeless(6),
        "edgeless-7": edgeless(7),
        "edgeless-8": edgeless(8),
        "k34": switch(edgeless(7), {0, 1, 2}),
        "clebsch": clebsch(),
        "t8": triangular(8),
    }
    graphs["petersen-sw"] = relabel_and_switch(graphs["petersen"], rng)
    graphs["t8-sw"] = relabel_and_switch(graphs["t8"], rng)
    factors = dict(FIXTURE_FACTORS)
    factors.update({
        "petersen": PETERSEN_FACTORS, "petersen-sw": PETERSEN_FACTORS,
        "edgeless-6": _edgeless_factors(6), "edgeless-7": _edgeless_factors(7),
        "edgeless-8": _edgeless_factors(8), "k34": _edgeless_factors(7),
        "clebsch": CLEBSCH_FACTORS, "t8": T8_FACTORS, "t8-sw": T8_FACTORS,
    })
    # |G| and 2-transitivity on the lines; switching and relabelling keep both
    group = {
        "triangle": (12, True), "square": (48, True), "pentagon": (20, False),
        "pointed-hexagon": (120, True), "petersen": (1440, True),
        "petersen-sw": (1440, True), "edgeless-6": (2 * math.factorial(6), True),
        "edgeless-7": (2 * math.factorial(7), True),
        "edgeless-8": (2 * math.factorial(8), True),
        "k34": (2 * math.factorial(7), True),
    }
    # lines at each root c = +-1, where analyze also checks the linking
    # rules: the root has multiplicity n - 1, so rank 1 and a single line
    unit_lines = {"triangle": {-1: 1}, "square": {1: 1}, "edgeless-6": {1: 1},
                  "edgeless-7": {1: 1}, "edgeless-8": {1: 1}, "k34": {1: 1}}
    paths = {}
    for name, g in graphs.items():
        paths[name] = workdir / f"{name}.txt"
        paths[name].write_text(graph_text(g))

    def chi(name):
        return {"coeffs": expand(factors[name]), "roots": roots_of(factors[name])}

    def rep(name, index):
        value, _, mult = roots_of(factors[name])[index]
        g = graphs[name]
        return _cli(f"{name}.represent{index}", paths[name], "represent",
                    "--root-index", str(index), c=value, dim=g[0] - mult,
                    seidel=seidel(g))

    items = []
    for name in ("triangle", "square", "pentagon", "pointed-hexagon", "petersen",
                 "petersen-sw", "edgeless-6", "edgeless-7", "edgeless-8", "k34"):
        order, two = group[name]
        items.append(_cli(f"{name}.analyze", paths[name], "analyze",
                          n=graphs[name][0], order=order, two_transitive=two,
                          unit_lines=unit_lines.get(name, {}), **chi(name)))
    for name, c_arg, lines in (("square", "--c=-1/3", 4),
                               ("pointed-hexagon", "--root-index=0", 6),
                               ("petersen", "--c=1/3", 10),
                               ("petersen-sw", "--c=-1/3", 10)):
        order, two = group[name]
        items.append(_cli(f"{name}.realize", paths[name], "group", c_arg,
                          "--realize", order=order, two_transitive=two,
                          lines=lines))
    # at c = 1 the four square vertices share one line: G restricts to +-id
    items.append(_cli("square.group-c1", paths["square"], "group", "--c=1",
                      order=2, two_transitive=False, lines=1))
    items.append(_cli("square.classes-c1", paths["square"], "classes", "--c=1",
                      lines=1, linking_ok=True))
    items.append(_cli("k34.classes-c-1", paths["k34"], "classes", "--c=-1",
                      lines=7, linking_ok=True))
    items.append(_cli("edgeless-8.classes-c1", paths["edgeless-8"], "classes",
                      "--c=1", lines=1, linking_ok=True))
    items.append(_cli("triangle.classes-c-1", paths["triangle"], "classes",
                      "--c=-1", lines=1, linking_ok=True))
    for name in ("triangle", "square", "pentagon", "pointed-hexagon"):
        items.append(_cli(f"{name}.poly", paths[name], "poly", n=graphs[name][0],
                          **chi(name)))
    for name in ("petersen", "petersen-sw", "clebsch", "t8", "t8-sw"):
        items.append(_cli(f"{name}.poly", paths[name], "poly", n=graphs[name][0],
                          **chi(name)))
        items.append(rep(name, 0))
        items.append(rep(name, 1))
        if name not in ("petersen", "petersen-sw"):
            # |c| != 1 here, so every vertex spans its own line
            items.append(_cli(f"{name}.classes0", paths[name], "classes",
                              "--root-index", "0", lines=graphs[name][0]))
    # the linking rules over every labelled graph on n vertices, both signs
    for n in range(2, 7):
        for c in (1, -1):
            items.append(Item(f"sweep.n{n}.c{c:+d}", sweep=(n, c),
                              expect={"total": 2 ** (n * (n - 1) // 2)}))
    return items


WORKLOADS = {
    "random-spectra": random_spectra,
    "known-ladder": known_ladder,
}


def build(workload, seed, workdir: Path, corrupt=None):
    """Write the workload's graph files under workdir and return its items,
    with one kind of expected answer deliberately perturbed if asked."""
    workdir.mkdir(parents=True, exist_ok=True)
    items = WORKLOADS[workload](seed, workdir)
    if corrupt is not None:
        for item in items:
            _corrupt(item.expect, corrupt)
    return items


def _corrupt(expect, kind):
    if kind == "chi" and "roots" in expect:
        value, exact, mult = expect["roots"][0]
        expect["roots"] = [(value, exact, mult + 1)] + expect["roots"][1:]
        if "coeffs" in expect:
            expect["coeffs"] = expect["coeffs"][:-1] + [expect["coeffs"][-1] + 1]
    elif kind == "order" and "order" in expect:
        expect["order"] += 1
    elif kind == "gram" and "seidel" in expect:
        expect["seidel"] = expect["seidel"].copy()
        expect["seidel"][0, 1] += 1e-6
        expect["seidel"][1, 0] += 1e-6


# ---------------------------------------------------------------------------
# checks: each returns a list of mismatch descriptions, empty when correct

def check(item, output):
    if item.sweep is not None:
        return check_sweep(item.expect, output)
    return CHECKS[item.argv[0]](item.expect, json.loads(output))


def check_sweep(exp, result):
    total, failures = result
    errs = []
    if total != exp["total"]:
        errs.append(f"swept {total} graphs, expected {exp['total']}")
    if failures:
        errs.append(f"{failures} graphs break the linking rules")
    return errs


def _check_chi(exp, coeffs, roots):
    errs = []
    if "coeffs" in exp and [int(c) for c in coeffs] != exp["coeffs"]:
        errs.append("chi coefficients differ")
    if len(roots) != len(exp["roots"]):
        return errs + [f"{len(roots)} roots, expected {len(exp['roots'])}"]
    for got, (value, exact, mult) in zip(roots, exp["roots"]):
        if got["multiplicity"] != mult:
            errs.append(f"root {value:.6g}: multiplicity {got['multiplicity']}, expected {mult}")
        if not _same_root(got["value"], value):
            errs.append(f"root {got['value']!r}, expected {value!r}")
        if got["exact"] != (str(exact) if exact is not None else None):
            errs.append(f"root {value:.6g}: exact {got['exact']}, expected {exact}")
    return errs


def check_poly(exp, out):
    errs = [] if out["n"] == exp["n"] else [f"n {out['n']}, expected {exp['n']}"]
    return errs + _check_chi(exp, out["coefficients"], out["roots"])


def _check_group(exp, grp):
    errs = []
    if grp["order"] != exp["order"]:
        errs.append(f"|G| {grp['order']}, expected {exp['order']}")
    if grp["is_2_transitive"] != exp["two_transitive"]:
        errs.append(f"2-transitive {grp['is_2_transitive']}, expected {exp['two_transitive']}")
    return errs


def check_analyze(exp, out):
    errs = _check_chi(exp, out["chi"]["coefficients"], out["roots"])
    unit_roots = set()
    for r in out["roots"]:
        if r["rank"] != exp["n"] - r["multiplicity"]:
            errs.append(f"rank {r['rank']} at root {r['value']:.6g}")
        if r["exact"] in ("1", "-1"):
            c = int(r["exact"])
            unit_roots.add(c)
            if r.get("linking_ok") is not True:
                errs.append(f"linking rules not reported as holding at c = {c}")
            lines = r.get("partition", {}).get("m")
            if lines != exp["unit_lines"].get(c):
                errs.append(f"{lines} lines at c = {c}, expected {exp['unit_lines'].get(c)}")
    if unit_roots != set(exp["unit_lines"]):
        errs.append(f"roots +-1 are {sorted(unit_roots)}, expected {sorted(exp['unit_lines'])}")
    if "group" not in out:
        return errs + ["no group section"]
    return errs + _check_group(exp, out["group"])


def _same_root(got, want):
    """Equal to TOL as roots, or as the Seidel eigenvalues -1/root, so that
    a root near a tiny eigenvalue is held to the eigensolver's accuracy."""
    return abs(got - want) <= TOL or abs(1 / got - 1 / want) <= TOL


def check_represent(exp, out):
    errs = []
    c = out["c"]
    if not _same_root(c, exp["c"]):
        errs.append(f"c {c!r}, expected {exp['c']!r}")
    if out["dim"] != exp["dim"]:
        errs.append(f"dim {out['dim']}, expected {exp['dim']}")
    n = len(exp["seidel"])
    v = np.array(out["vectors"], dtype=float).reshape(n, out["dim"])
    gram = (v * np.array(out["signs"], dtype=float)) @ v.T
    # S(1, c) = I + c * Seidel; entries grow with |c|, and so does rounding
    dev = float(np.abs(gram - (np.eye(n) + c * exp["seidel"])).max())
    if dev > TOL * max(1.0, abs(c)):
        errs.append(f"Gram matrix deviates from S(1, c) by {dev:.3g}")
    return errs


def check_classes(exp, out):
    errs = []
    if out["partition"]["m"] != exp["lines"]:
        errs.append(f"{out['partition']['m']} lines, expected {exp['lines']}")
    if "linking_ok" in exp and out.get("linking", {}).get("ok") != exp["linking_ok"]:
        errs.append("linking rules not reported as holding")
    return errs


def check_group(exp, out):
    errs = _check_group(exp, {"order": out["group_order"],
                              "is_2_transitive": out["is_2_transitive"]})
    if out["lines"] != exp["lines"]:
        errs.append(f"{out['lines']} lines, expected {exp['lines']}")
    if "isometries" in out:
        mats = np.array(out["isometries"], dtype=float)
        if len(mats) != exp["order"]:
            errs.append(f"{len(mats)} isometries, expected {exp['order']}")
        if len(mats):
            # every realization here lives in a positive definite space
            eye = np.eye(mats.shape[1])
            dev = float(np.abs(mats @ mats.transpose(0, 2, 1) - eye).max())
            if dev > TOL:
                errs.append(f"isometry not orthogonal, deviation {dev:.3g}")
            distinct = {tuple(np.round(m, 6).ravel()) for m in mats}
            if len(distinct) != len(mats):
                errs.append("isometries repeat")
    return errs


CHECKS = {
    "poly": check_poly,
    "analyze": check_analyze,
    "represent": check_represent,
    "classes": check_classes,
    "group": check_group,
}
