"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
PASS/FAIL line so the whole gate can be read at a glance from the pytest
output.  Runtime limits are asserted where the guarantee includes one.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from gerbe import _backend
from gerbe.autgroup import enumerate_group, orbits_on_lines, realize_isometry
from gerbe.cli import run_demo
from gerbe.exactpoly import char_poly, real_roots_with_multiplicity, squarefree_decomposition
from gerbe.fixtures import ALL, PENTAGON, POINTED_HEXAGON, SQUARE
from gerbe.graph import epsilon_matrix, graph_automorphisms
from gerbe.quadspace import Representation, build_S, gram_factorize, rank
from oracles import evaluate, naive_group_elements, signed_product


@pytest.fixture()
def report(capsys, request):
    """Emit one PASS/FAIL line per criterion, bypassing output capture."""
    outcome = {"ok": False}
    yield outcome
    label = request.node.name.replace("test_", "", 1)
    with capsys.disabled():
        print(f"{'PASS' if outcome['ok'] else 'FAIL'}  {label}")


def all_graphs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield epsilon_matrix(n, [p for k, p in enumerate(pairs) if (bits >> k) & 1])


def test_01_exact_char_polynomials(report):
    t0 = time.perf_counter()
    for fx in ALL:
        chi = char_poly(fx.graph)
        assert chi.coeffs == fx.chi_coeffs
        assert evaluate(chi.coeffs, 0) == 1
    assert time.perf_counter() - t0 < 1.0
    report["ok"] = True


def test_02_rank_law_at_every_root(report):
    for fx in ALL:
        m = fx.graph
        chi = char_poly(m)
        roots = real_roots_with_multiplicity(m, squarefree_decomposition(chi))
        assert len(roots) == len(fx.roots)
        for rec in roots:
            c = rec.exact if rec.exact is not None else rec.value
            assert rank(build_S(m, 1.0, float(c))) == fx.graph.n - rec.multiplicity
    report["ok"] = True


def test_03_fixture_group_orders(report):
    for fx, g_order, h_order in ((SQUARE, 48, 8), (POINTED_HEXAGON, 120, 10)):
        t0 = time.perf_counter()
        grp = enumerate_group(fx.graph)
        assert grp.order == g_order
        assert len(graph_automorphisms(fx.graph)) == h_order
        assert time.perf_counter() - t0 < 5.0
    report["ok"] = True


def test_04_pointed_hexagon_two_transitive(report):
    grp = enumerate_group(POINTED_HEXAGON.graph)
    info = orbits_on_lines(grp)
    assert info.orbits == ((0, 1, 2, 3, 4, 5),)
    assert info.is_2_transitive
    report["ok"] = True


def test_05_pruned_search_matches_naive_everywhere(report):
    # every labeled graph on 3, 4 and 5 vertices: 8 + 64 + 1024 cases
    t0 = time.perf_counter()
    count = 0
    for n in (3, 4, 5):
        for m in all_graphs(n):
            sigma, nu = enumerate_group(m).listing
            want_sigma, want_nu = naive_group_elements(m)
            assert np.array_equal(sigma, want_sigma) and np.array_equal(nu, want_nu)
            count += 1
    assert count == 8 + 64 + 1024
    assert time.perf_counter() - t0 < 60.0
    report["ok"] = True


def test_06_gram_round_trip(report):
    rng = random.Random(2026)
    nprng = np.random.default_rng(2026)
    for _ in range(500):
        n = rng.randint(1, 7)
        g = epsilon_matrix(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        )
        c = float(nprng.uniform(-2, 2))
        s = build_S(g, 1.0, c)
        signs, vectors, _ = gram_factorize(s, rank(s))
        assert np.abs((vectors * signs) @ vectors.T - s).max() < 1e-9
    report["ok"] = True


def test_07_realized_cube_group(report):
    u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
    grp = enumerate_group(SQUARE.graph)
    sigma, nu = grp.listing
    mats = realize_isometry(sigma, nu, u)
    assert len(mats) == 48
    for f in mats:
        assert np.abs(f.T @ f - np.eye(3)).max() < 1e-8
    for a, b in itertools.combinations(mats, 2):
        assert np.abs(a - b).max() > 1e-6
    # realize(a) realize(b) = realize(a after b) on all 48 x 48 pairs
    a, b = np.divmod(np.arange(48 * 48), 48)
    ab = realize_isometry(*signed_product((sigma[a], nu[a]), (sigma[b], nu[b])), u)
    assert np.abs(mats[a] @ mats[b] - ab).max() < 1e-7
    report["ok"] = True


def test_08_linking_rules_exhaustive(report):
    # all labeled graphs up to 7 vertices, both unit parameter values
    t0 = time.perf_counter()
    for n in range(2, 8):
        for c in (1, -1):
            total, failures = _backend.linking_sweep(n, c)
            assert total == 1 << (n * (n - 1) // 2)
            assert failures == 0
    assert time.perf_counter() - t0 < 300.0
    report["ok"] = True


def test_09_pentagon_order_and_demo_table(report):
    m = PENTAGON.graph
    pruned = enumerate_group(m)
    brute, _ = naive_group_elements(m)
    assert pruned.order == len(brute) == 20
    rows, ok = run_demo()
    assert ok
    pent = next(r for r in rows if r["fixture"] == PENTAGON.name)
    assert pent["group_order"] == 20
    assert pent["group_order_mod_center"] == 10
    report["ok"] = True
