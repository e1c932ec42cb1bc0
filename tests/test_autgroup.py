import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbe import _kernels_py, cli, fixtures
from gerbe.autgroup import (
    REALIZE_CHUNK,
    SheafGroup,
    SignedPermutation,
    compose,
    enumerate_group,
    extend_signs,
    inverse,
    orbits_on_lines,
    realize_isometries,
    realize_isometry,
)
from gerbe.errors import BoundExceededError, GramMismatchError
from gerbe.fixtures import PENTAGON, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import (
    Graph,
    Permutation,
    SignMatrix,
    automorphism_order,
    chain_products,
    conjugate_matrix,
    epsilon_matrix,
    graph_automorphisms,
    stabilizer_chain,
)
from gerbe.quadspace import Representation, build_S, isometry_between, rank
from oracles import naive_group_elements, naive_isomorphisms, naive_orbits, sign_compatible
from oracles import chain_products as tuple_chain_products


def random_graph(rng, n):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


class TestCompose:
    def test_identity_neutral(self):
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        ident = SignedPermutation.identity(4)
        for el in grp.elements:
            assert compose(ident, el) == el
            assert compose(el, ident) == el

    def test_central_involution(self):
        c = SignedPermutation.central(4)
        assert compose(c, c) == SignedPermutation.identity(4)

    def test_closure_and_inverse(self):
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        members = set(grp.elements)
        ident = SignedPermutation.identity(4)
        for a in grp.elements:
            assert inverse(a) in members
            assert compose(a, inverse(a)) == ident
        rng = random.Random(3)
        for _ in range(200):
            a, b = rng.choice(grp.elements), rng.choice(grp.elements)
            assert compose(a, b) in members

    def test_associativity_spot_check(self):
        grp = enumerate_group(epsilon_matrix(PENTAGON.graph))
        rng = random.Random(5)
        for _ in range(100):
            a, b, c = (rng.choice(grp.elements) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(SignedPermutation.identity(3), SignedPermutation.identity(4))


class TestExtendSigns:
    def test_identity_permutation(self):
        m = epsilon_matrix(SQUARE.graph)
        sols = extend_signs(Permutation.identity(4), m)
        assert sols == [(1, 1, 1, 1), (-1, -1, -1, -1)]

    def test_diagonal_transposition_on_square(self):
        # (1 3) in 1-based terms: a graph automorphism of the 4-cycle
        m = epsilon_matrix(SQUARE.graph)
        sols = extend_signs(Permutation((2, 1, 0, 3)), m)
        assert (1, 1, 1, 1) in sols and (-1, -1, -1, -1) in sols

    def test_brute_force_oracle(self):
        # every permutation, checked against exhaustive sign search; is_valid
        # agrees with the loop over all pairs
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 5)
            g = random_graph(rng, n)
            m = epsilon_matrix(g)
            for images in itertools.permutations(range(n)):
                s = Permutation(images)
                expected = []
                for bits in range(1 << n):
                    nu = tuple(1 if not (bits >> i) & 1 else -1 for i in range(n))
                    valid = sign_compatible(images, nu, m)
                    assert SignedPermutation(s, nu).is_valid(m) == valid
                    if valid:
                        expected.append(nu)
                got = extend_signs(s, m)
                assert sorted(got) == sorted(expected)
                assert len(got) in (0, 2)
                if got:
                    assert got[1] == tuple(-v for v in got[0])

    def test_small_n_rejected(self):
        m = epsilon_matrix(Graph(2, frozenset()))
        with pytest.raises(ValueError):
            extend_signs(Permutation.identity(2), m)


class TestEnumerateGroup:
    def test_square_order_48(self):
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        assert grp.order == 48
        assert grp.n_sigma == 24
        assert grp.order == 2 * grp.n_sigma

    def test_pointed_hexagon_order_120(self):
        grp = enumerate_group(epsilon_matrix(POINTED_HEXAGON.graph))
        assert grp.order == 120

    def test_edgeless_three(self):
        grp = enumerate_group(epsilon_matrix(Graph(3, frozenset())))
        assert grp.order == 12
        for el in grp.elements:
            assert len(set(el.nu)) == 1  # constant sign vectors only

    def test_contains_identity_and_center(self):
        grp = enumerate_group(epsilon_matrix(PENTAGON.graph))
        assert SignedPermutation.identity(5) in grp
        assert SignedPermutation.central(5) in grp

    def test_graph_automorphisms_embed(self):
        for fx in (TRIANGLE, SQUARE, PENTAGON, POINTED_HEXAGON):
            m = epsilon_matrix(fx.graph)
            grp = enumerate_group(m)
            members = set(grp.elements)
            for s in graph_automorphisms(fx.graph):
                assert SignedPermutation(s, (1,) * fx.graph.n) in members

    def test_naive_matches_pruned(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 5))
            m = epsilon_matrix(g)
            assert enumerate_group(m).elements == naive_group_elements(m)

    def test_all_elements_valid(self):
        m = epsilon_matrix(PENTAGON.graph)
        for el in enumerate_group(m).elements:
            assert el.is_valid(m)

    def test_bound(self):
        # the brute-force oracle stops at n = 8; the chain goes on
        m = epsilon_matrix(Graph(9, frozenset()))
        with pytest.raises(BoundExceededError, match="brute-force bound 8"):
            naive_group_elements(m)
        assert enumerate_group(m).order == 2 * math.factorial(9)

    def test_tiny_n(self):
        # one vertex: just the two global signs; two vertices: signs must agree
        assert enumerate_group(epsilon_matrix(Graph(1, frozenset()))).order == 2
        assert enumerate_group(epsilon_matrix(Graph(2, frozenset()))).order == 4


class TestRealize:
    @pytest.fixture()
    def cube(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        return u, grp

    def test_identity_and_center(self, cube):
        u, _ = cube
        f = realize_isometry(SignedPermutation.identity(4), u)
        assert np.abs(f - np.eye(3)).max() < 1e-9
        f = realize_isometry(SignedPermutation.central(4), u)
        assert np.abs(f + np.eye(3)).max() < 1e-9

    def test_defining_property(self, cube):
        u, grp = cube
        for el in grp.elements:
            f = realize_isometry(el, u)
            for i in range(4):
                target = el.nu[i] * u.vectors[el.sigma(i)]
                assert np.abs(f @ u.vectors[i] - target).max() < 1e-8

    def test_forty_eight_distinct_orthogonal(self, cube):
        u, grp = cube
        mats = [realize_isometry(el, u) for el in grp.elements]
        assert len(mats) == 48
        for m in mats:
            assert np.abs(m.T @ m - np.eye(3)).max() < 1e-8
        for a, b in itertools.combinations(mats, 2):
            assert np.abs(a - b).max() > 1e-6

    def test_morphism_property(self, cube):
        u, grp = cube
        mats = {el: realize_isometry(el, u) for el in grp.elements}
        for a in grp.elements:
            for b in grp.elements:
                assert np.abs(mats[a] @ mats[b] - mats[compose(a, b)]).max() < 1e-7


def petersen():
    """Kneser graph K(5,2): 2-subsets of a 5-set, linked when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    return Graph.from_edges(10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                                 if not set(verts[a]) & set(verts[b])])


REALIZED = [
    (petersen(), 1 / 3),  # 1440 elements: two chunks
    (POINTED_HEXAGON.graph, -1 / 5 ** 0.5),  # the smallest root of chi
    (POINTED_HEXAGON.graph, -1 / 2),  # signature (3, 3)
    (SQUARE.graph, -1 / 2),  # signature (3, 1)
]


def group_and_representation(g, c):
    # c is a float near a root, so its degree is the numeric rank of S(1, c)
    degree = rank(build_S(epsilon_matrix(g), 1.0, c))
    return enumerate_group(epsilon_matrix(g)), Representation.build(g, 1.0, c, degree)


class TestRealizeBatched:
    @pytest.mark.parametrize("g, c", REALIZED)
    def test_chunks_equal_single_calls_bitwise(self, g, c):
        grp, u = group_and_representation(g, c)
        mats = realize_isometries(*grp.listing, u)
        single = np.array([
            isometry_between(u.vectors, [el.nu[i] * u.vectors[el.sigma(i)] for i in range(u.n)],
                             u.space, u.space)
            for el in grp.elements
        ])
        assert mats.shape == (grp.order, u.degree, u.degree)
        assert mats.tobytes() == single.tobytes()
        assert realize_isometry(grp.elements[-1], u).tobytes() == mats[-1].tobytes()

    @pytest.mark.parametrize("g, c", REALIZED)
    def test_defining_property_and_form(self, g, c):
        grp, u = group_and_representation(g, c)
        mats = realize_isometries(*grp.listing, u)
        j = np.diag(u.space.signs).astype(float)
        for el, f in zip(grp.elements, mats):
            targets = np.array([el.nu[i] * u.vectors[el.sigma(i)] for i in range(u.n)])
            assert np.abs(u.vectors @ f.T - targets).max() < 1e-8
            assert np.abs(f.T @ j @ f - j).max() < 1e-8

    def test_morphism_on_random_petersen_pairs(self):
        grp, u = group_and_representation(petersen(), 1 / 3)
        mats = dict(zip(grp.elements, realize_isometries(*grp.listing, u)))
        rng = random.Random(41)
        for _ in range(200):
            a, b = rng.choice(grp.elements), rng.choice(grp.elements)
            assert np.abs(mats[a] @ mats[b] - mats[compose(a, b)]).max() < 1e-8

    def test_invalid_element_in_second_chunk(self):
        grp, u = group_and_representation(petersen(), 1 / 3)
        assert REALIZE_CHUNK < grp.order < 2 * REALIZE_CHUNK  # two chunks
        swap = SignedPermutation(Permutation((1, 0) + tuple(range(2, 10))), (1,) * 10)
        assert not swap.is_valid(grp.ambient)
        sigma, nu = grp.listing
        sigma = np.insert(sigma, REALIZE_CHUNK + 5, swap.sigma.images, axis=0)
        nu = np.insert(nu, REALIZE_CHUNK + 5, swap.nu, axis=0)
        with pytest.raises(GramMismatchError):
            realize_isometries(sigma, nu, u)
        assert len(realize_isometries(sigma[:REALIZE_CHUNK], nu[:REALIZE_CHUNK], u)) == REALIZE_CHUNK

    def test_cli_realize_one_svd_per_chunk(self, tmp_path, capsys, monkeypatch):
        # structural guard, not a timing: u is factorized once per chunk of
        # elements, not once per element.  The span test of reducedness takes
        # singular values alone (compute_uv=False) and is not counted
        calls = []
        original = np.linalg.svd

        def counted(*args, **kwargs):
            if kwargs.get("compute_uv", True):
                calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        p = tmp_path / "petersen.txt"
        p.write_text("10\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in petersen().sorted_edges()))
        assert cli.main(["group", str(p), "--c=1/3", "--realize", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["isometries"]) == 1440
        assert 1 <= len(calls) <= math.ceil(1440 / REALIZE_CHUNK)


class TestOrbits:
    def test_pointed_hexagon_two_transitive(self):
        grp = enumerate_group(epsilon_matrix(POINTED_HEXAGON.graph))
        info = orbits_on_lines(grp)
        assert info.is_transitive
        assert info.is_2_transitive
        assert info.orbits == ((0, 1, 2, 3, 4, 5),)

    def test_square_transitive(self):
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        info = orbits_on_lines(grp)
        assert info.is_transitive
        assert info.is_2_transitive

    def test_pentagon_not_two_transitive(self):
        grp = enumerate_group(epsilon_matrix(PENTAGON.graph))
        info = orbits_on_lines(grp)
        assert info.is_transitive
        assert not info.is_2_transitive

    def test_center_only_group_not_transitive(self):
        m = epsilon_matrix(PENTAGON.graph)
        # a chain whose every level holds only the identity: the group {±id}
        tiny = SheafGroup(m, [[tuple(range(5))]] * 5)
        assert tiny.elements == (SignedPermutation.central(5), SignedPermutation.identity(5))
        info = orbits_on_lines(tiny)
        assert not info.is_transitive
        assert len(info.orbits) == 5

    def test_disconnected_two_orbits(self):
        # two disjoint edges: lines cannot mix between non-isomorphic pieces
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        grp = enumerate_group(epsilon_matrix(g))
        info = orbits_on_lines(grp)
        assert not info.is_2_transitive


class TestGroupLawMatchesIsometries:
    def test_product_against_isometry_oracle(self):
        # realize(a) . realize(b) must equal realize(a * b) on the 4-cycle
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        rng = random.Random(17)
        for _ in range(30):
            a, b = rng.choice(grp.elements), rng.choice(grp.elements)
            fa = realize_isometry(a, u)
            fb = realize_isometry(b, u)
            fab = realize_isometry(compose(a, b), u)
            assert np.abs(fa @ fb - fab).max() < 1e-7

    def test_faithful_when_lines_distinct(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        grp = enumerate_group(epsilon_matrix(SQUARE.graph))
        seen = []
        for el in grp.elements:
            f = realize_isometry(el, u)
            for other in seen:
                assert np.abs(f - other).max() > 1e-6
            seen.append(f)


def clebsch():
    """Folded 5-cube: 4-bit words linked at Hamming distance 1 or 4."""
    return Graph.from_edges(16, [(a, b) for a, b in itertools.combinations(range(16), 2)
                                 if bin(a ^ b).count("1") in (1, 4)])


def triangular(k):
    """T(k): the 2-subsets of a k-set, linked when they meet."""
    verts = list(itertools.combinations(range(k), 2))
    return Graph.from_edges(len(verts), [
        (a, b) for a, b in itertools.combinations(range(len(verts)), 2)
        if set(verts[a]) & set(verts[b])
    ])


class TestStabilizerChain:
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_enumeration(self, n, seed):
        g = random_graph(random.Random(seed), n)
        m = epsilon_matrix(g)
        chain, naive = enumerate_group(m), naive_group_elements(m)
        assert chain.order == len(naive)
        assert chain.n_sigma == len({el.sigma.images for el in naive})
        assert orbits_on_lines(chain) == naive_orbits(naive, n)
        auts = [s for s in itertools.permutations(range(n))
                if all(g.linked(s[i], s[j]) == g.linked(i, j)
                       for i, j in itertools.combinations(range(n), 2))]
        assert automorphism_order(g) == len(auts)
        assert [a.images for a in graph_automorphisms(g)] == auts

    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_switching_and_relabelling_invariance(self, n, seed):
        rng = random.Random(seed)
        m = epsilon_matrix(random_graph(rng, n))
        d = np.array([rng.choice((-1, 1)) for _ in range(n)])
        images = list(range(n))
        rng.shuffle(images)
        m2 = conjugate_matrix(Permutation(tuple(images)),
                              SignMatrix(m.entries * np.outer(d, d)))
        g1, g2 = enumerate_group(m), enumerate_group(m2)
        assert g1.order == g2.order
        o1, o2 = orbits_on_lines(g1), orbits_on_lines(g2)
        assert sorted(map(len, o1.orbits)) == sorted(map(len, o2.orbits))
        assert o1.is_2_transitive == o2.is_2_transitive

    @pytest.mark.parametrize("g, order", [(clebsch(), 23040), (triangular(8), 2903040)])
    def test_lemmens_seidel_systems(self, g, order):
        grp = enumerate_group(epsilon_matrix(g))
        assert grp.order == order
        assert grp.n_sigma == order // 2
        info = orbits_on_lines(grp)
        assert info.is_2_transitive

    def test_kernel_modes(self):
        # every sigma with src[i][j] = dst[sigma(i)][sigma(j)], sorted, against
        # brute force: into a relabelled copy, into an unrelated graph and
        # into src itself, under prefixes that fix a start of the base and
        # those that do not; ``first`` gives one of them
        rng = random.Random(23)
        for _ in range(24):
            n = rng.randint(1, 6)
            src = epsilon_matrix(random_graph(rng, n)).linked_masks()
            images = list(range(n))
            rng.shuffle(images)
            copy = [0] * n
            for i in range(n):
                copy[images[i]] = sum(1 << images[j] for j in range(n) if src[i] >> j & 1)
            other = epsilon_matrix(random_graph(rng, n)).linked_masks()
            prefixes = ([()] + list(itertools.permutations(range(n), min(n, 2)))
                        + [tuple(range(k)) + (b,) for k in range(n) for b in range(k, n)])
            for dst in (copy, other, None):
                full = naive_isomorphisms(src, src if dst is None else dst)
                assert _kernels_py.signed_stabilizer(src, dst) == full
                for prefix in prefixes:
                    want = [s for s in full if s[:len(prefix)] == prefix]
                    assert _kernels_py.signed_stabilizer(src, dst, prefix) == want
                    one = _kernels_py.signed_stabilizer(src, dst, prefix, first=True)
                    assert len(one) == min(1, len(want)) and set(one) <= set(want)

    def test_membership_and_listing(self):
        grp = enumerate_group(epsilon_matrix(triangular(4)))
        assert len(grp.elements) == grp.order == len(set(grp.elements))
        assert all(el in grp for el in grp.elements)
        outside = SignedPermutation(Permutation((1, 0, 2, 3, 4, 5)), (1,) * 6)
        assert not outside.is_valid(grp.ambient)
        assert outside not in grp

    def test_cli_edgeless_ten(self, tmp_path, capsys):
        p = tmp_path / "edgeless10.txt"
        p.write_text("10\n")
        assert cli.main(["group", str(p), "--c=-1/9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_order"] == 7257600
        assert payload["aut_graph_order"] == 3628800
        assert payload["is_2_transitive"] is True

    def test_cli_realize_capped(self, tmp_path, capsys, monkeypatch):
        # |G| = 7,257,600 is known from the chain; --realize must refuse it
        # before listing a single element
        def refuse(self):
            raise AssertionError("group listed")

        monkeypatch.setattr(SheafGroup, "listing", property(refuse))
        p = tmp_path / "edgeless10.txt"
        p.write_text("10\n")
        t0 = time.perf_counter()
        assert cli.main(["group", str(p), "--c=-1/9", "--realize"]) == 3
        assert time.perf_counter() - t0 < 10.0
        assert "--realize listing bound" in capsys.readouterr().err


def latin_square_graph(m):
    """The Latin-square graph of Z_m: the cells (i, j) of its Cayley table,
    linked when they share a row, a column or the symbol i + j."""
    cells = list(itertools.product(range(m), repeat=2))
    return Graph.from_edges(m * m, [
        (a, b) for a, b in itertools.combinations(range(m * m), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
        or (sum(cells[a]) - sum(cells[b])) % m == 0])


def relabelled_switched_petersen():
    rng = random.Random(7)
    images = list(range(10))
    rng.shuffle(images)
    d = np.array([rng.choice((-1, 1)) for _ in range(10)])
    m = conjugate_matrix(Permutation(tuple(images)),
                         SignMatrix(epsilon_matrix(petersen()).entries * np.outer(d, d)))
    return Graph.from_edges(10, np.argwhere(np.triu(m.entries) == -1).tolist())


LISTED = [fx.graph for fx in fixtures.ALL] + [
    petersen(), relabelled_switched_petersen(), Graph(6, frozenset())]


class TestListing:
    @pytest.mark.parametrize("g", LISTED)
    @pytest.mark.parametrize("sheaf", [True, False])  # the chain of G, that of Aut g
    def test_array_products_match_tuple_products(self, g, sheaf):
        m = epsilon_matrix(g)
        levels = enumerate_group(m).levels if sheaf else stabilizer_chain(m.linked_masks())
        sigma = chain_products(levels)
        expected = tuple_chain_products(levels)
        assert len(sigma) == len(expected) == math.prod(map(len, levels))
        assert list(map(tuple, sigma.tolist())) == sorted(expected)

    @pytest.mark.parametrize("g", LISTED)
    def test_elements_and_automorphisms_sorted_as_before(self, g):
        # each sigma with nu_j = e_0j e_sigma(0)sigma(j) and its negative
        m = epsilon_matrix(g)
        grp = enumerate_group(m)
        forced = [(sigma, tuple(m[0, j] * m[sigma[0], sigma[j]] for j in range(g.n)))
                  for sigma in tuple_chain_products(grp.levels)]
        signed = sorted((sigma, sign) for sigma, nu in forced
                        for sign in (nu, tuple(-v for v in nu)))
        assert all(sign_compatible(sigma, nu, m) for sigma, nu in forced)
        assert grp.elements == tuple(
            SignedPermutation(Permutation(sigma), nu) for sigma, nu in signed)
        sigma, nu = grp.listing
        assert [(el.sigma.images, el.nu) for el in grp.elements] == list(
            zip(map(tuple, sigma.tolist()), map(tuple, nu.tolist())))
        assert graph_automorphisms(g) == [Permutation(s) for s in sorted(
            tuple_chain_products(stabilizer_chain(m.linked_masks())))]
