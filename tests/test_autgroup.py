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
    enumerate_group,
    forced_signs,
    orbits_on_lines,
    realize_isometry,
)
from gerbe.errors import BoundExceededError, GramMismatchError
from gerbe.fixtures import PENTAGON, POINTED_HEXAGON, SQUARE, TRIANGLE
from gerbe.graph import (
    SignMatrix,
    automorphism_order,
    chain_products,
    epsilon_matrix,
    graph_automorphisms,
    stabilizer_chain,
)
from gerbe.quadspace import Representation, build_S, isometry_between, rank
from gerbe.sheaf import line_classes, restrict_to_Y
from oracles import (
    format_graph,
    naive_group_elements,
    naive_isomorphisms,
    naive_orbits,
    sign_compatible,
    signed_product,
)
from oracles import chain_products as tuple_chain_products


def random_graph(rng, n):
    return epsilon_matrix(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )


def identity(n, sign=1):
    return np.arange(n)[None], np.full((1, n), sign)


def rows(sigma, nu):
    """The elements of (sigma, nu) arrays as tuples, for lookups."""
    return list(zip(map(tuple, sigma.tolist()), map(tuple, nu.tolist())))


def product_table(grp):
    """The listing, and the position in it of a_k after a_l at [k, l]."""
    sigma, nu = grp.listing
    ps, pn = signed_product((sigma[:, None], nu[:, None]), (sigma[None], nu[None]))
    position = {el: k for k, el in enumerate(rows(sigma, nu))}
    n = grp.ambient.n
    table = [position[el] for el in rows(ps.reshape(-1, n), pn.reshape(-1, n))]
    return (sigma, nu), np.array(table).reshape(len(sigma), len(sigma))


class TestCompose:
    def test_identity_neutral(self):
        sigma, nu = enumerate_group(SQUARE.graph).listing
        ident = identity(4)
        for left, right in ((ident, (sigma, nu)), ((sigma, nu), ident)):
            ps, pn = signed_product(left, right)
            assert np.array_equal(ps, sigma) and np.array_equal(pn, nu)

    def test_central_involution(self):
        ps, pn = signed_product(identity(4, -1), identity(4, -1))
        assert rows(ps, pn) == rows(*identity(4))

    def test_closure_and_inverse(self):
        # every product of two elements is listed, and each row and column
        # of the product table holds the identity exactly once
        (sigma, nu), table = product_table(enumerate_group(SQUARE.graph))
        assert table.shape == (48, 48)
        one = rows(sigma, nu).index(rows(*identity(4))[0])
        assert ((table == one).sum(0) == 1).all() and ((table == one).sum(1) == 1).all()
        assert all(sorted(row) == list(range(48)) for row in table.tolist())

    def test_associativity_spot_check(self):
        sigma, nu = enumerate_group(PENTAGON.graph).listing
        picks = np.random.default_rng(5).integers(len(sigma), size=(3, 100))
        a, b, c = ((sigma[k], nu[k]) for k in picks)
        left = signed_product(signed_product(a, b), c)
        right = signed_product(a, signed_product(b, c))
        assert np.array_equal(left[0], right[0]) and np.array_equal(left[1], right[1])


class TestExtendSigns:
    # the signs that extend a permutation to an element: forced_signs and
    # their negatives, when they are compatible at all
    def test_identity_permutation(self):
        m = SQUARE.graph
        assert forced_signs(np.arange(4)[None], m).tolist() == [[1, 1, 1, 1]]

    def test_diagonal_transposition_on_square(self):
        # (1 3) in 1-based terms: a graph automorphism of the 4-cycle
        m = SQUARE.graph
        [nu] = forced_signs(np.array([[2, 1, 0, 3]]), m).tolist()
        assert nu == [1, 1, 1, 1] and sign_compatible((2, 1, 0, 3), nu, m)

    def test_brute_force_oracle(self):
        # every permutation, checked against exhaustive sign search: the
        # compatible signs are the forced ones and their negatives, or none
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(3, 5)
            m = random_graph(rng, n)
            perms = list(itertools.permutations(range(n)))
            for images, nu in zip(perms, forced_signs(np.array(perms), m).tolist()):
                expected = []
                for bits in range(1 << n):
                    sign = tuple(1 if not (bits >> i) & 1 else -1 for i in range(n))
                    if sign_compatible(images, sign, m):
                        expected.append(sign)
                got = [tuple(nu), tuple(-v for v in nu)] if sign_compatible(images, nu, m) else []
                assert nu[0] == 1
                assert sorted(got) == sorted(expected)


class TestEnumerateGroup:
    def test_square_order_48(self):
        grp = enumerate_group(SQUARE.graph)
        assert grp.order == 48
        assert grp.n_sigma == 24
        assert grp.order == 2 * grp.n_sigma

    def test_pointed_hexagon_order_120(self):
        grp = enumerate_group(POINTED_HEXAGON.graph)
        assert grp.order == 120

    def test_edgeless_three(self):
        grp = enumerate_group(epsilon_matrix(3, []))
        assert grp.order == 12
        _, nu = grp.listing
        assert (nu == nu[:, :1]).all()  # constant sign vectors only

    def test_contains_identity_and_center(self):
        m = PENTAGON.graph
        listed = rows(*enumerate_group(m).listing)
        for sign in (1, -1):
            [el] = rows(*identity(5, sign))
            assert el in listed and sign_compatible(*el, m)

    def test_graph_automorphisms_embed(self):
        for fx in (TRIANGLE, SQUARE, PENTAGON, POINTED_HEXAGON):
            listed = set(rows(*enumerate_group(fx.graph).listing))
            auts = graph_automorphisms(fx.graph)
            assert set(rows(auts, np.ones_like(auts))) <= listed

    def test_naive_matches_pruned(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_graph(rng, rng.randint(3, 5))
            assert rows(*enumerate_group(m).listing) == rows(*naive_group_elements(m))

    def test_all_elements_valid(self):
        m = PENTAGON.graph
        assert all(sign_compatible(sigma, nu, m) for sigma, nu in rows(*enumerate_group(m).listing))

    def test_bound(self):
        # the brute-force oracle stops at n = 8; the chain goes on
        m = epsilon_matrix(9, [])
        with pytest.raises(BoundExceededError, match="brute-force bound 8"):
            naive_group_elements(m)
        assert enumerate_group(m).order == 2 * math.factorial(9)

    def test_tiny_n(self):
        # one vertex: just the two global signs; two vertices: signs must agree
        assert enumerate_group(epsilon_matrix(1, [])).order == 2
        assert enumerate_group(epsilon_matrix(2, [])).order == 4


class TestRealize:
    @pytest.fixture()
    def cube(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        grp = enumerate_group(SQUARE.graph)
        return u, grp

    def test_identity_and_center(self, cube):
        u, _ = cube
        [f] = realize_isometry(*identity(4), u)
        assert np.abs(f - np.eye(3)).max() < 1e-9
        [f] = realize_isometry(*identity(4, -1), u)
        assert np.abs(f + np.eye(3)).max() < 1e-9

    def test_defining_property(self, cube):
        u, grp = cube
        sigma, nu = grp.listing
        for f, s, v in zip(realize_isometry(sigma, nu, u), sigma, nu):
            for i in range(4):
                target = v[i] * u.vectors[s[i]]
                assert np.abs(f @ u.vectors[i] - target).max() < 1e-8

    def test_forty_eight_distinct_orthogonal(self, cube):
        u, grp = cube
        mats = realize_isometry(*grp.listing, u)
        assert len(mats) == 48
        for m in mats:
            assert np.abs(m.T @ m - np.eye(3)).max() < 1e-8
        for a, b in itertools.combinations(mats, 2):
            assert np.abs(a - b).max() > 1e-6

    def test_morphism_property(self, cube):
        u, grp = cube
        listing, table = product_table(grp)
        mats = realize_isometry(*listing, u)
        assert np.abs(mats[:, None] @ mats[None] - mats[table]).max() < 1e-7


def petersen():
    """Kneser graph K(5,2): 2-subsets of a 5-set, linked when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    return epsilon_matrix(10, [(a, b) for a, b in itertools.combinations(range(10), 2)
                               if not set(verts[a]) & set(verts[b])])


REALIZED = [
    (petersen(), 1 / 3),  # 1440 elements: two chunks
    (POINTED_HEXAGON.graph, -1 / 5 ** 0.5),  # the smallest root of chi
    (POINTED_HEXAGON.graph, -1 / 2),  # signature (3, 3)
    (SQUARE.graph, -1 / 2),  # signature (3, 1)
]


def group_and_representation(g, c):
    # c is a float near a root, so its degree is the numeric rank of S(1, c)
    degree = rank(build_S(g, 1.0, c))
    return enumerate_group(g), Representation.build(g, 1.0, c, degree)


class TestRealizeBatched:
    @pytest.mark.parametrize("g, c", REALIZED)
    def test_chunks_equal_single_calls_bitwise(self, g, c):
        grp, u = group_and_representation(g, c)
        sigma, nu = grp.listing
        mats = realize_isometry(sigma, nu, u)
        single = np.array([
            isometry_between(u.vectors, [v[i] * u.vectors[s[i]] for i in range(u.n)],
                             u.space, u.space, u.pivots)
            for s, v in zip(sigma, nu)
        ])
        assert mats.shape == (grp.order, u.degree, u.degree)
        assert mats.tobytes() == single.tobytes()
        assert realize_isometry(sigma[-1:], nu[-1:], u).tobytes() == mats[-1].tobytes()

    @pytest.mark.parametrize("g, c", REALIZED)
    def test_defining_property_and_form(self, g, c):
        grp, u = group_and_representation(g, c)
        sigma, nu = grp.listing
        mats = realize_isometry(sigma, nu, u)
        j = np.diag(u.space.signs).astype(float)
        for s, v, f in zip(sigma, nu, mats):
            targets = np.array([v[i] * u.vectors[s[i]] for i in range(u.n)])
            assert np.abs(u.vectors @ f.T - targets).max() < 1e-8
            assert np.abs(f.T @ j @ f - j).max() < 1e-8

    def test_morphism_on_random_petersen_pairs(self):
        grp, u = group_and_representation(petersen(), 1 / 3)
        sigma, nu = grp.listing
        mats = realize_isometry(sigma, nu, u)
        position = {el: k for k, el in enumerate(rows(sigma, nu))}
        a, b = np.random.default_rng(41).integers(len(sigma), size=(2, 200))
        ab = [position[el] for el in rows(*signed_product((sigma[a], nu[a]), (sigma[b], nu[b])))]
        assert np.abs(mats[a] @ mats[b] - mats[ab]).max() < 1e-8

    def test_invalid_element_in_second_chunk(self):
        grp, u = group_and_representation(petersen(), 1 / 3)
        assert REALIZE_CHUNK < grp.order < 2 * REALIZE_CHUNK  # two chunks
        swap = (1, 0) + tuple(range(2, 10)), (1,) * 10
        assert not sign_compatible(*swap, grp.ambient)
        sigma, nu = grp.listing
        sigma = np.insert(sigma, REALIZE_CHUNK + 5, swap[0], axis=0)
        nu = np.insert(nu, REALIZE_CHUNK + 5, swap[1], axis=0)
        with pytest.raises(GramMismatchError):
            realize_isometry(sigma, nu, u)
        assert len(realize_isometry(sigma[:REALIZE_CHUNK], nu[:REALIZE_CHUNK], u)) == REALIZE_CHUNK

    def test_cli_realize_one_solve_per_chunk(self, tmp_path, capsys, monkeypatch):
        # structural guard, not a timing: the pivot rows of u are solved
        # against a whole chunk of elements at once, not once per element,
        # and no SVD solves at all.  The span test of the pivot rows takes
        # singular values alone (compute_uv=False) and is not counted
        calls = {"solve": 0, "svd": 0}
        solve, svd = np.linalg.solve, np.linalg.svd

        def counted_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        def counted_svd(*args, **kwargs):
            calls["svd"] += kwargs.get("compute_uv", True)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        p = tmp_path / "petersen.txt"
        p.write_text(format_graph(petersen()))
        assert cli.main(["group", str(p), "--c=1/3", "--realize", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["isometries"]) == 1440
        assert 1 <= calls["solve"] <= math.ceil(1440 / REALIZE_CHUNK)
        assert calls["svd"] == 0


class TestOrbits:
    def test_pointed_hexagon_two_transitive(self):
        grp = enumerate_group(POINTED_HEXAGON.graph)
        info = orbits_on_lines(grp)
        assert info.is_transitive
        assert info.is_2_transitive
        assert info.orbits == ((0, 1, 2, 3, 4, 5),)

    def test_square_transitive(self):
        grp = enumerate_group(SQUARE.graph)
        info = orbits_on_lines(grp)
        assert info.is_transitive
        assert info.is_2_transitive

    def test_pentagon_not_two_transitive(self):
        grp = enumerate_group(PENTAGON.graph)
        info = orbits_on_lines(grp)
        assert info.is_transitive
        assert not info.is_2_transitive

    def test_center_only_group_not_transitive(self):
        m = PENTAGON.graph
        # a chain whose every level holds only the identity: the group {±id}
        tiny = SheafGroup(m, [[tuple(range(5))]] * 5)
        assert rows(*tiny.listing) == rows(*identity(5, -1)) + rows(*identity(5))
        info = orbits_on_lines(tiny)
        assert not info.is_transitive
        assert len(info.orbits) == 5

    def test_disconnected_two_orbits(self):
        # two disjoint edges: lines cannot mix between non-isomorphic pieces
        g = epsilon_matrix(5, [(0, 1), (2, 3)])
        grp = enumerate_group(g)
        info = orbits_on_lines(grp)
        assert not info.is_2_transitive


class TestGroupLawMatchesIsometries:
    def test_product_against_isometry_oracle(self):
        # realize(a) . realize(b) must equal realize(a * b) on the 4-cycle
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        sigma, nu = enumerate_group(SQUARE.graph).listing
        picks = np.random.default_rng(17).integers(len(sigma), size=(2, 30))
        a, b = ((sigma[k], nu[k]) for k in picks)
        fa = realize_isometry(*a, u)
        fb = realize_isometry(*b, u)
        fab = realize_isometry(*signed_product(a, b), u)
        assert np.abs(fa @ fb - fab).max() < 1e-7

    def test_faithful_when_lines_distinct(self):
        u = Representation.build(SQUARE.graph, 1.0, -1 / 3, 3)
        grp = enumerate_group(SQUARE.graph)
        seen = []
        for f in realize_isometry(*grp.listing, u):
            for other in seen:
                assert np.abs(f - other).max() > 1e-6
            seen.append(f)


def clebsch():
    """Folded 5-cube: 4-bit words linked at Hamming distance 1 or 4."""
    return epsilon_matrix(16, [(a, b) for a, b in itertools.combinations(range(16), 2)
                               if bin(a ^ b).count("1") in (1, 4)])


def triangular(k):
    """T(k): the 2-subsets of a k-set, linked when they meet."""
    verts = list(itertools.combinations(range(k), 2))
    return epsilon_matrix(len(verts), [
        (a, b) for a, b in itertools.combinations(range(len(verts)), 2)
        if set(verts[a]) & set(verts[b])
    ])


class TestStabilizerChain:
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_enumeration(self, n, seed):
        m = random_graph(random.Random(seed), n)
        chain, (sigma, nu) = enumerate_group(m), naive_group_elements(m)
        assert rows(*chain.listing) == rows(sigma, nu)
        assert chain.n_sigma == len(np.unique(sigma, axis=0))
        assert orbits_on_lines(chain) == naive_orbits(sigma, n)
        e = m.entries
        auts = [s for s in itertools.permutations(range(n))
                if all(e[s[i], s[j]] == e[i, j] for i, j in itertools.combinations(range(n), 2))]
        assert automorphism_order(m) == len(auts)
        assert list(map(tuple, graph_automorphisms(m).tolist())) == auts

    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_switching_and_relabelling_invariance(self, n, seed):
        rng = random.Random(seed)
        m = random_graph(rng, n)
        d = np.array([rng.choice((-1, 1)) for _ in range(n)])
        images = list(range(n))
        rng.shuffle(images)
        m2 = SignMatrix((m.entries * np.outer(d, d))[np.ix_(images, images)])
        g1, g2 = enumerate_group(m), enumerate_group(m2)
        assert g1.order == g2.order
        o1, o2 = orbits_on_lines(g1), orbits_on_lines(g2)
        assert sorted(map(len, o1.orbits)) == sorted(map(len, o2.orbits))
        assert o1.is_2_transitive == o2.is_2_transitive

    @pytest.mark.parametrize("g, order", [(clebsch(), 23040), (triangular(8), 2903040)])
    def test_lemmens_seidel_systems(self, g, order):
        grp = enumerate_group(g)
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
            src = random_graph(rng, n).linked_masks()
            images = list(range(n))
            rng.shuffle(images)
            copy = [0] * n
            for i in range(n):
                copy[images[i]] = sum(1 << images[j] for j in range(n) if src[i] >> j & 1)
            other = random_graph(rng, n).linked_masks()
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
        grp = enumerate_group(triangular(4))
        listed = rows(*grp.listing)
        assert len(listed) == grp.order == len(set(listed))
        assert all(sign_compatible(sigma, nu, grp.ambient) for sigma, nu in listed)
        outside = (1, 0, 2, 3, 4, 5), (1,) * 6
        assert not sign_compatible(*outside, grp.ambient)
        assert outside not in listed

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
    return epsilon_matrix(m * m, [
        (a, b) for a, b in itertools.combinations(range(m * m), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
        or (sum(cells[a]) - sum(cells[b])) % m == 0])


def relabelled_switched_petersen():
    rng = random.Random(7)
    images = list(range(10))
    rng.shuffle(images)
    d = np.array([rng.choice((-1, 1)) for _ in range(10)])
    inv = np.argsort(images)  # m[images[i], images[j]] = the switched matrix at (i, j)
    return SignMatrix((petersen().entries * np.outer(d, d))[np.ix_(inv, inv)])


LISTED = [fx.graph for fx in fixtures.ALL] + [
    petersen(), relabelled_switched_petersen(), epsilon_matrix(6, [])]


class TestListing:
    @pytest.mark.parametrize("g", LISTED)
    @pytest.mark.parametrize("sheaf", [True, False])  # the chain of G, that of Aut g
    def test_array_products_match_tuple_products(self, g, sheaf):
        levels = enumerate_group(g).levels if sheaf else stabilizer_chain(g.linked_masks())
        sigma = chain_products(levels)
        expected = tuple_chain_products(levels)
        assert len(sigma) == len(expected) == math.prod(map(len, levels))
        assert list(map(tuple, sigma.tolist())) == sorted(expected)

    @pytest.mark.parametrize("g", LISTED)
    def test_elements_and_automorphisms_sorted_as_before(self, g):
        # each sigma with nu_j = e_0j e_sigma(0)sigma(j) and its negative
        e = g.entries
        grp = enumerate_group(g)
        forced = [(sigma, tuple(e[0, j] * e[sigma[0], sigma[j]] for j in range(g.n)))
                  for sigma in tuple_chain_products(grp.levels)]
        signed = sorted((sigma, sign) for sigma, nu in forced
                        for sign in (nu, tuple(-v for v in nu)))
        assert all(sign_compatible(sigma, nu, g) for sigma, nu in forced)
        assert rows(*grp.listing) == signed
        assert list(map(tuple, graph_automorphisms(g).tolist())) == sorted(
            tuple_chain_products(stabilizer_chain(g.linked_masks())))


def assert_sign_pairs(sigma, nu):
    """Rows 2k and 2k + 1 share sigma and carry opposite nu, the nu_0 = -1
    row first: the layout the CLI realizes once per pair."""
    assert len(sigma) % 2 == 0
    assert np.array_equal(sigma[0::2], sigma[1::2])
    assert np.array_equal(nu[0::2], -nu[1::2])
    assert (nu[0::2, 0] == -1).all()


class TestSignPairs:
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_listing_pairs_on_switched_and_relabelled_copies(self, n, seed):
        rng = random.Random(seed)
        m = random_graph(rng, n)
        d = np.array([rng.choice((-1, 1)) for _ in range(n)])
        images = list(range(n))
        rng.shuffle(images)
        copy = SignMatrix((m.entries * np.outer(d, d))[np.ix_(images, images)])
        for ambient in (m, copy):
            assert_sign_pairs(*enumerate_group(ambient).listing)

    @pytest.mark.parametrize("g", [petersen(), relabelled_switched_petersen(),
                                   POINTED_HEXAGON.graph], ids=["petersen", "switched", "hexagon"])
    def test_listing_pairs_on_known_groups(self, g):
        assert_sign_pairs(*enumerate_group(g).listing)

    # Petersen and its switched copy, the pointed hexagon at the irrational
    # root 0 of chi, the square at signature (3, 1), and one edge on four
    # vertices at c = -1, whose three lines give a sum that cancels to +0.0
    PAIRED = [(petersen(), 1 / 3), (relabelled_switched_petersen(), -1 / 3),
              (POINTED_HEXAGON.graph, -1 / 5 ** 0.5), (SQUARE.graph, -1 / 2),
              (epsilon_matrix(4, [(0, 2)]), -1.0)]

    @pytest.mark.parametrize("g, c", PAIRED,
                             ids=["petersen", "switched", "hexagon", "square", "one-edge"])
    def test_half_realization_is_the_full_one_bitwise(self, g, c):
        # the CLI realizes the nu_0 = +1 rows and takes 0 - M for their
        # partners: the same bytes as realizing every row
        # the vectors of one vertex per line, as group --realize takes them
        u = Representation.build(g, 1.0, c, rank(build_S(g, 1.0, c)))
        p = line_classes(g, 1.0, c)
        v = Representation(restrict_to_Y(g, p), 1.0, c, u.space, u.vectors[list(p.rep_index)],
                           [p.pi[q] for q in u.pivots])
        grp = enumerate_group(v.graph)
        full = realize_isometry(*grp.listing, v)
        assert full.tobytes() == cli._realize_listing(grp, v).tobytes()
        if c == -1.0:  # -M would write -0.0 at these zeros of the full realization
            assert not np.signbit(full[0::2][full[0::2] == 0]).any()
            assert (full[0::2] == 0).any()
