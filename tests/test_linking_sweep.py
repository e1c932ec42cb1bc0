"""The batched partition and linking kernels against the per-graph
reference in ``oracles``.

The kernels take each graph as row bitmasks and a batch as rows[n, B],
batch axis last.  The sweep runs them on chunks of graphs, ``sheaf`` on a
batch of one.  Their partitions must equal the reference's and their
verdicts its reports, on every small graph, on seeded larger ones up to
n = 64, and on wrong partitions, where the rules must fail exactly where
the reference says they do.
"""

import functools
import itertools
import random

import numpy as np
import pytest

import oracles
from gerbe import _kernels_py, sheaf
from gerbe.graph import epsilon_matrix
from gerbe.sheaf import LinePartition


def all_graphs(n, masks=None):
    """The graphs on n vertices with the given edge masks, all of them by
    default: bit k of a mask is the k-th pair of itertools.combinations."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)) if masks is None else masks:
        yield epsilon_matrix(n, [p for k, p in enumerate(pairs) if (bits >> k) & 1])


@functools.cache
def every_graph(n):
    """all_graphs(n) as a tuple and its adjacency, built once per run."""
    graphs = tuple(all_graphs(n))
    return graphs, adjacency(graphs)


def random_graphs(seed, n, count):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    return [epsilon_matrix(n, [p for p in pairs if rng.random() < 0.5])
            for _ in range(count)]


def graph_sets():
    """Every graph on 1..5 vertices, and 2000 seeded graphs each on 6 and 7."""
    for n in range(1, 6):
        yield list(all_graphs(n))
    yield random_graphs(6, 6, 2000)
    yield random_graphs(7, 7, 2000)


def adjacency(graphs):
    return np.stack([g.entries == -1 for g in graphs])


def row_masks(a):
    """The row bitmasks [n, B] of a batch of adjacency arrays a[B, n, n]."""
    return (a @ _kernels_py._row_bits(a.shape[1])).T


def partition(a, cbit):
    """The kernel's partition of a batch a[B, n, n], as [B, n] arrays like
    the oracles' (rep, and sbit as booleans)."""
    rep, sbit = _kernels_py._batch_partition(row_masks(a), cbit)
    return rep.T, sbit.T.astype(bool)


def rules(a, rep, sbit, cbit):
    """The kernels' verdicts (within, across, all-or-nothing) on a batch
    a[B, n, n], from one ``_switched`` of the partition (rep, sbit) [B, n]."""
    switched = _kernels_py._switched(row_masks(a), rep.T, sbit.T)
    return (*_kernels_py._batch_rules(switched, cbit),
            _kernels_py._batch_all_or_nothing(switched, sbit.T))


def stacked(parts):
    """Partitions of graphs on n vertices as the kernel's [B, n] arrays
    (rep, and sbit as booleans)."""
    return np.array([p.rep for p in parts]), np.array([p.sign for p in parts]) == -1


def verdicts(graphs, parts, c):
    """The kernel's rules on the given partitions, as the sweep runs them."""
    return sweep_ok(adjacency(graphs), *stacked(parts), 0 if c == 1 else 1)


def sweep_ok(a, rep, sbit, cbit):
    within, across, _ = rules(a, rep, sbit, cbit)
    return (within & across).tolist()


def compare_reports(graphs, parts, c):
    """``sheaf.check_class_linking`` against the reference, field by field:
    the cross-class field must match wherever all-or-nothing holds and be
    False elsewhere.  Returns the package's reports."""
    reports = [sheaf.check_class_linking(g, p, c) for g, p in zip(graphs, parts)]
    for got, g, p in zip(reports, graphs, parts):
        want = oracles.check_class_linking(g, p, c)
        assert got.all_or_nothing_ok == want.all_or_nothing_ok
        assert got.within_class_ok == want.within_class_ok
        assert got.cross_class_ok == (want.cross_class_ok and want.all_or_nothing_ok)
        assert got.ok == want.ok
        assert (got.failures == ()) == got.ok
    return reports


def test_python_sweep_counts_graphs():
    total, failures = _kernels_py.linking_sweep(4, 1)
    assert total == 64
    assert failures == 0


@pytest.mark.parametrize("c", [0, 7, 2, -3, 0.5])
def test_sweep_refuses_c_other_than_unit(c):
    with pytest.raises(ValueError):
        _kernels_py.linking_sweep(4, c)


def test_edge_rows_enumerate_edge_masks():
    for n in range(1, 7):
        rows = _kernels_py._edge_rows(n, 0, 1 << (n * (n - 1) // 2))
        assert rows.dtype == _kernels_py._row_bits(n).dtype
        assert rows.tolist() == row_masks(every_graph(n)[1]).tolist()
    # a chunk from the middle of the n = 7 sweep
    start = 300 * _kernels_py._CHUNK
    masks = range(start, start + _kernels_py._CHUNK)
    assert (_kernels_py._edge_rows(7, masks.start, masks.stop).tolist()
            == row_masks(adjacency(all_graphs(7, masks))).tolist())


def sweep_chunks(monkeypatch, n, c, keep):
    """Run linking_sweep(n, c) with its kernels recorded.  Returns its
    result and, for each chunk numbered in keep, the rows, partition and
    rules the sweep computed there."""
    chunks = {k: {} for k in keep}

    def record(name):
        kernel = getattr(_kernels_py, name)
        calls = itertools.count()

        def recorded(*args):
            out = kernel(*args)
            k = next(calls)
            if k in chunks:
                chunks[k][name] = out
            return out
        monkeypatch.setattr(_kernels_py, name, recorded)

    for name in ("_edge_rows", "_batch_partition", "_batch_rules"):
        record(name)
    return _kernels_py.linking_sweep(n, c), [chunks[k] for k in sorted(keep)]


@pytest.mark.parametrize("c", [1, -1])
def test_sweep_enumeration_against_integer_oracle(c, monkeypatch):
    # the sweep's own graphs, partitions and verdicts, chunk by chunk: every
    # graph with n <= 6, and one chunk from the middle of the n = 7 sweep
    cases = [(n, every_graph(n)[1], None) for n in range(1, 7)]
    start = 300 * _kernels_py._CHUNK
    cases.append((7, adjacency(all_graphs(7, range(start, start + _kernels_py._CHUNK))), 300))
    for n, a, chunk in cases:
        total = 1 << (n * (n - 1) // 2)
        keep = range(-(-total // _kernels_py._CHUNK)) if chunk is None else [chunk]
        (count, failures), chunks = sweep_chunks(monkeypatch, n, c, keep)
        monkeypatch.undo()
        assert count == total
        rows = np.concatenate([ch["_edge_rows"] for ch in chunks], axis=1)
        rep, sbit = (np.concatenate(v, axis=1).T for v in zip(
            *(ch["_batch_partition"] for ch in chunks)))
        within, across = (np.concatenate(v) for v in zip(*(ch["_batch_rules"] for ch in chunks)))
        assert rows.tolist() == row_masks(a).tolist()
        want_rep, want_sbit = oracles.proportional_lines(a, c)
        assert np.array_equal(rep, want_rep) and np.array_equal(sbit.astype(bool), want_sbit)
        ok, want_within = oracles.proportional_verdicts(a, c, want_rep, want_sbit)
        assert (within & across).tolist() == ok.tolist()
        assert within.tolist() == want_within.tolist()
        if chunk is None:
            assert failures == ok.tolist().count(False) == 0


@pytest.mark.parametrize("c", [1, -1])
def test_partitions_and_verdicts_match_sheaf(c):
    # every graph against the batched integer oracles; the per-graph
    # reference and sheaf itself on every graph with n <= 5 and on a seeded
    # sample of 200 at each of n = 6 and 7
    cbit = 0 if c == 1 else 1
    for graphs in graph_sets():
        a = adjacency(graphs)
        rep, sbit = partition(a, cbit)
        want_rep, want_sbit = oracles.proportional_lines(a, c)
        assert np.array_equal(rep, want_rep) and np.array_equal(sbit, want_sbit)
        ok, _ = oracles.proportional_verdicts(a, c, rep, sbit)
        assert sweep_ok(a, rep, sbit, cbit) == ok.tolist()
        n = graphs[0].n
        sample = range(len(graphs)) if n <= 5 else random.Random(n).sample(range(len(graphs)), 200)
        graphs = [graphs[i] for i in sample]
        parts = [oracles.partition_from_sign_matrix(g, c) for g in graphs]
        want_rep, want_sbit = stacked(parts)
        assert np.array_equal(rep[sample], want_rep) and np.array_equal(sbit[sample], want_sbit)
        assert all(map(np.array_equal, (sheaf.partition_from_sign_matrix(g, c) for g in graphs),
                       parts))
        assert ok[sample].tolist() == [
            oracles.check_class_linking(g, p, c).ok for g, p in zip(graphs, parts)]


@pytest.mark.parametrize("c", [1, -1])
def test_negative_control_partition_at_minus_c(c):
    # the partition at -c is wrong at c: the kernel's rules must flag
    # exactly the graphs the reference flags, this many for n = 2..6
    expected = {2: 2, 3: 4, 4: 56, 5: 576, 6: 18432}
    cbit = 0 if c == 1 else 1
    for n in range(2, 8):
        if n in expected:
            graphs, a = every_graph(n)
        else:
            graphs = random_graphs(7, 7, 2000)
            a = adjacency(graphs)
        rep, sbit = partition(a, 1 - cbit)
        # every graph against the integer oracle: the partition and the verdicts
        want_rep, want_sbit = oracles.proportional_lines(a, -c)
        assert np.array_equal(rep, want_rep) and np.array_equal(sbit, want_sbit)
        ok, within = oracles.proportional_verdicts(a, c, rep, sbit)
        assert sweep_ok(a, rep, sbit, cbit) == ok.tolist()
        assert rules(a, rep, sbit, cbit)[0].tolist() == within.tolist()
        if n in expected:
            assert ok.tolist().count(False) == expected[n]
        # the three fields as check_class_linking reads them off the kernels,
        # and check_class_linking itself, against the per-graph reference on a sample
        sample = random.Random(n).sample(range(len(graphs)), min(500, len(graphs)))
        graphs = [graphs[i] for i in sample]
        a, rep, sbit = a[sample], rep[sample], sbit[sample]
        parts = [oracles.partition_from_sign_matrix(g, -c) for g in graphs]
        want_rep, want_sbit = stacked(parts)
        assert np.array_equal(rep, want_rep) and np.array_equal(sbit, want_sbit)
        want = [oracles.check_class_linking(g, p, c) for g, p in zip(graphs, parts)]
        within, across, aon = rules(a, rep, sbit, cbit)
        assert aon.tolist() == [w.all_or_nothing_ok for w in want]
        assert within.tolist() == [w.within_class_ok for w in want]
        assert (aon & across).tolist() == [w.cross_class_ok and w.all_or_nothing_ok
                                           for w in want]
        assert ok[sample].tolist() == [w.ok for w in want]
        compare_reports(graphs, parts, c)


def random_partition(rng, n) -> LinePartition:
    label = [rng.randrange(n) for _ in range(n)]
    rep = [label.index(label[i]) for i in range(n)]
    sign = [1 if rep[i] == i else rng.choice((1, -1)) for i in range(n)]
    return LinePartition(np.array(rep), np.array(sign))


@pytest.mark.parametrize("c", [1, -1])
def test_rules_on_random_partitions(c):
    # arbitrary partitions exercise each rule on its own, including the
    # cross-class rule, which no partition of a real graph breaks
    rng = random.Random(97)
    reports = []
    for n in range(2, 8):
        graphs = random_graphs(n, n, 300)
        parts = [random_partition(rng, n) for _ in graphs]
        ok = verdicts(graphs, parts, c)
        assert 0 < sum(ok) < len(ok)
        reports += compare_reports(graphs, parts, c)
        assert [r.ok for r in reports[-len(ok):]] == ok
    # each rule fails on its own somewhere
    assert any(not r.all_or_nothing_ok for r in reports)
    assert any(r.all_or_nothing_ok and not r.cross_class_ok for r in reports)
    assert any(r.all_or_nothing_ok and r.cross_class_ok and not r.within_class_ok
               for r in reports)


def twin_class_graph(rng, n, c):
    """A graph on n vertices whose lines at c coincide in classes: a random
    graph on k classes blown up into twins, unlinked at c = 1 and linked at
    c = -1, then switched at a random vertex set."""
    k = rng.randint(2, n // 3)
    label = [rng.randrange(k) for _ in range(n)]
    base = {pair: rng.random() < 0.5 for pair in itertools.combinations(range(k), 2)}
    switched = [rng.random() < 0.5 for _ in range(n)]
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        a, b = sorted((label[i], label[j]))
        if ((c == -1) if a == b else base[(a, b)]) ^ switched[i] ^ switched[j]:
            edges.append((i, j))
    return epsilon_matrix(n, edges)


@pytest.mark.parametrize("c", [1, -1])
def test_batch_of_one_on_twin_classes_up_to_64(c):
    # n = 33..64 takes the row bitmasks past 32 bits, up to uint64
    rng = random.Random(101 + c)
    graphs = [twin_class_graph(rng, n, c) for n in range(33, 65)]
    parts = [sheaf.partition_from_sign_matrix(g, c) for g in graphs]
    assert all(map(np.array_equal, parts,
                   (oracles.partition_from_sign_matrix(g, c) for g in graphs)))
    assert all((p.rep != np.arange(g.n)).any() and -1 in p.sign for g, p in zip(graphs, parts))
    assert all(r.ok for r in compare_reports(graphs, parts, c))
    # flipping the sign of one twin breaks the within-class rule
    wrong = []
    for p in parts:
        sign = p.sign.copy()
        sign[np.flatnonzero(sign == -1)[0]] = 1
        wrong.append(LinePartition(p.rep, sign))
    reports = compare_reports(graphs, wrong, c)
    assert not any(r.within_class_ok for r in reports)


@pytest.mark.parametrize("c", [1, -1])
def test_top_bit_of_a_64_bit_row(c):
    # vertex 63, the top bit of a uint64 row, is a twin of vertex 0: the
    # edge (0, 63) alone decides whether they share a line at c, so bit 63,
    # the sign bit of an int64, must be read as an edge bit
    rng = random.Random(64)
    edges = [p for p in itertools.combinations(range(63), 2) if rng.random() < 0.5]
    edges += [(k, 63) for k in range(1, 63) if (0, k) in edges]
    for linked in (False, True):
        g = epsilon_matrix(64, edges + [(0, 63)] * linked)
        p = sheaf.partition_from_sign_matrix(g, c)
        assert np.array_equal(p, oracles.partition_from_sign_matrix(g, c))
        # twins share a line exactly when their edge bit is the sign bit of c
        together = linked == (c == -1)
        lines = int((p.rep == np.arange(64)).sum())
        assert (lines, p.rep[63] == p.rep[0]) == ((63, True) if together else (64, False))
        assert p.sign[63] == 1
        assert all(r.ok for r in compare_reports([g], [p], c))
