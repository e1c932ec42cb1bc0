"""The batched linking sweep against the per-graph reference in sheaf.

The kernel's partitions must equal ``partition_from_sign_matrix`` and its
verdicts ``check_class_linking``, on every small graph, on seeded larger
ones, and on wrong partitions, where the rules must fail exactly where the
reference says they do.
"""

import itertools
import random

import numpy as np
import pytest

from gerbe import _kernels_py
from gerbe.graph import Graph, epsilon_matrix
from gerbe.sheaf import LinePartition, check_class_linking, partition_from_sign_matrix


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if (bits >> k) & 1])


def random_graphs(seed, n, count):
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    return [Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5])
            for _ in range(count)]


def graph_sets():
    """Every graph on 1..5 vertices, and 2000 seeded graphs each on 6 and 7."""
    for n in range(1, 6):
        yield list(all_graphs(n))
    yield random_graphs(6, 6, 2000)
    yield random_graphs(7, 7, 2000)


def adjacency(graphs):
    return np.stack([epsilon_matrix(g).entries == -1 for g in graphs])


def to_partition(rep, sbit) -> LinePartition:
    reps = sorted(set(rep.tolist()))
    return LinePartition(len(reps), tuple(reps), tuple(reps.index(r) for r in rep),
                         tuple(-1 if s else 1 for s in sbit))


def verdicts(graphs, parts, c):
    """The kernel's rules on the given partitions."""
    rep = np.array([[p.rep_index[p.pi[i]] for i in range(p.n)] for p in parts])
    sbit = np.array([[s == -1 for s in p.sign] for p in parts])
    return _kernels_py._batch_rules(adjacency(graphs), rep, sbit, 0 if c == 1 else 1).tolist()


def reference(graphs, parts, c):
    return [check_class_linking(g, p, c).ok for g, p in zip(graphs, parts)]


def test_python_sweep_counts_graphs():
    total, failures = _kernels_py.linking_sweep(4, 1)
    assert total == 64
    assert failures == 0


@pytest.mark.parametrize("c", [0, 7, 2, -3, 0.5])
def test_sweep_refuses_c_other_than_unit(c):
    with pytest.raises(ValueError):
        _kernels_py.linking_sweep(4, c)


def test_batch_graphs_enumerate_edge_masks():
    for n in range(1, 6):
        a = _kernels_py._batch_graphs(n, 0, 1 << (n * (n - 1) // 2))
        assert a.tolist() == adjacency(all_graphs(n)).tolist()


@pytest.mark.parametrize("c", [1, -1])
def test_partitions_and_verdicts_match_sheaf(c):
    cbit = 0 if c == 1 else 1
    for graphs in graph_sets():
        a = adjacency(graphs)
        rep, sbit = _kernels_py._batch_partition(a, cbit)
        parts = [partition_from_sign_matrix(epsilon_matrix(g), c) for g in graphs]
        assert [to_partition(r, s) for r, s in zip(rep, sbit)] == parts
        ok = _kernels_py._batch_rules(a, rep, sbit, cbit).tolist()
        assert ok == reference(graphs, parts, c)


@pytest.mark.parametrize("c", [1, -1])
def test_negative_control_partition_at_minus_c(c):
    # the partition at -c is wrong at c: the kernel's rules must flag
    # exactly the graphs the reference flags, this many for n = 2..6
    expected = {2: 2, 3: 4, 4: 56, 5: 576, 6: 18432}
    cbit = 0 if c == 1 else 1
    for n in range(2, 8):
        graphs = list(all_graphs(n)) if n in expected else random_graphs(7, 7, 2000)
        a = adjacency(graphs)
        rep, sbit = _kernels_py._batch_partition(a, 1 - cbit)
        ok = _kernels_py._batch_rules(a, rep, sbit, cbit).tolist()
        parts = [partition_from_sign_matrix(epsilon_matrix(g), -c) for g in graphs]
        assert ok == reference(graphs, parts, c)
        if n in expected:
            assert ok.count(False) == expected[n]


def random_partition(rng, n) -> LinePartition:
    label = [rng.randrange(n) for _ in range(n)]
    reps = [i for i in range(n) if label[i] not in label[:i]]
    pi = tuple(reps.index(label.index(label[i])) for i in range(n))
    sign = tuple(1 if i in reps else rng.choice((1, -1)) for i in range(n))
    return LinePartition(len(reps), tuple(reps), pi, sign)


@pytest.mark.parametrize("c", [1, -1])
def test_rules_on_random_partitions(c):
    # arbitrary partitions exercise each rule on its own, including the
    # cross-class rule, which no partition of a real graph breaks
    rng = random.Random(97)
    for n in range(2, 8):
        graphs = random_graphs(n, n, 300)
        parts = [random_partition(rng, n) for _ in graphs]
        ok = verdicts(graphs, parts, c)
        assert ok == reference(graphs, parts, c)
        assert 0 < sum(ok) < len(ok)
