"""The compiled kernels and the pure-Python fallback must agree exactly."""

import os
import random

import pytest

from gerbe import _backend, _kernels_py
from gerbe.graph import Graph, epsilon_matrix

speedups = pytest.importorskip("gerbe._speedups")


def random_masks(rng, n):
    g = Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    )
    return epsilon_matrix(g).linked_masks()


def test_backend_is_compiled():
    # this module runs only where _speedups imports, so the compiled backend
    # is active unless the fallback was forced
    forced = os.environ.get("GERBE_BACKEND", "").lower() == "python"
    assert _backend.backend_name() == ("python" if forced else "c")


@pytest.mark.parametrize("seed", range(6))
def test_signed_stabilizer_parity(seed):
    rng = random.Random(seed)
    masks = random_masks(rng, rng.randint(3, 6))
    assert sorted(speedups.signed_stabilizer(masks)) == sorted(
        _kernels_py.signed_stabilizer(masks)
    )


@pytest.mark.parametrize("seed", range(6))
def test_naive_parity(seed):
    rng = random.Random(100 + seed)
    masks = random_masks(rng, rng.randint(3, 5))
    assert sorted(speedups.naive_signed_elements(masks)) == sorted(
        _kernels_py.naive_signed_elements(masks)
    )


@pytest.mark.parametrize("seed", range(8))
def test_linking_check_parity(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(2, 7)
    masks = random_masks(rng, n)
    for c in (1, -1):
        assert speedups.linking_check(masks, n, c) == _kernels_py.linking_check(masks, n, c)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("c", [1, -1])
def test_linking_sweep_parity(n, c):
    assert speedups.linking_sweep(n, c) == _kernels_py.linking_sweep(n, c)


def test_python_sweep_counts_graphs():
    total, failures = _kernels_py.linking_sweep(4, 1)
    assert total == 64
    assert failures == 0
