"""Every function the benchmark's tracer rebinds must exist, and be called.

``perfbench/tracing.py`` rebinds the layer functions it lists by name; a
renamed or deleted one breaks ``perfbench/run.py --trace 1``, and one that
the package no longer calls through the rebound name reads 0.  The file is
loaded by path, unchanged, so that break shows here first.
"""

import importlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from gerbe import _backend, autgroup, cli
from gerbe.autgroup import enumerate_group
from gerbe.exactpoly import char_poly, squarefree_decomposition
from gerbe.graph import automorphism_order
from oracles import format_graph
from test_autgroup import petersen, random_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = load_tracing()
    assert tracing.LAYER_FUNCTIONS
    missing = [(module, name) for module, name, *_ in tracing.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []


def test_group_chains_call_the_traced_kernel(monkeypatch):
    # the tracer counts kernels.signed_stabilizer through the _backend
    # binding, so both chains must look the kernel up there at call time
    calls = []
    kernel = _backend.signed_stabilizer

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_backend, "signed_stabilizer", counted)
    for chain in (enumerate_group, automorphism_order):
        calls.clear()
        chain(petersen())
        assert calls


def test_group_realize_calls_the_traced_realization(monkeypatch, tmp_path, capsys):
    # the tracer counts autgroup.realize_isometry by rebinding the name in
    # every gerbe module that holds it, so group --realize must realize its
    # group through that name, once
    calls = []
    realize = autgroup.realize_isometry

    def counted(*args, **kwargs):
        calls.append(1)
        return realize(*args, **kwargs)

    monkeypatch.setattr(autgroup, "realize_isometry", counted)
    p = tmp_path / "petersen.txt"
    p.write_text(format_graph(petersen()))
    assert cli.main(["group", str(p), "--c=1/3", "--realize", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["isometries"]) == 1440
    assert calls == [1]


@pytest.mark.parametrize("argv", [
    ["analyze"], ["poly"], ["represent", "--root-index", "0"], ["classes", "--c=1"],
    ["group", "--c=1"], ["group", "--c=1/3", "--realize"]],
    ids=["analyze", "poly", "represent", "classes", "group", "realize"])
def test_one_sign_matrix_per_call(argv, tmp_path, capsys):
    # parse_graph builds the sign matrix and every stage reads that one:
    # with the tracer's bindings installed in every gerbe module, each
    # command makes exactly one graph.epsilon_matrix span.  poly and
    # represent also run on a square-free chi, whose roots come from its
    # own cells, and must pass every traced call's result to its counter
    graphs = [petersen()]
    if argv[0] in ("poly", "represent"):
        squarefree = random_graph(random.Random(0), 12)
        assert [e for _, e in squarefree_decomposition(char_poly(squarefree))] == [1]
        graphs.append(squarefree)
    for g in graphs:
        p = tmp_path / "graph.txt"
        p.write_text(format_graph(g))
        tracer = load_tracing().Tracer()
        with tracer.install():
            assert cli.main([argv[0], str(p), *argv[1:], "--json"]) == 0
        capsys.readouterr()
        assert [span[0] for span in tracer.spans].count("graph.epsilon_matrix") == 1


@pytest.mark.parametrize("c", [1, -1])
def test_sweep_is_one_traced_span(c):
    # the benchmark's per-layer sweep metrics read one span per sweep and
    # its two counters, fed from the (total, failures) result
    tracer = load_tracing().Tracer()
    with tracer.install():
        assert _backend.linking_sweep(6, c) == (1 << 15, 0)
    assert [span[0] for span in tracer.spans].count("kernels.linking_sweep") == 1
    assert tracer.counts[(None, "kernels.linking_sweep.graphs")] == 1 << 15
    assert tracer.counts[(None, "kernels.linking_sweep.passing")] == 1 << 15
