"""Every function the benchmark's tracer rebinds must exist, and be called.

``perfbench/tracing.py`` rebinds the layer functions it lists by name; a
renamed or deleted one breaks ``perfbench/run.py --trace 1``, and one that
the package no longer calls through the rebound name reads 0.  The file is
loaded by path, unchanged, so that break shows here first.
"""

import importlib
import importlib.util
from pathlib import Path

from gerbe import _backend
from gerbe.autgroup import enumerate_group
from gerbe.graph import automorphism_order, epsilon_matrix
from test_autgroup import petersen

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
    for chain in (lambda g: enumerate_group(epsilon_matrix(g)), automorphism_order):
        calls.clear()
        chain(petersen())
        assert calls
