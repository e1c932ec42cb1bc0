"""Every function the benchmark's tracer rebinds must exist.

``perfbench/tracing.py`` rebinds the layer functions it lists by name; a
renamed or deleted one breaks ``perfbench/run.py --trace 1``.  The file is
loaded by path, unchanged, so that break shows here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_FUNCTIONS
    missing = [(module, name) for module, name, *_ in tracing.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
