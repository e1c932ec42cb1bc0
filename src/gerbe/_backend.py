"""Kernel backend selection.

Prefers the compiled extension, falling back to the pure-Python kernels
when it is not built.  ``GERBE_BACKEND=python`` forces the fallback, which
is mainly useful for benchmarking and debugging.
"""

import os

from . import _kernels_py

_forced = os.environ.get("GERBE_BACKEND", "").lower()

_impl = _kernels_py
BACKEND = "python"
if _forced != "python":
    try:
        from . import _speedups as _impl

        BACKEND = "c"
    except ImportError:
        if _forced == "c":
            raise

# the stabilizer chain runs many small prefix-pinned, first-solution
# searches, which only the Python kernel offers
signed_stabilizer = _kernels_py.signed_stabilizer
naive_signed_elements = _impl.naive_signed_elements
linking_check = _impl.linking_check
linking_sweep = _impl.linking_sweep


def backend_name() -> str:
    return BACKEND
