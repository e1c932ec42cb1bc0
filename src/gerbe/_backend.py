"""The kernels the package calls, by name.

There is one implementation, ``_kernels_py``; callers and the benchmark's
tracer reach the kernels through this module.
"""

from ._kernels_py import linking_sweep, naive_signed_elements, signed_stabilizer


def backend_name() -> str:
    """Name of the kernel implementation in use: always ``"python"``."""
    return "python"
