"""The kernels the package calls, by name.

There is one implementation, ``_kernels_py``; callers and the benchmark's
tracer reach the group search and the linking sweep through this module.
``sheaf`` calls the batched partition and rule kernels on a batch of one.
The group search keeps the name ``signed_stabilizer``, though it searches
graph isomorphisms and carries no signs, because the benchmark's tracer
binds and reports it under that name.
"""

from ._kernels_py import linking_sweep, signed_stabilizer


def backend_name() -> str:
    """Name of the kernel implementation in use: always ``"python"``."""
    return "python"
