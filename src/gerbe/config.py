"""Tunable tolerances and bounds.

The thresholds of the numeric stages, the width of certified root intervals
and the resource bounds live here (the exact stages need no tolerance).
The enumeration bound may also be overridden with ``GERBE_MAX_N``.
"""

import os

DEFAULT_MAX_N = 10
# largest vertex count parse_graph accepts: the sign matrix and chi take
# n^2 entries, and exact chi takes seconds already at n = 64
MAX_VERTICES = 64
# largest |G| that ``gerbe group --realize`` lists and realizes; Petersen's
# 1440 fits, edgeless 10 (7,257,600 elements, gigabytes listed) does not
MAX_REALIZE_ORDER = 10_000

GRAM_TOL = 1e-9
RANK_TOL = 1e-9
COLINEAR_TOL = 1e-8
ISOMETRY_TOL = 1e-8
PIVOT_TOL = 1e-10
ROOT_INTERVAL_WIDTH = 1e-12


def enumeration_bound() -> int:
    """Maximum vertex count for group analysis and element listing
    (env: GERBE_MAX_N)."""
    raw = os.environ.get("GERBE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GERBE_MAX_N must be an integer, got {raw!r}") from None
