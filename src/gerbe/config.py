"""Tolerances and resource bounds.

The thresholds of the numeric stages (Gram factorization, rank, the
isometry residual), the width of certified root intervals and the resource
bounds live here.  The exact stages need no tolerance: chi, its rational
roots, the line partition and the group are decided in integers.  Nor does
the span test of isometry recovery, which takes numpy's ``matrix_rank``
cut.  None of these values is read from the environment.
"""

# largest vertex count parse_graph accepts: the sign matrix and chi take
# n^2 entries, and exact chi takes seconds already at n = 64
MAX_VERTICES = 64
# backtracking nodes of one stabilizer chain: Paley(37) + point takes 26,233,
# the Latin-square graph of Z_6 835,778, that of Z_7 1,855,888 (refused)
MAX_SEARCH_NODES = 1_000_000
# largest order listed element by element (|G| for group --realize, |Aut|
# for graph_automorphisms): Petersen's 1440 fits, edgeless 10's 7,257,600 not
MAX_LISTED_ORDER = 10_000

GRAM_TOL = 1e-9
RANK_TOL = 1e-9
ISOMETRY_TOL = 1e-8
ROOT_INTERVAL_WIDTH = 1e-12
