"""Tolerances and resource bounds.

The numeric thresholds (Gram checks, numeric rank, isometry residual), the
width of certified root intervals and the resource bounds live here.  The
exact stages need no tolerance: chi, its roots (the Seidel spectrum only
proposes them), every degree (rank law), the line partition and the group
are decided in integers, the Gram factorization stops at that exact
degree, and the span test of the pivot rows in isometry recovery takes
numpy's ``matrix_rank`` cut.  None of these values is read from the
environment.
"""

# largest vertex count parse_graph accepts: the sign matrix and chi take
# n^2 entries, exact chi takes 10-15 ms at n = 64 (G(64, 1/2), 2-vCPU
# Xeon, one BLAS thread), and its prime table (exactpoly._CHI_PRIMES)
# serves n <= 82
MAX_VERTICES = 64
# backtracking nodes of one stabilizer chain: the chain of G takes 235 on
# Paley(37) + point, 9,438 on the Latin-square graph of Z_6 and 304 on that
# of Z_7
MAX_SEARCH_NODES = 1_000_000
# largest order listed element by element (|G| for group --realize, |Aut|
# for graph_automorphisms): Petersen's 1440 fits, edgeless 10's 7,257,600 not
MAX_LISTED_ORDER = 10_000

# the Gram checks are relative to max(1, max|S|), the rank cut to the
# spectral radius: the error of a factorization (the pivoted LDL^T, or eigh
# in quadspace.rank) grows with the norm.  RANK_TOL is read only by
# quadspace.rank, for matrices without an exact degree
GRAM_TOL = 1e-9
RANK_TOL = 1e-9
ISOMETRY_TOL = 1e-8
ROOT_INTERVAL_WIDTH = 1e-12
