"""Linear line-sheaf representations of finite graphs.

Construct the representations of a finite simple graph in quadratic
spaces, compute the exact characteristic polynomial controlling their
degrees, and build the signed-permutation group of isometries
stabilizing the associated sheaf of lines from a stabilizer chain.
A graph is its sign matrix throughout: ``parse_graph`` reads one and
``epsilon_matrix(n, edges)`` builds one.  The names here are those of the
README's library example and ``epsilon_matrix``; the modules hold the
rest, and the sheaf group lists its elements as arrays of rows
(sigma, nu).  Pure Python on numpy: ``backend_name()`` is always
``"python"``.
"""

from ._backend import backend_name
from .autgroup import enumerate_group, orbits_on_lines
from .exactpoly import char_poly, degree_at, real_roots_with_multiplicity, squarefree_decomposition
from .graph import epsilon_matrix, parse_graph
from .quadspace import Representation

__version__ = "0.1.0"
