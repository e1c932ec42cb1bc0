"""Linear line-sheaf representations of finite graphs.

Construct the representations of a finite simple graph in quadratic
spaces, compute the exact characteristic polynomial controlling their
degrees, and build the signed-permutation group of isometries
stabilizing the associated sheaf of lines from a stabilizer chain.
Pure Python on numpy: ``backend_name()`` is always ``"python"``.
"""

from ._backend import backend_name
from .autgroup import (
    SheafGroup,
    SignedPermutation,
    compose,
    enumerate_group,
    extend_signs,
    inverse,
    orbits_on_lines,
    realize_isometries,
    realize_isometry,
)
from .exactpoly import (
    IntPolynomial,
    RootRecord,
    char_poly,
    degree_at,
    real_roots_with_multiplicity,
    squarefree_decomposition,
)
from .graph import (
    Graph,
    Permutation,
    SignMatrix,
    conjugate_matrix,
    epsilon_matrix,
    graph_automorphisms,
    parse_graph,
)
from .quadspace import (
    QuadraticSpace,
    Representation,
    build_S,
    gram_factorize,
    isometry_between,
    rank,
    reduce_representation,
    sum_representations,
)
from .sheaf import (
    LinePartition,
    check_class_linking,
    line_classes,
    partition_from_sign_matrix,
    restrict_to_Y,
)

__version__ = "0.1.0"
