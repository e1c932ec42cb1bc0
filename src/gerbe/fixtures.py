"""Built-in demo graphs with their known invariants.

The expected values here are the regression targets for the demo command
and the acceptance suite: exact characteristic polynomials, root data with
ranks, and the automorphism/sheaf group orders.  Each graph is held as its
sign matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import SignMatrix, epsilon_matrix


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: SignMatrix
    chi_coeffs: tuple  # ascending, index = degree
    chi_factored: str
    # (root value as Fraction or float, multiplicity, rank of S(1, root))
    roots: tuple
    aut_order: int  # |H|, the plain graph automorphism group
    group_order: int  # |G|, the sheaf group enumerated from the sign matrix
    two_transitive: bool  # action of G on the lines at a generic root


def _cycle(n) -> SignMatrix:
    return epsilon_matrix(n, [(i, (i + 1) % n) for i in range(n)])


SQRT5_INV = 5 ** -0.5  # 0.4472135954999579

TRIANGLE = Fixture(
    name="triangle",
    graph=_cycle(3),
    chi_coeffs=(1, 0, -3, -2),
    chi_factored="-(2x - 1)(x + 1)^2",
    roots=(
        (Fraction(-1), 2, 1),
        (Fraction(1, 2), 1, 2),
    ),
    aut_order=6,
    group_order=12,
    two_transitive=True,
)

SQUARE = Fixture(
    name="square",
    graph=_cycle(4),
    chi_coeffs=(1, 0, -6, 8, -3),
    chi_factored="-(3x + 1)(x - 1)^3",
    roots=(
        (Fraction(-1, 3), 1, 3),
        (Fraction(1), 3, 1),
    ),
    aut_order=8,
    group_order=48,
    two_transitive=True,
)

PENTAGON = Fixture(
    name="pentagon",
    graph=_cycle(5),
    chi_coeffs=(1, 0, -10, 0, 25),
    chi_factored="(5x^2 - 1)^2",
    roots=(
        (-SQRT5_INV, 2, 3),
        (SQRT5_INV, 2, 3),
    ),
    aut_order=10,
    group_order=20,
    two_transitive=False,
)

POINTED_HEXAGON = Fixture(
    name="pointed-hexagon",
    graph=epsilon_matrix(6, [(i, (i + 1) % 5) for i in range(5)]),
    chi_coeffs=(1, 0, -15, 0, 75, 0, -125),
    chi_factored="-(5x^2 - 1)^3",
    roots=(
        (-SQRT5_INV, 3, 3),
        (SQRT5_INV, 3, 3),
    ),
    aut_order=10,
    group_order=120,
    two_transitive=True,
)

ALL = (TRIANGLE, SQUARE, PENTAGON, POINTED_HEXAGON)
