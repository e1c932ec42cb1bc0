"""Exception types shared across the package."""


class GerbeError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(GerbeError):
    """A result failed an internal consistency check: a defect in the
    package, not in its input."""


class ParseError(GerbeError):
    """Malformed graph file input."""


class InputError(GerbeError, ValueError):
    """A refused input value: a command-line value, an undecodable file, or
    c = 0, where the line partition is undefined (no other ValueError is
    an input error)."""


class BoundExceededError(GerbeError):
    """A resource bound was passed: the vertex bound, the sizes chi's prime
    table serves, the group search's node budget, the cap on a listed group
    order, or n > 8 for the brute-force group oracle."""
