"""Exception types shared across the package."""


class GerbeError(Exception):
    """Base class for all errors raised by this package."""


class InvariantError(GerbeError):
    """A result failed an internal consistency check: a defect in the
    package, not in its input."""


class ParseError(GerbeError):
    """Malformed graph file input."""


class InputError(GerbeError, ValueError):
    """A refused command-line value or undecodable file (no other
    ValueError is an input error)."""


class BoundExceededError(GerbeError):
    """A resource bound was passed: the vertex bound, the sizes chi's prime
    table serves, the group search's node budget, the cap on a listed group
    order, or n > 8 for the brute-force group oracle."""


class GramMismatchError(GerbeError):
    """Two vector systems were expected to share a Gram matrix but do not."""


class DeficientSpanError(GerbeError):
    """Vectors do not span their ambient space (input not reduced)."""


class TrivialRepresentationError(GerbeError):
    """Operation undefined for a trivial (c = 0) representation."""
