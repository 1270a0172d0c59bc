"""Exception types shared across the library.

Every error raised on a documented failure path derives from
:class:`SpectraError`, so callers (and the CLI) can catch one base class and
still report the specific condition by name.
"""


class SpectraError(Exception):
    """Base class for all errors raised by this library."""


class InvalidFamilyParameters(SpectraError):
    """Group family parameters violate the family's defining constraints."""


class DisconnectedGraph(SpectraError):
    """A connected graph was required (distance matrix, diameter)."""


class SizeMismatch(SpectraError):
    """A vertex map does not line up with the graphs it is supposed to relate."""


class NotAPartition(SpectraError):
    """Cells are empty, overlap, or fail to cover the vertex set."""


class NotEquitable(SpectraError):
    """A quotient matrix was requested for a non-equitable partition."""


class DiameterExceedsTwo(SpectraError):
    """The two-step distance-quotient construction needs diameter <= 2."""


class FamilyMismatch(SpectraError):
    """A family-specific partition was requested for the wrong kind of group."""


class NotSquare(SpectraError):
    """A square matrix was required."""


class InternalExactnessViolation(SpectraError):
    """A trusted exact algorithm failed its own check.

    A Bareiss division left a remainder, a characteristic polynomial
    disagreed with its determinant certificate, ``char_poly``'s split
    certificate refused a split (overlapping blocks, a non-equitable orbit
    partition, or ``q W != W A``), or the expansion of ``char_poly``'s
    factors disagreed with their product at the certificate point.

    This indicates a bug (or a corrupted input), never a legitimate outcome.
    """


class InexactDivision(SpectraError):
    """Polynomial division left a remainder.

    Unlike :class:`InternalExactnessViolation` this is an expected, reportable
    outcome when a divisibility claim is being tested.
    """


class DimensionMismatch(SpectraError):
    """Matrix operands do not conform, or matrix or polynomial data is malformed."""


class HypothesisViolated(SpectraError):
    """Theorem-case parameters do not satisfy the theorem's hypotheses."""


class BitGrowthExceeded(SpectraError):
    """A characteristic-polynomial coefficient bound outgrew the prime table.

    The bound exceeded the largest prime ``dense_char_poly`` can work modulo.
    ``char_poly`` applies that bound to each leaf of its split, not to the
    whole matrix.
    """
