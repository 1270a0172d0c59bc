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

    Either an exact integer division left a remainder, or a characteristic
    polynomial disagreed with its determinant certificate.

    This indicates a bug (or a corrupted input), never a legitimate outcome.
    """


class InexactDivision(SpectraError):
    """Polynomial division left a remainder.

    Unlike :class:`InternalExactnessViolation` this is an expected, reportable
    outcome when a divisibility claim is being tested.
    """


class DimensionMismatch(SpectraError):
    """Matrix operands do not conform (addition, product, block assembly)."""


class HypothesisViolated(SpectraError):
    """Theorem-case parameters do not satisfy the theorem's hypotheses."""


class PartNotComplete(SpectraError):
    """A join-based closed form requires every part to be complete or edgeless."""


class BitGrowthExceeded(SpectraError):
    """An integer outgrew a bit budget.

    Either a ``char_poly`` output coefficient or a Bareiss pivot exceeded the
    ``PGSPECTRA_MAX_BITS`` cap, or a characteristic-polynomial coefficient
    bound exceeded the largest prime ``char_poly`` can work modulo.
    """
