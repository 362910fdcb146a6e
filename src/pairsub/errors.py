"""Exception taxonomy shared across the package."""


class PairsubError(Exception):
    """Base class for every library-specific error."""


class InvalidArgument(PairsubError, ValueError):
    """An argument lies outside its valid range."""


class BudgetExceeded(PairsubError):
    """A query asked for a set larger than the oracle's information budget."""


class UnknownElement(PairsubError):
    """A query referenced an element id outside [0, ground_size)."""


class MalformedSpec(PairsubError, ValueError):
    """An instance specification is internally inconsistent."""


class CardinalityTooLarge(PairsubError, ValueError):
    """Requested solution size exceeds the ground set."""


class InstanceTooLarge(PairsubError):
    """An exhaustive scan would walk more than validation.ENUMERATION_LIMIT."""


class TraceMismatch(PairsubError, ValueError):
    """A run trace was fed to a bound producer for a different algorithm."""


class InvalidAlpha(PairsubError, ValueError):
    """An approximation factor below 1 was supplied."""


class InvalidCurvature(PairsubError, ValueError):
    """A curvature value outside [0, 1] was supplied."""


class DuplicateElement(PairsubError, ValueError):
    """An element appeared twice where distinct elements are required."""


class NonFiniteValue(PairsubError, ValueError):
    """A candidate's value is NaN, or none compares above -inf: none can be picked."""


class GridMismatch(PairsubError, ValueError):
    """Two timing series do not share the same cardinality grid."""


class ParseError(PairsubError, ValueError):
    """A data file could not be parsed; message carries row/column."""


class DuplicateId(PairsubError, ValueError):
    """A district id occurred more than once."""


class NegativeDemand(PairsubError, ValueError):
    """A district declared a negative demand."""


class EmptyInput(PairsubError, ValueError):
    """An operation received an empty collection where data is required."""
