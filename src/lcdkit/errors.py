"""Exception types shared across the package.

Every error raised for a violated contract is a subclass of LcdError so
callers can catch the package's failures with a single except clause.
"""


class LcdError(Exception):
    """Base class for all package-specific errors."""


# field contexts and element arithmetic

class InvalidValue(LcdError, ValueError):
    """An argument has a bad value: an element code outside [0, q), the
    wrong number of scalars, or a pair or block of the wrong shape."""


class NotPrime(LcdError):
    """Claimed characteristic is not a prime number."""


class ReducibleModulus(LcdError):
    """Supplied modulus polynomial factors over the base field."""


class DivisionByZero(LcdError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ContextMismatch(LcdError):
    """Operands belong to different field contexts."""


class NotATower(LcdError):
    """Operation needs an extension built over an explicit base field."""


class NotADivisor(LcdError):
    """Requested root-of-unity order does not divide q - 1, or a length
    constraint of the same kind fails."""


class SearchBudgetExceeded(LcdError):
    """Randomized search ran out of retries and exhaustive fallback was
    unavailable or disabled."""


# matrices

class ShapeMismatch(LcdError):
    """Matrix dimensions are incompatible with the operation."""


class Singular(LcdError):
    """Matrix has no inverse."""


# linear codes

class ZeroMatrix(LcdError):
    """Generator matrix is all zeros."""


class BudgetExceeded(LcdError):
    """Exhaustive enumeration would exceed the stated budget."""


class EmptyResult(LcdError):
    """A result asked of the zero code, such as its minimum distance."""


class DistanceNotExact(LcdError):
    """Operation needs an exactly computed minimum distance."""


# orthogonal-matrix generators

class DimensionTooSmall(LcdError):
    """Generator needs more coordinates than the ambient dimension has."""


# code constructions

class NotOrthogonal(LcdError):
    """Matrix is not orthogonal (A times its transpose is not identity)."""


class ZeroScalar(LcdError):
    """Scaling vector contains a zero entry where nonzero is required."""


class BlockCountMismatch(LcdError):
    """Number of rotation blocks does not match the row count."""


class DegenerateBlock(LcdError):
    """Rotation block has a zero entry or zero norm (alpha^2 + beta^2 = 0)."""


class NoIsotropicPair(LcdError):
    """Field has no pair of nonzero elements with a^2 + b^2 = 0."""


class NotLCD(LcdError):
    """Input code has a nonzero hull where an LCD code is required."""


class RankDeficient(LcdError):
    """Inner matrix of a matrix-product code lacks full row rank."""


class MixedLengths(LcdError):
    """Component codes disagree on length or field."""


class ComponentNotLCD(LcdError):
    """A component code of a matrix-product construction is not LCD."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"component {index} is not LCD")


class NotSelfDualBasis(LcdError):
    """Supplied basis does not have an identity trace Gram matrix."""


class DimensionTooLarge(LcdError):
    """Requested dimension exceeds what the construction supports."""


class NoSystematicForm(LcdError):
    """No column permutation yields a systematic generator matrix."""


# command line and fixtures

class ParseError(LcdError):
    """Malformed descriptor, matrix file, or record line."""


class FixtureIntegrityError(LcdError):
    """Bundled data file does not match its recorded checksum."""
