"""Exception types shared across the package.

Everything derives from :class:`WHPrecodeError` (itself a ``ValueError``)
so callers can catch input-contract violations with a single handler,
which is what the command line front end does to map them to exit code 2.
"""


class WHPrecodeError(ValueError):
    """Base class for input-contract violations raised by this package."""


class DimensionMismatchError(WHPrecodeError):
    """Operands whose dimensions are incompatible."""


class NonHermitianError(WHPrecodeError):
    """A matrix required to be hermitian is not, within tolerance."""


class NotUnitNormError(WHPrecodeError):
    """A vector required to have unit l2 norm does not."""


class SingularDenominatorError(WHPrecodeError):
    """Denominator operator of a generalized eigenproblem is not positive definite."""


class InvalidWeightsError(WHPrecodeError):
    """An input that its reader rejects, or scattering weights outside their set.

    The readers reject non-integer, non-real and out-of-range scalars, malformed
    shift pairs, and arrays that are not numeric, rectangular and finite.
    """


class InvalidDensityOperatorError(WHPrecodeError):
    """Matrix fails the trace-one / hermitian / positive-semidefinite checks."""


class InvalidSchemeError(WHPrecodeError):
    """Multiplexing scheme missing the origin slot or otherwise malformed."""


class InvalidConfigError(WHPrecodeError):
    """Command-line or config-file input that fails validation."""
