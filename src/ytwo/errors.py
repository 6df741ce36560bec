"""Exception types shared across the package.

Plain ``ValueError``/``IndexError`` are used for ordinary bad arguments;
the classes here mark failure modes that callers may want to distinguish
programmatically (non-invertible elements, unsupported forms, resource
caps and so on).
"""


class YtwoError(Exception):
    """Base class for domain errors raised by this package."""


class ZeroInputError(YtwoError):
    """An operation that needs a nonzero element received zero."""


class NotUnitError(YtwoError):
    """Element is not invertible in its ring."""


class EvenNError(YtwoError):
    """Evaluation order n must be odd (and at least 3)."""


class NonUnitNormError(YtwoError):
    """Vector cannot serve as a transvection axis: q(w) is not a unit."""


class UnsupportedFormError(YtwoError):
    """Quadratic form is outside the family the decomposition handles."""


class MixedAmbientError(YtwoError):
    """Operands live in different algebras (rank or scalar ring differ)."""


class NotScalarError(YtwoError):
    """Product expected to be a pure scalar has higher-degree terms."""


class NotCliffordGroupError(YtwoError):
    """Conjugation by the element does not preserve the vector module."""


class MismatchError(YtwoError):
    """An exact matrix-action comparison failed; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InconclusiveError(YtwoError):
    """Every listed specialization was rank-deficient; nothing is proved."""

    def __init__(self, message, tried=()):
        super().__init__(message)
        self.tried = tuple(tried)


class FieldTooLargeError(YtwoError):
    """Requested finite field or evaluation order is above the supported
    size; raised before any modulus search or factoring of 2**d - 1."""


class CapExceededError(YtwoError):
    """Enumeration hit the element cap; a resource signal, not a result."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count
