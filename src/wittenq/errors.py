"""Exception types shared across the package."""


class OrderMismatchError(ValueError):
    """Binary operation on q-series of different truncation orders."""


class CapsMismatchError(ValueError):
    """Binary operation on quotient-ring elements with different nilpotency caps."""


class NonIntegralError(ValueError):
    """A coefficient expected to be an integer is not."""


class InsufficientDegreeError(ValueError):
    """A univariate series was not supplied to high enough degree."""


class DimensionError(ValueError):
    """An instance fails a dimension-parity precondition."""
