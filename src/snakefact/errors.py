"""Exception types shared across the package.

Validation problems (bad parameters, malformed shapes, insufficient moment
ranges) derive from ``ValueError``; failures of a numerical computation to
meet its accuracy contract derive from ``NumericalError``.
"""


class InvalidSchurParameter(ValueError):
    """A Schur parameter lies on or outside the unit circle."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        where = "parameter" if index is None else f"parameter {index}"
        super().__init__(
            f"|alpha| = {abs(value):.6g} >= 1; {where} must lie strictly "
            "inside the open unit disk"
        )


class ShapeError(ValueError):
    """Invalid generating sequence, monomial order, or incompatible lengths."""


class MomentError(ValueError):
    """A moment table cannot support the requested operation."""


class NumericalError(RuntimeError):
    """A numerical computation failed to meet its accuracy contract."""


class ConvergenceError(NumericalError):
    """An eigensolver failed to converge."""
