"""Exception types shared across the package.

Validation problems (bad parameters, malformed shapes, insufficient moment
ranges) derive from ``ValueError``; failures of a numerical computation to
meet its accuracy contract derive from ``NumericalError``.
"""

import cmath


class InvalidSchurParameter(ValueError):
    """A Schur parameter is not finite or lies on or outside the unit circle."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        where = "parameter" if index is None else f"parameter {index}"
        if not cmath.isfinite(value):
            message = f"{where} = {value!r} is not finite"
        else:
            message = (
                f"|alpha| = {abs(value):.6g} >= 1; {where} must lie strictly "
                "inside the open unit disk"
            )
        super().__init__(message)


class ShapeError(ValueError):
    """Invalid generating sequence, monomial order, or incompatible lengths."""


class MomentError(ValueError):
    """A moment table cannot support the requested operation."""


class NumericalError(RuntimeError):
    """A numerical computation failed to meet its accuracy contract."""


class ConvergenceError(NumericalError):
    """An eigensolver failed to converge."""
