"""Exception types and the numerical-contract check shared across the package.

Validation problems (bad parameters, malformed shapes, insufficient moment
ranges) derive from ``ValueError``, and a size or index that is not an
integer raises ``TypeError``; failures of a numerical computation to
meet its accuracy contract derive from ``NumericalError``.  A contract holds
when its measured defect is ``<= bound``, a test that NaN fails.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np


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


def check(what: str, value, bound: float, exc: type = NumericalError) -> float:
    """Return the measured ``value`` when it is within ``bound``.

    Otherwise raise ``exc("<what> (defect <value> > <bound>)")``.  The test
    is ``value <= bound``, so a NaN defect always fails.
    """
    value = float(value)
    if not value <= bound:
        raise exc(f"{what} (defect {value:.3e} > {bound:.3g})")
    return value


def int_argument(name: str, value) -> int:
    """``value`` as an int, for any integer type except bool.

    Integers are taken through ``operator.index``, so NumPy integers pass
    and floats, strings and None do not; a bool is refused although it is
    an int.  The ``TypeError`` names the parameter.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def unitarity_defect(m) -> float:
    """max|M M^H - I| of a square array; NaN when an entry is not finite."""
    if not np.isfinite(m).all():
        return math.nan
    return float(np.max(np.abs(m @ m.conj().T - np.eye(len(m)))))


@dataclass
class CaseResult:
    suite: str
    case: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance
