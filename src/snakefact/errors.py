"""Exception types and the numerical-contract check shared across the package.

Validation problems (bad parameters, malformed shapes, insufficient moment
ranges, sizes and indices below their minimum) derive from ``ValueError``;
a size, index or exponent that is not an integer and a Schur parameter
that is not a number raise ``TypeError``; failures of a numerical
computation to meet its accuracy contract derive from ``NumericalError``.
A contract holds when its measured defect is ``<= bound``, a test that NaN
fails.
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


def int_argument(name: str, value, lo: int = 0, exc: type = ValueError) -> int:
    """``value`` as an int of at least ``lo``, for any integer type except bool.

    Integers are taken through ``operator.index``, so NumPy integers pass
    and floats, strings and None do not; a bool is refused although it is
    an int.  The ``TypeError`` names the parameter, and a smaller value
    raises ``exc("<name> = <value>; must be at least <lo>")``.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value < lo:
                raise exc(f"{name} = {value}; must be at least {lo}")
            return value
    raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def _is_number_type(cls: type) -> bool:
    return issubclass(cls, (int, float, complex, np.number)) and not issubclass(cls, bool)


def complex_argument(name: str, value) -> complex:
    """``value`` as a complex, for an int, float, complex or NumPy number.

    A bool, a string, None or a container raises a ``TypeError`` that names
    the parameter; whether the number is finite is for the caller to check.
    """
    if _is_number_type(type(value)):
        return complex(value)
    raise TypeError(f"{name} must be a number, got {type(value).__name__} {value!r}")


def complex_arguments(name: str, values) -> tuple:
    """Each of ``values`` as a complex; the ``TypeError`` names "<name> <index>".

    Each distinct type is checked once, so a long sequence costs little more
    than its conversion.
    """
    values = tuple(values)
    if not all(map(_is_number_type, set(map(type, values)))):
        for k, value in enumerate(values):
            complex_argument(f"{name} {k}", value)  # raises at the first non-number
    return tuple(map(complex, values))


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
