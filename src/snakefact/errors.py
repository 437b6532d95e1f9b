"""Exception types and the numerical-contract check shared across the package.

Validation problems (bad parameters, malformed shapes, insufficient moment
ranges, sizes and indices below their minimum, and a position past a
shape, which is an ``IndexError`` too) derive from ``ValueError``;
a size, index or exponent that is not an integer, a Schur parameter that
is not a number and an angle or weight that is not a real number raise
``TypeError``; failures of a numerical
computation to meet its accuracy contract derive from ``NumericalError``.
A contract holds when its measured defect is ``<= bound``, a test that NaN
fails; ``CaseResult`` states that test once, and ``check`` and the verify
suites both apply it.

Loading this module loads no NumPy: the functions that compute with it
import it when they run, so the shape layer and the command line's start-up
can use the checks here for free.
"""

import cmath
import math
import operator
import sys
from collections import namedtuple


class InvalidSchurParameter(ValueError):
    """A Schur parameter is not finite or lies on or outside the unit circle.

    The message calls it ``name``, by default "parameter <index>".
    """

    def __init__(self, index, value, name=None):
        self.index = index
        self.value = value
        where = name or f"parameter {index}"
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


class ShapeIndexError(ShapeError, IndexError):
    """A position past 0 .. m, the monomials, basis elements and factors of m shape bits.

    Both a ``ShapeError`` and an ``IndexError``, as NumPy's ``AxisError`` is
    both a ``ValueError`` and an ``IndexError``, so a caller may catch either.
    """


class MomentError(ValueError):
    """A moment table cannot support the requested operation."""


class NumericalError(RuntimeError):
    """A numerical computation failed to meet its accuracy contract."""


class ConvergenceError(NumericalError):
    """An eigensolver failed to converge."""


# The verify suites in the order they run.  The command line offers them as
# --suite choices without loading the suites; verify.SUITES maps each to its
# function.
SUITE_NAMES = ("unitarity", "oracle-equivalence", "bandwidth", "round-trip", "exactness")


class CaseResult(namedtuple("CaseResult", "suite case defect tolerance")):
    """One contract case: its measured defect and the tolerance it must meet.

    The verify suites report each of their cases as one; ``check`` builds
    one without a suite.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """Whether ``defect <= tolerance``, a test that a NaN defect fails."""
        return self.defect <= self.tolerance


def check(what: str, value, bound: float, exc: type = NumericalError) -> float:
    """Return the measured ``value`` when it is within ``bound``.

    Otherwise raise ``exc("<what> (defect <value> > <bound>)")``.  The test
    is ``CaseResult.passed``, so a NaN defect always fails.
    """
    value = float(value)
    if not CaseResult(None, what, value, bound).passed:
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


# Python number types, then the names of the NumPy abstract scalar types.
_NUMBER_TYPES = ((int, float, complex), ("number",))
_REAL_TYPES = ((int, float), ("integer", "floating"))


def _is_number_type(cls: type, kinds: tuple = _NUMBER_TYPES) -> bool:
    python_types, numpy_names = kinds
    if issubclass(cls, bool):
        return False
    if issubclass(cls, python_types):
        return True
    # A NumPy scalar exists only once NumPy is loaded, so NumPy is looked up
    # rather than imported: a process that never loads it never pays for it.
    np = sys.modules.get("numpy")
    return np is not None and issubclass(cls, tuple(getattr(np, name) for name in numpy_names))


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


def laurent_argument(name: str, f) -> dict:
    """A Laurent polynomial {exponent: coefficient} as a dict of ints to complex numbers.

    ``f`` must be a mapping; anything without ``items`` raises a
    ``TypeError`` that names the parameter.  Exponents go through
    ``int_argument`` with no lower bound.  A coefficient that is not a
    number raises a ``TypeError``, and one that is not finite a
    ``ValueError``, each naming "coefficient of z^<exponent>".
    """
    try:
        items = f.items()
    except AttributeError:
        raise TypeError(
            f"{name} must be a mapping {{exponent: coefficient}}, got {type(f).__name__} {f!r}"
        ) from None
    terms = {}
    for e, c in items:
        e = int_argument("exponent", e, -math.inf)
        name = f"coefficient of z^{e}"
        if not cmath.isfinite(c := complex_argument(name, c)):
            raise ValueError(f"{name} = {c} is not finite")
        terms[e] = c
    return terms


def real_argument(name: str, value) -> float:
    """``value`` as a float, for an int, float or NumPy integer or floating value.

    A bool, a complex, a string, None or a container raises a ``TypeError``
    that names the parameter; whether the number is finite is for the
    caller to check.
    """
    if _is_number_type(type(value), _REAL_TYPES):
        return float(value)
    raise TypeError(f"{name} must be a real number, got {type(value).__name__} {value!r}")


def real_arguments(name: str, values):
    """``values`` as a float array; the ``TypeError`` names "<name> <index>".

    An array of integer or floating dtype passes at array speed; otherwise
    each distinct element type is checked once, as in ``complex_arguments``.
    """
    import numpy as np

    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        values = np.asarray(values, dtype=object)
        if not all(_is_number_type(cls, _REAL_TYPES) for cls in set(map(type, values.flat))):
            for k, value in enumerate(values.flat):
                real_argument(f"{name} {k}", value)  # raises at the first non-real
    return np.asarray(values, dtype=float)


def unitarity_defect(m) -> float:
    """max|M M^H - I| of a square array; NaN when an entry is not finite."""
    import numpy as np

    if not np.isfinite(m).all():
        return math.nan
    # An integer or boolean product is cast, so that 1 is subtracted in floating point.
    gram = np.asarray(m @ m.conj().T, dtype=np.result_type(m, 1.0))
    gram[np.diag_indices(len(m))] -= 1.0
    return float(np.max(np.abs(gram)))

