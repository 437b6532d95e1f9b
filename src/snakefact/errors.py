"""Exception types and the numerical-contract check shared across the package.

Validation problems (bad parameters, malformed shapes, insufficient moment
ranges, sizes and indices outside their range, an int outside the float
range, and a position past a shape, which is an ``IndexError`` too)
derive from ``ValueError``; a size, index or exponent that is not an
integer and a number or array entry that is not a number of its kind
raise ``TypeError``; failures of a numerical computation to meet its
accuracy contract derive from ``NumericalError``.  A size follows one
rule, ``int_argument``, which states its type and both ends of its range.
Numbers follow one type rule, ``complex_argument`` and ``real_argument``
for one and ``number_array`` for an array, which also states the array's
shape, and one finiteness rule, ``finite``; an argument that must be a
sequence follows ``sequence_argument``.  A contract holds when its
measured defect is ``<= bound``, a test that NaN fails; ``CaseResult``
states that test once, and ``check`` and the verify suites both apply it.

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

# The largest matrix the dense eigensolver takes, hence the largest Szego
# rule, the unitarity suite's largest truncation and `expand --n`'s cap.
MAX_SIZE = 1024


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


def int_argument(name: str, value, lo: int = 0, hi: int = math.inf, exc: type = ValueError) -> int:
    """``value`` as an int from ``lo`` to ``hi``, for any integer type except bool.

    Integers are taken through ``operator.index``, so NumPy integers pass
    and floats, strings and None do not; a bool is refused although it is
    an int.  The ``TypeError`` names the parameter, a smaller value raises
    ``exc("<name> = <value>; must be at least <lo>")`` and a larger one
    ``exc("<name> = <value> exceeds the supported <hi>")``.
    """
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value < lo:
                raise exc(f"{name} = {value}; must be at least {lo}")
            if value > hi:
                raise exc(f"{name} = {value} exceeds the supported {hi}")
            return value
    raise TypeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


# Python number types, the names of the NumPy abstract scalar types, and the
# kinds of the NumPy dtypes that hold only such numbers.
_NUMBER_TYPES = ((int, float, complex), ("number",), "iufc")
_REAL_TYPES = ((int, float), ("integer", "floating"), "iuf")
_INTEGER_TYPES = ((int,), ("integer",), "iu")


def _is_number_type(cls: type, kinds: tuple = _NUMBER_TYPES) -> bool:
    python_types, numpy_names, _ = kinds
    if issubclass(cls, python_types):
        return not issubclass(cls, bool)
    # A NumPy scalar exists only once NumPy is loaded, so NumPy is looked up
    # rather than imported: a process that never loads it never pays for it.
    np = sys.modules.get("numpy")
    return np is not None and issubclass(cls, tuple(getattr(np, name) for name in numpy_names))


def _all_numbers(values, kinds: tuple = _NUMBER_TYPES) -> bool:
    """Whether each entry of ``values`` is a number of ``kinds``, each distinct type checked once."""
    return all(_is_number_type(cls, kinds) for cls in set(map(type, values)))


def _number(name: str, value, kinds: tuple = _NUMBER_TYPES):
    """``value`` when it is a number of ``kinds``; otherwise a ``TypeError`` that names it."""
    if _is_number_type(type(value), kinds):
        return value
    what = "a real number" if kinds is _REAL_TYPES else "a number"
    raise TypeError(f"{name} must be {what}, got {type(value).__name__} {value!r}")


def _numbers(name: str, values, kinds: tuple = _NUMBER_TYPES):
    """The sequence ``values`` once each is a number of ``kinds``; the error names "<name> <index>"."""
    if not _all_numbers(values, kinds):
        for k, value in enumerate(values):
            _number(f"{name} {k}", value, kinds)  # raises at the first non-number
    return values


def _converted(name: str, convert, values, entries=None):
    """``convert(values)``, where an int outside the float range raises a ``ValueError`` naming it.

    The message names ``name``, or, given the ``entries`` of ``values``,
    the first entry that ``complex`` cannot convert, as "<name> <index>".
    The normal path pays only for the ``try``.
    """
    try:
        return convert(values)
    except OverflowError:
        for k, value in enumerate(() if entries is None else entries):
            _converted(f"{name} {k}", complex, value)  # raises at the first such entry
        raise ValueError(f"{name} is outside the float range") from None


def complex_argument(name: str, value) -> complex:
    """``value`` as a complex, for an int, float, complex or NumPy number.

    A bool, a string, None or a container raises a ``TypeError`` that names
    the parameter, and an int outside the float range a ``ValueError``;
    whether the number is finite is for ``finite`` to check.
    """
    return _converted(name, complex, _number(name, value))


def sequence_argument(name: str, values, what: str) -> tuple:
    """The entries of ``values``, any iterable but a str, as a tuple.

    A str, a number, a 0-d array, None or any other value that cannot be
    iterated raises ``TypeError("<name> must be a sequence of <what>, got
    <type> <value>")``, before any entry is read.
    """
    if not isinstance(values, str):
        try:
            entries = iter(values)
        except TypeError:
            pass
        else:
            return tuple(entries)
    raise TypeError(f"{name} must be a sequence of {what}, got {type(values).__name__} {values!r}")


def complex_arguments(name: str, values) -> tuple:
    """Each of ``values`` as a complex; the errors name "<name> <index>".

    Each distinct type is checked once, so a long sequence costs little more
    than its conversion, and no NumPy is loaded.
    """
    values = _numbers(name, tuple(values))
    return _converted(name, lambda v: tuple(map(complex, v)), values, values)


def real_argument(name: str, value) -> float:
    """``value`` as a float, for an int, float or NumPy integer or floating value.

    A bool, a complex, a string, None or a container raises a ``TypeError``
    that names the parameter, and an int outside the float range a
    ``ValueError``; whether the number is finite is for ``finite`` to check.
    """
    return _converted(name, float, _number(name, value, _REAL_TYPES))


def number_array(name: str, values, real: bool = False, shape: tuple | None = None):
    """``values`` as a complex array, or with ``real`` a float array, of numbers.

    The one type and shape rule for array inputs.  An ndarray whose dtype
    holds only such numbers passes at array speed.  Any other input, bool
    arrays included, has each distinct element type checked once, and the
    ``TypeError`` names "<name> <index>", the index counted in row-major
    order, or ``name`` alone for a scalar; an int outside the float range
    raises a ``ValueError`` named the same way.  A masked entry of a
    ``numpy.ma.MaskedArray`` is refused by the same ``TypeError``, which
    reports it as ``MaskedConstant masked``.  Whether the numbers are
    finite is for ``finite`` to check.

    ``shape``, when given, holds one entry per dimension: an int is a fixed
    length, and a str names a length that must match every other length of
    the same name, as ``("n", "n")`` asks for a square matrix.  The array
    must also be nonempty; otherwise ``ValueError("<name> must be a
    nonempty array of shape <shape>, got shape <its shape>")``.
    """
    import numpy as np

    kinds, dtype = (_REAL_TYPES, float) if real else (_NUMBER_TYPES, complex)
    # A masked entry is refused, not read: numpy.asarray would drop the mask.
    # numpy.ma is looked up, not imported, as NumPy is by _is_number_type.
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(values, ma.MaskedArray) and (masked := ma.getmaskarray(values)).any():
        where = f"{name} {np.flatnonzero(masked)[0]}" if values.ndim else name
        _number(where, ma.masked, kinds)
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds[2]:
        array = np.asarray(values, dtype=dtype)  # no such dtype holds an int outside the float range
    else:
        objects = np.asarray(values, dtype=object)
        if not objects.ndim:
            _number(name, objects[()], kinds)
        entries = _numbers(name, objects.ravel(), kinds) if objects.ndim else None
        # Cast from the objects: casting an empty complex ndarray to float warns.
        array = _converted(name, lambda v: v.astype(dtype), objects, entries)
    if shape is not None:
        lengths = {}
        if not array.size or len(shape) != array.ndim or any(
                lengths.setdefault(want, got) != got if isinstance(want, str) else want != got
                for want, got in zip(shape, array.shape)):
            needed = f"({', '.join(map(str, shape))}{',' * (len(shape) == 1)})"
            raise ValueError(f"{name} must be a nonempty array of shape {needed}, got shape {array.shape}")
    return array


def real_arguments(name: str, values, shape: tuple | None = None):
    """``values`` as a float array: ``number_array`` for real numbers."""
    return number_array(name, values, real=True, shape=shape)


def finite(name: str, value):
    """``value``, a number or an array, once each of its entries is finite.

    Otherwise raise ``ValueError("<name> = <first bad entry> is not finite")``.
    """
    if isinstance(value, (int, float, complex)) and cmath.isfinite(value):
        return value  # one finite Python number, the common case, needs no NumPy
    import numpy as np

    if not (ok := np.isfinite(value)).all():
        raise ValueError(f"{name} = {np.ravel(value)[np.argmin(ok)]} is not finite")
    return value


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
        terms[e] = finite(name, complex_argument(name, c))
    return terms


def unitarity_defect(m) -> float:
    """max|M M^H - I| of a square array; NaN when an entry is not finite."""
    import numpy as np

    if not np.isfinite(m).all():
        return math.nan
    # An integer or boolean product is cast, so that 1 is subtracted in floating point.
    gram = np.asarray(m @ m.conj().T, dtype=np.result_type(m, 1.0))
    gram[np.diag_indices(len(m))] -= 1.0
    return float(np.max(np.abs(gram)))

