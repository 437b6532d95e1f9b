"""Properties of the two boundary rules over arbitrary inputs.

``errors.number_array`` either returns, bit for bit, what ``numpy.asarray``
gives with its dtype, in a shape that meets the ``shape`` spec, or raises
a ``TypeError`` or ``ValueError`` whose message begins with the argument's
name; nothing else escapes it.  ``errors.int_argument`` returns an
integer from ``lo`` to ``hi`` as that exact Python int, and refuses any
other value with its documented message.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from snakefact.errors import int_argument, number_array

HUGE = st.sampled_from([10**400, -(10**400), 2**1024, -(2**1024) + 1])
ENTRY = st.one_of(
    st.integers(), HUGE, st.floats(), st.complex_numbers(), st.booleans(), st.none(),
    st.text(max_size=2),
)
NESTED = st.recursive(ENTRY, lambda children: st.lists(children, max_size=3), max_leaves=10)
NDARRAY = hnp.arrays(
    st.sampled_from([np.int8, np.int64, np.uint64, np.float32, np.float64, np.complex128, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
SHAPE = st.none() | st.lists(st.sampled_from(["n", "m", 1, 2, 3]), max_size=3).map(tuple)


def _numpy_array(values, real: bool) -> np.ndarray:
    """``numpy.asarray(values)`` with the rule's dtype; an empty complex array warns as it becomes real."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        return np.asarray(values, dtype=float if real else complex)


def _meets(got: tuple, spec: tuple) -> bool:
    """Whether a shape is nonempty, has one length per entry of ``spec`` and matches its lengths."""
    lengths = {}
    return (len(got) == len(spec) and 0 not in got and all(
        lengths.setdefault(want, n) == n if isinstance(want, str) else want == n
        for want, n in zip(spec, got)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(NESTED, NDARRAY), st.booleans(), SHAPE)
def test_number_array_converts_exactly_or_names_the_argument(values, real, shape):
    try:
        got = number_array("probe", values, real=real, shape=shape)
    except (TypeError, ValueError) as exc:
        assert str(exc).startswith("probe")
        if "nonempty array of shape" in str(exc):
            assert not _meets(_numpy_array(values, real).shape, shape)
        return
    want = _numpy_array(values, real)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert shape is None or _meets(got.shape, shape)


INTEGER = st.one_of(st.integers(), HUGE, st.integers(-(2**63), 2**63 - 1).map(np.int64))
NOT_INTEGER = st.one_of(st.booleans(), st.floats(), st.complex_numbers(), st.none(), st.text(max_size=2),
                        st.floats().map(np.float64))
BOUND = st.integers(-20, 20)


@settings(max_examples=200, deadline=None)
@given(st.one_of(INTEGER, NOT_INTEGER), st.one_of(BOUND, st.just(-math.inf)),
       st.one_of(BOUND, st.just(math.inf)))
def test_int_argument_returns_the_int_in_range_or_refuses_it(value, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    is_integer = not isinstance(value, (bool, float, complex, str, type(None), np.float64))
    try:
        got = int_argument("size", value, lo, hi)
    except TypeError as exc:
        assert not is_integer
        assert str(exc) == f"size must be an integer, got {type(value).__name__} {value!r}"
    except ValueError as exc:
        assert is_integer and not lo <= value <= hi
        if value < lo:
            assert str(exc) == f"size = {value}; must be at least {lo}"
        else:
            assert str(exc) == f"size = {value} exceeds the supported {hi}"
    else:
        assert is_integer and lo <= value <= hi
        assert type(got) is int and got == value
