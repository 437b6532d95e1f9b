"""Sizes, degrees, counts, indices and exponents are integers, checked at
the boundary of each public function that takes one by
``errors.int_argument``: any integer type passes with the result of the
plain int, while bool, floats (integral or not), strings and None, a value
below the function's minimum and a position past the shape are refused.

Each refusal is a case of the refusal table ``refusals.ROWS``; the cases
that were tests of this module before the table run here under those
tests' ids, by ``keep_earlier_ids`` at the end.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refusals import EXPONENT_SITES, INTEGER_SITES, OPTIONAL, PAST_THE_SHAPE, keep_earlier_ids
from snakefact.cli import main
from snakefact.errors import ShapeError, ShapeIndexError, int_argument


class Index:
    """An integer type with nothing but ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


INTEGER_KINDS = (np.int64, np.int32, np.uint8, Index)


@pytest.mark.parametrize("name", INTEGER_SITES)
def test_numpy_integer_accepted(name):
    call, _, _, good, _ = INTEGER_SITES[name]
    for kind in INTEGER_KINDS:
        np.testing.assert_array_equal(call(kind(good)), call(good))


@pytest.mark.parametrize("name", EXPONENT_SITES)
def test_numpy_integer_exponent_accepted(name):
    call, _ = EXPONENT_SITES[name]
    for kind in INTEGER_KINDS:
        np.testing.assert_array_equal(call(kind(1)), call(1))


@pytest.mark.parametrize("name", PAST_THE_SHAPE)
def test_last_position_of_the_shape_is_accepted(name):
    call, first, _ = PAST_THE_SHAPE[name]
    call(first - 1)


def test_int_argument_returns_a_python_int():
    value = int_argument("n", np.int32(7))
    assert value == 7 and type(value) is int


def test_shape_index_error_is_an_index_and_a_shape_error():
    assert issubclass(ShapeIndexError, IndexError) and issubclass(ShapeIndexError, ShapeError)


class TestNegativeValuesNoLongerWrap:
    """A negative size was once read as an index from the end; each is refused."""


BELOW = st.sampled_from(sorted(INTEGER_SITES)).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(max_value=INTEGER_SITES[name][2] - 1))
)
NOT_AN_INTEGER = st.one_of(st.floats(allow_nan=True), st.booleans(), st.text(max_size=4), st.none())


@settings(max_examples=60, deadline=None)
@given(BELOW)
def test_property_below_minimum(case):
    name, value = case
    call, param, lo, _, _ = INTEGER_SITES[name]
    with pytest.raises(ValueError, match=f"^{param} = {value}; must be at least {lo}$"):
        call(value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(INTEGER_SITES)), NOT_AN_INTEGER)
def test_property_non_integer(name, bad):
    call, param, _, _, _ = INTEGER_SITES[name]
    if bad is None and name in OPTIONAL:
        return
    with pytest.raises(TypeError, match=f"^{param} must be an integer"):
        call(bad)


FIVE = "0.3,0.2j,-0.1,0.4,0.1-0.2j"
FLAG_VALUE = st.one_of(st.integers(-4, 12).map(str), st.sampled_from(["2.5", "x", "", "1e3", "-0"]))
COMMANDS = [
    lambda m, n, i, j: ["build", "--shape", "hessenberg", "--m", m],
    lambda m, n, i, j: ["bandwidth", "--shape", "cmv", "--m", m],
    lambda m, n, i, j: ["entry", "--shape", "cmv", "--m", "5", "--alphas", FIVE, "--i", i, "--j", j],
    lambda m, n, i, j: ["expand", "--shape", "cmv", "--m", m, "--alphas", FIVE, "--n", n],
    lambda m, n, i, j: ["expand", "--s", "0,1,1,0", "--alphas", FIVE, "--n", n],
    lambda m, n, i, j: ["quadrature", "--measure", "lebesgue", "--n", n],
    lambda m, n, i, j: ["quadrature", "--shape", "cmv", "--m", m, "--measure", "lebesgue", "--n", n],
    lambda m, n, i, j: ["verify", "--suite", "round-trip", "--m", m, "--n", n],
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(COMMANDS), FLAG_VALUE, FLAG_VALUE, FLAG_VALUE, FLAG_VALUE)
def test_property_cli_sizes_exit_cleanly(command, m, n, i, j):
    argv = command(m, n, i, j)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2, 3), argv


keep_earlier_ids(globals())
