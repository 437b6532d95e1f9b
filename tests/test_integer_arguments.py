"""Sizes, degrees, counts and indices are integers, checked at the boundary
of each public function that takes one by ``errors.int_argument``: any
integer type passes, while bool, floats (integral or not), strings and
None raise a TypeError naming the parameter, and a value below the
function's minimum raises a ValueError reading "<name> = <value>; must be
at least <minimum>"."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakefact.cli import main
from snakefact.errors import ShapeError, ShapeIndexError, int_argument
from snakefact.expand import entry, expand_dense, path
from snakefact.oracle import (
    BernsteinSzego,
    GridMeasure,
    gram_schmidt_laurent,
    moments,
    multiplication_matrix,
    schur_from_moments,
    schur_parameters,
)
from snakefact.quadrature import (
    apply_rule,
    szego_quadrature,
    truncate_para_unitary,
)
from snakefact.schur import SchurSequence, evaluate_phi, laurent_basis, polynomial_pair
from snakefact.snake import (
    GivensFactor,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    materialize_window,
    shape_from_monomials,
)
from snakefact.verify import run_suites

SCHUR = SchurSequence([0.3, 0.2j, -0.1, 0.4, 0.1 - 0.2j])
SNAKE = SnakeFactorization(SCHUR, hessenberg_shape(4))
TABLE = moments(BernsteinSzego([0.3, 0.2j]), 12)
GRID = GridMeasure([-2.0, -0.5, 1.0, 2.5], [0.1, 0.2, 0.3, 0.4])
Z = 0.6 + 0.3j


def _table(table):
    return np.array([table.mu(j) for j in range(-table.jmax, table.jmax + 1)])


def _defects(results):
    return np.array([r.defect for r in results])


# name: (call of one integer, parameter name, minimum, a valid value)
CALLS = {
    "expand_dense": (lambda n: expand_dense(SNAKE, n), "n", 1, 3),
    "materialize_window": (lambda m: materialize_window(SNAKE, m), "m", 0, 3),
    "truncate_para_unitary": (lambda n: truncate_para_unitary(SNAKE, n, 0.5).matrix, "n", 2, 3),
    "szego_quadrature": (lambda n: szego_quadrature(SNAKE, n, 0.5).nodes, "n", 2, 3),
    "entry row": (lambda i: entry(SNAKE, i, 2), "i", 0, 1),
    "entry column": (lambda j: entry(SNAKE, 2, j), "j", 0, 3),
    "path row": (lambda i: path(SNAKE.gen, i, 1).r, "i", 0, 3),
    "path column": (lambda j: path(SNAKE.gen, 1, j).t, "j", 0, 3),
    "GivensFactor": (lambda k: GivensFactor(k, np.eye(2)).k, "k", 0, 3),
    "factor": (lambda k: SNAKE.factor(k).block, "k", 0, 3),
    "GeneratingSequence.s": (lambda n: SNAKE.gen.s(n), "n", 0, 3),
    "SchurSequence.alpha": (lambda k: SCHUR.alpha(k), "k", 0, 3),
    "SchurSequence.rho": (lambda k: SCHUR.rho(k), "k", 0, 3),
    "hessenberg_shape": (lambda m: hessenberg_shape(m).bits, "m", 1, 3),
    "cmv_shape": (lambda m: cmv_shape(m).bits, "m", 1, 3),
    "polynomial_pair": (lambda n: polynomial_pair(SCHUR, n).phi, "n", 0, 3),
    "evaluate_phi": (lambda n: evaluate_phi(SCHUR, n, Z), "n", 0, 3),
    "laurent_basis": (lambda n: laurent_basis(SCHUR, SNAKE.gen, n, Z), "n", 0, 3),
    "moments": (lambda jmax: _table(moments(GRID, jmax)), "jmax", 0, 3),
    "schur_from_moments": (lambda n: schur_from_moments(TABLE, n).alphas, "n", 1, 3),
    "schur_parameters": (lambda count: schur_parameters(GRID, count).alphas, "count", 1, 3),
    "gram_schmidt_laurent": (lambda n: gram_schmidt_laurent(TABLE, SNAKE.gen, n)[1], "n", 0, 3),
    "multiplication_matrix": (lambda n: multiplication_matrix(TABLE, SNAKE.gen, n), "n", 1, 3),
}
# run_suites takes None for "the suite's default"; everywhere else None is refused.
OPTIONAL_CALLS = {
    "run_suites m": (lambda m: _defects(run_suites(["unitarity"], m=m)), "m", 1, 3),
    "run_suites n": (lambda n: _defects(run_suites(["exactness"], n=n)), "n", 2, 3),
}
ALL_CALLS = {**CALLS, **OPTIONAL_CALLS}


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "3", None], ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_integer_rejected(name, bad):
    call, param, _, _ = CALLS[name]
    with pytest.raises(TypeError, match=f"^{param} must be an integer, got {type(bad).__name__}"):
        call(bad)


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("name", sorted(OPTIONAL_CALLS))
def test_non_integer_rejected_where_none_is_the_default(name, bad):
    call, param, _, _ = OPTIONAL_CALLS[name]
    with pytest.raises(TypeError, match=f"^{param} must be an integer, got {type(bad).__name__}"):
        call(bad)


@pytest.mark.parametrize("name", sorted(ALL_CALLS))
@pytest.mark.parametrize("below", [1, 3])
def test_below_minimum_rejected(name, below):
    call, param, lo, _ = ALL_CALLS[name]
    value = lo - below
    with pytest.raises(ValueError, match=f"^{param} = {value}; must be at least {lo}$"):
        call(value)


class Index:
    """An integer type with nothing but ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("name", sorted(ALL_CALLS))
def test_numpy_integer_accepted(name):
    call, _, _, good = ALL_CALLS[name]
    for kind in (np.int64, np.int32, np.uint8, Index):
        np.testing.assert_array_equal(call(kind(good)), call(good))


# name: (call of one index, first index past the end, the stored range named,
# the IndexError raised)
PAST_THE_END = {
    "GeneratingSequence.s": (lambda n: SNAKE.gen.s(n), 5, "1..4", IndexError),
    "factor": (lambda k: SNAKE.factor(k), 5, "the 4 stored shape bits", ShapeIndexError),
    "SchurSequence.alpha": (lambda k: SCHUR.alpha(k), 5, "0..4", IndexError),
    "SchurSequence.rho": (lambda k: SCHUR.rho(k), 5, "0..4", IndexError),
}


@pytest.mark.parametrize("name", sorted(PAST_THE_END))
@pytest.mark.parametrize("beyond", [0, 3])
def test_past_the_end_names_the_index(name, beyond):
    call, first, stored, error = PAST_THE_END[name]
    with pytest.raises(error, match=f"(?<!\\d){first + beyond}\\D.*{stored}"):
        call(first + beyond)


# An index past the shape's bits is the shape index rule's ShapeIndexError,
# both an IndexError and a ShapeError, which names the index the ordering
# needs.  name: (call of one index, first index past the shape, the
# ordering's index for it minus the call's)
PAST_THE_SHAPE = {
    "path row": (lambda i: path(SNAKE.gen, i, 1), 5, 0),
    "path column": (lambda j: path(SNAKE.gen, 1, j), 5, 0),
    "entry row": (lambda i: entry(SNAKE, i, 1), 5, 0),
    "entry column": (lambda j: entry(SNAKE, 1, j), 5, 0),
    "expand_dense": (lambda n: expand_dense(SNAKE, n), 6, -1),
    "materialize_window": (lambda m: materialize_window(SNAKE, m), 5, 0),
    "truncate_para_unitary": (lambda n: truncate_para_unitary(SNAKE, n, 0.3), 6, -1),
    "factor": (lambda k: SNAKE.factor(k), 5, 0),
    "laurent_basis": (lambda n: laurent_basis(SCHUR, SNAKE.gen, n, Z), 5, 0),
    "gram_schmidt_laurent": (lambda n: gram_schmidt_laurent(TABLE, SNAKE.gen, n), 5, 0),
    "multiplication_matrix": (lambda n: multiplication_matrix(TABLE, SNAKE.gen, n), 6, -1),
}


def test_shape_index_error_is_an_index_and_a_shape_error():
    assert issubclass(ShapeIndexError, IndexError) and issubclass(ShapeIndexError, ShapeError)


@pytest.mark.parametrize("name", sorted(PAST_THE_SHAPE))
@pytest.mark.parametrize("beyond", [0, 3])
def test_past_the_shape_is_the_shape_index_rule(name, beyond):
    call, first, offset = PAST_THE_SHAPE[name]
    index = first + beyond + offset
    with pytest.raises(ShapeIndexError, match=f"^index {index} exceeds the 4 stored shape bits$"):
        call(first + beyond)
    call(first - 1)


RULE = szego_quadrature(SNAKE, 3, 0.5)
# Exponents are integers of either sign.  name: (call of one exponent, name in the error)
EXPONENT_CALLS = {
    "shape_from_monomials": (lambda e: shape_from_monomials([0, e]).bits, "exponent r_1"),
    "apply_rule": (lambda e: apply_rule(RULE, {e: 1.0}), "exponent"),
}


@pytest.mark.parametrize("bad", [1.0, 1.5, True, "1", None], ids=repr)
@pytest.mark.parametrize("name", sorted(EXPONENT_CALLS))
def test_non_integer_exponent_rejected(name, bad):
    call, param = EXPONENT_CALLS[name]
    with pytest.raises(TypeError, match=f"^{param} must be an integer, got {type(bad).__name__}"):
        call(bad)


@pytest.mark.parametrize("name", sorted(EXPONENT_CALLS))
def test_numpy_integer_exponent_accepted(name):
    call, _ = EXPONENT_CALLS[name]
    for kind in (np.int64, np.int32, np.uint8, Index):
        np.testing.assert_array_equal(call(kind(1)), call(1))


@pytest.mark.parametrize("m", [-1, -3])
def test_negative_window_rejected(m):
    with pytest.raises(ValueError, match=f"m = {m}"):
        materialize_window(SNAKE, m)


@pytest.mark.parametrize("shape", [hessenberg_shape, cmv_shape])
@pytest.mark.parametrize("m", [0, -2])
def test_named_shape_below_one_is_a_shape_error(shape, m):
    with pytest.raises(ShapeError, match=f"m = {m}"):
        shape(m)


def test_int_argument_returns_a_python_int():
    value = int_argument("n", np.int32(7))
    assert value == 7 and type(value) is int


# Each of these returned a wrong answer for a negative size or index
# instead of rejecting it: Python's negative indexing read from the end.
class TestNegativeValuesNoLongerWrap:
    def test_polynomial_pair(self):
        with pytest.raises(ValueError, match="^n = -1"):
            polynomial_pair(SCHUR, -1)  # was the degree len(s) - 1 pair

    def test_evaluate_phi(self):
        with pytest.raises(ValueError, match="^n = -1"):
            evaluate_phi(SCHUR, -1, Z)  # was phi_{len(s) - 1}(z)

    def test_laurent_basis(self):
        with pytest.raises(ValueError, match="^n = -1"):
            laurent_basis(SCHUR, SNAKE.gen, -1, Z)

    def test_gram_schmidt_laurent(self):
        with pytest.raises(ValueError, match="^n = -1"):
            gram_schmidt_laurent(TABLE, SNAKE.gen, -1)  # was []


BELOW = st.sampled_from(sorted(ALL_CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(max_value=ALL_CALLS[name][2] - 1))
)
NOT_INTEGER = st.one_of(st.floats(allow_nan=True), st.booleans(), st.text(max_size=4), st.none())


@settings(max_examples=60, deadline=None)
@given(BELOW)
def test_property_below_minimum(case):
    name, value = case
    call, param, lo, _ = ALL_CALLS[name]
    with pytest.raises(ValueError, match=f"^{param} = {value}; must be at least {lo}$"):
        call(value)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALL_CALLS)), NOT_INTEGER)
def test_property_non_integer(name, bad):
    call, param, _, _ = ALL_CALLS[name]
    if bad is None and name in OPTIONAL_CALLS:
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
