"""Sizes and indices are integers, checked at the boundary of each public
function that takes one: any integer type passes, while bool, floats
(integral or not), strings and None raise a TypeError naming the parameter."""

import numpy as np
import pytest

from snakefact.errors import int_argument
from snakefact.expand import entry, expand_dense, path
from snakefact.quadrature import principal_truncation, szego_quadrature, truncate_para_unitary
from snakefact.schur import SchurSequence
from snakefact.snake import SnakeFactorization, hessenberg_shape, materialize_window

SNAKE = SnakeFactorization(SchurSequence([0.3, 0.2j, -0.1, 0.4, 0.1 - 0.2j]), hessenberg_shape(4))

CALLS = {
    "expand_dense": (lambda size: expand_dense(SNAKE, size), "n", (3, 3)),
    "materialize_window": (lambda size: materialize_window(SNAKE, size), "m", (5, 5)),
    "truncate_para_unitary": (
        lambda size: truncate_para_unitary(SNAKE, size, 0.5).matrix, "n", (3, 3)
    ),
    "principal_truncation": (lambda size: principal_truncation(SNAKE, size), "n", (3, 3)),
    "szego_quadrature": (lambda size: szego_quadrature(SNAKE, size, 0.5).nodes, "n", (3,)),
    "entry row": (lambda i: np.array([entry(SNAKE, i, 2)]), "i", (1,)),
    "path column": (lambda j: np.array([path(SNAKE.gen, 1, j).r]), "j", (1,)),
}


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "3", None], ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_integer_rejected(name, bad):
    call, param, _ = CALLS[name]
    with pytest.raises(TypeError, match=f"^{param} must be an integer, got {type(bad).__name__}"):
        call(bad)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_numpy_integer_accepted(name):
    call, _, shape = CALLS[name]
    got = call(np.int64(3))
    assert got.shape == shape
    np.testing.assert_array_equal(got, call(3))


@pytest.mark.parametrize("m", [-1, -3])
def test_negative_window_rejected(m):
    with pytest.raises(ValueError, match=f"m = {m}"):
        materialize_window(SNAKE, m)


def test_int_argument_returns_a_python_int():
    value = int_argument("n", np.int32(7))
    assert value == 7 and type(value) is int
