"""Angles, weights and corner phases are real numbers, checked at the boundary
by ``errors.real_argument`` and ``errors.real_arguments``: ints, floats and
NumPy integer and floating values pass, while a bool, a complex, a string
or None raises a TypeError that names the parameter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snakefact.errors import real_argument, real_arguments
from snakefact.oracle import BernsteinSzego, GridMeasure
from snakefact.quadrature import szego_quadrature, truncate_para_unitary
from snakefact.schur import SchurSequence
from snakefact.snake import SnakeFactorization, hessenberg_shape

SNAKE = SnakeFactorization(SchurSequence([0.3, 0.2j, -0.1]), hessenberg_shape(2))


@pytest.mark.parametrize("thetas, weights, name", [
    ([0.0], [True], "grid weight 0"),
    ([0.0], ["1"], "grid weight 0"),
    ([0.0, 1.0], [0.5, 0.5 + 0j], "grid weight 1"),
    ([None], [1.0], "grid angle 0"),
    (np.array([False]), [1.0], "grid angle 0"),
], ids=["bool-weight", "str-weight", "complex-weight", "none-angle", "bool-array-angle"])
def test_grid_refuses_non_real(thetas, weights, name):
    with pytest.raises(TypeError, match=f"^{name} must be a real number"):
        GridMeasure(thetas, weights)


@pytest.mark.parametrize("thetas, weights", [
    ([np.float32(-1.0), 0, np.int64(1)], [0.25, np.float16(0.5), 0.25]),
    (np.array([-1, 0, 1], dtype=np.int8), np.array([0.25, 0.5, 0.25], dtype=np.float32)),
], ids=["scalars", "arrays"])
def test_grid_accepts_real_types(thetas, weights):
    grid = GridMeasure(thetas, weights)
    assert grid.thetas.dtype == grid.weights.dtype == np.float64
    np.testing.assert_array_equal(grid.thetas, [-1.0, 0.0, 1.0])


def test_grid_shape_still_checked():
    with pytest.raises(ValueError, match="must be a nonempty array of shape"):
        GridMeasure(0.0, 1.0)
    with pytest.raises(ValueError, match="must be a nonempty array of shape"):
        GridMeasure([[0.0]], [[1.0]])


@pytest.mark.parametrize("prefix", [0.5, 0.5j, None, "0.5"], ids=repr)
def test_bernstein_szego_prefix_is_a_sequence(prefix):
    with pytest.raises(TypeError, match="^prefix must be a sequence"):
        BernsteinSzego(prefix)


@pytest.mark.parametrize("theta", ["0.5", True, 0.5j, None], ids=repr)
def test_corner_phase_is_real(theta):
    with pytest.raises(TypeError, match="^theta must be a real number"):
        truncate_para_unitary(SNAKE, 3, theta)
    with pytest.raises(TypeError, match="^theta must be a real number"):
        szego_quadrature(SNAKE, 3, theta)


@pytest.mark.parametrize("theta", [0, np.int32(1), np.float32(0.5), 0.7])
def test_corner_phase_real_types(theta):
    truncation = truncate_para_unitary(SNAKE, 3, theta)
    assert type(truncation.theta) is float and truncation.theta == float(theta)


def test_real_argument_returns_a_python_float():
    assert type(real_argument("x", np.float32(0.5))) is float


REAL = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3).map(np.float32),
    st.integers(-100, 100).map(np.int16),
).map(lambda v: (v, True))
NOT_REAL = st.one_of(
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(max_magnitude=10.0),
    st.text(max_size=3),
    st.none(),
).map(lambda v: (v, False))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(REAL, NOT_REAL), max_size=6))
def test_property_real_arguments(tagged):
    values = [v for v, _ in tagged]
    bad = [k for k, (_, real) in enumerate(tagged) if not real]
    if bad:
        with pytest.raises(TypeError, match=f"^grid weight {bad[0]} must be a real number"):
            GridMeasure(np.zeros(len(values)), values)
    else:
        got = real_arguments("grid weight", values)
        np.testing.assert_array_equal(got, np.array([float(v) for v in values]))
        assert got.dtype == np.float64 and got.shape == (len(values),)
