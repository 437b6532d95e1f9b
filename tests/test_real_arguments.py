"""Angles, weights and corner phases are real numbers, checked at the boundary
by ``errors.real_argument`` and ``errors.real_arguments``: ints, floats and
NumPy integer and floating values pass, while a bool, a complex, a string
or None is refused with a message that names the parameter.

Each refusal is a case of the refusal table ``refusals.ROWS``; the cases
that were tests of this module before the table run here under those
tests' ids, by ``keep_earlier_ids`` at the end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refusals import SNAKE3, keep_earlier_ids
from snakefact.errors import real_argument, real_arguments
from snakefact.oracle import GridMeasure
from snakefact.quadrature import truncate_para_unitary


@pytest.mark.parametrize("thetas, weights", [
    ([np.float32(-1.0), 0, np.int64(1)], [0.25, np.float16(0.5), 0.25]),
    (np.array([-1, 0, 1], dtype=np.int8), np.array([0.25, 0.5, 0.25], dtype=np.float32)),
], ids=["scalars", "arrays"])
def test_grid_accepts_real_types(thetas, weights):
    grid = GridMeasure(thetas, weights)
    assert grid.thetas.dtype == grid.weights.dtype == np.float64
    np.testing.assert_array_equal(grid.thetas, [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("theta", [0, np.int32(1), np.float32(0.5), 0.7])
def test_corner_phase_real_types(theta):
    truncation = truncate_para_unitary(SNAKE3, 3, theta)
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


keep_earlier_ids(globals())
