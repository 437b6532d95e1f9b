"""One number rule at every array input, and one finiteness rule.

Every public array input goes through ``errors.number_array``: a str, bool
or None entry and a bool ndarray raise a ``TypeError`` that names
"<name> <index>", while lists, NumPy scalars and integer, floating and
complex ndarrays pass and give, bit for bit, what the plain
``numpy.asarray`` conversion gave.  A number or array that is not finite
raises ``errors.finite``'s ``ValueError("<name> = <entry> is not finite")``,
and an int outside the float range ``ValueError("<name> is outside the
float range")``, whichever number rule it meets.
"""

import re

import numpy as np
import pytest

from snakefact.errors import number_array
from snakefact.oracle import BernsteinSzego, Geronimus, GridMeasure, MomentTable
from snakefact.quadrature import (
    QuadratureRule,
    apply_rule,
    eigen_unitary,
    szego_quadrature,
    truncate_para_unitary,
)
from snakefact.schur import PolynomialPair, SchurSequence, dual, evaluate_phi, laurent_basis
from snakefact.snake import GivensFactor, SnakeFactorization, cmv_shape, hessenberg_shape

SCHUR = SchurSequence([0.5, 0.25j, -0.5])
DENSITY = BernsteinSzego([0.5, -0.25j])
SWAP = [[0.0, 1.0], [1.0, 0.0]]


def arrays(*values):
    """Each of ``values`` as a tuple of the arrays held by a result."""
    return tuple(np.asarray(v) for v in values)


# input: (call with the array under test, its name in errors, whether its
# numbers are real, a valid value, what the result holds).  The valid values
# are integers, so that every dtype can hold them.
ARRAY_INPUTS = {
    "MomentTable": (MomentTable, "moment", False, [1, 0], lambda t: arrays(t._mu)),
    "QuadratureRule nodes": (lambda v: QuadratureRule(v, [0.5, 0.5]), "node", False, [1, -1],
                             lambda r: arrays(r.nodes, r.weights)),
    "QuadratureRule weights": (lambda v: QuadratureRule([1j], v), "weight", True, [1],
                               lambda r: arrays(r.nodes, r.weights)),
    "eigen_unitary": (eigen_unitary, "matrix", False, SWAP, lambda pairs: arrays(*pairs)),
    "GivensFactor": (lambda v: GivensFactor(0, v), "block", False, SWAP, lambda g: arrays(g.block)),
    "PolynomialPair phi": (lambda v: PolynomialPair(v, [1, 2]), "phi", False, [2, 1],
                           lambda p: arrays(p.phi, p.phi_star)),
    "PolynomialPair phi_star": (lambda v: PolynomialPair([2, 1], v), "phi_star", False, [1, 2],
                                lambda p: arrays(p.phi, p.phi_star)),
    "dual": (dual, "coeffs", False, [1, 2, -2], arrays),
    "BernsteinSzego.density": (DENSITY.density, "theta", True, [0, 1, -3], arrays),
    "GridMeasure angles": (lambda v: GridMeasure(v, [0.5, 0.5]), "grid angle", True, [0, -2],
                           lambda g: arrays(g.thetas, g.weights)),
    "GridMeasure weights": (lambda v: GridMeasure([-1], v), "grid weight", True, [1],
                            lambda g: arrays(g.thetas, g.weights)),
    "evaluate_phi z": (lambda v: evaluate_phi(SCHUR, 3, v), "z", False, [2, 1, -2],
                       lambda pair: arrays(*pair)),
    "laurent_basis z": (lambda v: laurent_basis(SCHUR, cmv_shape(3), 3, v), "z", False, [2, 1, -2],
                        arrays),
}

# entry planted at the last position of the valid value, and the type name a message gives it
BAD_ENTRIES = {"str": ("1", "str"), "bool": (True, "bool"), "None": (None, "NoneType")}


def _planted(value, bad):
    """``value`` as nested lists with its last entry replaced by ``bad``."""
    objects = np.array(value, dtype=object)
    objects.flat[-1] = bad
    return objects.tolist(), objects.size - 1


def _refused(name, index, real, type_name):
    number = "a real number" if real else "a number"
    return pytest.raises(TypeError, match=f"^{re.escape(f'{name} {index}')} must be {number}, "
                                          f"got {type_name} ")


@pytest.mark.parametrize("entry", BAD_ENTRIES)
@pytest.mark.parametrize("site", ARRAY_INPUTS)
def test_entry_that_is_not_a_number_is_named(site, entry):
    call, name, real, valid, _ = ARRAY_INPUTS[site]
    bad, type_name = BAD_ENTRIES[entry]
    value, index = _planted(valid, bad)
    with _refused(name, index, real, type_name):
        call(value)


@pytest.mark.parametrize("site", ARRAY_INPUTS)
def test_bool_array_is_refused(site):
    call, name, real, valid, _ = ARRAY_INPUTS[site]
    with _refused(name, 0, real, "bool"):
        call(np.ones(np.shape(valid), dtype=bool))


REAL_DTYPES = (np.int8, np.int64, np.uint16, np.float32, np.float64)
COMPLEX_DTYPES = (np.complex64, np.complex128)


def _accepted_forms(valid, real):
    """The valid integers as a list, a list of NumPy scalars and each ndarray dtype that holds them."""
    natural = np.asarray(valid)
    scalars = natural.astype(np.float32 if real else np.complex64)
    forms = {"list": valid,
             "numpy scalars": np.array(list(scalars.flat), dtype=object).reshape(natural.shape).tolist()}
    for dtype in REAL_DTYPES + (() if real else COMPLEX_DTYPES):
        if np.array_equal(cast := natural.astype(dtype), natural):
            forms[np.dtype(dtype).name] = cast
    return forms


@pytest.mark.parametrize("site", ARRAY_INPUTS)
def test_number_forms_pass_bit_for_bit(site):
    call, _, real, valid, read = ARRAY_INPUTS[site]
    forms = _accepted_forms(valid, real)
    assert {"list", "numpy scalars", "int64", "float64"} <= set(forms)
    for form, value in forms.items():
        # the conversion every site made before the one rule
        want = read(call(np.asarray(value, dtype=float if real else complex)))
        got = read(call(value))
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
               [(a.dtype, a.shape, a.tobytes()) for a in want], form


@pytest.mark.parametrize("value, want", [
    (True, "z must be a number, got bool True"),
    ("x", "z must be a number, got str 'x'"),
    (np.array("x"), "z must be a number, got str 'x'"),
], ids=["bool scalar", "str scalar", "0-d array"])
def test_a_scalar_is_named_without_an_index(value, want):
    with pytest.raises(TypeError) as err:
        number_array("z", value)
    assert str(err.value) == want


def test_array_of_the_right_dtype_is_not_copied():
    nodes = np.array([1.0, -1.0], dtype=complex)
    assert number_array("node", nodes) is nodes


SNAKE = SnakeFactorization(SCHUR, hessenberg_shape(2))


# site: (call that meets a value that is not finite, the exact message)
FINITE_SITES = {
    "theta of truncate_para_unitary": (lambda: truncate_para_unitary(SNAKE, 3, -np.inf),
                                       "theta = -inf is not finite"),
    "theta of szego_quadrature": (lambda: szego_quadrature(SCHUR, 3, np.nan), "theta = nan is not finite"),
    "z array": (lambda: evaluate_phi(SCHUR, 3, [1.0, np.inf, np.nan]), "z = (inf+0j) is not finite"),
    "z scalar": (lambda: laurent_basis(SCHUR, cmv_shape(3), 3, complex(0, np.nan)),
                 "z = nanj is not finite"),
    "Laurent coefficient": (lambda: apply_rule(szego_quadrature(SCHUR, 3, 0.0), {0: 1, 3: np.inf}),
                            "coefficient of z^3 = (inf+0j) is not finite"),
    "phi": (lambda: PolynomialPair([np.nan, 1.0], [1.0, 0.0]), "phi = (nan+0j) is not finite"),
}


@pytest.mark.parametrize("site", FINITE_SITES)
def test_not_finite_message(site):
    call, message = FINITE_SITES[site]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


HUGE = 10**400  # an int that no float holds

# site: (call that meets an int outside the float range, the exact message)
OUTSIDE_FLOAT_RANGE = {
    "SchurSequence": (lambda: SchurSequence([0.1, HUGE]), "parameter 1 is outside the float range"),
    "theta of szego_quadrature": (lambda: szego_quadrature(SchurSequence([0.3]), 2, HUGE),
                                  "theta is outside the float range"),
    "z of evaluate_phi": (lambda: evaluate_phi(SCHUR, 3, HUGE), "z is outside the float range"),
    "Laurent coefficient": (lambda: apply_rule(szego_quadrature(SCHUR, 3, 0.0), {1: HUGE}),
                            "coefficient of z^1 is outside the float range"),
    "GridMeasure": (lambda: GridMeasure([0.0, HUGE], [0.5, 0.5]), "grid angle 1 is outside the float range"),
    "Geronimus": (lambda: Geronimus(HUGE), "a is outside the float range"),
    "MomentTable": (lambda: MomentTable([1, HUGE]), "moment 1 is outside the float range"),
    "QuadratureRule": (lambda: QuadratureRule([1, HUGE], [0.5, 0.5]), "node 1 is outside the float range"),
}


@pytest.mark.parametrize("site", OUTSIDE_FLOAT_RANGE)
def test_int_outside_the_float_range_is_named(site):
    call, message = OUTSIDE_FLOAT_RANGE[site]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message
