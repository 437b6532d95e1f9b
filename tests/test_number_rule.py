"""One number rule at every array input, and one finiteness rule.

Every public array input goes through ``errors.number_array``: lists,
NumPy scalars and integer, floating and complex ndarrays pass and give,
bit for bit, what the plain ``numpy.asarray`` conversion gave.  A str,
bool or None entry, a bool ndarray, a masked entry, a number that is not
finite and an int outside the float range are refused with a message that
names the argument.

Each refusal is a case of the refusal table ``refusals.ROWS``; the cases
that were tests of this module before the table run here under those
tests' ids, by ``keep_earlier_ids`` at the end.
"""

import numpy as np
import pytest

from refusals import ARRAY_SITES, keep_earlier_ids
from snakefact.errors import number_array

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


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_number_forms_pass_bit_for_bit(site):
    call, _, real, valid, read, _ = ARRAY_SITES[site]
    forms = _accepted_forms(valid, real)
    assert {"list", "numpy scalars", "int64", "float64"} <= set(forms)
    for form, value in forms.items():
        # the conversion every site made before the one rule
        want = read(call(np.asarray(value, dtype=float if real else complex)))
        got = read(call(value))
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
               [(a.dtype, a.shape, a.tobytes()) for a in want], form


def test_array_of_the_right_dtype_is_not_copied():
    nodes = np.array([1.0, -1.0], dtype=complex)
    assert number_array("node", nodes) is nodes


keep_earlier_ids(globals())
