"""Every public refusal of snakefact, one row each.

A row holds the site that refuses and a call of it, the bad inputs the row
covers, the exception type and its message, and the row of the README's
contract table it belongs to, as "<Where prefix> | <Contract prefix>".  A
message is a template, formatted with the bad input as ``v``, its repr as
``r`` and its type's name as ``t``, that the exception's text must equal; a
compiled pattern need only be found in it.  Where a flag of the command line
reaches the site, ``argv`` holds the ``snakefact`` arguments, with ``@``
standing for the bad input, and ``exit`` the exit code the README
documents; the call then mirrors what the command runs, so both give the
same message.  ``patch(monkeypatch, bad)``, when given, runs before the
call: rows that need a failing solver plant it so.

``refused`` checks one case, a row and one of its bad inputs, in process
and through ``cli.main``.  A case that was a test of its own before the
table still runs under that test's id, from the module that held it:
``refusal_ids.json`` maps each such id to its case, and that module ends
with ``keep_earlier_ids(globals())``.  ``test_refusals.py`` runs every
other case, and ``test_readme.py`` checks the rows against the README's table.  The
site tables ``INTEGER_SITES``, ``EXPONENT_SITES``, ``PAST_THE_SHAPE`` and
``ARRAY_SITES`` also serve ``test_integer_arguments.py`` and
``test_number_rule.py``, which check what each site accepts.
"""

import json
import re
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from helpers import grid64
from snakefact import quadrature
from snakefact.errors import (ConvergenceError, InvalidSchurParameter, MomentError, NumericalError, ShapeError,
                              ShapeIndexError, number_array)
from snakefact.expand import entry, expand_dense, path
from snakefact.oracle import (BernsteinSzego, Geronimus, GridMeasure, Lebesgue, MomentTable, _gram_schmidt,
                              gram_schmidt_laurent, moments, multiplication_matrix, schur_from_moments,
                              schur_parameters)
from snakefact.quadrature import (ParaUnitaryTruncation, QuadratureRule, apply_rule, eigen_unitary,
                                  szego_quadrature, truncate_para_unitary)
from snakefact.cli import main
from snakefact.schur import PolynomialPair, SchurSequence, dual, evaluate_phi, laurent_basis, polynomial_pair
from snakefact.snake import (GeneratingSequence, GivensFactor, SnakeFactorization, cmv_shape, hessenberg_shape,
                             materialize_window, shape_from_monomials)
from snakefact.verify import run_suites


class Row(NamedTuple):
    site: str
    call: Callable
    bad: tuple
    exc: type
    message: "str | re.Pattern"
    readme: str
    argv: tuple = ()
    exit: "int | None" = None
    patch: "Callable | None" = None


SCHUR = SchurSequence([0.3, 0.2j, -0.1, 0.4, 0.1 - 0.2j])
SNAKE = SnakeFactorization(SCHUR, hessenberg_shape(4))
SNAKE3 = SnakeFactorization(SchurSequence([0.3, 0.2, 0.1]), hessenberg_shape(2))
TABLE = moments(BernsteinSzego([0.3, 0.2j]), 12)
GRID = GridMeasure([-2.0, -0.5, 1.0, 2.5], [0.1, 0.2, 0.3, 0.4])
RULE = szego_quadrature(SNAKE, 3, 0.5)
Z = 0.6 + 0.3j
FIVE = ("--shape", "hessenberg", "--m", "5", "--alphas=0.3,0.2j,-0.1,0.4,0.1-0.2j")
HUGE = 10**400  # an int that no float holds


def _defects(results):
    return np.array([r.defect for r in results])


# The integer rule.  name: (call of one integer, its name, least value, a
# valid value, the CLI arguments that reach it with its flag last)
INTEGER_SITES = {
    "expand_dense": (lambda n: expand_dense(SNAKE, n), "n", 1, 3, ("expand", *FIVE, "--n")),
    "materialize_window": (lambda m: materialize_window(SNAKE, m), "m", 0, 3, ()),
    "truncate_para_unitary": (lambda n: truncate_para_unitary(SNAKE, n, 0.5).matrix, "n", 2, 3, ()),
    "szego_quadrature": (lambda n: szego_quadrature(SNAKE, n, 0.5).nodes, "n", 2, 3,
                         ("quadrature", "--measure", "lebesgue", "--n")),
    "entry row": (lambda i: entry(SNAKE, i, 2), "i", 0, 1, ("entry", *FIVE, "--j", "2", "--i")),
    "entry column": (lambda j: entry(SNAKE, 2, j), "j", 0, 3, ()),
    "path row": (lambda i: path(SNAKE.gen, i, 1).r, "i", 0, 3, ()),
    "path column": (lambda j: path(SNAKE.gen, 1, j).t, "j", 0, 3, ()),
    "GivensFactor": (lambda k: GivensFactor(k, np.eye(2)).k, "k", 0, 3, ()),
    "factor": (lambda k: SNAKE.factor(k).block, "k", 0, 3, ()),
    "GeneratingSequence.s": (lambda n: SNAKE.gen.s(n), "n", 0, 3, ()),
    "SchurSequence.alpha": (lambda k: SCHUR.alpha(k), "k", 0, 3, ()),
    "SchurSequence.rho": (lambda k: SCHUR.rho(k), "k", 0, 3, ()),
    "hessenberg_shape": (lambda m: hessenberg_shape(m).bits, "m", 1, 3, ()),
    "cmv_shape": (lambda m: cmv_shape(m).bits, "m", 1, 3, ()),
    "polynomial_pair": (lambda n: polynomial_pair(SCHUR, n).phi, "n", 0, 3, ()),
    "evaluate_phi": (lambda n: evaluate_phi(SCHUR, n, Z), "n", 0, 3, ()),
    "laurent_basis": (lambda n: laurent_basis(SCHUR, SNAKE.gen, n, Z), "n", 0, 3, ()),
    "moments": (lambda jmax: moments(GRID, jmax)._mu, "jmax", 0, 3, ()),
    "schur_from_moments": (lambda n: schur_from_moments(TABLE, n).alphas, "n", 1, 3, ()),
    "schur_parameters": (lambda count: schur_parameters(GRID, count).alphas, "count", 1, 3, ()),
    "gram_schmidt_laurent": (lambda n: gram_schmidt_laurent(TABLE, SNAKE.gen, n)[1], "n", 0, 3, ()),
    "multiplication_matrix": (lambda n: multiplication_matrix(TABLE, SNAKE.gen, n), "n", 1, 3, ()),
    # run_suites takes None for "the suite's default"; everywhere else None is refused.
    "run_suites m": (lambda m: _defects(run_suites(["unitarity"], m=m)), "m", 1, 3,
                     ("verify", "--suite", "unitarity", "--m")),
    "run_suites n": (lambda n: _defects(run_suites(["exactness"], n=n)), "n", 2, 3,
                     ("verify", "--suite", "exactness", "--n")),
}
OPTIONAL = {"run_suites m", "run_suites n"}
# Exponents are integers of either sign.  name: (call of one exponent, its name)
EXPONENT_SITES = {
    "shape_from_monomials": (lambda e: shape_from_monomials([0, e]).bits, "exponent r_1"),
    "apply_rule": (lambda e: apply_rule(RULE, {e: 1.0}), "exponent"),
}
NOT_INTEGER = (2.0, 2.5, True, "3", None)
# Positions past the 4 bits of SNAKE.  name: (call of one position, the
# first one past the shape, the ordering's index for it minus the call's)
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

INT_TYPE = "every size, degree, count, index and exponent | an integer"
INT_LOW = "every size, degree, count, index and exponent | at least"
INT_HIGH = "every size, degree, count, index and exponent | at most"
POSITION = "a position of the shape | "
STORED = "`SchurSequence.alpha`, `SchurSequence.rho`, `GeneratingSequence.s` | "


def _arrays(*values):
    """Each of ``values`` as a tuple of the arrays held by a result."""
    return tuple(np.asarray(v) for v in values)


DENSITY = BernsteinSzego([0.5, -0.25j])
SCHUR3 = SchurSequence([0.5, 0.25j, -0.5])
SWAP = [[0.0, 1.0], [1.0, 0.0]]
# The number rule.  input: (call with the array, its name in errors, whether
# its numbers are real, a valid value of integers, which every dtype holds,
# what the result holds, its README row)
ARRAY_SITES = {
    "MomentTable": (MomentTable, "moment", False, [1, 0], lambda t: _arrays(t._mu),
                    "`MomentTable` | moments an array"),
    "QuadratureRule nodes": (lambda v: QuadratureRule(v, [0.5, 0.5]), "node", False, [1, -1],
                             lambda r: _arrays(r.nodes, r.weights), "`QuadratureRule` | nodes an array"),
    "QuadratureRule weights": (lambda v: QuadratureRule([1j], v), "weight", True, [1],
                               lambda r: _arrays(r.nodes, r.weights), "`QuadratureRule` | nodes an array"),
    "eigen_unitary": (eigen_unitary, "matrix", False, SWAP, lambda pairs: _arrays(*pairs),
                      "`eigen_unitary` | input an array"),
    "GivensFactor": (lambda v: GivensFactor(0, v), "block", False, SWAP, lambda g: _arrays(g.block),
                     "`GivensFactor` | block an array"),
    "PolynomialPair phi": (lambda v: PolynomialPair(v, [1, 2]), "phi", False, [2, 1],
                           lambda p: _arrays(p.phi, p.phi_star), "`PolynomialPair` | `phi` and"),
    "PolynomialPair phi_star": (lambda v: PolynomialPair([2, 1], v), "phi_star", False, [1, 2],
                                lambda p: _arrays(p.phi, p.phi_star), "`PolynomialPair` | `phi` and"),
    "dual": (dual, "coeffs", False, [1, 2, -2], _arrays, "`dual` | "),
    "BernsteinSzego.density": (DENSITY.density, "theta", True, [0, 1, -3], _arrays,
                               "`BernsteinSzego.density` | "),
    "GridMeasure angles": (lambda v: GridMeasure(v, [0.5, 0.5]), "grid angle", True, [0, -2],
                           lambda g: _arrays(g.thetas, g.weights), "`GridMeasure` | angles and"),
    "GridMeasure weights": (lambda v: GridMeasure([-1], v), "grid weight", True, [1],
                            lambda g: _arrays(g.thetas, g.weights), "`GridMeasure` | angles and"),
    "evaluate_phi z": (lambda v: evaluate_phi(SCHUR3, 3, v), "z", False, [2, 1, -2],
                       lambda pair: _arrays(*pair), "`evaluate_phi`, `laurent_basis` | `z` a number"),
    "laurent_basis z": (lambda v: laurent_basis(SCHUR3, cmv_shape(3), 3, v), "z", False, [2, 1, -2],
                        _arrays, "`evaluate_phi`, `laurent_basis` | `z` a number"),
}


def _planted(value, bad):
    """``value`` as nested lists with its last entry replaced by ``bad``."""
    objects = np.array(value, dtype=object)
    objects.flat[-1] = bad
    return objects.tolist()


def _masked(value):
    """``value`` as a masked array of floats whose last entry is masked."""
    mask = np.zeros(np.shape(value), dtype=bool)
    mask.flat[-1] = True
    return np.ma.array(value, mask=mask, dtype=float)


def _number_rows(site, call, name, real, valid, readme):
    """The type rule's rows of one array input: a str, bool or None entry, a bool array, a masked entry."""
    number = "a real number" if real else "a number"
    last = f"{name} {np.size(valid) - 1} must be {number}, got"
    return [
        *(Row(f"{site}: {t} entry", call, (_planted(valid, bad),), TypeError, f"{last} {t} {bad!r}", readme)
          for bad, t in (("1", "str"), (True, "bool"), (None, "NoneType"))),
        Row(f"{site}: bool array", call, (np.ones(np.shape(valid), dtype=bool),), TypeError,
            f"{name} 0 must be {number}, got bool True", readme),
        Row(f"{site}: masked entry", call, (_masked(valid),), TypeError, f"{last} MaskedConstant masked",
            "every array input | no masked entry"),
    ]


def _past_shape_rows(site, call, first, offset):
    """Positions past the 4 bits of SNAKE: the shape index rule names the index the ordering needs."""
    return [Row(f"{site}: past the shape by {beyond}", call, (first + beyond,), ShapeIndexError,
                f"index {first + beyond + offset} exceeds the 4 stored shape bits", POSITION)
            for beyond in (0, 3)]


def _plant_blocks(monkeypatch, value):
    """Canonical blocks of valid parameters are unitary, so the value is planted in the rule's blocks."""
    build = quadrature._corner_blocks

    def planted(schur, n, theta):
        theta, blocks = build(schur, n, theta)
        blocks[0, 0, 0] = value
        return theta, blocks

    monkeypatch.setattr(quadrature, "_corner_blocks", planted)


def _plant_eigenvalue(monkeypatch, value):
    """A general eigensolver that returns ``value`` among the eigenvalues of a unitary matrix."""
    vecs = np.exp(0.25j * np.pi) * np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    monkeypatch.setattr(quadrature.np.linalg, "eig", lambda m: (np.array([value, 1.0], dtype=complex), vecs))


def _fail(monkeypatch, name):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")

    monkeypatch.setattr(quadrature.np.linalg, name, fail)


def _gram_schmidt_of(value):
    """Gram-Schmidt of a valid table with ``value`` planted at mu_1, past the table's own check."""
    table = moments(Lebesgue(), 4)
    table._mu[table.jmax + 1] = value
    table._mu[table.jmax - 1] = np.conj(value)
    return _gram_schmidt(table, np.arange(3))


def _grid(thetas, weights):
    """The grid measure of these atoms and its command-line descriptor."""
    points = np.column_stack([thetas, weights]).tolist()
    return GridMeasure(thetas, weights), json.dumps({"type": "grid", "points": points})


# Half the atoms of this 48-point grid weigh 1e-12, so the Gram matrix of 26 monomials is nearly singular.
WEIGHTS48 = np.where(np.arange(48) % 2 == 0, 1e-12, 1.0)
GRID48, GRID48_JSON = _grid(-np.pi + 2 * np.pi * (np.arange(48) + 0.5) / 48, WEIGHTS48 / WEIGHTS48.sum())
GRID64, GRID64_JSON = _grid(*grid64())
GRID3, GRID3_JSON = _grid([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
GERONIMUS = '{"type": "geronimus", "a": [@, 0]}'
NAN, INF = float("nan"), float("inf")
NON_FINITE = (NAN, INF, -INF)
DISK = "`SchurSequence`, `GivensFactor.from_schur`, `szego_step`, `Geronimus` | "
Z_NUMBER = "`evaluate_phi`, `laurent_basis` | `z` a number"
MASKED = "every array input | no masked entry"
SEQUENCE = "`SchurSequence` (`alphas`)"
THETA_FINITE = "`truncate_para_unitary` | `theta` finite"
MIXED = ("0,-1,1,-2,2,3,-3,-4,4,5", "0.3,0.2-0.1j,0.1,0.25j,0.3,0.1,0.2,0.3-0.2j,0.1,0.2")


def _diagonal(v):
    """diag(v, 1) as a complex 2 x 2 array: unitary only for |v| = 1."""
    return np.array([[v, 0], [0, 1]], dtype=complex)


ROWS = [
    # The integer rule.
    *(Row(f"{site}: not an integer", call, NOT_INTEGER[:4] if site in OPTIONAL else NOT_INTEGER, TypeError,
          f"{name} must be an integer, got {{t}} {{r}}", INT_TYPE)
      for site, (call, name, *_) in INTEGER_SITES.items()),
    *(Row(f"{site}: below {lo}", call, (lo - 1, lo - 2, lo - 3), ShapeError if site.endswith("_shape") else ValueError,
          f"{name} = {{v}}; must be at least {lo}", INT_LOW, (*cli, "@") if cli else (), 2 if cli else None)
      for site, (call, name, lo, _, cli) in INTEGER_SITES.items()),
    *(Row(f"{site}: not an integer", call, (1.0, 1.5, True, "1", None), TypeError,
          f"{name} must be an integer, got {{t}} {{r}}", INT_TYPE) for site, (call, name) in EXPONENT_SITES.items()),
    Row("expand_dense: below 1 from the command line", INTEGER_SITES["expand_dense"][0], (0, -1), ValueError,
        "n = {v}; must be at least 1", INT_LOW,
        ("expand", "--shape", "cmv", "--m", "5", "--alphas", "0.1,0.2,0.3,0.1,0.2", "--n", "@"), 2),
    Row("run_suites n, every suite: below 2", lambda n: run_suites(None, n=n), (1, 0, -3), ValueError,
        "n = {v}; must be at least 2", INT_LOW, ("verify", "--n", "@"), 2),
    Row("run_suites m, bandwidth: below 1", lambda m: run_suites(["bandwidth"], m=m), (0, -1), ValueError,
        "m = {v}; must be at least 1", INT_LOW, ("verify", "--suite", "bandwidth", "--m", "@"), 2),
    Row("eigen_unitary: size above 1024", lambda n: eigen_unitary(np.eye(n)), (1025,), ValueError,
        "matrix size = {v} exceeds the supported 1024", INT_HIGH),
    Row("szego_quadrature: n above 1024", lambda n: szego_quadrature(SchurSequence([0.3]), n, 0.0), (1025,),
        ValueError, "n = {v} exceeds the supported 1024", INT_HIGH,
        ("quadrature", "--measure", "lebesgue", "--n", "@"), 2),
    Row("run_suites m, bandwidth: above 16", lambda m: run_suites(["bandwidth"], m=m), (17,), ValueError,
        "the bandwidth suite's m = {v} exceeds the supported 16", INT_HIGH,
        ("verify", "--suite", "bandwidth", "--m", "@"), 2),
    Row("run_suites m, every suite: above the bandwidth cap", lambda m: run_suites(None, m=m), (40,),
        ValueError, "the bandwidth suite's m = {v} exceeds the supported 16", INT_HIGH, ("verify", "--m", "@"), 2),
    Row("run_suites m, unitarity: above 1023", lambda m: run_suites(["unitarity"], m=m), (1024,), ValueError,
        "the unitarity suite's m = {v} exceeds the supported 1023", INT_HIGH,
        ("verify", "--suite", "unitarity", "--m", "@"), 2),
    # The shape index rule and the stored ranges.
    *(row for site, (call, first, offset) in PAST_THE_SHAPE.items()
      for row in _past_shape_rows(site, call, first, offset)),
    Row("entry: column past a 9-bit shape", lambda j: entry(SnakeFactorization(
        SchurSequence([complex(a) for a in MIXED[1].split(",")]), shape_from_monomials(map(int, MIXED[0].split(",")))),
        0, j), (12,), ShapeIndexError, "index {v} exceeds the 9 stored shape bits", POSITION,
        ("entry", "--monomials", MIXED[0], "--alphas", MIXED[1], "--i", "0", "--j", "@"), 2),
    Row("expand_dense: n past a 2-bit shape", lambda n: expand_dense(
        SnakeFactorization(SchurSequence([0.3, 0.1, 0.2]), cmv_shape(2)), n), (8,), ShapeIndexError,
        "index 7 exceeds the 2 stored shape bits", POSITION,
        ("expand", "--shape", "cmv", "--m", "3", "--alphas", "0.3,0.1,0.2", "--n", "@"), 2),
    Row("GeneratingSequence.s: past the end", lambda n: SNAKE.gen.s(n), (5, 8), IndexError,
        "s_{v} undefined; stored bits cover 1..4", STORED),
    Row("factor: past the end", lambda k: SNAKE.factor(k), (5, 8), ShapeIndexError,
        "index {v} exceeds the 4 stored shape bits", POSITION),
    *(Row(f"SchurSequence.{name}: past the end", call, (5, 8), IndexError, "parameter index k = {v} outside 0..4",
          STORED) for name, call in (("alpha", SCHUR.alpha), ("rho", SCHUR.rho))),
    # The number rule.
    *(row for site, (call, name, real, valid, _, readme) in ARRAY_SITES.items()
      for row in _number_rows(site, call, name, real, valid, readme)),
    Row("number_array: a scalar not a number", lambda v: number_array("z", v), (True, "x"), TypeError,
        "z must be a number, got {t} {r}", Z_NUMBER),
    Row("number_array: a 0-d array not a number", lambda v: number_array("z", v), (np.array("x"),),
        TypeError, "z must be a number, got str 'x'", Z_NUMBER),
    Row("number_array: a masked scalar", lambda v: number_array("z", v), (np.ma.masked,), TypeError,
        "z must be a number, got MaskedConstant masked", MASKED),
    Row("GridMeasure: a masked angle", lambda v: GridMeasure(v, [0.5, 0.5]), (np.ma.array([0.0, 1.0], mask=[0, 1]),),
        TypeError, "grid angle 1 must be a real number, got MaskedConstant masked", MASKED),
    *(Row(f"GridMeasure: {case}", lambda v: GridMeasure(*v), (bad,), TypeError,
          f"{name} must be a real number, got {t}", "`GridMeasure` | angles and")
      for case, bad, name, t in (
          ("bool weight", ([0.0], [True]), "grid weight 0", "bool True"),
          ("str weight", ([0.0], ["1"]), "grid weight 0", "str '1'"),
          ("complex weight", ([0.0, 1.0], [0.5, 0.5 + 0j]), "grid weight 1", "complex (0.5+0j)"),
          ("None angle", ([None], [1.0]), "grid angle 0", "NoneType None"),
          ("bool array angle", (np.array([False]), [1.0]), "grid angle 0", "bool False"))),
    *(Row(f"{site}: theta not a real number", call, ("0.5", True, 0.5j, None), TypeError,
          "theta must be a real number, got {t} {r}", "`truncate_para_unitary`, `szego_quadrature` | `theta` a")
      for site, call in (("truncate_para_unitary", lambda t: truncate_para_unitary(SNAKE3, 3, t)),
                         ("szego_quadrature", lambda t: szego_quadrature(SNAKE3, 3, t)))),
    Row("apply_rule: coefficient not a number", lambda c: apply_rule(RULE, {0: c}), ("x", None), TypeError,
        "coefficient of z^0 must be a number, got {t} {r}", "`apply_rule` | each coefficient"),
    Row("apply_rule: not a mapping", lambda f: apply_rule(RULE, f), ([1, 2], 1.0), TypeError,
        "f must be a mapping {{exponent: coefficient}}, got {t} {r}", "`apply_rule` | the polynomial"),
    # Sequences.
    Row("SchurSequence: not a sequence", SchurSequence, (0.3, None, np.array(0.3), "0.3"), TypeError,
        "alphas must be a sequence of numbers, got {t} {r}", SEQUENCE),
    Row("GeneratingSequence: not a sequence", GeneratingSequence, (5, np.array(1), None, "01"), TypeError,
        "bits must be a sequence of shape bits, got {t} {r}", SEQUENCE),
    Row("BernsteinSzego: not a sequence", BernsteinSzego, (0.5, 0.5j, None, "0.5", np.array(0.3)), TypeError,
        "prefix must be a sequence of Schur parameters, got {t} {r}", SEQUENCE),
    # Finiteness and the float range.
    Row("truncate_para_unitary theta: not finite", lambda t: truncate_para_unitary(SNAKE3, 3, t), NON_FINITE,
        ValueError, "theta = {v} is not finite", THETA_FINITE),
    Row("szego_quadrature theta: not finite", lambda t: szego_quadrature(SchurSequence([0.3, 0.2]), 3, t),
        NON_FINITE, ValueError, "theta = {v} is not finite", THETA_FINITE,
        ("quadrature", "--alphas", "0.3,0.2", "--n", "3", "--theta=@"), 2),
    Row("evaluate_phi z array: not finite", lambda z: evaluate_phi(SCHUR3, 3, [1.0, z, NAN]), (INF,), ValueError,
        "z = ({v}+0j) is not finite", "`evaluate_phi`, `laurent_basis` | `z` finite"),
    Row("laurent_basis z scalar: not finite", lambda z: laurent_basis(SCHUR3, cmv_shape(3), 3, z),
        (complex(0, NAN),), ValueError, "z = nanj is not finite", "`evaluate_phi`, `laurent_basis` | `z` finite"),
    Row("apply_rule coefficient: not finite", lambda c: apply_rule(RULE, {0: 1, 3: c}), (INF,), ValueError,
        "coefficient of z^3 = ({v}+0j) is not finite", "`apply_rule` | each coefficient"),
    Row("PolynomialPair phi: not finite", lambda v: PolynomialPair([v, 1.0], [1.0, 0.0]), NON_FINITE, ValueError,
        "phi = ({v}+0j) is not finite", "`PolynomialPair` | `phi` finite"),
    *(Row(f"{site}: an int outside the float range", call, (HUGE,), ValueError,
          f"{name} is outside the float range", "every number | an int") for site, call, name in (
        ("SchurSequence", lambda v: SchurSequence([0.1, v]), "parameter 1"),
        ("szego_quadrature theta", lambda v: szego_quadrature(SchurSequence([0.3]), 2, v), "theta"),
        ("evaluate_phi z", lambda v: evaluate_phi(SCHUR3, 3, v), "z"),
        ("apply_rule coefficient", lambda v: apply_rule(RULE, {1: v}), "coefficient of z^1"),
        ("GridMeasure", lambda v: GridMeasure([0.0, v], [0.5, 0.5]), "grid angle 1"),
        ("Geronimus", Geronimus, "a"),
        ("MomentTable", lambda v: MomentTable([1, v]), "moment 1"),
        ("QuadratureRule", lambda v: QuadratureRule([1, v], [0.5, 0.5]), "node 1"))),
    # Shapes of arrays and sequences.
    *(Row(f"{site}: shape", call, (bad,), ValueError,
          f"{name} must be a nonempty array of shape {want}, got shape {got}", "`number_array`'s shape rule | ")
      for site, call, bad, name, want, got in (
          ("QuadratureRule lengths", lambda v: QuadratureRule(*v), ([1.0, -1.0], [1.0]), "weight", "(2,)", "(1,)"),
          ("QuadratureRule empty", lambda v: QuadratureRule(*v), ([], []), "node", "(n,)", "(0,)"),
          ("PolynomialPair lengths", lambda v: PolynomialPair(*v), ([0.5, 1], [1]), "phi_star", "(2,)", "(1,)"),
          ("GivensFactor 3x3", lambda v: GivensFactor(0, v), np.eye(3), "block", "(2, 2)", "(3, 3)"),
          ("MomentTable empty", MomentTable, [], "moment", "(jmax + 1,)", "(0,)"),
          ("MomentTable 2-d", MomentTable, [[1.0, 0.1]], "moment", "(jmax + 1,)", "(1, 2)"),
          ("GridMeasure lengths", lambda v: GridMeasure(*v), ([0.0, 1.0], [1.0]), "grid weight", "(2,)", "(1,)"),
          ("GridMeasure empty", lambda v: GridMeasure(*v), ([], []), "grid angle", "(n,)", "(0,)"),
          ("GridMeasure scalar", lambda v: GridMeasure(*v), (0.0, 1.0), "grid angle", "(n,)", "()"),
          ("GridMeasure 2-d", lambda v: GridMeasure(*v), ([[0.0]], [[1.0]]), "grid angle", "(n,)", "(1, 1)"),
          ("dual scalar", dual, 5, "coeffs", "(n + 1,)", "()"),
          ("dual 2-d", dual, [[1, 2], [3, 4]], "coeffs", "(n + 1,)", "(2, 2)"),
          ("eigen_unitary 2x3", eigen_unitary, np.ones((2, 3)), "matrix", "(n, n)", "(2, 3)"))),
    Row("shape_from_monomials: empty", shape_from_monomials, ([],), ShapeError, "empty monomial order",
        "`shape_from_monomials` | "),
    Row("shape_from_monomials: prefix not contiguous", lambda v: shape_from_monomials([0, v]), (2,),
        ShapeError, "prefix {{0,{v}}} is not a contiguous range (exponent {v} at index 1 does not extend [0,0] "
        "by one)", "`shape_from_monomials` | ", ("build", "--monomials", "0,@"), 2),
    *(Row(f"SnakeFactorization: {count} parameters for 2 bits", lambda a: SnakeFactorization(
        SchurSequence([complex(x) for x in a.split(",")]), GeneratingSequence([1, 0])), (alphas,), ShapeError,
        f"a shape with 2 bits needs exactly 3 Schur parameters, got {count}", "`SnakeFactorization` | ",
        (command, "--s", "1,0", "--alphas", "@"), 2)
      for command, alphas, count in (("expand", "0.1,0.2", 2), ("build", "0.1,0.2,0.3,0.4", 4))),
    # The disk rule.
    Row("SchurSequence: parameter outside the disk", lambda a: SchurSequence([a]), (1.2, 1.0),
        InvalidSchurParameter, "|alpha| = {v:.6g} >= 1; parameter 0 must lie strictly inside the open unit disk",
        DISK, ("verify", "--alphas=@"), 2),
    Row("SchurSequence: parameter not finite", lambda a: SchurSequence([0.1, a, 0.2]), NON_FINITE,
        InvalidSchurParameter, "parameter 1 = ({v}+0j) is not finite", DISK,
        ("entry", "--s", "1,0", "--alphas=0.1,@,0.2", "--i", "1", "--j", "1"), 2),
    Row("Geronimus: a outside the disk", lambda a: Geronimus(complex(a, 0)), (1.5,), InvalidSchurParameter,
        "|alpha| = {v} >= 1; a must lie strictly inside the open unit disk", DISK,
        ("quadrature", "--measure", GERONIMUS, "--n", "4"), 2),
    Row("Geronimus: a not finite", lambda a: Geronimus(complex(a, 0)), (NAN,), InvalidSchurParameter,
        "a = ({v}+0j) is not finite", DISK, ("quadrature", "--measure", GERONIMUS, "--n", "4"), 2),
    # Contracts of the library's own objects and computations.
    Row("PolynomialPair: phi_star not the dual", lambda v: PolynomialPair([0.5, 1.0], [1.0, v]), NON_FINITE,
        ValueError, re.compile(r"^phi_star is not the dual of phi \(defect (nan|inf) > 1e-09\)$"),
        "`PolynomialPair` | `phi_star`"),
    Row("PolynomialPair: leading coefficient", lambda v: PolynomialPair([1.0, v], [np.conj(v), 1.0]),
        (-1.0, 1j), ValueError, "leading coefficient of phi must be real positive", "`PolynomialPair` | leading"),
    Row("GivensFactor: block not unitary", lambda v: GivensFactor(0, _diagonal(v)), NON_FINITE + (0.5,),
        ValueError, re.compile(r"^block is not unitary \(defect .* > 1e-14\)$"), "`GivensFactor` | block unitary"),
    Row("GridMeasure: weight not positive", lambda v: GridMeasure([0.0, 1.0], [0.5, v]), (NAN, -INF),
        ValueError, "grid weights must be strictly positive", "`GridMeasure` | weights `> 0`"),
    Row("GridMeasure: angle outside [-pi, pi)", lambda v: GridMeasure([0.0, v], [0.5, 0.5]),
        NON_FINITE + (np.pi,), ValueError, "grid angles must lie in [-pi, pi)", "`GridMeasure` | weights `> 0`"),
    Row("GridMeasure: mass", lambda v: GridMeasure([0.0, 1.0], [0.5, v]), (INF,), ValueError,
        "grid mass != 1; normalize the weights (defect inf > 1e-12)", "`GridMeasure` | mass"),
    Row("moments: grid past its atoms", lambda n: moments(GRID3, n + 1), (2,), MomentError,
        "a grid measure with 3 distinct atoms has only 2 Schur parameters inside the unit disk, and its "
        "moment Toeplitz matrix is positive definite only up to jmax=2; jmax=3 was asked",
        "`moments` of a grid | ", ("verify", "--measure", GRID3_JSON, "--n", "@"), 2),
    Row("MomentTable: read past jmax", lambda j: TABLE.mu(j), (13, -13), MomentError,
        "needs moments up to |j| = 13; the table has jmax = 12", "`MomentTable` reads"),
    *(Row(f"MomentTable: mu_{k} not finite", lambda v, k=k: MomentTable([v, 0.1] if k == 0 else [1.0, v]),
          NON_FINITE, MomentError, "moments must be finite", "`MomentTable` | moments finite") for k in (0, 1)),
    Row("moments: recursion overflows", lambda n: moments(Geronimus(0.999), n - 1), (200,), NumericalError,
        "moment recursion overflows at jmax=199; the moments of Geronimus((0.999+0j)) are exact but beyond "
        "float64 at this range", "`MomentTable` | moments finite",
        ("quadrature", "--measure", GERONIMUS.replace("@", "0.999"), "--n", "@", "--verify"), 3),
    Row("MomentTable: mu_0 is not 1", lambda v: MomentTable([v, 0.1]), (2.0,), MomentError,
        "mu_0 != 1 but the measure must have mass 1 (defect 1.000e+00 > 1e-12)", "`MomentTable` | `mu_0`"),
    Row("MomentTable: not positive definite", lambda v: MomentTable([1.0, v]), (2.0,), MomentError,
        "moment Toeplitz matrix is not positive definite; the values do not come from a positive measure at "
        "this range, or the measure has at most 1 atoms", "`MomentTable` | Toeplitz"),
    Row("moments: Toeplitz singular in float64", lambda n: moments(GRID64, n - 1), (64,), NumericalError,
        "moment Toeplitz matrix numerically singular at jmax=63; the moments of GridMeasure(64 points) are "
        "float64 sums of its atoms, and their Toeplitz matrix is beyond float64 at this range",
        "`MomentTable` | Toeplitz", ("quadrature", "--measure", GRID64_JSON, "--n", "@", "--verify"), 3),
    Row("Gram-Schmidt: orthonormality of a planted moment", _gram_schmidt_of, NON_FINITE, NumericalError,
        "Gram-Schmidt lost orthonormality (defect nan > 1e-09)", "Gram-Schmidt | orthonormality"),
    Row("Gram-Schmidt: orthonormality of a nearly singular grid", lambda n: schur_parameters(GRID48, n - 1),
        (26,), NumericalError, re.compile(r"^Gram-Schmidt lost orthonormality \(defect .* > 1e-09\)$"),
        "Gram-Schmidt | orthonormality", ("quadrature", "--measure", GRID48_JSON, "--n", "@"), 3),
    # Factored in natural order, as MomentTable does, this Gram matrix passes;
    # in the CMV order of the same 41 monomials Cholesky fails.
    Row("Gram-Schmidt: singular in snake order", lambda n: gram_schmidt_laurent(
        moments(Geronimus(0.5), n), cmv_shape(n), n), (40,), NumericalError,
        "Gram matrix numerically singular at degree {v}; the measure or grid is too ill-conditioned for this "
        "degree", "Gram-Schmidt | Gram matrix"),
    Row("ParaUnitaryTruncation: not unitary", lambda v: ParaUnitaryTruncation(2, 0.0, _diagonal(v)),
        NON_FINITE, NumericalError, "truncation is not unitary (defect nan > 1e-12)", "`ParaUnitaryTruncation` | "),
    Row("eigen_unitary: input not unitary", lambda v: eigen_unitary(_diagonal(v)), NON_FINITE, ValueError,
        "input is not unitary (defect nan > 1e-10)", "`eigen_unitary` | input unitary"),
    Row("eigen_unitary: eig fails", lambda _: eigen_unitary(np.eye(2, dtype=complex)), ("eig",),
        ConvergenceError, "eigenvalue iteration did not converge: eig did not converge",
        "`eigen_unitary`, `szego_quadrature` | the eigensolver converges", patch=_fail),
    Row("szego_quadrature: eigh and eig fail", lambda _: szego_quadrature(SCHUR3, 3, 0.0), ("eig",),
        ConvergenceError, "eigenvalue iteration did not converge: eig did not converge",
        "`eigen_unitary`, `szego_quadrature` | the eigensolver converges",
        patch=lambda mp, name: (_fail(mp, "eigh"), _fail(mp, name))),
    # Only NaN is planted: an infinite eigenvalue makes the residual arithmetic
    # warn, which the test settings turn into an error before the check runs.
    Row("eigen_unitary: residual", lambda _: eigen_unitary(np.eye(2, dtype=complex)), (NAN,), NumericalError,
        "eigenpair residual too large (defect nan > 1e-10)", "`eigen_unitary`, `szego_quadrature` | eigenpair",
        patch=_plant_eigenvalue),
    # Any vectors are eigenvectors of the identity, so only the orthonormality check catches them.
    Row("eigen_unitary: eigenvectors not orthonormal", lambda _: eigen_unitary(np.eye(2, dtype=complex)),
        (np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),), NumericalError,
        "eigenvectors are not orthonormal (defect 1.000e+00 > 1e-09)",
        "`eigen_unitary`, `szego_quadrature` | eigenvectors",
        patch=lambda mp, vecs: mp.setattr(quadrature.np.linalg, "qr", lambda m: (vecs, np.eye(2)))),
    Row("szego_quadrature: schur of another type", lambda s: szego_quadrature(s, 2, 0.0), ([0.3], (0.3,)),
        TypeError, "schur must be a SchurSequence or a SnakeFactorization, got {t} {r}",
        "`szego_quadrature` | `schur` a"),
    Row("szego_quadrature: blocks not unitary", lambda _: szego_quadrature(SNAKE3, 3, 0.0), NON_FINITE + (0.5,),
        NumericalError, re.compile(r"^truncation blocks are not unitary \(defect (nan|inf|1\.600e-01) > 1e-12\)$"),
        "`szego_quadrature` | Givens blocks", patch=_plant_blocks),
    Row("QuadratureRule: node off the circle", lambda v: QuadratureRule([1.0, v], [0.5, 0.5]), NON_FINITE,
        NumericalError, re.compile(r"^quadrature nodes left the unit circle \(defect (nan|inf) > 1e-10\)$"),
        "`QuadratureRule` | nodes on"),
    Row("QuadratureRule: nodes nearly coincide", lambda v: QuadratureRule([1.0, np.exp(1j * v)], [0.5, 0.5]),
        (1e-9,), NumericalError, "nodes nearly coincide (min separation 1.000e-09); pick another theta",
        "`QuadratureRule` | node separation"),
    Row("QuadratureRule: weight not positive", lambda v: QuadratureRule([1.0, -1.0], [0.5, v]),
        (NAN, -INF, -0.5), NumericalError, re.compile(r"^quadrature weights must be strictly positive "
                                                      r"\(1 of 2 are not; smallest (nan|-inf|-5\.000e-01)\)$"),
        "`QuadratureRule` | weights `> 0`"),
    Row("QuadratureRule: weights do not sum to 1", lambda v: QuadratureRule([1.0, -1.0], [0.5, v]), (INF, 0.6),
        NumericalError, re.compile(r"^quadrature weights do not sum to 1 \(defect (inf|1\.000e-01) > 1e-10\)$"),
        "`QuadratureRule` | weights sum"),
    # The Szego values leave float64 where |phi_n| passes 1.8e308.
    Row("evaluate_phi: values leave float64", lambda z: evaluate_phi(SchurSequence([0.999] * 400), 400, z),
        (3.0,), NumericalError, "the value of degree 159 at z = (3+0j) leaves float64",
        "`evaluate_phi`, `laurent_basis` | Szego values"),
    # run_suites' own rules.
    Row("run_suites: unknown suite", lambda name: run_suites([name]), ("bogus",), ValueError,
        "unknown suite {r}; choose from ['bandwidth', 'exactness', 'oracle-equivalence', 'round-trip', "
        "'unitarity']", "`run_suites` | "),
    Row("run_suites: fewer than 2 alphas", lambda a: run_suites(["unitarity"], schur=SchurSequence([a])),
        (0.3,), ValueError, "alphas give 1 Schur parameter(s); the suites need at least 2", "`run_suites` | ",
        ("verify", "--alphas", "@"), 2),
    Row("run_suites: m disagrees with alphas",
        lambda m: run_suites(["unitarity"], m=m, schur=SchurSequence([0.3, 0.2])), (5,), ValueError,
        "m = {v} disagrees with the 2 alphas given, which fix m = 1", "`run_suites` | ",
        ("verify", "--suite", "unitarity", "--alphas", "0.3,0.2", "--m", "@"), 2),
    Row("run_suites: alphas no suite reads",
        lambda s: run_suites([s], schur=SchurSequence([0.5, 0.3])),
        ("oracle-equivalence", "exactness", "round-trip", "bandwidth"), ValueError,
        "a Schur sequence (--alphas) is read only by unitarity; the selected suites ({v}) would ignore it",
        "`run_suites` | ", ("verify", "--suite", "@", "--alphas", "0.5,0.3"), 2),
    Row("run_suites: a measure no suite reads", lambda s: run_suites([s], measure=Lebesgue()),
        ("unitarity", "bandwidth", "round-trip"), ValueError, "a measure (--measure) is read only by "
        "oracle-equivalence and exactness; the selected suites ({v}) would ignore it", "`run_suites` | ",
        ("verify", "--suite", "@", "--measure", "lebesgue"), 2),
]


def case_id(row, bad) -> str:
    """The id of a case: its row's site and the bad input's repr, or its type's name if that is long."""
    text = repr(bad)
    if len(text) > 25 or "\n" in text:
        text = type(bad).__name__
    return f"{row.site} <- {text}"


CASES = {case_id(row, bad): (row, bad) for row in ROWS for bad in row.bad}
assert len(CASES) == sum(len(row.bad) for row in ROWS), "two cases of one row share an id"
# earlier test id (file::[class::]function[param]): the id of the case it checks
EARLIER = json.loads((Path(__file__).parent / "refusal_ids.json").read_text())
assert set(EARLIER.values()) <= set(CASES), set(EARLIER.values()) - set(CASES)


def keep_earlier_ids(namespace):
    """Give each case of ``refusal_ids.json`` that was a test of the module
    whose globals are ``namespace`` a test under its earlier id: in the class
    the id names, if any, with one parameter per earlier id where it had
    parameters."""
    tests = {}
    for test_id, case in EARLIER.items():
        path, _, param = test_id.partition("[")
        module, *owner, name = path.split("::")
        if module == Path(namespace["__file__"]).name:
            tests.setdefault((*owner, name), {})[param[:-1]] = CASES[case]

    for (*owner, name), params in tests.items():
        if list(params) == [""]:
            def run(monkeypatch, capsys, case=params[""]):
                refused(monkeypatch, capsys, *case)
        else:
            @pytest.mark.parametrize("case", list(params.values()), ids=list(params))
            def run(monkeypatch, capsys, case):
                refused(monkeypatch, capsys, *case)
        run.__name__ = name
        if owner:
            setattr(namespace[owner[0]], name, staticmethod(run))
        else:
            namespace[name] = run


def _check(message, row, bad):
    want = row.message
    if isinstance(want, re.Pattern):
        assert want.search(message), message
    else:
        assert message == want.format(v=bad, r=repr(bad), t=type(bad).__name__)


def _token(bad) -> str:
    """The bad input as a command-line token; a float in JSON's spelling, which a descriptor needs."""
    return json.dumps(bad) if isinstance(bad, float) else str(bad)


def refused(monkeypatch, capsys, row, bad):
    """Check one case.  In process, the row's call must raise exactly its
    exception type with its message.  Where a flag reaches the site,
    ``snakefact`` called with the row's arguments must exit with the row's
    code, write nothing to stdout and write ``error: <the same message>``
    to stderr."""
    if row.patch:
        row.patch(monkeypatch, bad)
    with pytest.raises(row.exc) as err:
        row.call(bad)
    assert type(err.value) is row.exc
    _check(str(err.value), row, bad)
    if row.argv:
        code = main([arg.replace("@", _token(bad)) for arg in row.argv])
        out, text = capsys.readouterr()
        assert (code, out) == (row.exit, "")
        assert text.startswith("error: ") and text.endswith("\n") and text.count("\n") == 1
        _check(text[len("error: "):-1], row, bad)
