"""What each entry point loads, and the public names that loading lazily must keep.

The shape layer (``snakefact.shape``), ``snakefact.parameters`` and
``snakefact.errors`` import nothing numerical, ``snakefact.snake`` and
``snakefact.expand`` import NumPy only for an array, the package resolves its
public names on first use, and the command line imports a numerical layer
only in the subcommand that runs it.
"""

import decimal
import fractions
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snakefact
from snakefact import expand, parameters, schur, shape, snake, verify
from snakefact.cli import build_argument_parser, main
from snakefact.errors import complex_argument, complex_arguments, real_argument, real_arguments

PUBLIC_NAMES = [
    "BernsteinSzego", "ConvergenceError", "GeneratingSequence", "Geronimus", "GivensFactor",
    "GridMeasure", "InvalidSchurParameter", "Lebesgue", "MomentError", "MomentTable",
    "NumericalError", "ParaUnitaryTruncation", "PathDescriptor", "PolynomialPair",
    "QuadratureRule", "SchurSequence", "ShapeError", "SnakeFactorization", "apply_rule",
    "bandwidths", "cmv_shape", "dual", "eigen_unitary", "entry", "evaluate_phi",
    "exactness_defect", "expand_dense", "gram_schmidt_laurent", "hessenberg_shape",
    "laurent_basis", "materialize_window", "moments", "multiplication_matrix", "path",
    "polynomial_pair", "schur_from_moments", "schur_parameters", "shape_from_monomials",
    "szego_quadrature", "szego_step", "truncate_para_unitary",
]


def loaded_after(code: str, watched) -> dict:
    """Run ``code`` in a fresh interpreter; which of ``watched`` it left in sys.modules."""
    src = str(Path(snakefact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = f"{code}\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {list(watched)!r}}}))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(*argv) -> str:
    return f"from snakefact.cli import main\nassert main({list(argv)!r}) == 0"


class TestImportGuards:
    @pytest.mark.parametrize("argv", [
        ["build", "--monomials", "0,-1,1,2,-2"],
        ["build", "--shape", "cmv", "--m", "6"],
        ["bandwidth", "--s", "1,0,0,1,1"],
    ], ids=["build-monomials", "build-cmv", "bandwidth"])
    def test_shape_commands_load_neither_numpy_nor_dataclasses(self, argv):
        loaded = loaded_after(cli_run(*argv), ["numpy", "dataclasses", "snakefact.shape"])
        assert loaded == {"numpy": False, "dataclasses": False, "snakefact.shape": True}

    @pytest.mark.parametrize("argv", [
        ["entry", "--s", "1,0,1", "--alphas", "0.1,0.2j,0.3,-0.4", "--i", "1", "--j", "2"],
        ["expand", "--s", "1,0,1", "--alphas", "0.1,0.2j,0.3,-0.4", "--n", "4"],
    ], ids=["entry", "expand"])
    def test_entry_and_expand_load_no_oracle_rule_or_suite(self, argv):
        layers = ["snakefact.oracle", "snakefact.quadrature", "snakefact.verify", "snakefact.expand"]
        loaded = loaded_after(cli_run(*argv), layers)
        assert loaded == {**dict.fromkeys(layers, False), "snakefact.expand": True}

    def test_package_loads_numpy_only_for_a_numerical_name(self):
        watched = ["numpy", "snakefact.schur"]
        assert loaded_after("import snakefact", watched) == {"numpy": False, "snakefact.schur": False}
        assert loaded_after("import snakefact\nsnakefact.GeneratingSequence([1, 0])",
                            watched) == {"numpy": False, "snakefact.schur": False}
        assert loaded_after("import snakefact\nsnakefact.SchurSequence",
                            watched) == {"numpy": False, "snakefact.schur": False}
        assert loaded_after("import snakefact\nsnakefact.evaluate_phi",
                            watched) == {"numpy": True, "snakefact.schur": True}

    @pytest.mark.parametrize("argv", [
        ["entry", "--s", "1,0,1", "--alphas", "0.1,0.2j,0.3,-0.4", "--i", "1", "--j", "2"],
        ["entry", "--shape", "cmv", "--alphas", "0.1,0.2j,0.3,-0.4,0.5", "--i", "3", "--j", "1"],
        ["build", "--s", "1,0,1", "--alphas", "0.1,0.2j,0.3,-0.4"],
        ["build", "--shape", "hessenberg", "--alphas", "0.1,0.2j,0.3"],
    ], ids=["entry-bits", "entry-cmv", "build-bits", "build-hessenberg"])
    def test_alphas_without_an_array_load_neither_numpy_nor_dataclasses(self, argv):
        watched = ["numpy", "dataclasses", "snakefact.parameters", "snakefact.schur"]
        assert loaded_after(cli_run(*argv), watched) == {
            "numpy": False, "dataclasses": False, "snakefact.parameters": True, "snakefact.schur": False}

    @pytest.mark.parametrize("code", [
        "import snakefact.verify",
        cli_run("verify", "--suite", "round-trip", "--format", "json"),
    ], ids=["library", "cli"])
    def test_verify_loads_no_dataclasses(self, code):
        watched = ["dataclasses", "snakefact.verify"]
        assert loaded_after(code, watched) == {"dataclasses": False, "snakefact.verify": True}

    @pytest.mark.parametrize("suite, draws", [("exactness", False), ("bandwidth", False),
                                              ("round-trip", True)])
    def test_only_a_suite_that_draws_loads_numpy_random(self, suite, draws):
        assert loaded_after(cli_run("verify", "--suite", suite), ["numpy.random"]) == {"numpy.random": draws}

    def test_library_entry_loads_no_numpy(self):
        code = ("import snakefact.snake, snakefact.expand\n"
                "from snakefact.parameters import SchurSequence\n"
                "snake = snakefact.snake.SnakeFactorization(SchurSequence([0.1, 0.2j, 0.3]),\n"
                "                                           snakefact.snake.cmv_shape(2))\n"
                "assert snakefact.expand.entry(snake, 1, 2) != 0\n"
                "assert snake.schur.rho(1) < 1")
        assert loaded_after(code, ["numpy"]) == {"numpy": False}

    @pytest.mark.parametrize("argv, module", [
        (["expand", "--s", "1,0,1", "--alphas", "0.1,0.2j,0.3,-0.4", "--n", "4"], "numpy"),
        (["entry", "--shape", "cmv", "--m", "4", "--measure", "lebesgue", "--i", "1", "--j", "2"],
         "snakefact.oracle"),
    ], ids=["expand-numpy", "entry-measure-oracle"])
    def test_arrays_and_measures_still_load_their_layers(self, argv, module):
        assert loaded_after(cli_run(*argv), [module]) == {module: True}


class TestPublicNames:
    def test_all_lists_the_public_names(self):
        assert sorted(snakefact.__all__) == PUBLIC_NAMES
        assert set(PUBLIC_NAMES) <= set(dir(snakefact))

    def test_every_name_resolves_and_is_kept(self):
        for name in PUBLIC_NAMES:
            value = getattr(snakefact, name)
            assert vars(snakefact)[name] is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from snakefact import *", namespace)
        for name in PUBLIC_NAMES:
            assert namespace[name] is getattr(snakefact, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            snakefact.no_such_name
        with pytest.raises(AttributeError, match="'no_such_name'"):
            snakefact.errors.no_such_name

    def test_shape_names_are_the_same_objects_everywhere(self):
        for name in ("GeneratingSequence", "hessenberg_shape", "cmv_shape", "shape_from_monomials",
                     "bandwidths"):
            assert getattr(snakefact, name) is getattr(shape, name)
        for name in ("GeneratingSequence", "hessenberg_shape", "cmv_shape", "shape_from_monomials"):
            assert getattr(snake, name) is getattr(shape, name)
        assert expand.bandwidths is shape.bandwidths
        assert snakefact.SchurSequence is parameters.SchurSequence is schur.SchurSequence
        assert snakefact.errors.CaseResult is verify.CaseResult


class TestSuiteNames:
    def test_choices_are_the_suites(self):
        parser = build_argument_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        suite = next(a for a in commands["verify"]._actions if a.dest == "suite")
        assert suite.choices == sorted(verify.SUITES)

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "snakefact verify: error: argument --suite: invalid choice: 'bogus' (choose from "
            "'bandwidth', 'exactness', 'oracle-equivalence', 'round-trip', 'unitarity')"
        )


class TestNumberTypes:
    """The types ``errors`` accepts as numbers, which it checks without importing NumPy."""

    @pytest.mark.parametrize("value", [fractions.Fraction(1, 2), decimal.Decimal("0.5"), np.bool_(True)],
                             ids=["Fraction", "Decimal", "bool_"])
    def test_refused(self, value):
        got = f"got {type(value).__name__} {value!r}"

        def refused(message):
            return pytest.raises(TypeError, match=f"^{re.escape(message)}$")

        with refused(f"x must be a number, {got}"):
            complex_argument("x", value)
        with refused(f"x 1 must be a number, {got}"):
            complex_arguments("x", [0.5, value])
        with refused(f"x must be a real number, {got}"):
            real_argument("x", value)
        with refused(f"x 1 must be a real number, {got}"):
            real_arguments("x", [0.5, value])

    @pytest.mark.parametrize("value", [np.int8(-3), np.uint64(3), np.float16(0.5), np.float32(0.5),
                                       np.longdouble(0.5)], ids=repr)
    def test_numpy_reals_pass(self, value):
        assert complex_argument("x", value) == complex(value)
        assert real_argument("x", value) == float(value)
        np.testing.assert_array_equal(real_arguments("x", [value, 1]), [float(value), 1.0])

    @pytest.mark.parametrize("value", [np.complex64(0.5j), np.complex128(0.5 - 0.25j)], ids=repr)
    def test_numpy_complexes_are_numbers_but_not_reals(self, value):
        assert complex_argument("x", value) == complex(value)
        assert complex_arguments("x", [value]) == (complex(value),)
        with pytest.raises(TypeError, match="^x must be a real number"):
            real_argument("x", value)
