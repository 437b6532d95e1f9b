import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snakefact
from snakefact.cli import main
from snakefact.expand import entry
from snakefact.schur import SchurSequence
from snakefact.snake import GeneratingSequence, SnakeFactorization

MIXED = "0,-1,1,-2,2,3,-3,-4,4,5"
TEN_ALPHAS = "0.3,0.2-0.1j,0.1,0.25j,0.3,0.1,0.2,0.3-0.2j,0.1,0.2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_monomial_example(self, capsys):
        code, out, _ = run(capsys, "build", "--monomials", MIXED)
        assert code == 0
        assert "s: 1,0,1,0,0,1,1,0,0" in out
        assert "p: 0,1,1,2,2,2,3,4,4,4" in out
        assert "left: 7,6,3,1" in out
        assert "right: 0,2,4,5,8,9" in out

    def test_named_shape_factor_count(self, capsys):
        code, out, _ = run(capsys, "build", "--shape", "hessenberg", "--m", "4")
        assert code == 0
        assert "right: 0,1,2,3" in out
        left_line = next(line for line in out.splitlines() if line.startswith("left:"))
        assert left_line == "left: "

    def test_invalid_monomials(self, capsys):
        code, _, err = run(capsys, "build", "--monomials", "0,2")
        assert code == 2
        assert "prefix {0,2} is not a contiguous range" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "build", "--shape", "cmv", "--m", "5", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["s"] == [0, 1, 0, 1]
        assert report["p"] == [0, 0, 1, 1, 2]

    def test_csv_not_defined(self, capsys):
        code, _, err = run(capsys, "build", "--shape", "cmv", "--m", "5", "--format", "csv")
        assert code == 2
        assert "csv" in err

    def test_schur_round_trips_through_json(self, capsys):
        code, out, _ = run(
            capsys, "build", "--monomials", MIXED, "--alphas", TEN_ALPHAS, "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        emitted = [complex(re, im) for re, im in report["alphas"]]
        assert emitted == [complex(tok) for tok in TEN_ALPHAS.split(",")]
        assert json.loads(json.dumps(report)) == report

    def test_conflicting_shape_sources(self, capsys):
        code, _, err = run(capsys, "build", "--s", "0,1", "--monomials", "0,1")
        assert code == 2
        assert "exactly one shape source" in err

    def test_conflicting_schur_sources(self, capsys):
        code, _, err = run(
            capsys, "build", "--shape", "cmv", "--m", "4",
            "--alphas", "0.1,0.1,0.1,0.1", "--measure", "lebesgue",
        )
        assert code == 2
        assert "exactly one Schur source" in err

    def test_bernstein_szego_prefix_padded_with_zeros(self, capsys):
        descriptor = json.dumps({"type": "bernstein-szego", "alphas": [[0.6, 0.0], [0.0, 0.2]]})
        code, out, _ = run(
            capsys, "build", "--shape", "cmv", "--m", "5", "--measure", descriptor,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["alphas"] == [[0.6, 0.0], [0.0, 0.2], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


class TestEntry:
    def test_non_monotone_entry(self, capsys):
        code, out, _ = run(
            capsys, "entry", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
            "--i", "7", "--j", "4", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] == [0.0, 0.0]
        assert report["monotone"] is False

    def test_corner_is_conjugate_alpha(self, capsys):
        code, out, _ = run(
            capsys, "entry", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
            "--i", "0", "--j", "0", "--format", "json",
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert value[0] == pytest.approx(0.3)
        assert value[1] == pytest.approx(0.0)

    def test_matches_library_entry(self, capsys):
        code, out, _ = run(
            capsys, "entry", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
            "--i", "7", "--j", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        alphas = [complex(tok) for tok in TEN_ALPHAS.split(",")]
        snake = SnakeFactorization(
            SchurSequence(alphas), GeneratingSequence((1, 0, 1, 0, 0, 1, 1, 0, 0))
        )
        want = entry(snake, 7, 5)
        assert complex(*report["value"]) == pytest.approx(want)
        assert report["r"] == 7 and report["t"] == 5 and report["K"] == [6]

    def test_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "entry", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
            "--i", "0", "--j", "12",
        )
        assert code == 2
        assert "outside" in err

    def test_nan_alpha_rejected(self, capsys):
        code, _, err = run(
            capsys, "entry", "--s", "1,0", "--alphas", "0.1,nan,0.2", "--i", "1", "--j", "1",
        )
        assert code == 2
        assert "not finite" in err


class TestQuadrature:
    def test_lebesgue_rule(self, capsys):
        code, out, _ = run(
            capsys, "quadrature", "--measure", "lebesgue", "--n", "8",
            "--theta", "0", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 8
        nodes = np.array([complex(re, im) for re, im in report["nodes"]])
        angles = -np.pi + 2 * np.pi * np.arange(8) / 8
        assert np.max(np.abs(nodes - np.exp(1j * angles))) <= 1e-12
        assert np.max(np.abs(np.array(report["weights"]) - 0.125)) <= 1e-12
        assert list(report) == ["n", "theta", "nodes", "weights"]

    def test_verify_defect(self, capsys):
        descriptor = json.dumps({"type": "bernstein-szego", "alphas": [[0.6, 0.0]]})
        code, out, _ = run(
            capsys, "quadrature", "--measure", descriptor, "--n", "6",
            "--theta", "0.4", "--verify", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["exactness_defect"] <= 1e-10

    def test_verify_geronimus(self, capsys):
        descriptor = json.dumps({"type": "geronimus", "a": [0.5, 0.0]})
        code, out, _ = run(
            capsys, "quadrature", "--measure", descriptor, "--n", "11",
            "--verify", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["exactness_defect"] <= 1e-9

    def test_shape_invariant_output(self, capsys):
        alphas = "0.4,0.1-0.2j,0.3,0.2,0.1j,0.25,0.15,0.1,0.2,0.1,0.05,0.2"
        outputs = []
        for shape in ("hessenberg", "cmv"):
            code, out, _ = run(
                capsys, "quadrature", "--shape", shape, "--m", "12",
                "--alphas", alphas, "--n", "12", "--theta", "0.3", "--format", "json",
            )
            assert code == 0
            report = json.loads(out)
            rounded = [
                [f"{re:.12g}", f"{im:.12g}"] for re, im in report["nodes"]
            ] + [[f"{w:.12g}"] for w in report["weights"]]
            outputs.append(json.dumps(rounded))
        assert outputs[0] == outputs[1]

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "quadrature", "--measure", "lebesgue", "--n", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "arg,modulus,weight"
        assert len(lines) == 5

    def test_rule_json_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "rule.json"
        code, _, _ = run(
            capsys, "quadrature", "--measure", "lebesgue", "--n", "6",
            "--theta", "0.25", "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        again = json.loads(json.dumps(report))
        assert again == report
        # float representation is exact, so emitted values reload bit-for-bit
        nodes = np.array([complex(re, im) for re, im in report["nodes"]])
        assert np.all(np.abs(np.abs(nodes) - 1.0) <= 1e-10)

    def test_geronimus_parameters_taken_from_descriptor(self, capsys):
        # every Schur parameter of Geronimus(0.5) is 0.5, so the rule builds
        # past n of about 20, where recovering them from moments fails
        descriptor = json.dumps({"type": "geronimus", "a": [0.5, 0.0]})
        code, out, _ = run(
            capsys, "quadrature", "--measure", descriptor, "--n", "30",
            "--verify", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["exactness_defect"] <= 1e-9


class TestExpandAndBandwidth:
    def test_expand_csv(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--shape", "cmv", "--m", "6",
            "--alphas", "0.3,0.1,0.2,0.25,0.15,0.05", "--n", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,j,re,im"
        assert len(lines) == 17

    def test_expand_json_matches_entry(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
            "--n", "5", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        alphas = [complex(tok) for tok in TEN_ALPHAS.split(",")]
        snake = SnakeFactorization(
            SchurSequence(alphas), GeneratingSequence((1, 0, 1, 0, 0, 1, 1, 0, 0))
        )
        for i in range(5):
            for j in range(5):
                assert complex(*report["matrix"][i][j]) == pytest.approx(entry(snake, i, j))

    def test_bandwidth(self, capsys):
        code, out, _ = run(capsys, "bandwidth", "--shape", "cmv", "--m", "9", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"lower": 2, "upper": 2}

    def test_expand_too_large(self, capsys):
        code, _, err = run(
            capsys, "expand", "--shape", "cmv", "--m", "3",
            "--alphas", "0.3,0.1,0.2", "--n", "8",
        )
        assert code == 2


class TestVerify:
    def test_single_suite_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bandwidth", "--m", "5")
        assert code == 0
        assert "structural=" in out and "measured=" in out
        assert "overall: PASS" in out

    def test_corrupted_alpha(self, capsys):
        code, _, err = run(capsys, "verify", "--alphas", "1.2")
        assert code == 2
        assert "unit disk" in err

    def test_seed_reproducibility(self, capsys, monkeypatch):
        monkeypatch.setenv("SNAKE_SEED", "777")
        code1, out1, _ = run(capsys, "verify", "--suite", "unitarity", "--format", "json")
        code2, out2, _ = run(capsys, "verify", "--suite", "unitarity", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["seed"] == 777

    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "overall: PASS" in out
        for suite in ("unitarity", "oracle-equivalence", "bandwidth", "round-trip", "exactness"):
            assert suite in out


class TestErrors:
    def test_numerical_failure_exit_code(self, capsys):
        # half the atoms of this 48-point grid carry weight 1e-12, so the
        # Gram matrix of the first 26 monomials is nearly singular; recovering
        # the Schur parameters from the moments loses orthonormality, which
        # must surface as a numerical failure
        atoms = 48
        weights = np.where(np.arange(atoms) % 2 == 0, 1e-12, 1.0)
        weights /= weights.sum()
        thetas = -np.pi + 2 * np.pi * (np.arange(atoms) + 0.5) / atoms
        descriptor = json.dumps(
            {"type": "grid", "points": [[float(t), float(w)] for t, w in zip(thetas, weights)]}
        )
        code, _, err = run(capsys, "quadrature", "--measure", descriptor, "--n", "26")
        assert code == 3
        assert "error:" in err
        assert "defect" in err

    @pytest.mark.parametrize(
        "descriptor, field",
        [({"type": "geronimus"}, "'a'"), ({"type": "grid", "points": 5}, "'points'")],
        ids=["geronimus-missing-a", "grid-points-not-a-list"],
    )
    def test_descriptor_field_named(self, capsys, descriptor, field):
        code, _, err = run(capsys, "quadrature", "--measure", json.dumps(descriptor), "--n", "4")
        assert code == 2
        assert f"field {field}" in err

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_named(self, capsys, theta):
        code, _, err = run(capsys, "quadrature", "--measure", "lebesgue", "--n", "4",
                           f"--theta={theta}")
        assert code == 2
        assert "theta" in err

    def test_grid_with_too_few_atoms(self, capsys):
        # three atoms carry only alpha_0 and alpha_1 inside the unit disk
        grid = '{"type":"grid","points":[[-2,0.25],[0,0.5],[2,0.25]]}'
        code, _, err = run(capsys, "quadrature", "--measure", grid, "--n", "4")
        assert code == 2
        assert "3 distinct atoms" in err
        code, _, _ = run(capsys, "quadrature", "--measure", grid, "--n", "2", "--verify")
        assert code == 0

    def test_unknown_measure(self, capsys):
        code, _, err = run(capsys, "quadrature", "--measure", "nope", "--n", "4")
        assert code == 2

    def test_missing_schur(self, capsys):
        code, _, err = run(capsys, "entry", "--shape", "cmv", "--m", "4", "--i", "0", "--j", "0")
        assert code == 2
        assert "alphas" in err or "measure" in err


def test_module_runs_as_script():
    src = str(Path(snakefact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "snakefact.cli", "build", "--shape", "cmv", "--m", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "s: 0,1,0" in proc.stdout
