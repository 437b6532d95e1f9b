import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snakefact
from helpers import grid64
from refusals import keep_earlier_ids
from snakefact import verify as verify_mod
from snakefact.cli import main
from snakefact.expand import entry
from snakefact.oracle import moments
from snakefact.schur import SchurSequence
from snakefact.snake import GeneratingSequence, SnakeFactorization

MIXED = "0,-1,1,-2,2,3,-3,-4,4,5"
TEN_ALPHAS = "0.3,0.2-0.1j,0.1,0.25j,0.3,0.1,0.2,0.3-0.2j,0.1,0.2"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects flags and choices before main handles errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rendered(capsys, *argv, formats=("text",)):
    """The parsed JSON record of an argv, and the lines of its other renderings."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    lines = {}
    for fmt in formats:
        code, text, err = run(capsys, *argv, *(["--format", fmt] if fmt != "text" else []))
        assert code == 0, err
        assert text.endswith("\n")
        lines[fmt] = text[:-1].split("\n")
    return json.loads(out), lines


def pair_text(pair):
    return "[{:.16g}, {:.16g}]".format(*pair)


# Output of three entry invocations, captured before entry read scalar
# blocks: a product with inner segments, a complex pair and a single
# segment.  Two carry a signed zero, which the text renders as -0.  The
# JSON is stored compact and compared as the command line indents it.
ENTRY_GOLDEN = {
    "hessenberg": (
        ["--shape", "hessenberg", "--m", "6",
         "--alphas=0.3+0.4j,-0.2j,0.5-0.1j,0.1+0.7j,-0.6,0.05+0.05j", "--i", "0", "--j", "4"],
        'value: [-0.3096837096135345, -0]\nr: 0  t: 4  K: 1,2,3  b: 1  monotone: true\n',
        '{"i":0,"j":4,"value":[-0.30968370961353453,-0.0],"r":0,"t":4,"K":[1,2,3],"b":1,"monotone":true}',
    ),
    "monomials": (
        ["--monomials", "0,-1,1,-2,2,3",
         "--alphas=0.6j,-0.3+0.1j,0.2,0.45-0.45j,-0.1j,0.7", "--i", "1", "--j", "0"],
        'value: [-0.24, -0.08000000000000002]\nr: 1  t: 0  K: -  b: 0  monotone: true\n',
        '{"i":1,"j":0,"value":[-0.24,-0.08000000000000002],"r":1,"t":0,"K":[],"b":0,"monotone":true}',
    ),
    "single": (
        ["--s", "1,0,1", "--alphas=0.25,0.5,-0.75,0.125", "--i", "0", "--j", "0"],
        'value: [0.25, -0]\nr: 0  t: 0  K: -  b: -  monotone: true\n',
        '{"i":0,"j":0,"value":[0.25,-0.0],"r":0,"t":0,"K":[],"b":null,"monotone":true}',
    ),
}


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

    @pytest.mark.parametrize("case", sorted(ENTRY_GOLDEN))
    def test_golden_output(self, capsys, case):
        argv, text, compact = ENTRY_GOLDEN[case]
        assert run(capsys, "entry", *argv) == (0, text, "")
        assert run(capsys, "entry", *argv, "--format", "json") == (
            0, json.dumps(json.loads(compact), indent=2) + "\n", "")


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

    @pytest.mark.parametrize("flag, value", [
        ("--shape", "cmv"), ("--s", "1,0"), ("--monomials", "0,-1"), ("--m", "3"),
    ])
    def test_shape_flags_rejected(self, capsys, flag, value):
        # a rule reads only its Schur parameters, so quadrature declares no shape flag
        code, out, err = run(capsys, "quadrature", "--measure", "lebesgue", "--n", "4", flag, value)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_alphas_give_n_minus_one_parameters(self, capsys):
        # a 5-point rule reads alpha_0 .. alpha_3 and no shape bit
        code, out, err = run(capsys, "quadrature", "--alphas", "0.3,0.2,0.1,0.4", "--n", "5",
                             "--verify", "--format", "json")
        assert code == 0, err
        report = json.loads(out)
        assert len(report["nodes"]) == 5
        assert report["exactness_defect"] <= 1e-12
        code, out, err = run(capsys, "quadrature", "--alphas", "0.3,0.2,0.1", "--n", "5")
        assert code == 2
        assert out == ""
        assert err == "error: degree 4 needs 4 Schur parameters, have 3\n"

    def test_missing_schur(self, capsys):
        code, out, err = run(capsys, "quadrature", "--n", "4")
        assert code == 2
        assert out == ""
        assert err == "error: no Schur parameters given; use --alphas or --measure\n"

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

    def test_node_at_the_cut_sorts_first(self, capsys):
        # the README example has a node at -1, whose argument counts as -pi
        # whatever the sign of its roundoff imaginary part
        descriptor = json.dumps({"type": "bernstein-szego", "alphas": [[0.6, 0.0]]})
        code, out, _ = run(
            capsys, "quadrature", "--measure", descriptor, "--n", "6", "--format", "csv",
        )
        assert code == 0
        args = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert abs(args[0] + np.pi) <= 1e-12
        assert args == sorted(args)

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


class TestVerify:
    def test_single_suite_table(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bandwidth", "--m", "5")
        assert code == 0
        assert "structural=" in out and "measured=" in out
        assert "overall: PASS" in out

    def test_refused_rules_fail_with_an_infinite_defect(self, capsys):
        # Parameters this close to the circle put some rule nodes within 1e-8
        # of each other, so each rule refuses with a NumericalError.
        argv = ["verify", "--suite", "unitarity", "--alphas", ",".join(["0.9999999999999999"] * 26)]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        cases = [line.split() for line in out.splitlines() if "/" in line]
        rules = [case for case in cases if case[0].startswith("rule/")]
        assert len(rules) == 20 and {tuple(case[1:]) for case in rules} == {
            ("defect=inf", "tol=1e-12", "FAIL")}
        assert {case[-1] for case in cases if not case[0].startswith("rule/")} == {"ok"}
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1

        def refuse(token):
            raise AssertionError(f"{token} is not JSON")

        results = json.loads(out, parse_constant=refuse)["results"]
        for c in results:
            refused = c["case"].startswith("rule/")
            assert (c["defect"] is None, c["passed"]) == (refused, not refused)

    def test_suites_ask_for_the_moments_they_read(self, monkeypatch):
        # oracle-equivalence reads mu_j up to n + 1, exactness up to n - 1
        asked = []
        exact = verify_mod.moments

        def spy(measure, jmax):
            asked.append(jmax)
            return exact(measure, jmax)

        monkeypatch.setattr(verify_mod, "moments", spy)
        verify_mod.run_suites(["oracle-equivalence", "exactness"], n=5,
                              measure=verify_mod.BernsteinSzego([0.3]))
        assert asked == [6, 4]

    def test_both_schur_sources_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "round-trip", "--alphas", "0.1,0.2",
                             "--measure", "lebesgue")
        assert code == 2
        assert out == ""
        assert "give exactly one Schur source" in err

    def test_seed_reproducibility(self, capsys, monkeypatch):
        monkeypatch.setenv("SNAKE_SEED", "777")
        code1, out1, _ = run(capsys, "verify", "--suite", "unitarity", "--format", "json")
        code2, out2, _ = run(capsys, "verify", "--suite", "unitarity", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["seed"] == 777

    def test_bandwidth_suite_m_16_accepted(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(verify_mod.SUITES, "bandwidth",
                            lambda rng, m=None, **_: seen.append(m) or [])
        code, out, _ = run(capsys, "verify", "--suite", "bandwidth", "--m", "16")
        assert code == 0
        assert seen == [16]
        assert "overall: PASS" in out

    def test_seed_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SNAKE_SEED", "abc")
        code, _, err = run(capsys, "verify", "--suite", "round-trip")
        assert code == 2
        assert "SNAKE_SEED" in err and "decimal integer" in err

    @pytest.mark.parametrize("argv, size", [([], 8), (["--n", "6"], 6)])
    def test_n_sizes_exactness_without_suite(self, capsys, monkeypatch, argv, size):
        # a bare verify runs the exactness suite at --n's default of 8 only:
        # three measures times two corner phases
        for name in set(verify_mod.SUITES) - {"exactness"}:
            monkeypatch.setitem(verify_mod.SUITES, name, lambda rng, **_: [])
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        cases = [r["case"] for r in json.loads(out)["results"]]
        assert len(cases) == 6 and all(f"/n={size}/" in c for c in cases)

    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "overall: PASS" in out
        for suite in ("unitarity", "oracle-equivalence", "bandwidth", "round-trip", "exactness"):
            assert suite in out


class TestRenderings:
    """Text and CSV are the documented renderings of the JSON record."""

    def test_build(self, capsys):
        r, lines = rendered(capsys, "build", "--monomials", MIXED, "--alphas", TEN_ALPHAS)
        want = [f"{key}: " + ",".join(map(str, r[key])) for key in ("s", "p", "left", "right")]
        assert lines["text"] == want + ["alphas: " + " ".join(map(pair_text, r["alphas"]))]

    @pytest.mark.parametrize("i, j", [(7, 4), (7, 5), (3, 3)])
    def test_entry(self, capsys, i, j):
        r, lines = rendered(capsys, "entry", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
                            "--i", str(i), "--j", str(j))
        k = ",".join(map(str, r["K"])) or "-"
        b = "-" if r["b"] is None else r["b"]
        assert lines["text"] == [
            f"value: {pair_text(r['value'])}",
            f"r: {r['r']}  t: {r['t']}  K: {k}  b: {b}  monotone: {json.dumps(r['monotone'])}",
        ]

    def test_expand(self, capsys):
        r, lines = rendered(capsys, "expand", "--monomials", MIXED, "--alphas", TEN_ALPHAS,
                            "--n", "5", formats=("text", "csv"))
        assert lines["text"] == [" ".join(map(pair_text, row)) for row in r["matrix"]]
        assert lines["csv"] == ["i,j,re,im"] + [
            f"{i},{j},{re:.16g},{im:.16g}"
            for i, row in enumerate(r["matrix"]) for j, (re, im) in enumerate(row)
        ]

    def test_bandwidth(self, capsys):
        r, lines = rendered(capsys, "bandwidth", "--monomials", MIXED)
        assert lines["text"] == [f"lower: {r['lower']}", f"upper: {r['upper']}"]

    def test_quadrature(self, capsys):
        descriptor = json.dumps({"type": "bernstein-szego", "alphas": [[0.6, 0.0], [0.1, 0.3]]})
        r, lines = rendered(capsys, "quadrature", "--measure", descriptor, "--n", "7",
                            "--theta", "0.4", "--verify", formats=("text", "csv"))
        nodes = np.array([complex(re, im) for re, im in r["nodes"]])
        args = np.angle(nodes)
        args = np.where(args >= np.pi - 1e-12, args - 2 * np.pi, args)
        assert lines["text"] == [f"n: {r['n']}", f"theta: {r['theta']:.16g}"] + [
            f"node {pair_text(z)}  weight {w:.16g}" for z, w in zip(r["nodes"], r["weights"])
        ] + [f"exactness defect: {r['exactness_defect']:.16g}"]
        assert lines["csv"] == ["arg,modulus,weight"] + [
            f"{a:.16g},{abs(z):.16g},{w:.16g}" for a, z, w in zip(args, nodes, r["weights"])
        ] + [f"# exactness_defect,{r['exactness_defect']:.16g}"]

    def test_verify(self, capsys):
        r, lines = rendered(capsys, "verify", "--suite", "round-trip")
        cases = r["results"]
        assert lines["text"] == [
            f"{c['case']:<48} defect={c['defect']:.3e} tol={c['tolerance']:.0e} "
            + ("ok" if c["passed"] else "FAIL")
            for c in cases
        ] + [
            f"{'suite':<20} {'cases':>6} {'failed':>6} {'max defect':>12} {'tolerance':>10}",
            f"{'round-trip':<20} {len(cases):>6} {0:>6} "
            f"{max(c['defect'] for c in cases):>12.3e} {min(c['tolerance'] for c in cases):>10.0e}",
            "overall: PASS",
        ]


# Each subcommand declares only the flags it reads; these were once accepted
# and ignored.
UNDECLARED_FLAGS = [
    ("build", "--n", "99"), ("build", "--theta", "3"),
    ("entry", "--n", "3"), ("entry", "--theta", "1"),
    ("expand", "--theta", "1"),
    ("bandwidth", "--alphas", "5,5,5,5"), ("bandwidth", "--measure", "lebesgue"),
    ("bandwidth", "--n", "3"), ("bandwidth", "--theta", "1"),
    ("verify", "--shape", "cmv"), ("verify", "--s", "1,0"), ("verify", "--monomials", "0,1"),
    ("verify", "--theta", "1"),
]
VALID_ARGV = {
    "build": ["--shape", "cmv", "--m", "4"],
    "entry": ["--shape", "cmv", "--m", "4", "--alphas", "0.1,0.2,0.3,0.4", "--i", "1", "--j", "1"],
    "expand": ["--shape", "cmv", "--m", "4", "--alphas", "0.1,0.2,0.3,0.4", "--n", "3"],
    "bandwidth": ["--shape", "cmv", "--m", "4"],
    "verify": ["--suite", "round-trip"],
}


@pytest.mark.parametrize("command, flag, value", UNDECLARED_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in UNDECLARED_FLAGS])
def test_undeclared_flag_rejected(capsys, command, flag, value):
    code, out, err = run(capsys, command, *VALID_ARGV[command], flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


# Flags must be spelled in full; argparse would otherwise read these as
# verify --suite and quadrature --measure.
ABBREVIATED_FLAGS = [
    ("verify", "--s", "round-trip"),
    ("quadrature", "--meas", "lebesgue", "--n", "4"),
]


@pytest.mark.parametrize("argv", ABBREVIATED_FLAGS, ids=[a[1] for a in ABBREVIATED_FLAGS])
def test_abbreviated_flag_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {argv[1]}" in err


class TestErrors:
    @pytest.mark.parametrize(
        "descriptor, field",
        [({"type": "geronimus"}, "'a'"), ({"type": "grid", "points": 5}, "'points'")],
        ids=["geronimus-missing-a", "grid-points-not-a-list"],
    )
    def test_descriptor_field_named(self, capsys, descriptor, field):
        code, _, err = run(capsys, "quadrature", "--measure", json.dumps(descriptor), "--n", "4")
        assert code == 2
        assert f"field {field}" in err

    @pytest.mark.parametrize("argv, flag, value", [
        (["entry", "--s", "1,0", "--i", "0", "--j", "0"], "--alphas", "-0.3,0.2,0.1"),
        (["quadrature", "--alphas", "0.3,0.2", "--n", "3"], "--theta", "-1e-3"),
        (["quadrature", "--alphas", "0.3,0.2", "--n", "3"], "--theta", "-.5"),
        (["expand", "--s", "0,1", "--n", "3", "--format", "csv"], "--alphas", "-.25j,0.5,-1e-2"),
        (["build", "--m", "3", "--shape", "cmv"], "--alphas", "-0.5,-0.25,-0.125"),
    ], ids=["entry alphas", "theta exponent", "theta leading point", "expand alphas", "build alphas"])
    def test_negative_value_after_its_flag(self, capsys, argv, flag, value):
        spaced = run(capsys, *argv, flag, value)
        assert spaced == run(capsys, *argv, f"{flag}={value}")
        assert spaced[0] == 0, spaced[2]

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
    def test_negative_non_finite_value_is_read_and_refused(self, capsys, value):
        code, _, err = run(capsys, "quadrature", "--alphas", "0.3,0.2", "--n", "3", "--theta", value)
        assert code == 2
        assert err == f"error: theta = {float(value)} is not finite\n"

    def test_flag_is_not_a_value(self, capsys):
        code, _, err = run(capsys, "quadrature", "--alphas", "--measure", "lebesgue")
        assert code == 2
        assert "argument --alphas: expected one argument" in err

    def test_grid_with_too_few_atoms(self, capsys):
        # three atoms carry only alpha_0 and alpha_1 inside the unit disk,
        # which is what a 3-point rule reads
        grid = '{"type":"grid","points":[[-2,0.25],[0,0.5],[2,0.25]]}'
        code, _, err = run(capsys, "quadrature", "--measure", grid, "--n", "4")
        assert code == 2
        assert "3 distinct atoms" in err
        for n in ("2", "3"):
            code, _, err = run(capsys, "quadrature", "--measure", grid, "--n", n, "--verify")
            assert code == 0, err
        code, _, err = run(capsys, "verify", "--suite", "exactness", "--measure", grid, "--n", "3")
        assert code == 0, err

    @pytest.mark.parametrize("n, exit_code", [(48, 0), (56, 3), (60, 3), (63, 3), (64, 3), (65, 2)])
    def test_grid_ladder_exit_codes(self, capsys, n, exit_code):
        # 64 atoms carry the 63 Schur parameters of a 64-point rule: within
        # them float64 is the limit (exit 3), and only past them is the
        # input at fault (exit 2)
        points = np.column_stack(grid64()).tolist()
        code, _, err = run(capsys, "quadrature", "--measure",
                           json.dumps({"type": "grid", "points": points}), "--n", str(n), "--verify")
        assert code == exit_code, err
        assert "at most" not in err
        if exit_code == 2:
            assert "64 distinct atoms" in err

    def test_verify_builds_the_table_before_the_rule(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a rule was computed for a table that cannot be built")

        monkeypatch.setattr("snakefact.quadrature.szego_quadrature", unreachable)
        code, out, err = run(capsys, "quadrature", "--measure", '{"type": "geronimus", "a": [0.999, 0]}',
                             "--n", "200", "--verify")
        assert (code, out) == (3, "")
        assert err.startswith("error: moment recursion overflows at jmax=199")

    def test_verify_builds_a_grid_table_once(self, capsys, monkeypatch):
        # the grid's Schur parameters and the exactness check read one table
        calls = []

        def counted(measure, jmax):
            calls.append(jmax)
            return moments(measure, jmax)

        monkeypatch.setattr("snakefact.oracle.moments", counted)
        grid = json.dumps({"type": "grid", "points": np.column_stack(grid64()).tolist()})
        code, out, err = run(capsys, "quadrature", "--measure", grid, "--n", "48", "--verify",
                             "--format", "json")
        assert code == 0, err
        assert json.loads(out)["exactness_defect"] <= 1e-9
        assert calls == [47]

    def test_verify_grid_within_its_atoms(self, capsys):
        grid = '{"type":"grid","points":[[-2.5,0.2],[-1.0,0.3],[0.5,0.3],[2.0,0.2]]}'
        code, out, err = run(capsys, "verify", "--suite", "oracle-equivalence", "--measure", grid,
                             "--n", "2")
        assert code == 0, err
        assert "overall: PASS" in out
        code, out, err = run(capsys, "verify", "--suite", "exactness", "--measure", grid, "--n", "3")
        assert code == 0, err

    @pytest.mark.parametrize("atoms", [5, 8, 16])
    def test_grid_gives_one_parameter_fewer_than_atoms(self, capsys, atoms):
        # k atoms carry k - 1 Schur parameters, read off moments up to k - 1,
        # and those are what rules of up to k points read
        thetas = -np.pi + 2 * np.pi * (np.arange(atoms) + 0.5) / atoms
        weights = np.arange(1, atoms + 1) / (atoms * (atoms + 1) / 2)
        grid = json.dumps({"type": "grid", "points": np.column_stack([thetas, weights]).tolist()})
        for n in (atoms - 1, atoms):
            code, out, err = run(capsys, "quadrature", "--measure", grid, "--n", str(n),
                                 "--verify", "--format", "json")
            assert code == 0, err
            assert json.loads(out)["exactness_defect"] <= 1e-9

    def test_unknown_measure(self, capsys):
        code, _, err = run(capsys, "quadrature", "--measure", "nope", "--n", "4")
        assert code == 2

    def test_measure_file_not_json(self, capsys, tmp_path):
        bad = tmp_path / "measure.json"
        bad.write_text("not json {")
        code, out, err = run(capsys, "quadrature", "--measure", str(bad), "--n", "4")
        assert code == 2
        assert out == ""
        assert "--measure" in err and str(bad) in err and "not JSON" in err

    def test_overlong_measure_is_not_a_path(self, capsys):
        code, _, err = run(capsys, "quadrature", "--measure", "x" * 300, "--n", "4")
        assert code == 2
        assert "unknown measure" in err

    @pytest.mark.parametrize("argv", [
        ["build", "--s", "1,0", "--m", "7"],
        ["build", "--shape", "bits", "--s", "1,0", "--m", "3"],
        ["bandwidth", "--monomials", "0,-1,1", "--m", "3"],
    ])
    def test_m_without_a_named_shape(self, capsys, argv):
        # --m counts the factors of a named shape; elsewhere it would be dropped
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--m" in err and "named shape" in err

    @pytest.mark.parametrize("argv", [
        ["entry", "--shape", "cmv", "--m", "5", "--alphas", "0.3,0.2,0.1,0.2,0.3", "--i", "-1", "--j", "0"],
        ["quadrature", "--measure", "lebesgue", "--n", "1"],
        ["build", "--shape", "cmv", "--m", "1"],
    ])
    def test_sizes_and_indices_below_the_minimum(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be at least" in err

    def test_oversized_rule_rejected_before_any_work(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("n-sized work started for an oversized rule")

        monkeypatch.setattr("snakefact.oracle.schur_parameters", unreachable)
        monkeypatch.setattr("snakefact.quadrature.truncate_para_unitary", unreachable)
        monkeypatch.setattr("snakefact.quadrature._corner_blocks", unreachable)
        code, out, err = run(capsys, "quadrature", "--measure", "lebesgue", "--n", "1025")
        assert code == 2
        assert out == ""
        assert "n = 1025 exceeds the supported 1024" in err

    @pytest.mark.parametrize("n", [10**20, 1025])
    def test_oversized_expand_rejected_before_the_shape_is_built(self, capsys, monkeypatch, n):
        def unreachable(*args):
            raise AssertionError("the shape was built for an oversized expansion")

        monkeypatch.setattr("snakefact.cli.hessenberg_shape", unreachable)
        code, out, err = run(capsys, "expand", "--shape", "hessenberg", "--m", str(2**20),
                             "--measure", "lebesgue", "--n", str(n))
        assert code == 2
        assert out == ""
        assert err == f"error: n = {n} exceeds the supported 1024\n"

    def test_named_shape_sized_by_alphas_names_alphas(self, capsys):
        code, out, err = run(capsys, "build", "--shape", "cmv", "--alphas", "0.3")
        assert code == 2
        assert out == ""
        assert err == "error: number of --alphas = 1; must be at least 2\n"

    def test_missing_schur(self, capsys):
        code, _, err = run(capsys, "entry", "--shape", "cmv", "--m", "4", "--i", "0", "--j", "0")
        assert code == 2
        assert "alphas" in err or "measure" in err

    def test_default_shape_sized_by_one_alpha_names_alphas(self, capsys):
        code, out, err = run(capsys, "expand", "--alphas", "0.3", "--n", "1")
        assert code == 2
        assert out == ""
        assert err == "error: number of --alphas = 1; must be at least 2\n"

    @pytest.mark.parametrize("shape", ["hessenberg", "cmv"])
    @pytest.mark.parametrize("m", [10**20, 2**20 + 1])
    def test_oversized_named_shape_rejected_before_any_work(self, capsys, monkeypatch, shape, m):
        def unreachable(*args):
            raise AssertionError("a named shape was built past its size bound")

        monkeypatch.setattr("snakefact.cli.hessenberg_shape", unreachable)
        monkeypatch.setattr("snakefact.cli.cmv_shape", unreachable)
        code, out, err = run(capsys, "bandwidth", "--shape", shape, "--m", str(m))
        assert code == 2
        assert out == ""
        assert err == f"error: m = {m} exceeds the supported 1048576\n"

    @pytest.mark.parametrize("suite", [[], ["--suite", "exactness"], ["--suite", "oracle-equivalence"]],
                             ids=["all", "exactness", "oracle-equivalence"])
    @pytest.mark.parametrize("n", [10**20, 1025])
    def test_oversized_verify_n_rejected_before_any_work(self, capsys, monkeypatch, suite, n):
        def unreachable(*args):
            raise AssertionError("suite work started for an oversized n")

        monkeypatch.setattr("snakefact.verify.moments", unreachable)
        monkeypatch.setattr("snakefact.verify.materialize_window", unreachable)
        code, out, err = run(capsys, "verify", "--n", str(n), *suite)
        assert code == 2
        assert out == ""
        assert err == f"error: n = {n} exceeds the supported 1024\n"

    @pytest.mark.parametrize("m, flags", [
        (10**20, ["--m", str(10**20)]),
        (1024, ["--m", "1024"]),
        (1024, ["--alphas", ",".join(["0.1"] * 1025)]),
    ], ids=["m-huge", "m-cap+1", "alphas-cap+1"])
    def test_oversized_unitarity_m_rejected_before_any_work(self, capsys, monkeypatch, m, flags):
        def unreachable(*args):
            raise AssertionError("the unitarity suite started past its size bound")

        monkeypatch.setattr("snakefact.verify.materialize_window", unreachable)
        code, out, err = run(capsys, "verify", "--suite", "unitarity", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: the unitarity suite's m = {m} exceeds the supported 1023\n"

    @pytest.mark.parametrize("descriptor, field", [
        ({"type": "geronimus", "a": [10**400, 0]}, "a"),
        ({"type": "grid", "points": [[0, 0.5], [1, -10**400]]}, "points"),
        ({"type": "bernstein-szego", "alphas": [[0.1, 0], [10**400, 0]]}, "alphas"),
    ], ids=["geronimus", "grid", "bernstein-szego"])
    def test_descriptor_number_outside_float_range(self, capsys, descriptor, field):
        code, out, err = run(capsys, "quadrature", "--n", "4", "--measure", json.dumps(descriptor))
        assert code == 2
        assert out == ""
        assert err == (f"error: field {field!r} of a {descriptor['type']} measure holds a number "
                       "outside the float range\n")

    @pytest.mark.parametrize("argv, cause", [
        (["build", "--shape", "cmv", "--s", "1,0"], "--shape cmv conflicts with --s/--monomials"),
        (["build", "--shape", "cmv"], "named shapes need --m"),
        (["bandwidth", "--shape", "bits"], "--shape bits needs --s"),
        (["bandwidth", "--shape", "monomials"], "--shape monomials needs --monomials"),
        (["bandwidth"], "no shape source given"),
        (["expand", "--s", "1,0", "--alphas", "0.1,0.2"],
         "a shape with 2 bits needs exactly 3 Schur parameters, got 2"),
        (["build", "--s", "1,0", "--alphas", "0.1,0.2,0.3,0.4"],
         "a shape with 2 bits needs exactly 3 Schur parameters, got 4"),
        (["entry", "--s", "1,0", "--alphas", "0.1,0.2,1.5,0.4", "--i", "0", "--j", "0"],
         "|alpha| = 1.5 >= 1; parameter 2 must lie strictly inside the open unit disk"),
        (["expand", "--s", "1,0", "--alphas", ","], "empty alpha list"),
        (["quadrature", "--n", "4", "--measure", "[1,2]"],
         "measure descriptor must be a JSON object with a 'type' field"),
        (["quadrature", "--n", "4", "--measure", '{"type": "cauchy"}'],
         "unknown measure type 'cauchy'"),
        *((["verify", "--suite", suite, "--alphas", "0.5,0.3"],
           "a Schur sequence (--alphas) is read only by unitarity; "
           f"the selected suites ({suite}) would ignore it")
          for suite in ("oracle-equivalence", "exactness", "round-trip", "bandwidth")),
        *((["verify", "--suite", suite, "--measure", "lebesgue"],
           "a measure (--measure) is read only by oracle-equivalence and exactness; "
           f"the selected suites ({suite}) would ignore it")
          for suite in ("unitarity", "bandwidth", "round-trip")),
    ], ids=["cmv-with-s", "cmv-without-size", "bits-without-s", "monomials-without-list",
            "no-shape", "alphas-count", "build-alphas-count", "bad-parameter-before-count",
            "empty-alphas", "descriptor-not-object", "unknown-type",
            "alphas-oracle-equivalence", "alphas-exactness", "alphas-round-trip",
            "alphas-bandwidth", "measure-unitarity", "measure-bandwidth", "measure-round-trip"])
    def test_input_branch_names_its_cause(self, capsys, argv, cause):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and cause in err

    def test_lebesgue_descriptor_is_the_named_measure(self, capsys):
        got = run(capsys, "quadrature", "--n", "4", "--measure", '{"type": "lebesgue"}')
        assert got[0] == 0
        assert got == run(capsys, "quadrature", "--n", "4", "--measure", "lebesgue")

    def test_verify_with_alphas_checks_against_their_bernstein_szego_measure(self, capsys):
        code, out, err = run(capsys, "quadrature", "--alphas", "0.3,0.2-0.1j,0.1,0.25j", "--n", "4",
                             "--verify", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["exactness_defect"] <= 1e-12


HUGE_INT = st.sampled_from([10**400, -(10**400), 2**1024])
DESCRIPTOR_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3), HUGE_INT,
)
DESCRIPTOR_PAIR = st.lists(DESCRIPTOR_NUMBER, min_size=2, max_size=2)
DESCRIPTOR_VALUE = st.one_of(
    DESCRIPTOR_PAIR,
    st.lists(DESCRIPTOR_PAIR, max_size=4),
    st.lists(st.lists(st.lists(DESCRIPTOR_NUMBER, max_size=2), max_size=2), max_size=2),
    DESCRIPTOR_NUMBER,
    st.text(max_size=4),
    st.none(),
    st.booleans(),
)
DESCRIPTOR = st.one_of(
    st.builds(lambda a: {"type": "geronimus", "a": a}, DESCRIPTOR_PAIR),
    st.builds(lambda alphas: {"type": "bernstein-szego", "alphas": alphas},
              st.lists(DESCRIPTOR_PAIR, min_size=1, max_size=4)),
    st.builds(lambda points: {"type": "grid", "points": points},
              st.lists(DESCRIPTOR_PAIR, min_size=1, max_size=4)),
    st.fixed_dictionaries(
        {"type": st.sampled_from(["lebesgue", "bernstein-szego", "geronimus", "grid", "cauchy"])},
        optional={"a": DESCRIPTOR_VALUE, "alphas": DESCRIPTOR_VALUE, "points": DESCRIPTOR_VALUE},
    ),
    st.dictionaries(st.text(max_size=5), DESCRIPTOR_VALUE, max_size=2),
    DESCRIPTOR_VALUE,
)


@settings(max_examples=50, deadline=None)
@given(DESCRIPTOR, st.floats(allow_nan=True, allow_infinity=True))
def test_property_measure_descriptors_and_theta_exit_cleanly(descriptor, theta):
    argv = ["quadrature", "--n", "4", f"--measure={json.dumps(descriptor)}", f"--theta={theta!r}"]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), argv
    text = err.getvalue()
    assert text == "" or (text.startswith("error: ") and text.count("\n") == 1
                          and text.endswith("\n")), argv
    assert not caught, (argv, [str(w.message) for w in caught])


def _python(*args):
    src = str(Path(snakefact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_runs_as_script():
    proc = _python("-m", "snakefact.cli", "build", "--shape", "cmv", "--m", "4")
    assert proc.returncode == 0, proc.stderr
    assert "s: 0,1,0" in proc.stdout


def test_moment_overflow_exits_3_without_warnings():
    # the coefficients of phi_k for Geronimus(0.999) grow at least like rho^-k = 22^k,
    # and the moment recursion leaves float64 at k = 162
    measure = json.dumps({"type": "geronimus", "a": [0.999, 0]})
    proc = _python("-m", "snakefact.cli", "quadrature", "--measure", measure, "--n", "300", "--verify")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "beyond float64" in proc.stderr
    assert "moment recursion overflows at jmax=299" in proc.stderr
    assert "Toeplitz" not in proc.stderr


def test_cli_import_leaves_scipy_out():
    proc = _python("-c", "import sys, snakefact.cli; assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


# The refusal-table cases that were tests of this module before the table, under their ids.
keep_earlier_ids(globals())
