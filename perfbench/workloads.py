"""The four benchmark workloads: per-op inputs, the op, and its output check.

Every workload is one client in a closed loop: the next op starts when the
previous one (and its check) has finished.  Op ``i`` draws its inputs from
``numpy.random.default_rng([seed, 1, i])``, so every run with a given seed
replays the same op sequence and the quantiles of two runs compare like
with like.  The warm-up op uses the separate stream ``[seed, 0]``.

Each op has one fixed composition, so op costs within a run differ only by
the data, not by the kind of work; a workload that mixed ops of very
different costs made its p90 a statement about the mix, not the code.

Checks run outside the timed region and raise ``CheckFailed``.  They use
an independent route to the answer wherever the package offers one.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np

import snakefact as sf
from snakefact import cli as sf_cli
from snakefact import verify as sf_verify

from common import child_env


class CheckFailed(AssertionError):
    """An op's output disagrees with the reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def random_alphas(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """Schur parameters with |alpha| uniform in [lo, hi] and uniform phases."""
    return rng.uniform(lo, hi, size=count) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=count))


def random_bits(rng, count: int) -> list[int]:
    return [int(b) for b in rng.integers(0, 2, size=count)]


REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((120, 120))


class Workload:
    """One workload: ``inputs(i)`` -> ``op(inputs)`` -> ``check(inputs, output)``.

    ``reference()`` is fixed work that no change to the package can touch,
    timed before every op to track how fast the machine runs at that
    moment; ``reference_nominal_s`` is its time at the speed the figures
    are scaled to, about its time on an unloaded 2-vCPU Xeon VM.
    """

    name = ""
    # Layer charged with the op's own time outside any traced call.
    root_layer = "bench"
    reference_nominal_s = 0.010

    def reference(self) -> None:
        """Interpreter work and a LAPACK call, like the in-process ops."""
        counts: dict[int, int] = {}
        for i in range(20_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        np.linalg.eigvals(REFERENCE_MATRIX)

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i: int | None):
        key = [self.seed, 0] if i is None else [self.seed, 1, i]
        return np.random.default_rng(key)

    def inputs(self, i: int | None):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError


class Rules(Workload):
    """One 256-point Szego rule per op, on fresh parameters, shape and phase."""

    name = "rules"
    n = 256
    power_tol = 1e-10

    def inputs(self, i):
        rng = self.rng(i)
        return {
            "alphas": random_alphas(rng, self.n, 0.05, 0.8),
            "bits": random_bits(rng, self.n - 1),
            "theta": float(rng.uniform(-np.pi, np.pi)),
        }

    def op(self, inp):
        snake = sf.SnakeFactorization(sf.SchurSequence(inp["alphas"]), sf.GeneratingSequence(inp["bits"]))
        return sf.szego_quadrature(snake, self.n, inp["theta"])

    def check(self, inp, rule):
        # sum_k w_k lambda_k^j = (T^j)_00 holds for the eigendecomposition of
        # the truncation T; the right side needs only matrix-vector products,
        # so the check does not trust the eigensolver it checks.
        snake = sf.SnakeFactorization(sf.SchurSequence(inp["alphas"]), sf.GeneratingSequence(inp["bits"]))
        t = sf.truncate_para_unitary(snake, self.n, inp["theta"]).matrix
        _require(rule.n == self.n, f"rule has {rule.n} nodes, want {self.n}")
        v = t[:, 0]
        for j in range(1, 5):
            want = v[0]
            got = np.dot(rule.weights, rule.nodes**j)
            _require(abs(got - want) <= self.power_tol, f"moment {j} defect {abs(got - want):.3e}")
            v = t @ v


class Expand(Workload):
    """Closed-form 96 x 96 block for a Hessenberg, a CMV and a random shape."""

    name = "expand"
    n = 96
    tol = 1e-13

    def inputs(self, i):
        rng = self.rng(i)
        m = self.n
        return {
            "alphas": random_alphas(rng, m + 1, 0.05, 0.8),
            "shapes": {
                "hessenberg": [0] * m,
                "cmv": list(sf.cmv_shape(m).bits),
                "random": random_bits(rng, m),
            },
        }

    def op(self, inp):
        schur = sf.SchurSequence(inp["alphas"])
        return {
            name: sf.expand_dense(sf.SnakeFactorization(schur, sf.GeneratingSequence(bits)), self.n)
            for name, bits in inp["shapes"].items()
        }

    def check(self, inp, out):
        # The Givens product never uses the path rule, so it is an
        # independent reference for the closed form.
        schur = sf.SchurSequence(inp["alphas"])
        for name, bits in inp["shapes"].items():
            snake = sf.SnakeFactorization(schur, sf.GeneratingSequence(bits))
            want = sf.materialize_window(snake, self.n)[: self.n, : self.n]
            defect = float(np.max(np.abs(out[name] - want)))
            _require(defect <= self.tol, f"{name}: closed form differs by {defect:.3e}")


class Validate(Workload):
    """Moment-oracle cross-check of the closed form and of a Szego rule.

    Per op, three fresh measures: a jittered 64-atom grid and a
    Bernstein-Szego prefix of 6 parameters (|alpha| <= 0.6) at n = 16, and
    a Geronimus measure at n = 10 with a = 0.3 exp(i phi), |phi| <= 0.3.
    The trapezoid ladder behind the Geronimus moments needs from 8k to 262k
    grid points as the phase of a goes round the circle, a 60-fold range of
    cost; over |phi| <= 0.3 it needs 262k every time, so every op has the
    same composition.  That is the costliest part of |a| <= 0.3, next to
    the real axis where the README's failing Geronimus(0.5) case lies.
    """

    name = "validate"
    n = 16
    n_geronimus = 10
    jmax = 18
    jmax_geronimus = 12
    rule_n = 16
    geronimus_modulus = 0.3
    tol = 1e-9

    def inputs(self, i):
        rng = self.rng(i)
        atoms = 64
        jitter = rng.uniform(-0.4, 0.4, size=atoms)
        thetas = -np.pi + 2.0 * np.pi * (np.arange(atoms) + 0.5 + jitter) / atoms
        weights = rng.uniform(0.5, 1.5, size=atoms)
        return {
            "grid": (thetas, weights / weights.sum()),
            "prefix": random_alphas(rng, 6, 0.0, 0.6),
            "a": complex(self.geronimus_modulus * np.exp(1j * rng.uniform(-0.3, 0.3))),
            "bits": {k: random_bits(rng, self.n - 1) for k in ("grid", "bernstein_szego", "geronimus")},
            "theta": float(rng.uniform(-np.pi, np.pi)),
        }

    def _cross(self, measure, jmax, n, bits):
        table = sf.moments(measure, jmax)
        schur = sf.schur_from_moments(table, n)
        gen = sf.GeneratingSequence(bits[: n - 1])
        oracle = sf.multiplication_matrix(table, gen, n)
        closed = sf.expand_dense(sf.SnakeFactorization(schur, gen), n)
        return table, schur, oracle, closed

    def op(self, inp):
        out = {}
        cases = {
            "grid": (sf.GridMeasure(*inp["grid"]), self.jmax, self.n),
            "bernstein_szego": (sf.BernsteinSzego(inp["prefix"]), self.jmax, self.n),
            "geronimus": (sf.Geronimus(inp["a"]), self.jmax_geronimus, self.n_geronimus),
        }
        for name, (measure, jmax, n) in cases.items():
            out[name] = self._cross(measure, jmax, n, inp["bits"][name])
        table, schur, _, _ = out["bernstein_szego"]
        snake = sf.SnakeFactorization(schur, sf.GeneratingSequence(inp["bits"]["bernstein_szego"]))
        rule = sf.szego_quadrature(snake, self.rule_n, inp["theta"])
        out["exactness"] = max(
            abs(sf.apply_rule(rule, {j: 1.0}) - table.mu(-j)) for j in range(1 - self.rule_n, self.rule_n)
        )
        return out

    def check(self, inp, out):
        for name in ("grid", "bernstein_szego", "geronimus"):
            _, _, oracle, closed = out[name]
            defect = float(np.max(np.abs(oracle - closed)))
            _require(defect <= self.tol, f"{name}: oracle and closed form differ by {defect:.3e}")
        _require(out["exactness"] <= self.tol, f"rule exactness defect {out['exactness']:.3e}")


CLI_CODE = "from snakefact.cli import entrypoint; entrypoint()"
CLI_ORDER = ("build", "entry", "bandwidth", "expand", "quadrature", "verify")
CLI_TIMEOUT = 60.0


def _csv_complex(values) -> str:
    return ",".join(repr(complex(a)) for a in values)


def _text_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(": ")
        if sep:
            fields[key.strip()] = rest.strip()
    return fields


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


class Cli(Workload):
    """One fresh ``snakefact`` process per op, cycling through six subcommands."""

    name = "cli"
    root_layer = "cli"
    reference_nominal_s = 0.050
    num_tol = 1e-15
    rule_tol = 1e-12

    def __init__(self, seed):
        super().__init__(seed)
        self.env = child_env()
        # The exactness suite draws no random cases, so its reference is
        # computed once here rather than after every verify op, with the
        # size the command line uses by default.
        n = sf_cli.build_argument_parser().parse_args(["verify"]).n
        self.verify_reference = {
            r.case: r.defect for r in sf_verify.run_suites(["exactness"], seed=sf_cli.DEFAULT_SEED, n=n)
        }

    def inputs(self, i):
        rng = self.rng(i)
        kind = CLI_ORDER[(0 if i is None else i) % len(CLI_ORDER)]
        if kind == "build":
            exps, lo, hi = [0], 0, 0
            for b in random_bits(rng, 15):
                if b:
                    lo -= 1
                    exps.append(lo)
                else:
                    hi += 1
                    exps.append(hi)
            return kind, ["build", "--monomials", ",".join(map(str, exps))], {"exps": exps}
        if kind == "entry":
            m = 24
            bits, alphas = random_bits(rng, m), random_alphas(rng, m + 1, 0.05, 0.8)
            i_, j_ = (int(x) for x in rng.integers(0, m + 1, size=2))
            argv = ["entry", "--s", ",".join(map(str, bits)), f"--alphas={_csv_complex(alphas)}",
                    "--i", str(i_), "--j", str(j_)]
            return kind, argv, {"bits": bits, "alphas": alphas, "i": i_, "j": j_}
        if kind == "bandwidth":
            bits = random_bits(rng, 64)
            return kind, ["bandwidth", "--s", ",".join(map(str, bits))], {"bits": bits}
        if kind == "expand":
            n = 32
            bits, alphas = random_bits(rng, n - 1), random_alphas(rng, n, 0.05, 0.8)
            argv = ["expand", "--s", ",".join(map(str, bits)), f"--alphas={_csv_complex(alphas)}",
                    "--n", str(n), "--format", "csv"]
            return kind, argv, {"bits": bits, "alphas": alphas, "n": n}
        if kind == "quadrature":
            prefix = random_alphas(rng, 6, 0.0, 0.6)
            measure = json.dumps({"type": "bernstein-szego", "alphas": [[a.real, a.imag] for a in prefix]})
            argv = ["quadrature", "--measure", measure, "--n", "12", "--verify", "--format", "json"]
            return kind, argv, {"prefix": prefix, "n": 12}
        return kind, ["verify", "--suite", "exactness"], {}

    def reference(self) -> None:
        """A bare interpreter start: the process-level work a CLI op begins with."""
        subprocess.run([sys.executable, "-c", "pass"], capture_output=True, env=self.env, timeout=CLI_TIMEOUT)

    def op(self, inp):
        _, argv, _ = inp
        return subprocess.run(
            [sys.executable, "-c", CLI_CODE, *argv],
            capture_output=True, text=True, env=self.env, timeout=CLI_TIMEOUT,
        )

    def check(self, inp, proc):
        kind, _, ref = inp
        _require(proc.returncode == 0, f"{kind}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        getattr(self, f"_check_{kind}")(proc.stdout, ref)

    def _check_build(self, stdout, ref):
        gen = sf.shape_from_monomials(ref["exps"])
        snake = sf.SnakeFactorization(sf.SchurSequence([0.0] * (len(gen) + 1)), gen)
        fields = _text_fields(stdout)
        want = {"s": gen.bits, "p": gen.p, "left": snake.left_order, "right": snake.right_order}
        for key, value in want.items():
            _require(_ints(fields.get(key, "")) == list(value), f"build: {key} differs")

    def _check_entry(self, stdout, ref):
        snake = sf.SnakeFactorization(sf.SchurSequence(ref["alphas"]), sf.GeneratingSequence(ref["bits"]))
        want = sf.entry(snake, ref["i"], ref["j"])
        match = re.search(r"value: \[(\S+), (\S+)\]", stdout)
        _require(match is not None, "entry: no value line")
        got = complex(float(match.group(1)), float(match.group(2)))
        _require(abs(got - want) <= self.num_tol, f"entry: {got} != {want}")

    def _check_bandwidth(self, stdout, ref):
        lower, upper = sf.bandwidths(sf.GeneratingSequence(ref["bits"]))
        fields = _text_fields(stdout)
        _require(fields.get("lower") == str(lower) and fields.get("upper") == str(upper), "bandwidth differs")

    def _check_expand(self, stdout, ref):
        n = ref["n"]
        snake = sf.SnakeFactorization(sf.SchurSequence(ref["alphas"]), sf.GeneratingSequence(ref["bits"]))
        want = sf.expand_dense(snake, n)
        rows = stdout.splitlines()
        _require(rows[0] == "i,j,re,im" and len(rows) == n * n + 1, "expand: malformed csv")
        got = np.empty((n, n), dtype=complex)
        for row in rows[1:]:
            i, j, re_, im_ = row.split(",")
            got[int(i), int(j)] = complex(float(re_), float(im_))
        defect = float(np.max(np.abs(got - want)))
        _require(defect <= self.num_tol, f"expand: csv differs by {defect:.3e}")

    def _check_quadrature(self, stdout, ref):
        n = ref["n"]
        table = sf.moments(sf.BernsteinSzego(ref["prefix"]), n + 1)
        snake = sf.SnakeFactorization(sf.schur_from_moments(table, n), sf.hessenberg_shape(n - 1))
        rule = sf.szego_quadrature(snake, n, 0.0)
        report = json.loads(stdout)
        nodes = np.array([complex(re_, im_) for re_, im_ in report["nodes"]])
        weights = np.array(report["weights"])
        _require(nodes.shape == rule.nodes.shape, "quadrature: wrong node count")
        defect = max(np.max(np.abs(nodes - rule.nodes)), np.max(np.abs(weights - rule.weights)))
        _require(defect <= self.rule_tol, f"quadrature: rule differs by {defect:.3e}")
        _require(report["exactness_defect"] <= 1e-9, f"quadrature: exactness {report['exactness_defect']:.3e}")

    def _check_verify(self, stdout, ref):
        cases = {}
        for line in stdout.splitlines():
            match = re.match(r"(\S+)\s+defect=(\S+) tol=\S+ (ok|FAIL)$", line)
            if match:
                _require(match.group(3) == "ok", f"verify: case {match.group(1)} failed")
                cases[match.group(1)] = float(match.group(2))
        _require(cases.keys() == self.verify_reference.keys(), "verify: case list differs")
        for case, defect in cases.items():
            want = self.verify_reference[case]
            # The table prints three significant digits.
            _require(abs(defect - want) <= 0.01 * want, f"verify: {case} defect {defect} != {want}")
        _require(stdout.rstrip().endswith("overall: PASS"), "verify: no PASS line")


WORKLOADS = {cls.name: cls for cls in (Rules, Expand, Validate, Cli)}
