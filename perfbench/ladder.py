"""Per-layer size ladder: each module's public functions, called directly.

    python3 perfbench/ladder.py --seed N

Sizes run n = 16 ... 1024 where feasible, so scaling shows and not one
point.  A rung is skipped, with its reason recorded, when the package
refuses the size (``eigen_unitary`` above 256), when a smaller rung was
refused, or when the cost extrapolated from the two rungs below exceeds
``CAP_S`` per call.  Rungs that back a named per-layer metric always run.

The last line printed is JSON: ``{"metrics": {...}, "rungs": [...]}``.
Inputs come from ``--seed`` through the workloads' own generators.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import time

from common import median, peak_rss_mb, run_python, time_batch, time_call

import numpy as np  # after common, which sets one BLAS thread

import snakefact as sf
from snakefact import cli as sf_cli
from snakefact import verify as sf_verify

import workloads

SIZES = (16, 32, 64, 128, 256, 512, 1024)
CAP_S = 1.0
PHI_POINTS = 4096
PROCESS_REPS = 5
EIGEN_SHARE_REPS = 5
GERONIMUS_FAIL_A = 0.5
GERONIMUS_FAIL_JMAX = 12
GERONIMUS_FAIL_TIMEOUT = 60.0


class Ladder:
    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.rungs: list[dict] = []

    def climb(self, name: str, sizes, make, named: dict[int, str], size_key: str = "n") -> dict[int, float]:
        """Time ``make(n)()`` up the sizes; return measured seconds by size.

        ``make(n)`` prepares inputs outside the timing and returns the call
        to time.  A ``ValueError`` from either is the package refusing the
        size; a ``NumericalError`` is the package failing at it.
        """
        measured: dict[int, float] = {}
        stop = None
        for n in sizes:
            reason = stop
            if reason is None and n not in named:
                predicted = _extrapolate(measured, n)
                if predicted > CAP_S:
                    reason = f"extrapolated {predicted:.3g} s per call exceeds the {CAP_S} s cap"
            if reason is None:
                try:
                    seconds, reps = time_call(make(n))
                except (ValueError, sf.NumericalError) as exc:
                    reason = stop = f"{type(exc).__name__} at {size_key}={n}: {exc}"
            if reason is not None:
                self.rungs.append({"name": name, size_key: n, "skipped": reason})
                print(f"  {name:<44} {size_key}={n:<5} skipped: {reason}")
                continue
            measured[n] = seconds
            self.rungs.append({"name": name, size_key: n, "seconds": seconds, "reps": reps})
            print(f"  {name:<44} {size_key}={n:<5} {seconds * 1e3:10.3f} ms  ({reps} reps)")
            if n in named:
                self.metrics[named[n]] = seconds * 1e3
        return measured

    def record(self, metric: str, value: float, detail: str = "") -> None:
        self.metrics[metric] = value
        print(f"  {metric:<52} {value:.6g} {detail}")


def _extrapolate(measured: dict[int, float], n: int) -> float:
    """Cost at n from the last two rungs' growth exponent, clamped to [1, 4]."""
    if not measured:
        return 0.0
    sizes = sorted(measured)
    top = sizes[-1]
    power = 3.0
    if len(sizes) >= 2:
        low = sizes[-2]
        power = math.log(measured[top] / measured[low]) / math.log(top / low)
        power = min(max(power, 1.0), 4.0)
    return measured[top] * (n / top) ** power


def _snake(rng, n: int, bits) -> sf.SnakeFactorization:
    alphas = workloads.random_alphas(rng, len(bits) + 1, 0.05, 0.8)
    return sf.SnakeFactorization(sf.SchurSequence(alphas), sf.GeneratingSequence(bits))


def _shape_bits(rng, kind: str, m: int):
    if kind == "hessenberg":
        return [0] * m
    if kind == "cmv":
        return list(sf.cmv_shape(m).bits)
    return workloads.random_bits(rng, m)


def schur_layer(ladder: Ladder, rng) -> None:
    z = np.exp(2j * np.pi * np.arange(PHI_POINTS) / PHI_POINTS)

    def make(n):
        schur = sf.SchurSequence(workloads.random_alphas(rng, n, 0.05, 0.8))
        return lambda: sf.evaluate_phi(schur, n, z)

    ladder.climb("schur.evaluate_phi", SIZES, make,
                 {64: "schur.evaluate_phi.n64_ms", 256: "schur.evaluate_phi.n256_ms"})


def snake_layer(ladder: Ladder, rng) -> None:
    for kind in ("hessenberg", "cmv", "random"):
        def make(n, kind=kind):
            snake = _snake(rng, n, _shape_bits(rng, kind, n))
            return lambda: sf.materialize_window(snake, n)

        named = {256: f"snake.materialize_window.{kind}.n256_ms"}
        if kind == "random":
            named[1024] = "snake.materialize_window.random.n1024_ms"
        ladder.climb(f"snake.materialize_window.{kind}", SIZES, make, named)
    snake = _snake(rng, 256, workloads.random_bits(rng, 256))
    ladder.record("snake.factor_us", 1e6 * time_batch(lambda: snake.factor(128), 2000))


def quadrature_layer(ladder: Ladder, rng) -> None:
    def snake_for(n):
        return _snake(rng, n, workloads.random_bits(rng, n - 1))

    def make_truncate(n):
        snake = snake_for(n)
        return lambda: sf.truncate_para_unitary(snake, n, 0.5)

    def make_eigen(n):
        if n > 256:
            # The refusal is a size check; an identity matrix reaches it
            # without paying for a large truncation first.
            matrix = np.eye(n, dtype=complex)
        else:
            matrix = sf.truncate_para_unitary(snake_for(n), n, 0.5).matrix
        return lambda: sf.eigen_unitary(matrix)

    def make_szego(n):
        snake = snake_for(n)
        return lambda: sf.szego_quadrature(snake, n, 0.5)

    ladder.climb("quadrature.truncate_para_unitary", SIZES, make_truncate,
                 {64: "quadrature.truncate_para_unitary.n64_ms",
                  256: "quadrature.truncate_para_unitary.n256_ms"})
    ladder.climb("quadrature.eigen_unitary", SIZES, make_eigen,
                 {64: "quadrature.eigen_unitary.n64_ms", 256: "quadrature.eigen_unitary.n256_ms"})
    ladder.climb("quadrature.szego_quadrature", SIZES, make_szego,
                 {16: "quadrature.szego_quadrature.n16_ms",
                  64: "quadrature.szego_quadrature.n64_ms",
                  256: "quadrature.szego_quadrature.n256_ms"})

    # The share times both calls on one input, alternately, so that the
    # machine's speed changes between the two climbs do not enter it.
    n = 256
    snake = snake_for(n)
    matrix = sf.truncate_para_unitary(snake, n, 0.5).matrix
    eigen, szego = [], []
    for _ in range(EIGEN_SHARE_REPS):
        eigen.append(time_batch(lambda: sf.eigen_unitary(matrix), 1, reps=1))
        szego.append(time_batch(lambda: sf.szego_quadrature(snake, n, 0.5), 1, reps=1))
    ladder.record("quadrature.eigen_share.n256", median(eigen) / median(szego), "(eigen_unitary / szego_quadrature)")


def expand_layer(ladder: Ladder, rng, seed: int) -> None:
    for kind in ("hessenberg", "cmv", "random"):
        def make(n, kind=kind):
            snake = _snake(rng, n, _shape_bits(rng, kind, n))
            return lambda: sf.expand_dense(snake, n)

        named = {n: f"expand.expand_dense.{kind}.n{n}_ms" for n in (32, 96, 256)}
        ladder.climb(f"expand.expand_dense.{kind}", (16, 32, 64, 96, 128, 256, 512, 1024), make, named)

    m = 1024
    snake = _snake(rng, m, [0] * m)
    near = []
    for i in rng.integers(0, m + 1, size=256):
        j = int(np.clip(i + rng.integers(-3, 4), 0, m))
        near.append((int(i), j))
    far = []
    for i in rng.integers(0, m - 255, size=256):
        far.append((int(i), int(rng.integers(i + 256, m + 1))))
    for label, pairs in (("near", near), ("far", far)):
        batch = time_batch(lambda pairs=pairs: [sf.entry(snake, i, j) for i, j in pairs], 1)
        ladder.record(f"expand.entry.{label}_us", 1e6 * batch / len(pairs), "(Hessenberg shape, m=1024)")
    gen = sf.GeneratingSequence(workloads.random_bits(rng, m))
    ladder.record("expand.bandwidths.m1024_us", 1e6 * time_batch(lambda: sf.bandwidths(gen), 200))

    # Exact counts over the expand workload's first ops, so they repeat.
    work = workloads.Expand(seed)
    entries = nonzero = 0
    ops = 8
    for i in range(ops):
        for block in work.op(work.inputs(i)).values():
            entries += block.size
            nonzero += int(np.count_nonzero(block))
    ladder.record("expand.entries_per_op", entries / ops)
    ladder.record("expand.nonzero_share", nonzero / entries, f"(first {ops} expand ops)")


def oracle_layer(ladder: Ladder, rng, seed: int) -> None:
    validate = workloads.Validate(seed).inputs(0)
    families = {
        "lebesgue": sf.Lebesgue(),
        "grid": sf.GridMeasure(*validate["grid"]),
        "bernstein_szego": sf.BernsteinSzego(validate["prefix"]),
    }
    for name, measure in families.items():
        ladder.climb(f"oracle.moments.{name}", (18,) + SIZES, lambda j, m=measure: (lambda: sf.moments(m, j)),
                     {18: f"oracle.moments.{name}.jmax18_ms"}, size_key="jmax")
    ladder.climb("oracle.moments.geronimus", (12,),
                 lambda j: (lambda: sf.moments(sf.Geronimus(validate["a"]), j)),
                 {12: "oracle.moments.geronimus.jmax12_ms"}, size_key="jmax")
    # Larger ranges are not run: the trapezoid ladder's cost jumps with the
    # grid level rather than growing smoothly, so the cap's extrapolation
    # cannot guard it.  The failing case below shows where it ends.
    ladder.rungs.append({"name": "oracle.moments.geronimus", "jmax": 16,
                         "skipped": "not run: the grid-refinement cost jumps by grid level; "
                                    "see oracle.moments.geronimus_fail"})
    geronimus_fail(ladder)

    bs = families["bernstein_szego"]

    def make_sfm(n):
        table = sf.moments(bs, n + 2)
        return lambda: sf.schur_from_moments(table, n)

    def make_mm(n):
        table = sf.moments(bs, n + 2)
        gen = sf.GeneratingSequence(workloads.random_bits(rng, n - 1))
        return lambda: sf.multiplication_matrix(table, gen, n)

    ladder.climb("oracle.schur_from_moments", SIZES, make_sfm,
                 {16: "oracle.schur_from_moments.n16_ms", 32: "oracle.schur_from_moments.n32_ms"})
    ladder.climb("oracle.multiplication_matrix", SIZES, make_mm,
                 {16: "oracle.multiplication_matrix.n16_ms", 32: "oracle.multiplication_matrix.n32_ms"})


GERONIMUS_FAIL_CODE = f"""
import json, resource, time
t0 = time.perf_counter()
import snakefact as sf
t1 = time.perf_counter()
try:
    sf.moments(sf.Geronimus({GERONIMUS_FAIL_A}), {GERONIMUS_FAIL_JMAX})
    error = None
except sf.ConvergenceError as exc:
    error = str(exc)
print(json.dumps({{"seconds": time.perf_counter() - t1, "error": error,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def geronimus_fail(ladder: Ladder) -> None:
    """The README's Geronimus(0.5) case at jmax 12, in its own process.

    It fails today (ROADMAP item 2) after many seconds and about 1 GB of
    RSS.  It is measured here rather than as a validate op because one such
    op would set that workload's run time and peak RSS by itself; counting
    it as failed keeps the defect visible until it is fixed.
    """
    proc = run_python(["-c", GERONIMUS_FAIL_CODE], timeout=GERONIMUS_FAIL_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"geronimus_fail probe exited {proc.returncode}: {proc.stderr[-300:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    failed = 1 if out["error"] is not None else 0
    ladder.record("oracle.moments.geronimus_fail.jmax12_s", out["seconds"], f"({out['error'] or 'converged'})")
    ladder.record("oracle.moments.geronimus_fail.failed", failed)
    ladder.record("oracle.moments.geronimus_fail.peak_rss_mb", out["peak_rss_mb"])


def verify_layer(ladder: Ladder) -> None:
    # The command line's default seed: the cost a bare ``snakefact verify``
    # pays.  The round-trip suite's cost moves tenfold with its random cases.
    for suite in sf_verify.SUITES:
        seconds, reps = time_call(lambda s=suite: sf_verify.run_suites([s], seed=sf_cli.DEFAULT_SEED),
                                  min_seconds=0.0)
        ladder.record(f"verify.run_suites.{suite}_ms", seconds * 1e3, f"({reps} reps)")


IMPORT_PROBE = (
    "import sys, time, json; before = set(sys.modules); t0 = time.perf_counter(); import snakefact; "
    "print(json.dumps({'seconds': time.perf_counter() - t0, 'modules': len(set(sys.modules) - before)}))"
)


def _python_wall(args) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = run_python(args, timeout=60.0)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr[-300:]}")
    return wall, proc


IMPORTTIME_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def _scipy_import_ms(stderr: str) -> float:
    """Cumulative import time of the outermost scipy imports, in ms.

    Cumulative times include what scipy pulls in from outside its own
    package, which a lazy scipy import would save too.  ``-X importtime``
    prints a module after its children, indented two spaces per level, so
    a scipy module is outermost when the next less-indented line, its
    parent, is not a scipy module.
    """
    entries = [(len(m.group(2)), m.group(3), int(m.group(1))) for m in IMPORTTIME_LINE.finditer(stderr)]
    total_us = 0
    for k, (depth, name, cumulative) in enumerate(entries):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((n for d, n, _ in entries[k + 1:] if d < depth), "")
        if parent.split(".")[0] != "scipy":
            total_us += cumulative
    return total_us / 1e3


def cli_layer(ladder: Ladder, seed: int) -> None:
    ladder.record("cli.interpreter_ms", 1e3 * median(_python_wall(["-c", "pass"])[0] for _ in range(PROCESS_REPS)))
    probes = [json.loads(_python_wall(["-c", IMPORT_PROBE])[1].stdout) for _ in range(PROCESS_REPS)]
    ladder.record("cli.import_ms", 1e3 * median(p["seconds"] for p in probes))
    modules = {p["modules"] for p in probes}
    if len(modules) != 1:
        raise RuntimeError(f"module count differs between fresh imports: {sorted(modules)}")
    ladder.record("cli.import_modules", float(modules.pop()))
    scipy_ms = [
        _scipy_import_ms(_python_wall(["-X", "importtime", "-c", "import snakefact"])[1].stderr)
        for _ in range(3)
    ]
    ladder.record("cli.import.scipy_ms", median(scipy_ms))

    cli = workloads.Cli(seed)
    for i, kind in enumerate(workloads.CLI_ORDER):
        _, argv, _ = cli.inputs(i)

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = sf_cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli.main {kind} returned {code}")

        seconds, reps = time_call(call)
        ladder.record(f"cli.main.{kind}_ms", seconds * 1e3, f"({reps} reps)")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    rng = np.random.default_rng([args.seed, 2])
    ladder = Ladder()
    t0 = time.perf_counter()
    schur_layer(ladder, rng)
    snake_layer(ladder, rng)
    quadrature_layer(ladder, rng)
    expand_layer(ladder, rng, args.seed)
    oracle_layer(ladder, rng, args.seed)
    verify_layer(ladder)
    cli_layer(ladder, args.seed)
    print(f"  ladder took {time.perf_counter() - t0:.1f} s, peak RSS {peak_rss_mb():.0f} MB")
    print(json.dumps({"metrics": ladder.metrics, "rungs": ladder.rungs}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
