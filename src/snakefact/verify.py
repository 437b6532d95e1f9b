"""Batch invariant suites behind the command line verifier.

Each suite takes the keywords (rng, m, n, schur, measures), ignores those it
does not use, and returns a list of CaseResult records; a case passes when
its defect is within tolerance.  All randomness flows through one seeded
generator so runs are reproducible (the CLI seeds it from SNAKE_SEED).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SUITE_NAMES, NumericalError, int_argument, unitarity_defect
from .expand import expand_dense
from .oracle import (
    BernsteinSzego,
    Lebesgue,
    moments,
    multiplication_matrix,
    schur_from_moments,
)
from .quadrature import (
    _MAX_EIG_SIZE,
    _principal_argument,
    _rule_size,
    eigen_unitary,
    exactness_defect,
    szego_quadrature,
    truncate_para_unitary,
)
from .schur import SchurSequence
from .shape import GeneratingSequence, bandwidths, cmv_shape, hessenberg_shape
from .snake import SnakeFactorization, materialize_window

__all__ = ["CaseResult", "SUITES", "run_suites", "measured_bandwidths"]

# The bandwidth suite enumerates all 2^m shapes, so its time grows 4x for
# every two bits: about 3 s at m = 14, and m = 40 would never return.
_MAX_BANDWIDTH_BITS = 16
# The unitarity suite's largest truncation, of size m + 1, must be a
# supported rule size.
_MAX_UNITARITY_BITS = _MAX_EIG_SIZE - 1


@dataclass
class CaseResult:
    """One case of a suite: its measured defect and the tolerance it must meet."""

    suite: str
    case: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


def _random_shape(rng, m: int) -> GeneratingSequence:
    return GeneratingSequence(rng.integers(0, 2, size=m))


def _random_schur(rng, count: int, lo: float = 0.05, hi: float = 0.8) -> SchurSequence:
    mods = rng.uniform(lo, hi, size=count)
    args = rng.uniform(-np.pi, np.pi, size=count)
    return SchurSequence(mods * np.exp(1j * args))


def _shape_set(rng, m: int, extra: int = 3) -> dict[str, GeneratingSequence]:
    shapes = {"hessenberg": hessenberg_shape(m), "cmv": cmv_shape(m)}
    for i in range(extra):
        shapes[f"random-{i}"] = _random_shape(rng, m)
    return shapes


def _default_measures() -> dict[str, object]:
    return {
        "lebesgue": Lebesgue(),
        "bernstein-szego-1": BernsteinSzego([0.6]),
        "bernstein-szego-3": BernsteinSzego([0.5, -0.4j, 0.2]),
    }


def measured_bandwidths(gen: GeneratingSequence, schur: SchurSequence | None = None):
    """(lower, upper) bandwidths read off the Givens product itself.

    The nonzeros come from the dense window of the factors, which never
    consults the path rule or the shape's row profile, so the suite checks
    ``bandwidths`` against an independent reference.  The window must reach
    index m + 1 so that the extreme of every run of stored bits is
    observable; one extra shape bit and parameter are appended for that
    purpose, and the window's truncated last row and column are cut off.
    """
    m = len(gen)
    if schur is None:
        alphas = [0.4 * np.exp(0.7j * k) for k in range(m + 2)]
    else:
        alphas = list(schur.alphas) + [0.4]
    extended = SnakeFactorization(SchurSequence(alphas), GeneratingSequence(gen.bits + (0,)))
    rows, cols = np.nonzero(materialize_window(extended, m + 1)[: m + 2, : m + 2])
    return int((rows - cols).max(initial=0)), int((cols - rows).max(initial=0))


def _rule_defect(seq: SchurSequence, matrix: np.ndarray, theta: float) -> float:
    """Largest node or weight gap between the rule and the eigenpairs of a truncation.

    The rule reads no shape, so this ties it to each snake's own truncation;
    a rule or an eigensolve that fails its contract has an infinite defect.
    The eigenpairs come from ``eigen_unitary``, NumPy's general eigensolver
    and one QR on the dense truncation, which shares no Cayley code with
    the rule's pencil pass.
    """
    try:
        rule = szego_quadrature(seq, len(matrix), theta)
        values, vecs = eigen_unitary(matrix)
    except NumericalError:
        return float("inf")
    order = np.argsort(_principal_argument(values), kind="stable")
    node_gap = np.max(np.abs(rule.nodes - values[order]))
    return float(max(node_gap, np.max(np.abs(rule.weights - np.abs(vecs[0, order]) ** 2))))


def suite_unitarity(rng, m=None, n=None, schur=None, measures=None):
    results = []
    m = len(schur) - 1 if schur is not None else 12 if m is None else m
    for name, gen in _shape_set(rng, m).items():
        seq = schur if schur is not None else _random_schur(rng, m + 1)
        snake = SnakeFactorization(seq, gen)
        defect = unitarity_defect(materialize_window(snake, m))
        results.append(CaseResult("unitarity", f"window/{name}/m={m}", defect, 1e-13))
        for size in sorted({max(2, (m + 1) // 2), m + 1}):
            for theta in (0.0, 0.7):
                truncation = truncate_para_unitary(snake, size, theta)
                case = f"{name}/n={size}/theta={theta}"
                for kind, defect in (("truncation", truncation.defect),
                                     ("rule", _rule_defect(seq, truncation.matrix, theta))):
                    results.append(CaseResult("unitarity", f"{kind}/{case}", defect, 1e-12))
    return results


def suite_oracle_equivalence(rng, m=None, n=None, schur=None, measures=None):
    results = []
    nmax = 8 if n is None else n
    measures = measures or _default_measures()
    shapes = _shape_set(rng, nmax, extra=2)
    for mname, measure in measures.items():
        table = moments(measure, nmax + 1)
        seq = schur_from_moments(table, nmax + 1)
        for sname, gen in shapes.items():
            snake = SnakeFactorization(seq, gen)
            want = multiplication_matrix(table, gen, nmax + 1)
            got = expand_dense(snake, nmax + 1)
            defect = float(np.max(np.abs(want - got)))
            results.append(
                CaseResult("oracle-equivalence", f"{mname}/{sname}", defect, 1e-9)
            )
    return results


def suite_bandwidth(rng, m=None, n=None, schur=None, measures=None):
    results = []
    m = 8 if m is None else m
    for bits in itertools.product((0, 1), repeat=m):
        gen = GeneratingSequence(bits)
        structural = bandwidths(gen)
        measured = measured_bandwidths(gen)
        defect = float(
            max(abs(structural[0] - measured[0]), abs(structural[1] - measured[1]))
        )
        label = "".join(map(str, bits))
        results.append(
            CaseResult(
                "bandwidth",
                f"{label} structural={structural} measured={measured}",
                defect,
                0.0,
            )
        )
    return results


def suite_round_trip(rng, m=None, n=None, schur=None, measures=None):
    results = []
    for length in (4, 8, 12):
        seq = _random_schur(rng, length, lo=0.1, hi=0.9)
        table = moments(BernsteinSzego(seq), length + 1)
        recovered = schur_from_moments(table, length)
        defect = float(
            np.max(np.abs(np.asarray(recovered.alphas) - np.asarray(seq.alphas)))
        )
        results.append(CaseResult("round-trip", f"length={length}", defect, 1e-8))
    return results


def suite_exactness(rng, m=None, n=None, schur=None, measures=None):
    results = []
    sizes = (4, 8) if n is None else (n,)
    measures = measures or _default_measures()
    for mname, measure in measures.items():
        table = moments(measure, max(sizes) - 1)
        for size in sizes:
            seq = schur_from_moments(table, size - 1)
            for theta in (0.0, 0.7):
                case = f"{mname}/n={size}/theta={theta}"
                try:
                    defect = exactness_defect(szego_quadrature(seq, size, theta), table)
                except NumericalError:
                    defect = float("inf")
                results.append(CaseResult("exactness", case, defect, 1e-9))
    return results


SUITES = dict(zip(SUITE_NAMES, (suite_unitarity, suite_oracle_equivalence, suite_bandwidth,
                                 suite_round_trip, suite_exactness)))


def run_suites(
    names=None,
    seed: int = 0,
    m: int | None = None,
    n: int | None = None,
    schur: SchurSequence | None = None,
    measure=None,
):
    """Run the named suites (all by default) and return their case results."""
    names = list(names) if names else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    m = None if m is None else int_argument("m", m, 1)
    if n is not None:
        sized = {"oracle-equivalence", "exactness"}.intersection(names)
        n = _rule_size(n) if sized else int_argument("n", n, 2)
    if "bandwidth" in names and m is not None and m > _MAX_BANDWIDTH_BITS:
        raise ValueError(
            f"m = {m}; the bandwidth suite enumerates all 2^m shapes and takes "
            f"m <= {_MAX_BANDWIDTH_BITS}"
        )
    if schur is not None and len(schur) < 2:
        raise ValueError(f"alphas give {len(schur)} Schur parameter(s); the suites need at least 2")
    if schur is not None and m is not None and m != len(schur) - 1:
        raise ValueError(
            f"m = {m} disagrees with the {len(schur)} alphas given, which fix m = {len(schur) - 1}"
        )
    unitarity_m = len(schur) - 1 if schur is not None else m
    if "unitarity" in names and unitarity_m is not None and unitarity_m > _MAX_UNITARITY_BITS:
        raise ValueError(
            f"m = {unitarity_m}; the unitarity suite builds dense (m + 2)^2 windows and "
            f"takes m <= {_MAX_UNITARITY_BITS}"
        )
    measures = {"measure": measure} if measure is not None else None
    results: list[CaseResult] = []
    for name in names:
        rng = np.random.default_rng(seed)
        results += SUITES[name](rng, m=m, n=n, schur=schur, measures=measures)
    return results
