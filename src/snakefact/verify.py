"""Batch invariant suites behind the command line verifier.

Each suite takes the keywords (seed, m, n, schur, measures), ignores those
it does not use, and yields (case, defect, tolerance) for each of its cases;
``run_suites`` records each as an ``errors.CaseResult`` under the suite's
name, the record whose test ``errors.check`` applies, and a case passes
when its defect is within tolerance.  Each suite that draws random cases
seeds its own generator from ``seed``, so runs are reproducible (the CLI
takes the seed from SNAKE_SEED) and a suite that draws nothing never loads
``numpy.random``.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import MAX_SIZE, SUITE_NAMES, CaseResult, NumericalError, int_argument, unitarity_defect
from .expand import expand_dense
from .oracle import (
    BernsteinSzego,
    Lebesgue,
    moments,
    multiplication_matrix,
    schur_from_moments,
)
from .quadrature import (
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
_MAX_UNITARITY_BITS = MAX_SIZE - 1
# The suites that read n and a measure; only the unitarity suite reads alphas.
_MEASURE_SUITES = ("oracle-equivalence", "exactness")


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


def _rule_defect(seq: SchurSequence, n: int, theta: float, measure) -> float:
    """``measure(rule)`` for the n-point rule of ``seq`` at ``theta``.

    A rule, or a reference inside ``measure``, that fails its contract has
    an infinite defect.
    """
    try:
        return measure(szego_quadrature(seq, n, theta))
    except NumericalError:
        return float("inf")


def _eigen_gap(matrix: np.ndarray, rule) -> float:
    """Largest node or weight gap between the rule and the eigenpairs of a truncation.

    The rule reads no shape, so this ties it to each snake's own truncation.
    The eigenpairs come from ``eigen_unitary``, NumPy's general eigensolver
    and one QR on the dense truncation, which shares no Cayley code with
    the rule's pencil pass.
    """
    values, vecs = eigen_unitary(matrix)
    order = np.argsort(_principal_argument(values), kind="stable")
    node_gap = np.max(np.abs(rule.nodes - values[order]))
    return float(max(node_gap, np.max(np.abs(rule.weights - np.abs(vecs[0, order]) ** 2))))


def suite_unitarity(seed, m=None, n=None, schur=None, measures=None):
    rng = np.random.default_rng(seed)
    m = len(schur) - 1 if schur is not None else 12 if m is None else m
    for name, gen in _shape_set(rng, m).items():
        seq = schur if schur is not None else _random_schur(rng, m + 1)
        snake = SnakeFactorization(seq, gen)
        yield f"window/{name}/m={m}", unitarity_defect(materialize_window(snake, m)), 1e-13
        for size in sorted({max(2, (m + 1) // 2), m + 1}):
            for theta in (0.0, 0.7):
                truncation = truncate_para_unitary(snake, size, theta)
                gap = _rule_defect(seq, size, theta, lambda rule: _eigen_gap(truncation.matrix, rule))
                case = f"{name}/n={size}/theta={theta}"
                yield f"truncation/{case}", truncation.defect, 1e-12
                yield f"rule/{case}", gap, 1e-12


def suite_oracle_equivalence(seed, m=None, n=None, schur=None, measures=None):
    nmax = 8 if n is None else n
    measures = measures or _default_measures()
    shapes = _shape_set(np.random.default_rng(seed), nmax, extra=2)
    for mname, measure in measures.items():
        table = moments(measure, nmax + 1)
        seq = schur_from_moments(table, nmax + 1)
        for sname, gen in shapes.items():
            snake = SnakeFactorization(seq, gen)
            want = multiplication_matrix(table, gen, nmax + 1)
            got = expand_dense(snake, nmax + 1)
            yield f"{mname}/{sname}", float(np.max(np.abs(want - got))), 1e-9


def suite_bandwidth(seed, m=None, n=None, schur=None, measures=None):
    m = 8 if m is None else m
    for bits in itertools.product((0, 1), repeat=m):
        gen = GeneratingSequence(bits)
        structural = bandwidths(gen)
        measured = measured_bandwidths(gen)
        defect = float(max(abs(s - t) for s, t in zip(structural, measured)))
        label = "".join(map(str, bits))
        yield f"{label} structural={structural} measured={measured}", defect, 0.0


def suite_round_trip(seed, m=None, n=None, schur=None, measures=None):
    rng = np.random.default_rng(seed)
    for length in (4, 8, 12):
        seq = _random_schur(rng, length, lo=0.1, hi=0.9)
        table = moments(BernsteinSzego(seq), length + 1)
        recovered = schur_from_moments(table, length)
        defect = float(np.max(np.abs(np.subtract(recovered.alphas, seq.alphas))))
        yield f"length={length}", defect, 1e-8


def suite_exactness(seed, m=None, n=None, schur=None, measures=None):
    sizes = (4, 8) if n is None else (n,)
    measures = measures or _default_measures()
    for mname, measure in measures.items():
        table = moments(measure, max(sizes) - 1)
        for size in sizes:
            seq = schur_from_moments(table, size - 1)
            for theta in (0.0, 0.7):
                defect = _rule_defect(seq, size, theta, lambda rule: exactness_defect(rule, table))
                yield f"{mname}/n={size}/theta={theta}", defect, 1e-9


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
    """Run the named suites (all by default) and return their case results.

    ``schur`` is read by the unitarity suite and ``measure`` by the
    oracle-equivalence and exactness suites; a source that no named suite
    reads raises ``ValueError`` rather than being ignored.  Every size is
    checked by ``int_argument`` before any suite work, each cap under the
    name of the suite that sets it: the bandwidth suite's m is at most 16
    and the unitarity suite's, from ``m`` or fixed by ``schur``, at most
    ``MAX_SIZE - 1``, as in "the bandwidth suite's m = 17 exceeds the
    supported 16".
    """
    names = list(names) if names else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    for source, given, readers in (
        ("a Schur sequence (--alphas)", schur, ("unitarity",)),
        ("a measure (--measure)", measure, _MEASURE_SUITES),
    ):
        if given is not None and not set(readers).intersection(names):
            raise ValueError(f"{source} is read only by {' and '.join(readers)}; the selected "
                             f"suites ({', '.join(names)}) would ignore it")
    m = None if m is None else int_argument("m", m, 1)
    if n is not None:
        n = _rule_size(n) if set(_MEASURE_SUITES).intersection(names) else int_argument("n", n, 2)
    if "bandwidth" in names and m is not None:
        int_argument("the bandwidth suite's m", m, 1, _MAX_BANDWIDTH_BITS)
    if schur is not None and len(schur) < 2:
        raise ValueError(f"alphas give {len(schur)} Schur parameter(s); the suites need at least 2")
    if schur is not None and m is not None and m != len(schur) - 1:
        raise ValueError(
            f"m = {m} disagrees with the {len(schur)} alphas given, which fix m = {len(schur) - 1}"
        )
    unitarity_m = len(schur) - 1 if schur is not None else m
    if "unitarity" in names and unitarity_m is not None:
        int_argument("the unitarity suite's m", unitarity_m, 1, _MAX_UNITARITY_BITS)
    measures = {"measure": measure} if measure is not None else None
    return [CaseResult(name, *case) for name in names for case in
            SUITES[name](seed, m=m, n=n, schur=schur, measures=measures)]
