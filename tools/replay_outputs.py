"""Replay the path-rule expansion and the moment oracle and record their outputs.

Three kinds of output are recorded:

- ``expand``: ``expand_dense`` of an n x n block for the Hessenberg, CMV
  and a random shape of n bits, n in {1, 2, 17, 96}, with n + 1 Schur
  parameters of |alpha| in [0.05, 0.8]; the sha256 digest of the matrix.
- ``oracle``: for the Lebesgue, a Bernstein-Szego, the Geronimus(0.3) and
  a grid measure, the digests of ``moments`` to jmax = 16, of the
  parameters ``schur_from_moments`` reads from them at n = 16, and of the
  16 x 16 ``multiplication_matrix`` on a random shape.
- ``entry``: the digest of the reprs of every ``entry`` (i, j) with
  0 <= i, j <= 17 on the three kinds of shape.  Its parameters are drawn
  by Python's ``random`` and ``entry`` multiplies Python complex numbers,
  so this section involves no NumPy or LAPACK build.

    python tools/replay_outputs.py [OUT]

writes them as JSON to OUT, by default tests/golden/outputs.json, which
``tests/test_output_replay.py`` compares against.  The ``expand`` and
``oracle`` digests pin every bit, so a NumPy or LAPACK build that rounds
differently changes them: regenerate the file when that, and nothing else,
is the change.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import parameter_family  # noqa: E402
from replay_rules import _digest  # noqa: E402
from snakefact.expand import entry, expand_dense  # noqa: E402
from snakefact.oracle import (  # noqa: E402
    BernsteinSzego,
    Geronimus,
    GridMeasure,
    Lebesgue,
    moments,
    multiplication_matrix,
    schur_from_moments,
)
from snakefact.schur import SchurSequence  # noqa: E402
from snakefact.snake import GeneratingSequence, SnakeFactorization, cmv_shape, hessenberg_shape  # noqa: E402

EXPAND_SIZES = (1, 2, 17, 96)
SHAPES = ("hessenberg", "cmv", "random")
FAMILIES = ("lebesgue", "bernstein-szego", "geronimus", "grid")
ORACLE_SIZE = 16
ENTRY_SIZE = 17


def _shape(kind: str, m: int, bits) -> GeneratingSequence:
    if kind == "random":
        return GeneratingSequence(bits)
    return cmv_shape(m) if kind == "cmv" else hessenberg_shape(m)


def expand_snake(n: int, kind: str) -> SnakeFactorization:
    """The snake of ``kind`` with n bits whose leading n x n block is recorded."""
    rng = np.random.default_rng([n, SHAPES.index(kind), 200])
    alphas = parameter_family(rng, "complex", n + 1, 0.05, 0.8)
    return SnakeFactorization(SchurSequence(alphas), _shape(kind, n, rng.integers(0, 2, size=n)))


def measure(family: str):
    """The measure of ``family``: a 6-parameter Bernstein-Szego prefix, a grid of 24 atoms."""
    rng = np.random.default_rng([ORACLE_SIZE, FAMILIES.index(family), 300])
    if family == "lebesgue":
        return Lebesgue()
    if family == "bernstein-szego":
        return BernsteinSzego(parameter_family(rng, "complex", 6, 0.0, 0.6))
    if family == "geronimus":
        return Geronimus(0.3)
    weights = rng.uniform(0.5, 1.5, 24)
    return GridMeasure(np.sort(rng.uniform(-np.pi, np.pi, 24)), weights / weights.sum())


def expand_digest(n: int, kind: str) -> str:
    return _digest(expand_dense(expand_snake(n, kind), n))


def oracle_digests(family: str) -> dict:
    """Digests of the moment table, the recovered parameters and the multiplication matrix."""
    table = moments(measure(family), ORACLE_SIZE)
    gen = GeneratingSequence(np.random.default_rng([ORACLE_SIZE, 400]).integers(0, 2, ORACLE_SIZE))
    return {
        "moments": _digest(table._mu),
        "schur_from_moments": _digest(np.array(schur_from_moments(table, ORACLE_SIZE).alphas)),
        "multiplication_matrix": _digest(multiplication_matrix(table, gen, ORACLE_SIZE)),
    }


def entry_digest(kind: str) -> str:
    """Digest of the reprs of entries (i, j), 0 <= i, j <= 17, drawn and computed in pure Python."""
    rnd = random.Random(SHAPES.index(kind))
    alphas = [complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6)) for _ in range(ENTRY_SIZE + 1)]
    bits = [rnd.randrange(2) for _ in range(ENTRY_SIZE)]
    snake = SnakeFactorization(SchurSequence(alphas), _shape(kind, ENTRY_SIZE, bits))
    cells = range(ENTRY_SIZE + 1)
    text = "\n".join(repr(entry(snake, i, j)) for i in cells for j in cells)
    return hashlib.sha256(text.encode()).hexdigest()


def replay() -> dict:
    """The recorded outputs, keyed as in the JSON file."""
    return {
        "expand": {f"n={n} {k}": expand_digest(n, k) for n in EXPAND_SIZES for k in SHAPES},
        "oracle": {f: oracle_digests(f) for f in FAMILIES},
        "entry": {k: entry_digest(k) for k in SHAPES},
    }


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else GOLDEN
    out.write_text(json.dumps(replay(), indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
