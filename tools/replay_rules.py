"""Replay seeded Szego rules and record their outputs as sha256 digests.

Three kinds of output are recorded:

- ``pencil``: ``szego_quadrature`` on 24 draws that its Cayley pencil pass
  accepts, n in {2, 3, 16, 17, 64, 256} over four parameter families with
  |alpha| in [0.05, 0.8]; the digest of ``nodes.tobytes() +
  weights.tobytes()``.
- ``general``: the general eigensolver and QR, ``quadrature._general_pairs``,
  on the dense alternating truncation L M of four small draws; the digest
  of ``values.tobytes() + vecs.tobytes()``.
- ``refusal``: the exact message of the n = 192 rule with |alpha| uniform
  in [0.99, 0.999], which neither route can return because 0 is the
  nearest float64 to some of its weights.

    python tools/replay_rules.py [OUT]

writes them as JSON to OUT, by default tests/golden/rules.json, which
``tests/test_rule_replay.py`` compares against.  The digests pin every bit,
so a NumPy or LAPACK build that rounds differently changes them: regenerate
the file when that, and nothing else, is the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "rules.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import parameter_family  # noqa: E402
from snakefact.errors import NumericalError  # noqa: E402
from snakefact.quadrature import (  # noqa: E402
    _corner_blocks,
    _general_pairs,
    _half_product,
    szego_quadrature,
)
from snakefact.schur import SchurSequence  # noqa: E402

PENCIL_SIZES = (2, 3, 16, 17, 64, 256)
FAMILIES = ("complex", "real", "imaginary", "third_zero")
GENERAL_SIZES = (2, 3, 5, 8)
REFUSAL_SIZE = 192


def _digest(*arrays: np.ndarray) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def pencil_draw(n: int, family: str):
    """(Schur sequence, theta) of the n-point pencil case of ``family``."""
    rng = np.random.default_rng([n, FAMILIES.index(family)])
    alphas = parameter_family(rng, family, n - 1, 0.05, 0.8)
    return SchurSequence(alphas), float(rng.uniform(-np.pi, np.pi))


def general_matrix(n: int) -> np.ndarray:
    """The dense alternating truncation L M of an n-point draw, as the rule's fallback builds it."""
    rng = np.random.default_rng([n, 100])
    schur = SchurSequence(parameter_family(rng, "complex", n - 1, 0.05, 0.95))
    _, blocks = _corner_blocks(schur, n, float(rng.uniform(-np.pi, np.pi)))
    return _half_product(blocks, 1, _half_product(blocks, 0, np.eye(n, dtype=complex)))


def refusal_draw():
    """The n = 192 Schur sequence with |alpha| in [0.99, 0.999]; its rule at theta = 0.3 is refused."""
    rng = np.random.default_rng([REFUSAL_SIZE, 0])
    return SchurSequence(parameter_family(rng, "complex", REFUSAL_SIZE, 0.99, 0.999))


def refusal_message() -> str:
    try:
        szego_quadrature(refusal_draw(), REFUSAL_SIZE, 0.3)
    except NumericalError as exc:
        return str(exc)
    raise AssertionError(f"the n = {REFUSAL_SIZE} rule was not refused")


def pencil_digest(n: int, family: str) -> str:
    schur, theta = pencil_draw(n, family)
    rule = szego_quadrature(schur, n, theta)
    return _digest(rule.nodes, rule.weights)


def general_digest(n: int) -> str:
    values, vecs, _, _ = _general_pairs(general_matrix(n))
    return _digest(values, vecs)


def replay() -> dict:
    """The recorded outputs, keyed as in the JSON file."""
    return {
        "pencil": {f"n={n} {f}": pencil_digest(n, f) for n in PENCIL_SIZES for f in FAMILIES},
        "general": {f"n={n}": general_digest(n) for n in GENERAL_SIZES},
        "refusal": refusal_message(),
    }


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else GOLDEN
    out.write_text(json.dumps(replay(), indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
