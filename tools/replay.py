"""Replay every public output of snakefact on seeded inputs and pin it bit for bit.

The corpus is one registry: each entry is a name and a call whose output,
as bytes, the corpus records.  Its ``pure`` section is computed in pure
Python and loads no NumPy:

- ``entry/<shape>``: the reprs of every ``entry`` (i, j), 0 <= i, j <= 17,
  on a Hessenberg, a CMV and a random shape, with parameters drawn by
  Python's ``random``;
- ``cli/<command> <format>``: exit code, stdout and stderr of an
  in-process ``snakefact build``, ``bandwidth`` and ``entry --alphas`` call
  in every format it offers, and ``cli/exit 2``, a call that exits 2.

Its ``platform`` section goes through NumPy and LAPACK:

- ``pencil/n=<n> <family>``: nodes and weights of ``szego_quadrature`` on
  24 draws that its Cayley pencil pass accepts, n in {2, 3, 16, 17, 64,
  256} and |alpha| in [0.05, 0.8];
- ``general/n=<n>``: eigenpairs of the rule's fallback,
  ``quadrature._general_pairs``, on the dense truncation L M of four
  small draws;
- ``refusal``: the message of the n = 192 rule with |alpha| in [0.99,
  0.999], which neither route can return because 0 is the nearest
  float64 to some of its weights;
- ``expand/n=<n> <shape>``: ``expand_dense`` of the leading n x n block of
  a Hessenberg, a CMV and a random snake, n in {1, 2, 17, 96};
- ``window`` and ``truncation`` (matrix and defect) of the three n = 17
  snakes;
- ``phi`` and ``laurent``: ``evaluate_phi`` and ``laurent_basis`` of the
  random n = 17 snake at eight points, from one array call and from one
  call per point, which can differ in the last bit;
- ``oracle/<measure>/<output>``: ``moments`` to jmax = 16, the parameters
  ``schur_from_moments`` reads from them, the 16 x 16
  ``multiplication_matrix`` and the ``exactness_defect`` of the 16-point
  rule of those parameters, for the Lebesgue, a Bernstein-Szego, the
  Geronimus(0.3) and a 24-atom grid measure;
- ``apply_rule/<family>``: a 16-point pencil rule applied to a Laurent
  polynomial of random coefficients;
- ``cli/expand`` and ``cli/quadrature`` in every format, and ``cli/exit
  3``, a call that exits 3;
- ``verify-<suite>.{txt,json}``: the text and JSON output of ``snakefact
  verify --suite <suite>`` at the default seed, which must exit 0 and
  write no stderr.

    python tools/replay.py

recomputes every entry, writes the sha256 digest of each to
tests/golden/replay.json and each ``verify`` output whole, as a readable
file beside it, and prints the names of the entries whose record changed,
or "no entry changed".  ``tests/test_replay.py`` recomputes each entry and
compares it with the record.

Platform policy: the ``platform`` records pin every bit, so a NumPy or
LAPACK build that rounds differently changes them.  Regenerate them when
the platform, and nothing else, is the change, and name in CHANGES.md the
entries this tool reports with the largest change.  The ``pure`` section
never needs regenerating: a change there is a change of the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CORPUS = GOLDEN / "replay.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from snakefact.cli import main as snakefact  # noqa: E402
from snakefact.errors import SUITE_NAMES  # noqa: E402
from snakefact.expand import entry  # noqa: E402
from snakefact.parameters import SchurSequence  # noqa: E402
from snakefact.snake import GeneratingSequence, SnakeFactorization, cmv_shape, hessenberg_shape  # noqa: E402

SHAPES = ("hessenberg", "cmv", "random")
FAMILIES = ("complex", "real", "imaginary", "third_zero")
MEASURES = ("lebesgue", "bernstein-szego", "geronimus", "grid")
FORMATS = {"text": (), "json": ("--format", "json"), "csv": ("--format", "csv")}


def _shape(kind: str, m: int, bits) -> GeneratingSequence:
    if kind == "random":
        return GeneratingSequence(bits)
    return cmv_shape(m) if kind == "cmv" else hessenberg_shape(m)


def _draw(seed: int, m: int) -> tuple[list, list]:
    """m shape bits and m + 1 Schur parameters of real and imaginary part in [-0.6, 0.6], by ``random``."""
    rnd = random.Random(seed)
    alphas = [complex(rnd.uniform(-0.6, 0.6), rnd.uniform(-0.6, 0.6)) for _ in range(m + 1)]
    return [rnd.randrange(2) for _ in range(m)], alphas


def _flags(seed: int, m: int) -> list[str]:
    bits, alphas = _draw(seed, m)
    return ["--s", ",".join(map(str, bits)), "--alphas=" + ",".join(map(repr, alphas))]


def cli(*argv: str) -> bytes:
    """Exit code, stdout and stderr of ``snakefact`` called in process with SNAKE_SEED unset."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop("SNAKE_SEED", None)
        code = snakefact(list(argv))
    return f"exit {code}\n{out.getvalue()}\0{err.getvalue()}".encode()


def _formats(command: str, argv: list, *formats: str) -> dict:
    return {f"cli/{command} {f}": lambda f=f: cli(command, *argv, *FORMATS[f]) for f in formats}


def entry_reprs(kind: str) -> bytes:
    bits, alphas = _draw(SHAPES.index(kind), 17)
    snake = SnakeFactorization(SchurSequence(alphas), _shape(kind, 17, bits))
    return "\n".join(repr(entry(snake, i, j)) for i in range(18) for j in range(18)).encode()


def pure_entries() -> dict:
    """The pure-Python entries: name -> call that returns the bytes recorded."""
    return {**{f"entry/{k}": lambda k=k: entry_reprs(k) for k in SHAPES},
            **_formats("build", _flags(1, 12), "text", "json"),
            **_formats("bandwidth", _flags(2, 40)[:2], "text", "json"),
            **_formats("entry", [*_flags(3, 24), "--i", "12", "--j", "10"], "text", "json"),
            "cli/exit 2": lambda: cli("expand", *_flags(4, 3), "--n", "2000")}


def platform_entries() -> dict:
    """The entries computed through NumPy and LAPACK: name -> call that returns the bytes recorded."""
    import numpy as np
    from helpers import parameter_family
    from snakefact import oracle, quadrature as q, schur
    from snakefact.errors import NumericalError
    from snakefact.expand import expand_dense
    from snakefact.snake import materialize_window

    def data(*values) -> bytes:
        return b"".join(np.asarray(v).tobytes() for v in values)

    def rule_data(rule):
        return data(rule.nodes, rule.weights)

    def pencil(n, family):
        rng = np.random.default_rng([n, FAMILIES.index(family)])
        alphas = parameter_family(rng, family, n - 1, 0.05, 0.8)
        return q.szego_quadrature(SchurSequence(alphas), n, float(rng.uniform(-np.pi, np.pi)))

    def general(n):
        rng = np.random.default_rng([n, 100])
        seq = SchurSequence(parameter_family(rng, "complex", n - 1, 0.05, 0.95))
        _, blocks = q._corner_blocks(seq, n, float(rng.uniform(-np.pi, np.pi)))
        product = q._half_product(blocks, 1, q._half_product(blocks, 0, np.eye(n, dtype=complex)))
        return data(*q._general_pairs(product)[:2])

    def refusal():
        seq = SchurSequence(parameter_family(np.random.default_rng([192, 0]), "complex", 192, 0.99, 0.999))
        try:
            q.szego_quadrature(seq, 192, 0.3)
        except NumericalError as exc:
            return str(exc).encode()
        return b"not refused"

    def snake(n, kind):
        rng = np.random.default_rng([n, SHAPES.index(kind), 200])
        alphas = parameter_family(rng, "complex", n + 1, 0.05, 0.8)
        return SnakeFactorization(SchurSequence(alphas), _shape(kind, n, rng.integers(0, 2, size=n)))

    def truncation(kind):
        truncated = q.truncate_para_unitary(snake(17, kind), 17, 0.7)
        return data(truncated.matrix, truncated.defect)

    def measure(name):
        rng = np.random.default_rng([16, MEASURES.index(name), 300])
        if name == "lebesgue":
            return oracle.Lebesgue()
        if name == "bernstein-szego":
            return oracle.BernsteinSzego(parameter_family(rng, "complex", 6, 0.0, 0.6))
        if name == "geronimus":
            return oracle.Geronimus(0.3)
        weights = rng.uniform(0.5, 1.5, 24)
        return oracle.GridMeasure(np.sort(rng.uniform(-np.pi, np.pi, 24)), weights / weights.sum())

    def oracle_outputs(name):
        table = oracle.moments(measure(name), 16)
        seq = oracle.schur_from_moments(table, 16)
        gen = GeneratingSequence(np.random.default_rng([16, 400]).integers(0, 2, 16))
        return {"moments": table._mu, "schur_from_moments": seq.alphas,
                "multiplication_matrix": oracle.multiplication_matrix(table, gen, 16),
                "exactness_defect": q.exactness_defect(q.szego_quadrature(seq, 16, 0.3), table)}

    def applied(family):
        coeffs = [1, 1j] @ np.random.default_rng([16, 600]).normal(size=(2, 31))
        return data(q.apply_rule(pencil(16, family), dict(zip(range(-15, 16), coeffs))))

    def szego_values(name, scalar):
        """Values of the random n = 17 snake at eight points: one array call, or one call a point."""
        rng, drawn = np.random.default_rng([17, 500]), snake(17, "random")
        points = rng.uniform(0.5, 1.5, 8) * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        call = {"phi": lambda z: schur.evaluate_phi(drawn.schur, 17, z),
                "laurent": lambda z: [schur.laurent_basis(drawn.schur, drawn.gen, k, z) for k in range(18)],
                }[name]
        return data(*(v for z in points for v in call(z))) if scalar else data(*call(points))

    verify = [(f"verify-{s}.{suffix}", ["--suite", s, *FORMATS[f]]) for s in SUITE_NAMES
              for suffix, f in (("txt", "text"), ("json", "json"))]
    return {**{f"pencil/n={n} {f}": lambda n=n, f=f: rule_data(pencil(n, f))
               for n in (2, 3, 16, 17, 64, 256) for f in FAMILIES},
            **{f"general/n={n}": lambda n=n: general(n) for n in (2, 3, 5, 8)},
            "refusal": refusal,
            **{f"expand/n={n} {k}": lambda n=n, k=k: data(expand_dense(snake(n, k), n))
               for n in (1, 2, 17, 96) for k in SHAPES},
            **{f"oracle/{m}/{o}": lambda m=m, o=o: data(oracle_outputs(m)[o]) for m in MEASURES
               for o in ("moments", "schur_from_moments", "multiplication_matrix", "exactness_defect")},
            **{f"window/{k}": lambda k=k: data(materialize_window(snake(17, k), 17)) for k in SHAPES},
            **{f"truncation/{k}": lambda k=k: truncation(k) for k in SHAPES},
            **{f"{f} {call}": lambda f=f, call=call: szego_values(f, call == "scalar")
               for f in ("phi", "laurent") for call in ("array", "scalar")},
            **{f"apply_rule/{f}": lambda f=f: applied(f) for f in FAMILIES},
            **_formats("expand", [*_flags(5, 31), "--n", "32"], "text", "json", "csv"),
            **_formats("quadrature", ["--measure", json.dumps({"type": "bernstein-szego", "alphas": [
                [a.real, a.imag] for a in _draw(6, 5)[1]]}), "--n", "12", "--verify"], "text", "json", "csv"),
            "cli/exit 3": lambda: cli("quadrature", "--measure", '{"type": "geronimus", "a": [0.999, 0]}',
                                      "--n", "200", "--verify"),
            # stdout alone, once the exit line and the empty stderr are cut: any other
            # exit code or any stderr stays in the bytes and cannot match the file
            **{name: lambda argv=argv: cli("verify", *argv).removeprefix(b"exit 0\n").removesuffix(b"\0")
               for name, argv in verify}}


def sections() -> dict:
    return {"pure": pure_entries(), "platform": platform_entries()}


def stored(name: str, data: bytes) -> str:
    """What the corpus keeps of an entry's bytes: a verify output whole, any other its sha256 digest."""
    return data.decode() if name.startswith("verify-") else hashlib.sha256(data).hexdigest()


def recorded(corpus: dict, section: str, name: str) -> str | None:
    """What the corpus holds for ``name``, or None."""
    if name.startswith("verify-"):
        return (GOLDEN / name).read_text() if (GOLDEN / name).exists() else None
    return corpus.get(section, {}).get(name)


def main() -> int:
    before = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    after = {section: {} for section in ("pure", "platform")}
    changed = []
    for section, entries in sections().items():
        for name, output in entries.items():
            value = stored(name, output())
            if value != recorded(before, section, name):
                changed.append(name)
            if name.startswith("verify-"):
                (GOLDEN / name).write_text(value)
            else:
                after[section][name] = value
    changed += [name for section in before for name in before[section] if name not in after.get(section, {})]
    CORPUS.write_text(json.dumps(after, indent=2) + "\n")
    print("\n".join(changed) or "no entry changed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
