"""Command line front end.

Subcommands: build, entry, expand, bandwidth, quadrature, verify.  Each
declares only the flags it reads, from the groups shape (--shape
hessenberg|cmv with --m Givens factors, --s bits or --monomials exponents),
Schur (--alphas, or a --measure whose parameters ``oracle.schur_parameters``
gives), --n, and --format/--out.  An n-point rule reads alpha_0 ..
alpha_{n-2} and no shape, so quadrature takes no shape flag: --alphas gives
at least n - 1 parameters and --measure is asked for exactly n - 1.  Each
subcommand builds one record: --format json writes it with complex numbers
as [re, im] pairs, and the default text and, for expand and quadrature,
--format csv render it.  Exit codes: 0 success, 1 verification failure,
2 invalid input, 3 numerical failure.

At start-up only the shape layer and ``errors`` are imported, neither of
which loads NumPy; each subcommand imports the layers it runs when it runs.
``parameters``, ``snake`` and ``expand`` load NumPy only for an array, so
bandwidth, and build and entry without --measure, never load it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .errors import _REAL_TYPES, MAX_SIZE, SUITE_NAMES, NumericalError, _all_numbers, int_argument
from .shape import (
    GeneratingSequence,
    bandwidths,
    cmv_shape,
    hessenberg_shape,
    multiplication_orders,
    shape_from_monomials,
)

DEFAULT_SEED = 12345

_MEASURE_NAMES = ("lebesgue",)

# The bits of a named shape are built in Python, so a much larger --m would
# seem to hang: `bandwidth` of 2^20 factors takes 0.7 s and 103 MB
# (hessenberg) to 1.0 s and 135 MB (cmv) on a 2-vCPU Xeon.
_MAX_NAMED_FACTORS = 2**20
# expand writes all n^2 entries: `expand --n 1024 --format json` takes 4.9 s
# and 360 MB on a 2-vCPU Xeon, and each doubling of --n costs about four
# times that.  So it stops at MAX_SIZE, where `quadrature --n` and the
# unitarity suite do.


def _fmt(x: float) -> str:
    return f"{x:.16g}"


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair_text(z) -> str:
    return "[{}, {}]".format(*map(_fmt, _pair(z)))


def _parse_csv(text: str, convert, what: str):
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens:
        raise ValueError(f"empty {what} list")
    try:
        return [convert(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} list {text!r}: {exc}") from exc


def _load_measure(text: str):
    """Accept a measure name, an inline JSON descriptor, or a path to one."""
    descriptor = None
    try:
        descriptor = json.loads(text)
    except json.JSONDecodeError:
        try:
            is_file = Path(text).is_file()
        except OSError:  # e.g. a name longer than the file system allows
            is_file = False
        if is_file:
            try:
                descriptor = json.loads(Path(text).read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(f"--measure file {text!r} is not JSON: {exc}") from None
    if descriptor is None:
        name = text.strip().lower()
        if name not in _MEASURE_NAMES:
            raise ValueError(
                f"unknown measure {text!r}; use a name ({sorted(_MEASURE_NAMES)}), "
                "a JSON descriptor, or a path to one"
            )
        descriptor = {"type": name}
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise ValueError("measure descriptor must be a JSON object with a 'type' field")
    from .oracle import BernsteinSzego, Geronimus, GridMeasure, Lebesgue

    kind = descriptor["type"]
    if kind == "lebesgue":
        return Lebesgue()
    if kind == "bernstein-szego":
        return BernsteinSzego([complex(re, im) for re, im in _pairs(descriptor, "alphas")])
    if kind == "geronimus":
        re, im = _pairs(descriptor, "a", single=True)[0]
        return Geronimus(complex(re, im))
    if kind == "grid":
        points = _pairs(descriptor, "points")
        return GridMeasure([p[0] for p in points], [p[1] for p in points])
    raise ValueError(f"unknown measure type {kind!r}")


def _pairs(descriptor: dict, field: str, single: bool = False) -> list:
    """Field of a measure descriptor holding [x, y] number pairs, as floats.

    With ``single`` the field is one pair, otherwise a list of them.  A
    number outside the float range is refused under the field's name.
    """
    shape = "an [x, y] pair of numbers" if single else "a list of [x, y] pairs of numbers"
    if field not in descriptor:
        raise ValueError(f"{descriptor['type']} measure descriptor needs the field {field!r}")
    value = descriptor[field]
    pairs = [value] if single else value
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and _all_numbers(p, _REAL_TYPES) for p in pairs
    ):
        raise ValueError(f"field {field!r} of a {descriptor['type']} measure must be {shape}")
    try:
        return [(float(x), float(y)) for x, y in pairs]
    except OverflowError:
        raise ValueError(
            f"field {field!r} of a {descriptor['type']} measure holds a number outside "
            "the float range"
        ) from None


def _resolve_shape(args, factors: tuple[str, int] | None = None) -> GeneratingSequence:
    """Shape named by the shape flags.

    ``factors``, a (source, count) pair, sizes a named shape given without
    --m, and without any shape flag it gives a Hessenberg shape of that many
    Givens factors.  A count below 2 or above ``_MAX_NAMED_FACTORS`` is
    reported under the name of its source, before the shape is built.
    """
    kind = args.shape
    if args.s is not None and args.monomials is not None:
        raise ValueError("give exactly one shape source: --s or --monomials")
    if kind in ("hessenberg", "cmv") and (args.s is not None or args.monomials is not None):
        raise ValueError(f"--shape {kind} conflicts with --s/--monomials")
    if kind not in ("hessenberg", "cmv") and args.m is not None:
        raise ValueError("--m sizes a named shape only; give it with --shape hessenberg or cmv")
    if kind is None and (args.s is not None or args.monomials is not None):
        kind = "bits" if args.s is not None else "monomials"
    if kind == "bits":
        if args.s is None:
            raise ValueError("--shape bits needs --s with comma separated bits")
        return GeneratingSequence(_parse_csv(args.s, int, "bit"))
    if kind == "monomials":
        if args.monomials is None:
            raise ValueError("--shape monomials needs --monomials with comma separated exponents")
        return shape_from_monomials(_parse_csv(args.monomials, int, "exponent"))
    if args.m is not None:
        factors = ("m", args.m)
    if factors is None:
        if kind is None:
            raise ValueError("no shape source given; use --shape, --s, or --monomials")
        raise ValueError("named shapes need --m, the number of Givens factors")
    source, count = factors
    count = int_argument(source, count, 2, _MAX_NAMED_FACTORS)
    return cmv_shape(count - 1) if kind == "cmv" else hessenberg_shape(count - 1)


def _schur_source(args):
    """(parsed --alphas, loaded --measure), each None when absent; not both given."""
    alphas = None if args.alphas is None else _parse_csv(args.alphas, complex, "alpha")
    if alphas is not None and args.measure is not None:
        raise ValueError("give exactly one Schur source: --alphas or --measure")
    return alphas, None if args.measure is None else _load_measure(args.measure)


def _resolve(args, required: bool = True):
    """(shape, snake) from the flags; the snake is None without a Schur flag if not ``required``.

    The count of --alphas sizes a named shape without --m, and
    ``SnakeFactorization`` checks that count against the shape.
    """
    alphas, measure = _schur_source(args)
    gen = _resolve_shape(args, None if alphas is None else ("number of --alphas", len(alphas)))
    if alphas is None and measure is None and not required:
        return gen, None
    from .snake import SnakeFactorization

    return gen, SnakeFactorization(_schur_sequence(alphas, measure, len(gen) + 1), gen)


def _schur_sequence(alphas, measure, count: int):
    """The Schur sequence of parsed --alphas, or the first ``count`` parameters of --measure."""
    if alphas is not None:
        from .parameters import SchurSequence

        return SchurSequence(alphas)
    if measure is None:
        raise ValueError("no Schur parameters given; use --alphas or --measure")
    from .oracle import schur_parameters

    return schur_parameters(measure, count)


def _emit(args, record: dict, text, csv=None) -> None:
    """Write ``record`` as JSON, or the lines ``text`` or ``csv`` render from it."""
    if args.format == "json":
        payload = json.dumps(record, indent=2, default=_pair)
    else:
        payload = "\n".join((csv if args.format == "csv" else text)(record))
    payload += "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def cmd_build(args) -> int:
    gen, snake = _resolve(args, required=False)
    left, right = multiplication_orders(gen)
    record = {"s": list(gen.bits), "p": list(gen.p), "left": list(left), "right": list(right)}
    if snake is not None:
        record["alphas"] = list(snake.schur.alphas)

    def text(r):
        lines = [f"{key}: " + ",".join(map(str, r[key])) for key in ("s", "p", "left", "right")]
        if "alphas" in r:
            lines.append("alphas: " + " ".join(map(_pair_text, r["alphas"])))
        return lines

    _emit(args, record, text)
    return 0


def cmd_entry(args) -> int:
    from .expand import entry, path

    gen, snake = _resolve(args)
    d = path(gen, args.i, args.j)
    record = {"i": args.i, "j": args.j, "value": entry(snake, args.i, args.j), "r": d.r, "t": d.t,
              "K": list(d.K), "b": d.b, "monotone": d.monotone}

    def text(r):
        return [
            f"value: {_pair_text(r['value'])}",
            f"r: {r['r']}  t: {r['t']}  K: {','.join(map(str, r['K'])) or '-'}"
            f"  b: {'-' if r['b'] is None else r['b']}"
            f"  monotone: {str(r['monotone']).lower()}",
        ]

    _emit(args, record, text)
    return 0


def cmd_expand(args) -> int:
    from .expand import expand_dense

    n = int_argument("n", args.n, 1, MAX_SIZE)
    _, snake = _resolve(args)
    record = {"n": n, "matrix": expand_dense(snake, n).tolist()}

    def text(r):
        return [" ".join(map(_pair_text, row)) for row in r["matrix"]]

    def csv(r):
        return ["i,j,re,im"] + [
            f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}"
            for i, row in enumerate(r["matrix"])
            for j, z in enumerate(row)
        ]

    _emit(args, record, text, csv)
    return 0


def cmd_bandwidth(args) -> int:
    lower, upper = bandwidths(_resolve_shape(args))
    _emit(args, {"lower": lower, "upper": upper}, lambda r: [f"{k}: {v}" for k, v in r.items()])
    return 0


def cmd_quadrature(args) -> int:
    import numpy as np

    from .oracle import BernsteinSzego, moments
    from .quadrature import _principal_argument, _rule_size, exactness_defect, szego_quadrature

    n = _rule_size(args.n)
    alphas, measure = _schur_source(args)
    schur = _schur_sequence(alphas, measure, n - 1)
    if args.verify:  # the table first, so that one which cannot be built costs no rule
        table = moments(BernsteinSzego(schur.alphas[: n - 1]) if measure is None else measure, n - 1)
    rule = szego_quadrature(schur, n, args.theta)
    record = {"n": n, "theta": args.theta, "nodes": rule.nodes.tolist(), "weights": rule.weights.tolist()}
    if args.verify:
        record["exactness_defect"] = exactness_defect(rule, table)

    def text(r):
        lines = [f"n: {r['n']}", f"theta: {_fmt(r['theta'])}"]
        lines += [f"node {_pair_text(z)}  weight {_fmt(w)}" for z, w in zip(r["nodes"], r["weights"])]
        if "exactness_defect" in r:
            lines.append(f"exactness defect: {_fmt(r['exactness_defect'])}")
        return lines

    def csv(r):
        nodes = np.array(r["nodes"])
        lines = ["arg,modulus,weight"] + [
            f"{_fmt(ang)},{_fmt(abs(z))},{_fmt(w)}"
            for ang, z, w in zip(_principal_argument(nodes), nodes, r["weights"])
        ]
        if "exactness_defect" in r:
            lines.append(f"# exactness_defect,{_fmt(r['exactness_defect'])}")
        return lines

    _emit(args, record, text, csv)
    return 0


def cmd_verify(args) -> int:
    import itertools
    import math

    from .schur import SchurSequence
    from .verify import run_suites

    alphas, measure = _schur_source(args)
    schur = None if alphas is None else SchurSequence(alphas)
    seed_text = os.environ.get("SNAKE_SEED", str(DEFAULT_SEED))
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValueError(f"SNAKE_SEED must be a decimal integer, got {seed_text!r}") from None
    results = run_suites(
        [args.suite] if args.suite else None, seed=seed, m=args.m, n=args.n,
        schur=schur, measure=measure,
    )
    # JSON has no infinity or NaN, so a defect that is not finite, as of a
    # case that refused, is written as null.
    record = {
        "seed": seed,
        "results": [{**r._asdict(), "defect": r.defect if math.isfinite(r.defect) else None,
                     "passed": r.passed} for r in results],
        "passed": all(r.passed for r in results),
    }

    def defect(c):
        return math.inf if c["defect"] is None else c["defect"]

    def text(r):
        lines = []
        if args.suite:
            for c in r["results"]:
                status = "ok" if c["passed"] else "FAIL"
                lines.append(f"{c['case']:<48} defect={defect(c):.3e} tol={c['tolerance']:.0e} {status}")
        lines.append(f"{'suite':<20} {'cases':>6} {'failed':>6} {'max defect':>12} {'tolerance':>10}")
        for name, cs in itertools.groupby(r["results"], key=lambda c: c["suite"]):
            cs = list(cs)
            failed = sum(not c["passed"] for c in cs)
            worst = max(map(defect, cs))
            tol = min(c["tolerance"] for c in cs)
            lines.append(f"{name:<20} {len(cs):>6} {failed:>6} {worst:>12.3e} {tol:>10.0e}")
        lines.append(f"overall: {'PASS' if r['passed'] else 'FAIL'}")
        return lines

    _emit(args, record, text)
    return 0 if record["passed"] else 1


def _shape_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shape", choices=["hessenberg", "cmv", "bits", "monomials"],
                        help="shape family; bits/monomials read --s/--monomials")
    parser.add_argument("--s", help="comma separated shape bits, e.g. 1,0,1,0")
    parser.add_argument("--monomials", help="comma separated exponents, e.g. 0,-1,1,-2,2")
    parser.add_argument("--m", type=int, help="number of Givens factors for named shapes")


def _schur_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alphas", help="comma separated complex Schur parameters, e.g. 0.6,0.3-0.1j")
    parser.add_argument("--measure", help="measure name, JSON descriptor, or path to a JSON file")


def _size_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=8, help="matrix / rule size (default 8)")


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakefact",
        description="Snake-shaped Givens factorizations and Szego quadrature on the unit circle.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, groups, formats=("json",)):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        # A token that starts like a negative number, or -inf or -nan, is the
        # value of the option before it, so `--alphas -0.3,0.2` and `--theta
        # -1e-3` parse as their `=` forms do; argparse's own matcher takes
        # only a lone -<digits>[.<digits>].
        p._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)
        for group in groups:
            group(p)
        p.add_argument("--format", choices=formats,
                       help="machine-readable output (default: human-readable text)")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.set_defaults(func=func)
        return p

    command("build", cmd_build, "report the ordered factorization of a shape",
            (_shape_flags, _schur_flags))
    p = command("entry", cmd_entry, "closed-form entry (i, j) plus its path report",
                (_shape_flags, _schur_flags))
    p.add_argument("--i", type=int, required=True, help="row index")
    p.add_argument("--j", type=int, required=True, help="column index")
    command("expand", cmd_expand, "dense n x n matrix of closed-form entries",
            (_shape_flags, _schur_flags, _size_flag), ("json", "csv"))
    command("bandwidth", cmd_bandwidth, "structural lower/upper bandwidths of a shape",
            (_shape_flags,))
    p = command("quadrature", cmd_quadrature, "n-point Szego rule (nodes and weights)",
                (_schur_flags, _size_flag), ("json", "csv"))
    p.add_argument("--theta", type=float, default=0.0, help="corner phase in radians (default 0)")
    p.add_argument("--verify", action="store_true",
                   help="append the max exactness defect over the optimal subspace")
    p = command("verify", cmd_verify, "run the invariant suites", (_schur_flags, _size_flag))
    p.add_argument("--m", type=int,
                   help="number of shape bits (unitarity default 12; bandwidth default 8, at most 16)")
    p.add_argument("--suite", choices=sorted(SUITE_NAMES),
                   help="run a single suite with per-case output")

    return parser


def main(argv=None) -> int:
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
