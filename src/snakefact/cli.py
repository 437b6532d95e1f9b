"""Command line front end.

Subcommands: build, entry, expand, bandwidth, quadrature, verify.  Shapes
come from a named family (--shape hessenberg|cmv with --m giving the number
of Givens factors), explicit bits (--shape bits --s 1,0,1) or a monomial
order (--shape monomials --monomials 0,-1,1); Schur parameters come inline
(--alphas) or from a measure descriptor (--measure), which states them for
Lebesgue, Bernstein-Szego and Geronimus measures; a grid measure has them
recovered from its moments.  Flags always win over anything a descriptor file
may carry.

Output is human-readable text by default; --format json emits the fixed
machine-readable schemas (complex numbers as [re, im] pairs) and --format
csv emits plotting-friendly tables where defined.  Exit codes: 0 success,
1 verification failure, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .errors import NumericalError
from .expand import bandwidths, entry, expand_dense, path
from .oracle import BernsteinSzego, Geronimus, GridMeasure, Lebesgue, moments, schur_from_moments
from .quadrature import exactness_defect, szego_quadrature
from .schur import SchurSequence
from .snake import (
    GeneratingSequence,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    shape_from_monomials,
)

DEFAULT_SEED = 12345

_MEASURE_NAMES = {"lebesgue": Lebesgue}


def _fmt(x: float) -> str:
    return f"{x:.16g}"


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pair_text(z) -> str:
    z = complex(z)
    return f"[{_fmt(z.real)}, {_fmt(z.imag)}]"


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
        if Path(text).is_file():
            descriptor = json.loads(Path(text).read_text())
    if descriptor is None:
        name = text.strip().lower()
        if name in _MEASURE_NAMES:
            return _MEASURE_NAMES[name]()
        raise ValueError(
            f"unknown measure {text!r}; use a name ({sorted(_MEASURE_NAMES)}), "
            "a JSON descriptor, or a path to one"
        )
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise ValueError("measure descriptor must be a JSON object with a 'type' field")
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
    """Field of a measure descriptor holding [x, y] number pairs.

    With ``single`` the field is one pair, otherwise a list of them.
    """
    shape = "an [x, y] pair of numbers" if single else "a list of [x, y] pairs of numbers"
    if field not in descriptor:
        raise ValueError(f"{descriptor['type']} measure descriptor needs the field {field!r}")
    value = descriptor[field]
    pairs = [value] if single else value
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in p)
        for p in pairs
    ):
        raise ValueError(f"field {field!r} of a {descriptor['type']} measure must be {shape}")
    return pairs


def _resolve_shape(args, factors_hint: int | None = None) -> GeneratingSequence:
    kind = args.shape
    if args.s is not None and args.monomials is not None:
        raise ValueError("give exactly one shape source: --s or --monomials")
    if kind in ("hessenberg", "cmv") and (args.s is not None or args.monomials is not None):
        raise ValueError(f"--shape {kind} conflicts with --s/--monomials")
    if kind is None:
        if args.s is not None:
            kind = "bits"
        elif args.monomials is not None:
            kind = "monomials"
    if kind in ("hessenberg", "cmv"):
        count = args.m if args.m is not None else factors_hint
        if count is None:
            raise ValueError("named shapes need --m, the number of Givens factors")
        if count < 2:
            raise ValueError("named shapes need at least 2 Givens factors")
        return hessenberg_shape(count - 1) if kind == "hessenberg" else cmv_shape(count - 1)
    if kind == "bits":
        if args.s is None:
            raise ValueError("--shape bits needs --s with comma separated bits")
        return GeneratingSequence(_parse_csv(args.s, int, "bit"))
    if kind == "monomials":
        if args.monomials is None:
            raise ValueError("--shape monomials needs --monomials with comma separated exponents")
        return shape_from_monomials(_parse_csv(args.monomials, int, "exponent"))
    if factors_hint is not None and factors_hint >= 2:
        return hessenberg_shape(factors_hint - 1)
    raise ValueError("no shape source given; use --shape, --s, or --monomials")


def _resolve_schur(args, gen: GeneratingSequence) -> SchurSequence | None:
    count = len(gen) + 1
    if args.alphas is not None and args.measure is not None:
        raise ValueError("give exactly one Schur source: --alphas or --measure")
    if args.alphas is not None:
        alphas = _parse_csv(args.alphas, complex, "alpha")
        if len(alphas) != count:
            raise ValueError(
                f"a shape with {len(gen)} bits needs exactly {count} Schur parameters, "
                f"got {len(alphas)}"
            )
        return SchurSequence(alphas)
    if args.measure is not None:
        return _measure_schur(_load_measure(args.measure), count)
    return None


def _measure_schur(measure, count: int) -> SchurSequence:
    """First ``count`` Schur parameters of a measure.

    Families parameterised by their Schur parameters state them directly;
    only a grid measure recovers them from its moments.  A grid of k
    distinct atoms has only k - 1 parameters inside the unit disk.
    """
    if isinstance(measure, Lebesgue):
        return SchurSequence([0j] * count)
    if isinstance(measure, BernsteinSzego):
        prefix = list(measure.prefix)[:count]
        return SchurSequence(prefix + [0j] * (count - len(prefix)))
    if isinstance(measure, Geronimus):
        return SchurSequence([measure.a] * count)
    atoms = np.unique(measure.thetas).size
    if count >= atoms:
        raise ValueError(
            f"a grid measure with {atoms} distinct atoms has only {atoms - 1} Schur "
            f"parameters inside the unit disk; {count} are needed"
        )
    return schur_from_moments(moments(measure, count + 1), count)


def _emit(args, report: dict, text_lines: list[str], csv_text: str | None = None) -> None:
    fmt = args.format
    if fmt == "json":
        payload = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        if csv_text is None:
            raise ValueError("csv output is not defined for this subcommand")
        payload = csv_text
    else:
        payload = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _alphas_hint(args) -> int | None:
    if args.alphas is None:
        return None
    return len(_parse_csv(args.alphas, complex, "alpha"))


def cmd_build(args) -> int:
    gen = _resolve_shape(args, factors_hint=_alphas_hint(args))
    schur = _resolve_schur(args, gen)
    snake = SnakeFactorization(schur or SchurSequence([0.0] * (len(gen) + 1)), gen)
    report = {
        "s": list(gen.bits),
        "p": list(gen.p),
        "left": list(snake.left_order),
        "right": list(snake.right_order),
    }
    text = [
        "s: " + ",".join(map(str, gen.bits)),
        "p: " + ",".join(map(str, gen.p)),
        "left: " + ",".join(map(str, snake.left_order)),
        "right: " + ",".join(map(str, snake.right_order)),
    ]
    if schur is not None:
        report["alphas"] = [_pair(a) for a in schur.alphas]
        text.append("alphas: " + " ".join(_pair_text(a) for a in schur.alphas))
    _emit(args, report, text)
    return 0


def _require_schur(args, gen: GeneratingSequence) -> SchurSequence:
    schur = _resolve_schur(args, gen)
    if schur is None:
        raise ValueError("no Schur parameters given; use --alphas or --measure")
    return schur


def cmd_entry(args) -> int:
    if args.i is None or args.j is None:
        raise ValueError("entry needs --i and --j")
    gen = _resolve_shape(args, factors_hint=_alphas_hint(args))
    snake = SnakeFactorization(_require_schur(args, gen), gen)
    descriptor = path(gen, args.i, args.j)
    value = entry(snake, args.i, args.j)
    report = {
        "i": args.i,
        "j": args.j,
        "value": _pair(value),
        "r": descriptor.r,
        "t": descriptor.t,
        "K": list(descriptor.K),
        "b": descriptor.b,
        "monotone": descriptor.monotone,
    }
    text = [
        f"value: {_pair_text(value)}",
        f"r: {descriptor.r}  t: {descriptor.t}  K: {','.join(map(str, descriptor.K)) or '-'}"
        f"  b: {'-' if descriptor.b is None else descriptor.b}"
        f"  monotone: {str(descriptor.monotone).lower()}",
    ]
    _emit(args, report, text)
    return 0


def cmd_expand(args) -> int:
    gen = _resolve_shape(args, factors_hint=_alphas_hint(args))
    snake = SnakeFactorization(_require_schur(args, gen), gen)
    dense = expand_dense(snake, args.n)
    report = {
        "n": args.n,
        "matrix": [[_pair(z) for z in row] for row in dense],
    }
    text = [" ".join(_pair_text(z) for z in row) for row in dense]
    csv_lines = ["i,j,re,im"]
    for i in range(args.n):
        for j in range(args.n):
            z = dense[i, j]
            csv_lines.append(f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}")
    _emit(args, report, text, csv_text="\n".join(csv_lines) + "\n")
    return 0


def cmd_bandwidth(args) -> int:
    gen = _resolve_shape(args, factors_hint=_alphas_hint(args))
    lower, upper = bandwidths(gen)
    report = {"lower": lower, "upper": upper}
    _emit(args, report, [f"lower: {lower}", f"upper: {upper}"])
    return 0


def cmd_quadrature(args) -> int:
    n = args.n
    if n < 2:
        raise ValueError("a quadrature rule needs n >= 2")
    has_shape_source = any(v is not None for v in (args.shape, args.s, args.monomials))
    if has_shape_source or args.alphas is not None:
        gen = _resolve_shape(args, factors_hint=_alphas_hint(args) or n)
    else:
        gen = hessenberg_shape(n - 1)
    snake = SnakeFactorization(_require_schur(args, gen), gen)
    rule = szego_quadrature(snake, n, args.theta)
    report = {
        "n": n,
        "theta": args.theta,
        "nodes": [_pair(z) for z in rule.nodes],
        "weights": [float(w) for w in rule.weights],
    }
    text = [f"n: {n}", f"theta: {_fmt(args.theta)}"]
    for z, w in zip(rule.nodes, rule.weights):
        text.append(f"node {_pair_text(z)}  weight {_fmt(w)}")
    csv_lines = ["arg,modulus,weight"]
    for z, w in zip(rule.nodes, rule.weights):
        ang = float(np.angle(z))
        if ang >= np.pi:
            ang -= 2.0 * np.pi
        csv_lines.append(f"{_fmt(ang)},{_fmt(abs(z))},{_fmt(w)}")
    if args.verify:
        if args.measure is not None:
            measure = _load_measure(args.measure)
        else:
            measure = BernsteinSzego(snake.schur.alphas[: n - 1])
        defect = exactness_defect(rule, moments(measure, n - 1))
        report["exactness_defect"] = defect
        text.append(f"exactness defect: {_fmt(defect)}")
        csv_lines.append(f"# exactness_defect,{_fmt(defect)}")
    _emit(args, report, text, csv_text="\n".join(csv_lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    schur = None
    if args.alphas is not None:
        schur = SchurSequence(_parse_csv(args.alphas, complex, "alpha"))
    measure = _load_measure(args.measure) if args.measure is not None else None
    seed = int(os.environ.get("SNAKE_SEED", str(DEFAULT_SEED)))
    names = [args.suite] if args.suite else None
    results = verify_mod.run_suites(
        names, seed=seed, m=args.m, n=args.n if args.suite else None,
        schur=schur, measure=measure,
    )
    lines = []
    if args.suite:
        for r in results:
            status = "ok" if r.passed else "FAIL"
            lines.append(f"{r.case:<48} defect={r.defect:.3e} tol={r.tolerance:.0e} {status}")
    by_suite: dict[str, list] = {}
    for r in results:
        by_suite.setdefault(r.suite, []).append(r)
    lines.append(f"{'suite':<20} {'cases':>6} {'failed':>6} {'max defect':>12} {'tolerance':>10}")
    failed_total = 0
    for name, rs in by_suite.items():
        failed = sum(1 for r in rs if not r.passed)
        failed_total += failed
        worst = max(r.defect for r in rs)
        tol = min(r.tolerance for r in rs)
        lines.append(f"{name:<20} {len(rs):>6} {failed:>6} {worst:>12.3e} {tol:>10.0e}")
    ok = failed_total == 0
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    report = {
        "seed": seed,
        "results": [
            {
                "suite": r.suite,
                "case": r.case,
                "defect": r.defect,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": ok,
    }
    _emit(args, report, lines)
    return 0 if ok else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shape", choices=["hessenberg", "cmv", "bits", "monomials"],
                        help="shape family; bits/monomials read --s/--monomials")
    parser.add_argument("--s", help="comma separated shape bits, e.g. 1,0,1,0")
    parser.add_argument("--monomials", help="comma separated exponents, e.g. 0,-1,1,-2,2")
    parser.add_argument("--alphas", help="comma separated complex Schur parameters, e.g. 0.6,0.3-0.1j")
    parser.add_argument("--measure", help="measure name, JSON descriptor, or path to a JSON file")
    parser.add_argument("--m", type=int, help="number of Givens factors for named shapes")
    parser.add_argument("--n", type=int, default=8, help="matrix / rule size (default 8)")
    parser.add_argument("--theta", type=float, default=0.0, help="corner phase in radians (default 0)")
    parser.add_argument("--format", choices=["json", "csv"],
                        help="machine-readable output (default: human-readable text)")
    parser.add_argument("--out", help="write output to this path instead of stdout")


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakefact",
        description="Snake-shaped Givens factorizations and Szego quadrature on the unit circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="report the ordered factorization of a shape")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("entry", help="closed-form entry (i, j) plus its path report")
    _add_common(p)
    p.add_argument("--i", type=int, help="row index")
    p.add_argument("--j", type=int, help="column index")
    p.set_defaults(func=cmd_entry)

    p = sub.add_parser("expand", help="dense n x n matrix of closed-form entries")
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("bandwidth", help="structural lower/upper bandwidths of a shape")
    _add_common(p)
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("quadrature", help="n-point Szego rule (nodes and weights)")
    _add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="append the max exactness defect over the optimal subspace")
    p.set_defaults(func=cmd_quadrature)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_common(p)
    p.add_argument("--suite", choices=sorted(verify_mod.SUITES),
                   help="run a single suite with per-case output")
    p.set_defaults(func=cmd_verify)

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
