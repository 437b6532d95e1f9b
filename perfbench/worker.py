"""Run one workload in this process and print its raw figures as JSON.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py run --workload NAME --seed N (--seconds S | --ops K) [--trace]

``setup`` times import, input construction and one warm-up op, then
exits.  ``run`` does the same and then runs ops 0, 1, ... in a closed loop
for S seconds of wall time, or exactly K of them, checking each output
outside the timed region and timing the workload's reference before each
op.  With ``--trace``, odd-numbered ops run with spans on and even-numbered
ops with spans off, so the two halves see the same mix of inputs and
their ratio is the tracing overhead.  ``perfbench/run.py`` turns the
figures into metrics.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from common import RESULTS, peak_rss_mb  # noqa: E402
import workloads  # noqa: E402  (imports snakefact: part of set-up time)

MIN_OPS = 4
MAX_FAILURES_KEPT = 5
SETUP_REFERENCES = 3


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def time_reference(workload) -> float:
    t0 = time.perf_counter()
    workload.reference()
    return time.perf_counter() - t0


def set_up(name: str, seed: int):
    """Build the workload and run one warm-up op; return it and the set-up seconds."""
    workload = workloads.WORKLOADS[name](seed)
    warm = workload.inputs(None)
    workload.check(warm, workload.op(warm))
    return workload, time.perf_counter() - SETUP_START


def closed_loop(workload, seconds: float | None, ops: int | None = None, tracer=None) -> dict:
    """Run ops 0, 1, ... until ``seconds`` have passed, or exactly ``ops`` of them."""
    latencies, traced_latencies, references, failures = [], [], [], []
    failed = 0
    deadline = None if seconds is None else time.perf_counter() + seconds

    def more(i):
        if ops is not None:
            return i < ops
        return i < MIN_OPS or time.perf_counter() < deadline

    i = 0
    while more(i):
        references.append(time_reference(workload))
        inp = workload.inputs(i)
        traced = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.enabled = True
                try:
                    out = tracer.op(i, workload.root_layer, workload.op, inp)
                finally:
                    tracer.enabled = False
            else:
                out = workload.op(inp)
            elapsed = time.perf_counter() - t0
            workload.check(inp, out)
        except Exception:  # an op that raises or fails its check is counted, and the loop goes on
            elapsed = time.perf_counter() - t0
            failed += 1
            if len(failures) < MAX_FAILURES_KEPT:
                failures.append({"op": i, "error": traceback.format_exc(limit=3)})
        (traced_latencies if traced else latencies).append(elapsed)
        i += 1
    return {
        "attempted": i,
        "failed": failed,
        "failures": failures,
        "latencies_s": latencies,
        "traced_latencies_s": traced_latencies,
        "reference_s": references,
    }


def trace_figures(tracer, result: dict) -> dict:
    from spans import TRACED_LAYERS

    traced_ops = len(result["traced_latencies_s"])
    self_s = tracer.self_times()
    op_s = tracer.op_seconds()
    figures = {}
    for layer in TRACED_LAYERS:
        busy = self_s.get(layer, 0.0)
        figures[f"{layer}.busy_ms_per_op"] = 1e3 * busy / traced_ops
        figures[f"{layer}.share"] = busy / op_s
    plain = result["latencies_s"]
    traced = result["traced_latencies_s"]
    figures["trace.overhead"] = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0
    figures["trace.spans_per_op"] = len(tracer.spans) / traced_ops
    return figures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run ops for this long")
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload, setup_s = set_up(args.workload, args.seed)
    report = {
        "setup_s": setup_s,
        # The machine's speed just after set-up, to scale setup_s by.
        "setup_reference_s": statistics.median(time_reference(workload) for _ in range(SETUP_REFERENCES)),
        "reference_nominal_s": workload.reference_nominal_s,
    }
    if args.mode == "run":
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        report.update(closed_loop(workload, args.seconds, args.ops, tracer))
        if tracer is not None:
            tracer.uninstall()
            report["trace"] = trace_figures(tracer, report)
            tracer.write(RESULTS / f"spans-{args.workload}-{args.seed}.json")
        report["peak_rss_mb"] = peak_rss_mb()
        report["versions"] = versions()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
