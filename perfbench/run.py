"""Benchmark entry point.

    python3 perfbench/run.py --workload rules|expand|validate|cli|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
with no install step.  With ``--trace 0`` it prints the end-to-end metrics
of the workload, with ``--trace 1`` the per-layer metrics: the traced run
of the workload plus the size ladder (``ladder.py``).  Each metric is
printed on its own line with its unit and sample count, the run conditions
on a line starting with ``# env``, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn and prints one combined JSON line with the
metric names prefixed by the workload.

Ops run in a worker process, one client in a closed loop with one BLAS
thread.  A second worker replays the same ops, and an op's latency is the
lower of its two executions, each scaled to a nominal machine speed by
the reference times around it (see ``at_nominal_speed``).  Set-up time is
the median over ``SETUP_SAMPLES`` fresh processes (the two workers and
set-up probes), since one import is a noisy sample.  Full results,
including every unscaled latency and the ladder's skipped rungs with their
reasons, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, RESULTS, ROOT, THREAD_VARS, child_env, have_source, last_json_line, median

WORKLOADS = ("rules", "expand", "validate", "cli")
SETUP_SAMPLES = 5
# One invocation for one workload ends within this many seconds or fails.
RUN_LIMIT_S = 170.0
# An op is scaled by the median of the 2 * REFERENCE_HALF_WINDOW + 1
# reference times around it.
REFERENCE_HALF_WINDOW = 2


def child(script: str, args, deadline: float) -> dict:
    """Run a benchmark script in a process group of its own; return its JSON line.

    On the deadline, or when this process is interrupted or terminated, the
    whole group is killed, so no process the script started outlives this
    call.
    """
    cmd = [sys.executable, str(BENCH_DIR / script), *args]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"{script} {args} passed the {RUN_LIMIT_S:.0f} s limit") from None
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {args} exited {proc.returncode}:\n{err[-2000:]}")
    return last_json_line(out)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_conditions(load_at_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
        "git_sha": git_sha(),
        "loadavg_at_start": load_at_start,
    }


def at_nominal_speed(run: dict) -> list[float]:
    """Op latencies scaled to the speed at which the reference takes its nominal time.

    Each op is scaled by the median of the reference times around it, so
    the scale follows the machine's speed as it changes during a run.
    """
    refs, nominal = run["reference_s"], run["reference_nominal_s"]
    return [
        latency * nominal / median(refs[max(0, i - REFERENCE_HALF_WINDOW): i + REFERENCE_HALF_WINDOW + 1])
        for i, latency in enumerate(run["latencies_s"])
    ]


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    which = ["--workload", name, "--seed", str(seed)]
    first = child("worker.py", ["run", *which, "--seconds", str(seconds / 2)], deadline)
    count = len(first["latencies_s"])
    second = child("worker.py", ["run", *which, "--ops", str(count)], deadline)
    setup_runs = [first, second]
    while len(setup_runs) < SETUP_SAMPLES:
        setup_runs.append(child("worker.py", ["setup", *which], deadline))
    setups = [r["setup_s"] for r in setup_runs]
    nominal = first["reference_nominal_s"]
    scaled_setups = [r["setup_s"] * nominal / r["setup_reference_s"] for r in setup_runs]
    best = [min(a, b) for a, b in zip(at_nominal_speed(first), at_nominal_speed(second))]
    lat_ms = [1e3 * s for s in best]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    metrics = {
        "throughput_ops_s": (len(best) / sum(best), "1/s", len(best)),
        "latency_ms.p50": (median(lat_ms), "ms", len(lat_ms)),
        "latency_ms.p90": (deciles[8], "ms", len(lat_ms)),
        "setup_s": (median(scaled_setups), "s", len(setups)),
        "peak_rss_mb": (max(first["peak_rss_mb"], second["peak_rss_mb"]), "MB", 2),
    }
    unscaled = [min(a, b) for a, b in zip(first["latencies_s"], second["latencies_s"])]
    print(f"# unscaled: latency_ms.p50 {1e3 * median(unscaled):.6g}, "
          f"latency_ms.p90 {1e3 * statistics.quantiles(unscaled, n=10, method='inclusive')[8]:.6g}, "
          f"setup_s {median(setups):.6g}; reference {1e3 * median(first['reference_s'] + second['reference_s']):.4g} ms "
          f"(nominal {1e3 * nominal:.4g} ms)")
    raw = {
        "attempted": first["attempted"] + second["attempted"],
        "failed": first["failed"] + second["failed"],
        "failures": first["failures"] + second["failures"],
        "versions": first["versions"],
        "latencies_s": [first["latencies_s"], second["latencies_s"]],
        "reference_s": [first["reference_s"], second["reference_s"]],
        "setup_samples_s": setups,
        "setup_reference_s": [r["setup_reference_s"] for r in setup_runs],
    }
    return metrics, raw


def per_layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name's suffix."""
    match = re.search(r"_(ms|us|s|mb)(_per_op)?$", metric)
    if match:
        return {"ms": "ms", "us": "us", "s": "s", "mb": "MB"}[match.group(1)]
    if "share" in metric or metric.endswith("overhead"):
        return "ratio"
    return "count"


def per_layer(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    raw = child("worker.py", ["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace"],
                deadline)
    ladder = child("ladder.py", ["--seed", str(seed)], deadline)
    traced_ops = len(raw["traced_latencies_s"])
    metrics = {k: (v, per_layer_unit(k), traced_ops) for k, v in raw["trace"].items()}
    for rung in ladder["rungs"]:
        if "skipped" in rung:
            print(f"# skipped {json.dumps(rung)}")
    metrics.update({k: (v, per_layer_unit(k), 1) for k, v in ladder["metrics"].items()})
    raw["ladder"] = ladder
    return metrics, raw


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_at_start = os.getloadavg()
    t0 = time.perf_counter()
    metrics, raw = (per_layer if trace else end_to_end)(name, seed, seconds, time.monotonic() + RUN_LIMIT_S)
    conditions = run_conditions(load_at_start)
    conditions.update(raw.pop("versions"))
    print(f"# env {json.dumps(conditions)}")
    print(f"# {name}: {raw['attempted']} ops attempted, {raw['failed']} failed "
          f"(error_rate {raw['failed'] / raw['attempted']:.4g}), run took {time.perf_counter() - t0:.1f} s")
    for failure in raw["failures"]:
        print(f"# failure in op {failure['op']}:\n{failure['error']}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"{name:<9} {metric:<52} {value:>14.6g} {unit:<6} n={samples}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"conditions": conditions, "result": result, "raw": raw}, fh)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not have_source():
        print(f"error: no package source at {ROOT / 'src' / 'snakefact'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
