"""Paths, run conditions and small statistics shared by the benchmark scripts.

Importing this module sets the BLAS thread counts to one.  The benchmark
measures one client in a closed loop on a small shared machine; with the
default of one BLAS thread per core, LAPACK calls compete with each other
and with neighbours, and op latency spreads far more than the work does.
Every script imports this module before anything that loads numpy, and
every child process inherits the same settings through ``child_env``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def have_source() -> bool:
    """True when the checkout holds the package the benchmark measures."""
    return (SRC / "snakefact" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for child processes: the package on the path, one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_python(args, *, timeout: float) -> subprocess.CompletedProcess:
    """Run the current interpreter with ``args``; the child has ended on return."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout
    )


def last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def time_call(fn, *, min_reps: int = 3, min_seconds: float = 0.2, max_seconds: float = 2.0, max_reps: int = 50):
    """Median wall seconds of ``fn()`` over repeats, and the repeat count.

    Repeats until ``min_reps`` calls and ``min_seconds`` of calls are done,
    so fast calls get many samples; stops early once ``max_seconds`` are
    spent, so a slow call gets one or two.
    """
    samples = []
    spent = 0.0
    while len(samples) < max_reps and spent < max_seconds:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
        if len(samples) >= min_reps and spent >= min_seconds:
            break
    return median(samples), len(samples)


def time_batch(fn, count: int, *, reps: int = 5) -> float:
    """Median over ``reps`` batches of the per-call seconds of ``count`` calls."""
    per_call = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(count):
            fn()
        per_call.append((time.perf_counter() - t0) / count)
    return median(per_call)
