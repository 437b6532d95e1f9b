"""Spans around the calls that cross a layer boundary, recorded from outside.

The layers are the package's modules.  ``Tracer.install`` replaces each
public function of a layer, wherever another module (or the package
namespace the benchmark calls through) holds a reference to it, by a
wrapper that records a span: name, layer, start, end, parent span and op
id.  Calls inside one module are left alone, so a span marks a call from
one layer into another.  ``SnakeFactorization.factor`` is wrapped on the
class because the quadrature layer reaches the snake layer through it.

Spans stay in memory until ``write``.  A span's self time is its duration
minus the durations of its direct children; spans nest because the
benchmark is single-threaded, so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("schur", "snake", "expand", "oracle", "quadrature")
TRACED_LAYERS = LAYERS + ("cli",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, layer, start, end, parent, op)
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0
        self._undo: list[tuple] = []
        self.enabled = False

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, layer, start, end, parent, self._op))

    def op(self, op_id: int, layer: str, fn, *args):
        """Run one op under a root span of the benchmark's own layer."""
        self._op = op_id
        return self.span("op", layer, fn, *args)

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every cross-module reference to a public layer function."""
        import snakefact

        modules = [m for k, m in sys.modules.items() if k == "snakefact" or k.startswith("snakefact.")]
        for layer in LAYERS:
            home = sys.modules[f"snakefact.{layer}"]
            for name in home.__all__:
                fn = getattr(home, name)
                if not callable(fn) or isinstance(fn, type):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for mod in modules:
                    if mod is not home and getattr(mod, name, None) is fn:
                        self._undo.append((mod, name, fn))
                        setattr(mod, name, wrapper)
        cls = snakefact.SnakeFactorization
        original = cls.factor
        self._undo.append((cls, "factor", original))
        cls.factor = self._wrap("snake.SnakeFactorization.factor", "snake", original)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Total self seconds per layer over all recorded spans."""
        child = {}
        for sid, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, _, layer, start, end, _, _ in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child.get(sid, 0.0)
        return totals

    def op_seconds(self) -> float:
        return sum(end - start for _, name, _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path) -> None:
        fields = ("id", "name", "layer", "start", "end", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
