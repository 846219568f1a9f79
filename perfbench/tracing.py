"""Spans around the public entry points of each layer, for the traced run.

The tracer wraps functions from the benchmark's side only: it rebinds each
entry point on every euler_periods module that holds it (so
``eulerfun.em_sum``, which ``zeta`` calls, is wrapped where ``zeta`` looks
it up) and counts ``BigReal`` arithmetic by wrapping the methods on the
class.  :meth:`Tracer.uninstall` restores every original binding.  Nothing
under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``.  Spans
stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Public entry points per layer (module of euler_periods).
ENTRY_POINTS = {
    "numkernel": ("em_sum", "accel_alt_sum"),
    "eulerfun": ("zeta", "phi", "polylog", "gamma_const", "identity_residual"),
    "mzv": ("mzv", "multiphi", "stuffle_residual"),
    "symbolic": ("parse_expr", "coact", "coassoc_residual", "galois_conjugates",
                 "stability_report", "period_map"),
    "feynper": ("period_mc", "integrator_selftest", "kirchhoff_polynomial",
                "spanning_trees", "is_primitive_log_divergent"),
    "g2": ("load_registry", "coeff_a2", "coeff_a3", "assemble", "invert_alpha", "compare"),
    "cli": ("dispatch",),
}
LAYERS = tuple(ENTRY_POINTS)
BIGREAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.families: dict[int, str] = {}
        self.roots: dict[int, str] = {}
        self.bigreal_ops = 0
        self._stack: list[int] = []
        self._request = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[parent][4] if parent >= 0 else self._request
        rec = [name, time.perf_counter_ns(), 0, parent, request]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()

    def request(self, name: str, family: str):
        """A top-level span that starts a new request id."""
        self._request += 1
        self.families[self._request] = family
        self.roots[self._request] = name
        return self.span(name)

    # -- installing wrappers ------------------------------------------

    # Calls outside a request come from the benchmark's own input
    # preparation and checks; they are not recorded.

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.bigreal_ops += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "euler_periods" or n.startswith("euler_periods.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"euler_periods.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapped)
        big = sys.modules["euler_periods.numkernel"].BigReal
        for op in BIGREAL_OPS:
            original = big.__dict__[op]
            self._restore.append((big, op, original))
            setattr(big, op, self._count(original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis -------------------------------------------------------

    def self_times_ns(self, first: int = 0, last: int | None = None) -> dict[str, int]:
        """Self time per span name over ``spans[first:last]``.

        Self time is the span's duration minus the durations of its direct
        children; single-threaded spans nest, so children never overlap.
        """
        spans = self.spans[first:last]
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in spans:
            child_ns[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            out[name] += end - start - child_ns[i]
        return dict(out)

    def layer_self_ms(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        per_name = self.self_times_ns(first, last)
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in per_name.items():
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += ns / 1e6
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "request"],
               "families": self.families, "bigreal_ops": self.bigreal_ops, "spans": self.spans}
        path.write_text(json.dumps(doc), "utf-8")
