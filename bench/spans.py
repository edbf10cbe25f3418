"""Spans around the calls into each layer of ``narmaxtag``.

The tracer wraps a public function in its defining module and in every
``narmaxtag`` module that imported it by name (``narmaxtag.cli.derive``,
``narmaxtag.generate.derive`` ...), so calls between layers are seen as
well as calls from the benchmark.  A span records its name, start, end
and the span that was open when it began.  A layer's self time is its
spans' durations minus the durations of their child spans.  Generator
functions get one span per step, so only the time spent inside the
generator counts, not the consumer's time between steps.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, function) pairs the per-layer metrics name
LAYERS = (
    ("cli", "main"),
    ("generate", "enumerate_derivations"),
    ("generate", "sample_derivation"),
    ("generate", "sample_model"),
    ("trees", "derive"),
    ("trees", "yield_of"),
    ("narmax", "model_to_derivation"),
    ("narmax", "derived_to_model"),
    ("models", "parse_model_text"),
    ("models", "format_model_text"),
    ("models", "classify"),
    ("models", "canonicalize"),
    ("models", "simulate"),
    ("treeio", "parse_derivation"),
    ("treeio", "format_derivation"),
    ("treeio", "parse_tree"),
    ("treeio", "format_tree"),
)
GENERATORS = {"generate.enumerate_derivations"}
COUNTS = (
    "generate.derivations",
    "generate.distinct_per_derivation",
    "trees.derived_nodes",
    "models.simulated_samples",
    "treeio.text_bytes",
)
ROOT = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.first_op: list[dict] | None = None
        self.ops = 0
        self.op_seconds = 0.0
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: set = set()
        self.active: set[str] = set()  # layer functions with an open span
        self.patches: list[tuple] = []  # (module, attribute, original, traced)

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def op(self, run, inp):
        """Run one operation under a root span and fold its spans into the
        per-layer totals."""
        self.spans = []
        root = self._open(ROOT)
        try:
            return run(inp)
        finally:
            self._close(root)
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        for name, start, end, parent in spans:
            duration = end - start
            self.self_seconds[name] += duration
            if parent is not None:
                self.self_seconds[spans[parent][0]] -= duration
        self.ops += 1
        self.op_seconds += spans[0][2] - spans[0][1]
        self.counts["distinct_models"] += len(self.distinct)
        self.distinct = set()
        if self.first_op is None:
            origin = spans[0][1]
            self.first_op = [
                {
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3,
                }
                for i, (name, start, end, parent) in enumerate(spans)
            ]

    # -- wrappers ----------------------------------------------------------

    def _count(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "trees.derive":
            counts["trees.derived_nodes"] += len(result.labels)
        elif name == "narmax.derived_to_model":
            self.distinct.add(result.structure())
        elif name == "models.simulate":
            counts["models.simulated_samples"] += len(result)
        elif name.startswith("treeio.parse_"):
            counts["treeio.text_bytes"] += len(args[0].encode())
        elif name.startswith("treeio.format_"):
            counts["treeio.text_bytes"] += len(result.encode())

    def _wrap(self, name: str, fn):
        tracer = self
        active = tracer.active

        def traced(*args, **kwargs):
            if name in active:  # a recursive call belongs to the outer span
                return fn(*args, **kwargs)
            active.add(name)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                active.discard(name)
            tracer.calls[name] += 1
            tracer._count(name, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            steps = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                tracer.counts["generate.derivations"] += 1
                yield item

        return traced

    def install(self) -> None:
        """Replace every layer function by its traced wrapper, wherever a
        ``narmaxtag`` module holds it by name."""
        if not self.patches:
            modules = [
                mod
                for name, mod in list(sys.modules.items())
                if name == "narmaxtag" or name.startswith("narmaxtag.")
            ]
            for module_name, function in LAYERS:
                name = f"{module_name}.{function}"
                original = getattr(importlib.import_module(f"narmaxtag.{module_name}"), function)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                traced = wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.patches.append((mod, attr, original, traced))
        for mod, attr, _, traced in self.patches:
            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.patches:
            setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics: name -> (value, unit)."""
        ops = self.ops or 1
        out: dict[str, tuple[float, str]] = {}
        for module_name, function in LAYERS:
            name = f"{module_name}.{function}"
            out[f"{name}.self_ms"] = (self.self_seconds[name] * 1e3 / ops, "ms")
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
        derivations = self.counts["generate.derivations"]
        for name in COUNTS:
            if name == "generate.distinct_per_derivation":
                ratio = self.counts["distinct_models"] / derivations if derivations else 0.0
                out[name] = (ratio, "ratio")
            else:
                out[name] = (self.counts[name] / ops, "bytes" if name.endswith("bytes") else "count")
        layer_self = sum(v for k, v in self.self_seconds.items() if k != ROOT)
        out["trace.unattributed_ms"] = (self.self_seconds[ROOT] * 1e3 / ops, "ms")
        out["trace.attributed_pct"] = (100.0 * layer_self / (self.op_seconds or 1.0), "%")
        return out
