"""Per-layer tracing of agmds, installed from outside the library.

Every public function a layer module defines is wrapped, and the wrapper is
bound under every name any agmds module gave the original (``code.rank`` as
well as ``linalg.rank``), so calls through imported names are seen too.
Wrapped calls record a span: name, start, end, parent span and op id.
FieldSpec arithmetic and monomial evaluation run millions of times, so they
only count calls.  Spans stay in memory until the run reads them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

from perfbench.stats import self_times

LAYERS = ("field", "linalg", "curves", "rrspace", "code", "recipes", "catalog", "cli")
# The CLI layer is entered through main; dispatch and build_parser are its
# own plumbing and would otherwise take all of main's self time.
LAYER_ONLY = {"cli": ("main",)}
# Public Curve methods that do layer work; the private group law stays in
# its caller's self time.
CURVE_METHODS = ("points", "point_count", "point_order", "scalar_mul")
FIELD_COUNTED = ("add", "sub", "neg", "mul", "inv")
# Private, but they are where a field's tables get built (field.tables_s).
FIELD_TABLES = ("_ensure_tables", "_ensure_sqrt", "_ensure_as")
COUNT_ONLY = ("rrspace.evaluate_monomial",)
ALIASES = {"linalg.has_full_column_rank_square": "linalg.minor"}


class Tracer:
    """Spans and counters of one traced section; install() patches agmds,
    uninstall() restores it."""

    def __init__(self):
        self.op = 0
        self._patches: list = []
        self.spans: list = []
        self.calls: dict[str, int] = {}
        self.bools: dict[str, int] = {}
        self.trues: dict[str, int] = {}
        self.extra = {"catalog.lines_parsed": 0, "catalog.bytes_written": 0}
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def reset(self) -> None:
        """Forget what was recorded; installed wrappers keep working."""
        if self._stack:
            raise RuntimeError("spans still open")
        self.spans.clear()
        self.bools.clear()
        self.trues.clear()
        for counts in (self.calls, self.extra):
            for key in counts:
                counts[key] = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"agmds.{layer}") for layer in LAYERS}
        owners = [m for n, m in sys.modules.items() if n == "agmds" or n.startswith("agmds.")]
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if attr not in LAYER_ONLY.get(layer, (attr,)):
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapper = self._wrap(name, obj)
                for owner in owners:
                    for bound, target in list(vars(owner).items()):
                        if target is obj:
                            self._patch(owner, bound, wrapper)
        from agmds.curves import Curve
        from agmds.field import FieldSpec

        for attr in CURVE_METHODS:
            self._patch(Curve, attr, self._span(f"curves.{attr}", getattr(Curve, attr)))
        for attr in FIELD_COUNTED:
            self._patch(FieldSpec, attr, self._counter(f"field.{attr}", getattr(FieldSpec, attr)))
        for attr in FIELD_TABLES:
            self._patch(FieldSpec, attr, self._span(f"field.{attr}", getattr(FieldSpec, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        if name == "catalog.load_entries":
            fn = self._count_lines(fn)
        elif name == "catalog.append_entry":
            fn = self._count_bytes(fn)
        return self._span(name, fn)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        clock = time.perf_counter_ns
        spans, stack, depth = self.spans, self._stack, self._depth
        bools, trues = self.bools, self.trues
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                spans[idx] = (name, start, end, parent, self.op, outermost)
            if result is True or result is False:
                bools[name] = bools.get(name, 0) + 1
                if result:
                    trues[name] = trues.get(name, 0) + 1
            return result

        return wrapped

    def _counter(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    def _count_lines(self, fn):
        extra = self.extra

        @functools.wraps(fn)
        def load_entries(path):
            entries = fn(path)
            extra["catalog.lines_parsed"] += len(entries)
            return entries

        return load_entries

    def _count_bytes(self, fn):
        extra = self.extra

        def size(path) -> int:
            try:
                return os.path.getsize(path)
            except FileNotFoundError:
                return 0

        @functools.wraps(fn)
        def append_entry(path, entry):
            before = size(path)
            changed = fn(path, entry)
            extra["catalog.bytes_written"] += size(path) - before
            return changed

        return append_entry

    # -- results ----------------------------------------------------------------

    def seconds(self, names) -> float:
        """Total time of the outermost spans with one of the given names."""
        names = set(names)
        return sum(s[2] - s[1] for s in self.spans if s[0] in names and s[5]) / 1e9

    def metrics(self) -> dict[str, float]:
        """<name>.calls, .total_s, .self_s and, for predicates, .true_ratio."""
        if self._stack:
            raise RuntimeError("spans still open")
        calls = dict(self.calls)
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        for s, self_ns in zip(self.spans, self_times(self.spans)):
            name = s[0]
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0) + self_ns
            if s[5]:
                total[name] = total.get(name, 0) + (s[2] - s[1])
        out: dict[str, float] = dict(self.extra)
        for name, n in calls.items():
            out[f"{name}.calls"] = n
            if name in own:
                out[f"{name}.total_s"] = total[name] / 1e9
                out[f"{name}.self_s"] = own[name] / 1e9
            if self.bools.get(name):
                out[f"{name}.true_ratio"] = self.trues.get(name, 0) / self.bools[name]
        return out
