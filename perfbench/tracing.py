"""Span recorder for the benchmark's traced runs.

install() replaces every public function of attiq's layer modules with a
wrapper, at every name an attiq module holds it under: filters imports
integrate_step from quat, so attiq.filters.integrate_step is replaced as
well as attiq.quat.integrate_step. Each call then records a span: its name,
start, end and parent span. Spans stay in memory, in flat arrays, until
write() saves them. uninstall() puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("quat", "sim", "dataset", "plant", "sdp", "synthesis", "filters", "report")
MAX_DEPTH = 64


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.sdp_outer_iterations = 0
        self.sdp_newton_iterations = 0
        self._stack: list[int] = []
        self._wrappers: dict | None = None
        self._patched: list[tuple] = []

    def _wrap(self, span_name: str, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        on_result = self._count_sdp if span_name == "sdp.solve_sdp" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_sdp(self, result):
        self.sdp_outer_iterations += result.outer_iterations
        self.sdp_newton_iterations += result.newton_iterations

    def install(self):
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                module = importlib.import_module(f"attiq.{layer}")
                for attr, obj in vars(module).items():
                    if (
                        not attr.startswith("_")
                        and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                    ):
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("attiq.") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self):
        """(name ids, parents, durations ns) of the spans recorded so far."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        return ids, parent, dur

    def summary(self) -> dict:
        """Per span name: call count, total and self time in ns."""
        ids, parent, dur = self.arrays()
        n_names = len(self.names)
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_ns = dur - child_ns
        count = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        self_total = np.bincount(ids, weights=self_ns, minlength=n_names)
        return {
            name: {"count": int(count[i]), "total_ns": float(total[i]), "self_ns": float(self_total[i])}
            for i, name in enumerate(self.names)
            if count[i]
        }

    def count_within(self, names, ancestors) -> int:
        """Spans named in names that run inside a span named in ancestors."""
        ids, parent, _ = self.arrays()
        index = {name: i for i, name in enumerate(self.names)}
        is_ancestor = np.isin(ids, [index[a] for a in ancestors if a in index])
        has_parent = parent >= 0
        safe_parent = np.where(has_parent, parent, 0)
        inside = is_ancestor
        for _ in range(MAX_DEPTH):
            grown = inside | (has_parent & inside[safe_parent])
            if np.array_equal(grown, inside):
                break
            inside = grown
        wanted = np.isin(ids, [index[n] for n in names if n in index])
        return int(np.count_nonzero(wanted & inside & ~is_ancestor))

    def write(self, path):
        """Save every span, compressed: name, parent index, start and duration in ns."""
        ids, parent, dur = self.arrays()
        start = np.frombuffer(self.start, dtype=np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=parent,
            start_ns=start - (start.min() if len(start) else 0),
            duration_ns=dur,
        )
