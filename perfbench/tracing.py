"""Spans and counters around the calls into each ionread module.

The tracer wraps every public function of the layer modules, plus the
two private entry points the per-layer counters need (the fit objective
and the Monte Carlo chunk), and installs each wrapper wherever a module
of the package binds the original: ionread modules import names
directly, so ``fidelity`` and ``ccd`` hold their own ``p_dark`` and
``detmodel`` holds ``reg_inc_gamma``. Nothing under ``src/`` is edited;
``uninstall`` restores every binding.

Each call gets a span (name, start, end, parent). Per-bin scalars are
called about a million times per fit, so for them only the count, total
time and self time are kept. Self time is a call's duration minus the
time covered by its child calls. A call's duration includes its
wrapper's bookkeeping, so the tracing cost lands on the callee: the self
times of the per-bin scalars carry most of it. Everything stays in
memory until ``dump`` writes it out.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("specfun", "angular", "detmodel", "fidelity", "mcsim", "fitkit", "ccd")

# Called per bin or per tabulation step: aggregated, no span stored.
AGGREGATED = {
    "specfun.reg_inc_gamma",
    "specfun.log_poisson_pmf",
    "specfun.poisson_pmf",
    "detmodel.p_dark",
    "detmodel.p_bright",
    "detmodel.histogram_cutoff",
}

# Private functions the per-layer counters are defined on.
PRIVATE_HOOKS = {"fitkit": ("_objective",), "mcsim": ("_chunk_counts",)}


class Tracer:
    """Installs wrappers, records spans and per-function aggregates."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        # name -> fn(args, kwargs, result, duration, counters), run on return
        self.observers = {}
        self._stack = []  # per open call: [child_time, span_id]
        self._next_id = 1
        self._patches = []  # (namespace, attribute, original)

    # -- installation -------------------------------------------------
    def install(self, package) -> None:
        """Wrap the layer functions and rebind them in every module of package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            names = [n for n, obj in vars(module).items()
                     if not n.startswith("_") and inspect.isfunction(obj)
                     and obj.__module__ == module.__name__]
            names += PRIVATE_HOOKS.get(layer, ())
            for attr in names:
                original = getattr(module, attr)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                for namespace in modules:
                    for bound, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, bound, original))
                            setattr(namespace, bound, wrapped)

    def uninstall(self) -> None:
        for namespace, bound, original in reversed(self._patches):
            setattr(namespace, bound, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, total_s, self_s, spans = self.calls, self.total_s, self.self_s, self.spans
        keep_span = name not in AGGREGATED
        observer = self.observers.get(name)
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            # start and end enclose the wrapper's own bookkeeping, so its
            # cost is charged to this call, not to the caller's self time
            start = perf_counter()
            parent = stack[-1][1] if stack else 0
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observer is not None:
                    observer(args, kwargs, result, perf_counter() - start, counters)
                return result
            finally:
                stack.pop()
                calls[name] += 1
                end = perf_counter()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                if keep_span:
                    spans.append((span_id, parent, name, start, end))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- job spans ----------------------------------------------------
    def begin_job(self, name: str):
        """Open the root span of one job; returns the token for end_job."""
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return (span_id, name, frame, perf_counter())

    def end_job(self, token) -> float:
        span_id, name, frame, start = token
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        self.calls["job"] += 1
        self.total_s["job"] += duration
        self.self_s["job"] += duration - frame[0]
        self.spans.append((span_id, 0, name, start, end))
        return duration

    # -- results ------------------------------------------------------
    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += value
        return out

    def layer_calls(self) -> dict:
        out = {layer: 0 for layer in LAYERS}
        for name, value in self.calls.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += value
        return out

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["functions"] = {
            name: {"calls": self.calls[name], "total_s": self.total_s[name],
                   "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
        doc["counters"] = dict(self.counters)
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
