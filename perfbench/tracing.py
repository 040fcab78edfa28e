"""Out-of-library tracing for the benchmark.

`Tracer.install` wraps every public function (a plain function listed in
a module's `__all__`) of the named `bethe` modules, and rebinds the
wrapper at every module attribute that holds the original. The library
imports names directly (`from .spa import best_fixed_point`), so the
wrapper has to replace `bethe.gct.best_fixed_point` and
`bethe.covers.partition_function_exact` as well as the definitions in
`bethe.spa` and `bethe.nfg`; functions looked up through a module object
(`spa.spa_run` inside `perm`) are covered by the rebinding in their own
module.

Each call while recording is on becomes a span (name, start, end,
parent span, op index) kept in memory. A span's self time is its
duration minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Span recorder. Recording is off until `recording` is set, so the
    wrappers can stay installed while untimed output checks run."""

    def __init__(self, hooks=None):
        # hooks: span name -> fn(tracer, result, args, kwargs, duration),
        # used to read counts off what a public call returns
        self.hooks = hooks or {}
        self.recording = False
        self.op = -1
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, child time]
        self._patched: list[tuple] = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[index] = (name, start, end, parent, self.op)
                stat = self.stats.setdefault(name, Stat())
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if hook is not None:
                hook(self, result, args, kwargs, duration)
            return result

        return wrapper

    def install(self, package, layers):
        """Wrap the public functions of `package.<layer>` for each layer
        and rebind them wherever the package's modules hold them."""
        wrappers = {}
        for layer in layers:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def total(self, name):
        return self.stats[name].total if name in self.stats else 0.0

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def self_time(self, prefix):
        """Summed self time of every span whose name is `prefix` or
        starts with `prefix` + '.'."""
        return sum(
            s.self_time
            for name, s in self.stats.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def write(self, path):
        """Write the spans and per-name statistics as JSON."""
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "stats": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                for name, s in sorted(self.stats.items())
            },
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
