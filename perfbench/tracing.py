"""Layer tracing from outside the program.

Public functions of the opodimer modules are wrapped after import. Modules
bind names at import time (``from .spectrum import spectral_matrix``), so a
wrapper is installed at every lookup site: every attribute of every loaded
``opodimer`` module that refers to the original function object. Modules that
look a name up on another module at call time (``sde.integrate`` reads
``model.drift_rhs``) pick the wrapper up through that module's attribute.

Two kinds of wrapper exist:

* a span records (name, start, end, parent) into flat arrays kept in
  memory and written out once at the end;
* a counter only counts calls, keyed by the innermost open span, for
  functions called too often to be worth a span each.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Functions timed as spans, as "<module>.<function>" under the opodimer package.
SPAN_TARGETS = (
    "config.load_preset",
    "config.apply_overrides",
    "cli.cmd_spectrum",
    "cli.cmd_stability",
    "cli.cmd_optimize_angle",
    "cli.cmd_verify",
    "model.steady_state",
    "model.stability_eigenvalues",
    "model.threshold_bisection",
    "linearized.build_linear_model",
    "linearized.numeric_eigenvalues",
    "spectrum.spectral_matrix",
    "spectrum.output_moment",
    "criteria.evaluate_record",
    "criteria.combined_variances",
    "criteria.optimize_angle",
    "sde.integrate",
    "sde.estimate_output_spectrum",
)

# Functions only counted, keyed by the innermost open span.
COUNT_TARGETS = (
    "spectrum.coefficient_vector",
    "model.drift_rhs",
    "criteria.single_mode_moments",
    "criteria.duan_sum",
    "criteria.epr_product",
)

ROOT = "bench.command"


def package_modules() -> list:
    """Every loaded module of the opodimer package."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "opodimer" or n.startswith("opodimer."))]


class Tracer:
    """In-memory span store. Span i is (names[nid[i]], start[i], end[i],
    parent[i]); parent -1 marks a top-level span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.missing = []
        self._patched = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.nid.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str:
        i = self.stack[-1]
        return self.names[self.nid[i]] if i >= 0 else ""

    def span(self, name: str, fn):
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, self.current()] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target at every lookup site in the loaded package."""
        mods = package_modules()
        for kind, targets in ((self.span, SPAN_TARGETS),
                              (self.counter, COUNT_TARGETS)):
            for target in targets:
                modname, attr = target.rsplit(".", 1)
                home = sys.modules.get("opodimer." + modname)
                orig = getattr(home, attr, None)
                if not callable(orig):
                    self.missing.append(target)
                    continue
                self.replace(orig, kind(target, orig), mods)

    def replace(self, orig, wrapped, mods=None) -> None:
        """Point every package attribute that holds orig at wrapped."""
        if mods is None:
            mods = package_modules()
        for m in mods:
            for key in [k for k, v in vars(m).items() if v is orig]:
                setattr(m, key, wrapped)
                self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def arrays(self) -> dict:
        return {"nid": np.frombuffer(self.nid, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class LayerTable:
    """Per-name call counts, total time and self time of a span store.

    Self time is a span's duration minus the part of it covered by its
    direct child spans. The program is single-threaded, so children of one
    span never overlap and their cover is the sum of their durations. None
    of the traced functions calls itself, so a name's total is the sum of
    its spans' durations.
    """

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.counts = tracer.counts
        self.missing = list(tracer.missing)
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = a["parent"] >= 0
        child_cover = np.bincount(a["parent"][has_parent],
                                  weights=dur[has_parent], minlength=n)
        self_time = np.clip(dur - child_cover[:n], 0.0, None)
        k = len(self.names)
        self.calls = np.bincount(a["nid"], minlength=k)
        self.total = np.bincount(a["nid"], weights=dur, minlength=k)
        self.self_time = np.bincount(a["nid"], weights=self_time, minlength=k)

    def _idx(self, name: str):
        return self.names.index(name) if name in self.names else None

    def n_calls(self, name: str) -> int:
        i = self._idx(name)
        if i is None:
            return sum(c for (n, _), c in self.counts.items() if n == name)
        return int(self.calls[i])

    def total_s(self, name: str) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self.total[i])

    def self_s(self, name: str) -> float:
        i = self._idx(name)
        return 0.0 if i is None else float(self.self_time[i])

    def counted_under(self, name: str, parent: str) -> int:
        return self.counts[name, parent]
