"""Outside-in tracing of kepes: span-recording wrappers around the public
functions of each layer, installed from the benchmark's own files.

``Tracer.install`` wraps every public function defined in a layer module
(plus the methods in ``METHODS``) and rebinds the wrapper wherever kepes
holds the original: in every kepes module namespace that imports it, and
in module-level tables such as ``fluxes.CENTRAL_FLUXES``.  No kepes file
changes.  Spans (name, parent, start, end) stay in memory in flat arrays
and are written out once, by ``Tracer.save``, when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# The layers, by module.  flux2d is not traced: no workload executes it.
# cli is a thin wrapper over driver.run and no workload enters through it.
LAYERS = ("thermo", "fluxes", "dissipation", "reconstruction", "spatial",
          "timeint", "diagnostics", "riemann", "driver", "config", "presets")
# Public methods worth a span of their own (module, class, method).
METHODS = (("riemann", "RiemannSolution", "profile"),)

RUN = "driver.run"
RHS = "spatial.assemble_rhs"


class Tracer:
    """Span recorder; install() rebinds the wrappers, uninstall() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer's public functions and rebind the wrappers."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"kepes.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        kepes_modules = [m for name, m in sorted(sys.modules.items())
                         if name == "kepes" or name.startswith("kepes.")]
        for module in kepes_modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._rebind(vars(module), attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._rebind(obj, key, wrapped[id(value)])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"kepes.{layer}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method,
                    self._wrap(original, f"{layer}.{cls_name}.{method}"))

    def _rebind(self, table: dict, key, value):
        self._undo.append((table, key, table[key]))
        table[key] = value

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.span_parent, dtype=np.int64),
                "start": np.frombuffer(self.span_start, dtype=np.float64),
                "end": np.frombuffer(self.span_end, dtype=np.float64)}

    def save(self, path):
        """Write every span, and the name table, to one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _roots(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.arange(len(parent))
    up = parent.copy()
    while True:
        live = up >= 0
        if not np.any(live):
            return root
        root[live] = up[live]
        up[live] = parent[up[live]]


def _inside(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """True for spans with a marked strict ancestor."""
    hit = np.zeros(len(parent), dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not np.any(live):
            return hit
        hit[live] |= marked[up[live]]
        up[live] = parent[up[live]]


class SpanTable:
    """Per-name aggregates of a finished trace.

    ``run_cells`` and ``run_steps`` give the n_cells and the steps made of
    each traced driver.run call, in call order.
    """

    def __init__(self, tracer: Tracer, run_cells, run_steps):
        a = tracer.arrays()
        self.names = tracer.names
        name, parent = a["name"], a["parent"]
        duration = a["end"] - a["start"]
        n_names = len(self.names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent],
                                 weights=duration[has_parent],
                                 minlength=len(name))
        self_time = duration - child_time

        run_id = self.names.index(RUN)
        rhs_id = self.names.index(RHS)
        roots = _roots(parent)
        in_run = name[roots] == run_id
        run_spans = np.flatnonzero(name == run_id)
        if len(run_spans) != len(run_cells):
            raise ValueError(f"{len(run_spans)} driver.run spans for "
                             f"{len(run_cells)} traced runs")
        cells = np.zeros(len(name))
        cells[in_run] = np.asarray(run_cells, dtype=float)[
            np.searchsorted(run_spans, roots[in_run])]
        in_rhs = _inside(parent, name == rhs_id)

        def per_name(mask, weights=None):
            return np.bincount(name[mask], weights=None if weights is None
                               else weights[mask], minlength=n_names)

        self.calls = per_name(in_run)
        self.calls_in_rhs = per_name(in_run & in_rhs)
        self.total = per_name(in_run, duration)
        self.self_time = per_name(in_run, self_time)
        self.cells = per_name(in_run, cells)
        self.setup_calls = per_name(~in_run)
        self.setup_total = per_name(~in_run, duration)
        self.run_wall = float(duration[run_spans].sum())
        self.runs = len(run_spans)
        self.steps = int(np.sum(run_steps))

    def _id(self, name):
        return self.names.index(name) if name in self.names else None

    def calls_of(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self.calls[i])

    def us_per_call(self, name) -> float:
        i = self._id(name)
        if i is None or self.calls[i] == 0:
            return 0.0
        return float(self.total[i] / self.calls[i] * 1e6)

    def self_us_per_call(self, name) -> float:
        i = self._id(name)
        if i is None or self.calls[i] == 0:
            return 0.0
        return float(self.self_time[i] / self.calls[i] * 1e6)

    def ns_per_cell(self, name) -> float:
        i = self._id(name)
        if i is None or self.cells[i] == 0:
            return 0.0
        return float(self.total[i] / self.cells[i] * 1e9)

    def share(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.total[i] / self.run_wall)

    def self_share(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self.self_time[i] / self.run_wall)

    def layer_self_share(self, layer) -> float:
        ids = [i for i, n in enumerate(self.names)
               if n.split(".", 1)[0] == layer]
        return float(self.self_time[ids].sum() / self.run_wall)

    def calls_per_rhs(self, name) -> float:
        i, rhs = self._id(name), self._id(RHS)
        if i is None or self.calls[rhs] == 0:
            return 0.0
        return float(self.calls_in_rhs[i] / self.calls[rhs])

    def setup_us_per_call(self, name) -> float:
        i = self._id(name)
        if i is None or self.setup_calls[i] == 0:
            return 0.0
        return float(self.setup_total[i] / self.setup_calls[i] * 1e6)
