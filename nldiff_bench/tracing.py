"""Span recorder for the traced benchmark run.

The tracer replaces the public functions of each nldiff layer, in every
module namespace where a caller looks them up, by a wrapper that records
one span per call: name, start, end, parent span and the op it ran for.
Spans stay in memory in flat arrays and are written out once, when the
run ends.  Self time is derived from the spans afterwards: a span's
duration minus the part of it its child spans cover.

The untraced run never imports this module, so it wraps nothing.
"""

import array
import importlib
import time
from collections import defaultdict

import numpy as np

# (module or class path, attribute, span name): every place a caller looks
# the name up.  Module-level functions are patched in each importing module
# because ``from .space import is_m_connected`` binds its own name.
PATCHES = (
    ("nldiff.space", "from_kernel_grid", "space.build"),
    ("nldiff.cli", "from_kernel_grid", "space.build"),
    ("nldiff.space", "from_weighted_graph", "space.build"),
    ("nldiff.cli", "from_weighted_graph", "space.build"),
    ("nldiff.space", "is_m_connected", "space.connectivity"),
    ("nldiff.stationary", "is_m_connected", "space.connectivity"),
    ("nldiff.cli", "is_m_connected", "space.connectivity"),
    ("nldiff.stationary", "estimate_poincare_constant", "space.poincare"),
    ("nldiff.cli", "estimate_poincare_constant", "space.poincare"),
    ("nldiff.flux:LerayLionsFlux", "evaluate", "flux.evaluate"),
    ("nldiff.flux:LerayLionsFlux", "slope", "flux.slope"),
    ("nldiff.monotone:MonotoneGraph", "interval", "monotone.interval"),
    ("nldiff.monotone:MonotoneGraph", "yosida", "monotone.yosida"),
    ("nldiff.monotone:MonotoneGraph", "yosida_slope", "monotone.yosida"),
    ("nldiff.stationary", "solve_gp", "stationary.solve_gp"),
    ("nldiff.evolution", "solve_gp", "stationary.solve_gp"),
    ("nldiff.cli", "solve_gp", "stationary.solve_gp"),
    ("nldiff.stationary", "solve_approximate", "stationary.solve_approximate"),
    ("nldiff.stationary", "verify_solution", "stationary.verify"),
    ("nldiff.cli", "verify_solution", "stationary.verify"),
    ("nldiff.stationary", "check_range", "stationary.check_range"),
    ("nldiff.cli", "check_range", "stationary.check_range"),
    ("nldiff.stationary", "energy_report", "stationary.energy_report"),
    ("nldiff.cli", "energy_report", "stationary.energy_report"),
    ("numpy.linalg", "solve", "stationary.linear_solve"),
    ("nldiff.evolution", "mild_solve", "evolution.mild_solve"),
    ("nldiff.cli", "mild_solve", "evolution.mild_solve"),
    ("nldiff.evolution", "compatibility_check", "evolution.compatibility"),
    ("nldiff.cli", "compatibility_check", "evolution.compatibility"),
    ("nldiff.evolution", "strong_residual", "evolution.strong_residual"),
    ("nldiff.cli", "strong_residual", "evolution.strong_residual"),
    ("nldiff.evolution", "refine_and_compare", "evolution.refine"),
    ("nldiff.cli", "refine_and_compare", "evolution.refine"),
    ("nldiff.cli", "run", "cli.run"),
)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _count_pairs(tracer, args, kwargs, result):
    r = args[3] if len(args) > 3 else kwargs["r"]
    tracer.add("flux.pairs_evaluated", np.size(r))


def _count_solution(tracer, args, kwargs, result):
    tracer.add("stationary.newton_iterations", result.iterations)
    tracer.add("stationary.schedule_levels", len(result.schedule_trace))


COUNTERS = {
    "flux.evaluate": _count_pairs,
    "stationary.solve_gp": _count_solution,
}


class Tracer:
    """Records spans around the patched calls while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts = defaultdict(float)
        self.op_counts = defaultdict(lambda: defaultdict(float))
        self.current_op = -1
        self._stack = []
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name, value):
        """Add to a count, in total and for the op being run."""
        self.counts[name] += value
        self.op_counts[self.current_op][name] += value

    def wrap(self, name, fn):
        sid = self._id(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        for path, attr, name in PATCHES:
            owner = _owner(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else \
                getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_arrays(self):
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.span_arrays())


def layer_totals(tracer, select):
    """Per span name: calls, seconds and self seconds over selected spans.

    ``select`` is a boolean mask over all spans.  A span's self time is its
    duration minus the durations of its direct children, which always lie
    inside it because calls nest.
    """
    spans = tracer.span_arrays()
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    own = dur - covered
    out = {}
    for sid, name in enumerate(tracer.names):
        mask = select & (spans["name"] == sid)
        out[name] = (int(mask.sum()), float(dur[mask].sum()),
                     float(own[mask].sum()))
    layer_self = defaultdict(float)
    for name, (_, _, own_s) in out.items():
        layer_self[name.split(".")[0]] += own_s
    return out, dict(layer_self)
