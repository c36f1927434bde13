"""Spans around sphereframe's public entry points, recorded from outside the
library.

`Tracer` keeps spans in memory; `instrument` rebinds each wrapped function
under every name a sphereframe module looks it up by and puts the originals
back when its block ends; `layer_metrics` turns the spans into the per-layer
busy times and counts that `bench/run.py --trace 1` reports.

Busy time is summed over threads: a span's self time is its duration minus
the part of it covered by its child spans, and a span's busy time is the sum
of the self times in its subtree.  Worker threads of the rotated-point
evaluator inherit the span that started them, so their time lands under the
`rotated_apply` call that owns them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    thread: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one per traced workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, parent: int | None):
        """Make `parent` the enclosing span of this thread for the block."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **counters):
        stack = self._stack()
        with self._lock:
            s = Span(len(self.spans), name, stack[-1] if stack else None,
                     self.run_id, threading.get_ident(), 0.0, 0.0, counters)
            self.spans.append(s)
        stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _path_bytes(index):
    def count(args, kwargs, result):
        path = args[index] if len(args) > index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return count


def _size(key):
    return lambda args, kwargs, result: {key: int(result.size)}


def _length(key):
    return lambda args, kwargs, result: {key: len(result)}


# (module, function, counters from (args, kwargs, result) or None)
FUNCTIONS = (
    ("specfun", "gegenbauer_table", _size("entries")),
    ("harmonics", "basis_matrix", _size("entries")),
    ("quadrature", "sphere_rule", _length("nodes")),
    ("quadrature", "rotation_rule", _length("rotations")),
    ("frames", "build_system", None),
    ("frames", "analysis", _length("coefficients")),
    ("frames", "synthesis", None),
    ("frames", "parseval_check", None),
    ("frames", "sigma_profile", None),
    ("frames", "frame_bounds", None),
    ("frames", "canonical_dual", None),
    ("frames", "dual_residuals", None),
    ("diagnostics", "localization_report", None),
    ("diagnostics", "autocorrelation", None),
    ("constructions", "wavelet_spec", None),
    ("constructions", "zonal_spec", None),
    ("constructions", "curvelet_spec", None),
    ("constructions", "polar_sample", None),
    ("io", "read_spec", _path_bytes(0)),
    ("io", "read_signal", _path_bytes(0)),
    ("io", "write_spec", _path_bytes(1)),
    ("io", "write_report", _path_bytes(1)),
    ("io", "write_grid", _path_bytes(1)),
    ("io", "write_polar_pgm", _path_bytes(1)),
)

EVALUATOR = "harmonics.ExpansionEvaluator"
ROTATED = EVALUATOR + ".rotated_apply"
REDUCE = ROTATED + ".reduce_fn"
BLOCK = ROTATED + ".block"

# ExpansionEvaluator methods; callers look them up on the class.
METHODS = (
    ("__init__", lambda args, kwargs, result: {"terms": args[0].n_terms}),
    ("eval_angles", lambda args, kwargs, result: {"points": len(args[1])}),
    ("eval_cartesian", lambda args, kwargs, result: {"points": len(args[1])}),
)


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if count is not None:
            s.counters = count(args, kwargs, result)
        return result
    return wrapper


def _wrap_rotated_apply(tracer, fn):
    """Times the reduce_fn callbacks as their own spans and counts points."""
    @functools.wraps(fn)
    def wrapper(self, rotations, points, reduce_fn, *args, **kwargs):
        def timed_reduce(vals, rows):
            with tracer.span(REDUCE):
                return reduce_fn(vals, rows)
        n_points = len(rotations) * len(points)
        with tracer.span(ROTATED, points=n_points,
                         term_points=n_points * self.n_terms):
            return fn(self, rotations, points, timed_reduce, *args, **kwargs)
    return wrapper


def _traced_executor(tracer, executor_cls):
    """Executor whose mapped calls run as spans under the submitting span."""
    class TracedExecutor(executor_cls):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()

            def call(*args):
                with tracer.adopt(parent), tracer.span(BLOCK):
                    return fn(*args)
            return super().map(call, *iterables, **kwargs)
    return TracedExecutor


def sphereframe_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "sphereframe" or name.startswith("sphereframe.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the entry points listed above for the duration of the block."""
    modules = sphereframe_modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    patches = []  # (owner, attribute, original)

    def rebind(original, wrapper):
        # every module-level name bound to the original, e.g. frames.sphere_rule
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    try:
        for mod, attr, count in FUNCTIONS:
            original = getattr(by_name[mod], attr)
            rebind(original, _wrap(tracer, f"{mod}.{attr}", original, count))
        harmonics = by_name["harmonics"]
        cls = harmonics.ExpansionEvaluator
        for attr, count in METHODS:
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, f"{EVALUATOR}.{attr}", original, count))
        original = cls.__dict__["rotated_apply"]
        patches.append((cls, "rotated_apply", original))
        cls.rotated_apply = _wrap_rotated_apply(tracer, original)
        original = harmonics.ThreadPoolExecutor
        patches.append((harmonics, "ThreadPoolExecutor", original))
        harmonics.ThreadPoolExecutor = _traced_executor(tracer, original)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (span names, span names whose subtrees are left out)
LAYER_TIMES = {
    "harmonics.rotated_eval_s": ((ROTATED,), (REDUCE,)),
    "specfun.gegenbauer_s": (("specfun.gegenbauer_table",), ()),
    "frames.contraction_s": ((REDUCE,), ()),
    "frames.analysis_s": (("frames.analysis",), ()),
    "frames.synthesis_s": (("frames.synthesis",), ()),
    "harmonics.projection_s": (("harmonics.basis_matrix",), ()),
    "harmonics.compile_s": ((EVALUATOR + ".__init__",), ()),
    "harmonics.eval_s": ((EVALUATOR + ".eval_angles",
                          EVALUATOR + ".eval_cartesian"), ()),
    "quadrature.rotation_rule_s": (("quadrature.rotation_rule",), ()),
    "quadrature.sphere_rule_s": (("quadrature.sphere_rule",), ()),
    "frames.build_system_s": (("frames.build_system",), ()),
    "frames.spectral_s": (("frames.sigma_profile", "frames.frame_bounds",
                           "frames.canonical_dual", "frames.dual_residuals"), ()),
    "frames.parseval_s": (("frames.parseval_check",), ()),
    "diagnostics.localization_s": (("diagnostics.localization_report",), ()),
    "diagnostics.autocorrelation_s": (("diagnostics.autocorrelation",), ()),
    "constructions.spec_build_s": (("constructions.wavelet_spec",
                                    "constructions.zonal_spec",
                                    "constructions.curvelet_spec"), ()),
    "constructions.polar_sample_s": (("constructions.polar_sample",), ()),
    "io.read_s": (("io.read_spec", "io.read_signal"), ()),
    "io.write_s": (("io.write_spec", "io.write_report", "io.write_grid",
                    "io.write_polar_pgm"), ()),
}

# metric -> (span names, counter)
LAYER_COUNTS = {
    "harmonics.rotated_points": ((ROTATED,), "points"),
    "harmonics.rotated_term_points": ((ROTATED,), "term_points"),
    "specfun.gegenbauer_entries": (("specfun.gegenbauer_table",), "entries"),
    "frames.coefficients": (("frames.analysis",), "coefficients"),
    "harmonics.projection_entries": (("harmonics.basis_matrix",), "entries"),
    "harmonics.compile_terms": ((EVALUATOR + ".__init__",), "terms"),
    "harmonics.eval_points": (LAYER_TIMES["harmonics.eval_s"][0], "points"),
    "quadrature.grid_rotations": (("quadrature.rotation_rule",), "rotations"),
    "quadrature.rule_nodes": (("quadrature.sphere_rule",), "nodes"),
    "io.bytes": (LAYER_TIMES["io.read_s"][0] + LAYER_TIMES["io.write_s"][0],
                 "bytes"),
}

# every per-layer metric with its unit; the traced run reports all of them
PER_LAYER_UNITS = {name: "s" for name in LAYER_TIMES}
PER_LAYER_UNITS.update({name: "count" for name in LAYER_COUNTS})
PER_LAYER_UNITS.update({
    # The only data-dependent count: reports print floats in as few digits
    # as round-trip, so their length varies with the seed.  Every metric in
    # "count" must repeat exactly across seeds.
    "io.bytes": "bytes",
    "harmonics.rotated_ns_per_term_point": "ns",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
})


def _covered(span: Span, kids) -> float:
    """Length of the part of span's interval that its children cover."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end))
                       for k in kids)
    total, lo, hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


class SpanTree:
    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
        self.self_time = {s.id: s.end - s.start - _covered(s, self.children[s.id])
                          for s in self.spans}

    def busy(self, span: Span, exclude=()) -> float:
        if span.name in exclude:
            return 0.0
        return self.self_time[span.id] + sum(
            self.busy(c, exclude) for c in self.children[span.id])

    def outermost(self, names):
        """Spans named in `names` with no ancestor named in `names`, so that
        nested calls within one layer are counted once."""
        out = []
        for s in self.spans:
            if s.name not in names:
                continue
            p = s.parent
            while p is not None and self.by_id[p].name not in names:
                p = self.by_id[p].parent
            if p is None:
                out.append(s)
        return out


def layer_metrics(spans) -> dict:
    """Per-layer busy times (s) and counts from one traced pass."""
    tree = SpanTree(spans)
    out = {}
    for metric, (names, exclude) in LAYER_TIMES.items():
        out[metric] = float(sum(tree.busy(s, exclude) for s in tree.outermost(names)))
    for metric, (names, key) in LAYER_COUNTS.items():
        out[metric] = sum(s.counters[key] for s in tree.outermost(names))
    term_points = out["harmonics.rotated_term_points"]
    out["harmonics.rotated_ns_per_term_point"] = (
        1e9 * out["harmonics.rotated_eval_s"] / term_points if term_points else 0.0)
    out["cli.self_s"] = sum(tree.self_time[s.id] for s in tree.spans
                            if s.name.startswith("cli."))
    out["trace.spans"] = len(tree.spans)
    return out
