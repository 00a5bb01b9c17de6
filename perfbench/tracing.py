"""Span tracing around the library's public functions and methods.

``Tracer.installed()`` replaces each traced name where its callers look it
up (``blowup_lab.reduced`` imports ``energy`` by name, so it is patched there
as well as in ``blowup_lab.functional``; methods are patched on their class)
and restores the originals on exit, so untraced timings run the library
unchanged.  Spans are kept in flat in-memory arrays: name, start, end,
parent span and operation id, plus the number of points in the call's
widest array argument.  A span's self time is its duration minus the
durations of its child spans, which never overlap because the library is
single-threaded Python.
"""

from __future__ import annotations

import array
import contextlib
import math
import time

import numpy as np

from blowup_lab import bubble, diagnostics, functional, geometry, reduced

# (owner, attribute, group).  The group names the layer metric the span's
# self time goes to; see README.md for the metrics.
_TARGETS = [
    (geometry, "build_quadrature", "build"),
    (geometry, "build_multicenter_quadrature", "build"),
    *((geometry.ManifoldModel, m, "metric")
      for m in ("distance", "distance_gradient", "log", "exp",
                "factor_distances", "radial_laplacian_coeff")),
    *((cls, m, "sample") for cls in (bubble.BubbleField, bubble.SumField)
      for m in ("__call__", "grad", "laplace_beltrami")),
    (functional, "energy", "reduce"),
    (reduced, "energy", "reduce"),
    (functional, "residual_norm", "reduce"),
    (functional, "energy_split", "reduce"),
    (functional.PotentialField, "__call__", "potential"),
    (reduced, "reduced_limit_ratio", "ratio"),
    (diagnostics, "extract_peaks", "extract"),
]

OP = "op"  # the benchmark's own span around one operation


def _span_name(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _rows(args):
    """Points in the widest array argument: the leading dims of its shape."""
    rows = 0
    for a in args:
        shape = getattr(a, "shape", None)
        if shape:
            rows = max(rows, math.prod(shape[:-1]))
    return rows


class Tracer:
    """Records spans while installed; ``op(i)`` opens an operation's root."""

    def __init__(self):
        self.names = [OP]
        self.groups = {OP: "op"}
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op_id = array.array("q")
        self.name_id = array.array("q")
        self.rows = array.array("q")
        self.rules = {}  # build span -> (nodes, bytes) of the rule it returned
        self._stack = [-1]
        self._op = -1

    def _open(self, name_id, rows):
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.name_id.append(name_id)
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, group):
        name_id = len(self.names)
        self.names.append(name)
        self.groups[name] = group

        def traced(*args, **kwargs):
            idx = self._open(name_id, _rows(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if group == "build":
                self.rules[idx] = (result.node_count,
                                   result.nodes.nbytes + result.weights.nbytes)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        wrappers = {}
        try:
            for owner, attr, group in _TARGETS:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                # one wrapper per function, whichever module exposes it
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, _span_name(owner, attr),
                                                  group)
                setattr(owner, attr, wrappers[id(fn)])
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        idx = self._open(0, 0)
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def arrays(self):
        """Spans as numpy columns, with each span's self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.frombuffer(self.name_id, dtype=np.int64),
                "start": start, "end": end, "parent": parent,
                "op": np.frombuffer(self.op_id, dtype=np.int64),
                "rows": np.frombuffer(self.rows, dtype=np.int64),
                "dur": dur, "self": dur - child}

    def save(self, path):
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: cols[k] for k in ("name", "start", "end", "parent", "op", "rows")})

    def layer_metrics(self, n_ops):
        """Per-layer metrics, each per traced operation unless a ratio.

        Counts and times are summed over the traced operations and divided
        by their number; a metric whose layer the workload never reaches
        reads 0, and so does a ratio whose base is 0.
        """
        s = self.arrays()
        named = np.array(self.names)[s["name"]]
        group = np.array([self.groups[n] for n in self.names])[s["name"]]
        parent_group = np.where(s["parent"] >= 0,
                                group[np.maximum(s["parent"], 0)], "")

        def per_op(x):
            return float(x) / n_ops

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        def self_time(g):
            return per_op(s["self"][group == g].sum())

        build = group == "build"
        outer = build & (parent_group != "build")
        leaf = build.copy()
        leaf[s["parent"][build & (parent_group == "build")]] = False
        def rule_total(mask, field):
            # a build that raised returned no rule
            return sum(self.rules.get(i, (0, 0))[field]
                       for i in np.flatnonzero(mask))

        outer_nodes = rule_total(outer, 0)
        outer_bytes = rule_total(outer, 1)
        leaf_nodes = rule_total(leaf, 0)
        metric_top = (group == "metric") & (parent_group != "metric")
        distance_rows = s["rows"][named == "geometry.ManifoldModel.distance"]
        bubble_calls = np.char.startswith(named, "bubble.BubbleField.")
        field_calls = (group == "sample") & (parent_group == "extract")
        return {
            "geometry.build_s": (self_time("build"), "s"),
            "geometry.build_calls": (per_op(build.sum()), "count"),
            "geometry.nodes": (per_op(outer_nodes), "count"),
            "geometry.rule_mb": (per_op(outer_bytes) / 2**20, "MiB"),
            "geometry.kept_frac": (ratio(outer_nodes, leaf_nodes), "ratio"),
            "geometry.metric_s": (self_time("metric"), "s"),
            "geometry.metric_calls": (per_op(metric_top.sum()), "count"),
            "geometry.points_per_metric_call": (
                ratio(s["rows"][metric_top].sum(), metric_top.sum()), "count"),
            "geometry.distance_points_per_node": (
                ratio(distance_rows.sum(), outer_nodes), "ratio"),
            "bubble.sample_s": (self_time("sample"), "s"),
            "bubble.sample_calls": (per_op(bubble_calls.sum()), "count"),
            "functional.reduce_s": (self_time("reduce"), "s"),
            "functional.integrals": (per_op((group == "reduce").sum()), "count"),
            "reduced.potential_s": (self_time("potential"), "s"),
            "reduced.ratio_s": (self_time("ratio"), "s"),
            "diagnostics.extract_s": (self_time("extract"), "s"),
            "diagnostics.field_calls": (per_op(field_calls.sum()), "count"),
            "diagnostics.points_per_field_call": (
                ratio(s["rows"][field_calls].sum(), field_calls.sum()), "count"),
            "op.other_s": (self_time("op"), "s"),
            "trace.spans": (per_op(len(group)), "count"),
        }
