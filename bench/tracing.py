"""Spans around the public entry points of the five malthus modules.

The tracer patches module attributes from outside (``src/`` is untouched):
each entry point is replaced by a wrapper that records a span with its
name, start, end, parent span and the benchmark operation that caused it.
Spans stay in memory and are written out once, at the end of the run.

A wrapper is installed under the name through which the package itself
calls the function, e.g. ``age_model.integrate`` (age_model imports it by
name) and ``estimator.simulate_tree``.  Callables handed to the numerics
layer (the integrand of ``integrate``, the resolvent ``h`` of
``find_root_decreasing``) are wrapped at the call, so their time and the
abscissae they evaluate are measured where the work happens.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

import numpy as np

class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag", "child_ns")

    def __init__(self, name, start, parent, op, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tag = tag
        self.child_ns = 0

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        # children run on this thread and never overlap, so their union is
        # their sum
        return self.dur_ns - self.child_ns


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.trees = []  # (cells, generations, peak frontier, bytes) per tree
        self._stack = []
        self._op = -1
        self._patched = []

    # -- recording ---------------------------------------------------------

    def open(self, name, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent, self._op, tag))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.dur_ns

    def count(self, key, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def op(self, op_id: int, name: str):
        """Marks one benchmark operation (a solve or a CLI command)."""
        self._op = op_id
        idx = self.open("bench." + name)
        try:
            yield
        finally:
            self.close(idx)
            self._op = -1

    def span(self, name, fn, tag=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, tag(*args) if tag else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, args)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, obj, attr, wrapper) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def install(self, m) -> None:
        """Wrap the entry points of ``m.age_model``, ``m.size_sim``,
        ``m.estimator`` and ``m.cli``, and the numerics they import."""
        age_model, cli, estimator, size_sim = m.age_model, m.cli, m.estimator, m.size_sim

        # numerics, as age_model calls it; the callables it receives are
        # wrapped too, so integrand time and abscissae are measured
        integrate = age_model.integrate

        def traced_integrate(f, a, b, *rest, **kw):
            def integrand(x):
                idx = self.open("age_model.integrand")
                try:
                    return f(x)
                finally:
                    self.close(idx)
                    self.count("integrate.points", np.size(x))

            idx = self.open("numerics.integrate")
            try:
                return integrate(integrand, a, b, *rest, **kw)
            finally:
                self.close(idx)

        self._patch(age_model, "integrate", traced_integrate)

        find_root = age_model.find_root_decreasing

        def traced_find_root(h, *rest, **kw):
            idx = self.open("numerics.find_root_decreasing")
            try:
                return find_root(self.span("numerics.root.h", h), *rest, **kw)
            finally:
                self.close(idx)

        self._patch(age_model, "find_root_decreasing", traced_find_root)

        def drawn(out, args):
            self.count("rng.draws", np.size(out))

        for name in ("uniforms_at", "open_uniforms_at", "cell_base", "child_key"):
            self._patch(size_sim, name, self.span("numerics.rng." + name, getattr(size_sim, name), after=drawn))

        # age_model entry points; they call each other through module
        # globals, so nested solves show up as child spans
        for name in ("malthus_reference", "malthus_with_variability"):
            self._patch(age_model, name, self.span("age_model." + name, getattr(age_model, name), tag=_family))
        for name in ("malthus_general", "eigen_pair", "dlambda_dalpha", "d2lambda_at_zero"):
            self._patch(age_model, name, self.span("age_model." + name, getattr(age_model, name)))

        # size_sim, under every name the package and the benchmark call it by
        for mod in (size_sim, estimator, cli):
            self._patch(mod, "simulate_tree", self.span("size_sim.simulate_tree", mod.simulate_tree, after=self._tree_stats))
        cells = size_sim.TreeResult.cells

        def traced_cells(tree):
            # materialized inside the span so the consumer's loop is not timed
            idx = self.open("size_sim.cells")
            try:
                records = list(cells(tree))
            finally:
                self.close(idx)
            self.count("cells_iter.records", len(records))
            return iter(records)

        self._patch(size_sim.TreeResult, "cells", traced_cells)

        # estimator, as cli and the estimator module itself call it
        for name in ("malthus_hat_biomass", "malthus_hat_count"):
            self._patch(estimator, name, self.span("estimator.hat", getattr(estimator, name)))
        for name in ("cv_table", "estimator_sd_comparison"):
            self._patch(cli, name, self.span("estimator." + name, getattr(cli, name)))

        self._patch(cli, "main", self.span("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    def _tree_stats(self, tree, args) -> None:
        # bookkeeping of the benchmark, kept as its own span so it is not
        # charged to the estimator or cli span that called simulate_tree
        idx = self.open("bench.tree_stats")
        try:
            self.trees.append(tree_shape(tree))
        finally:
            self.close(idx)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.tag]) + "\n")


def _family(B, *rest) -> str:
    kind = type(B).__name__
    if kind == "ConstantRate":
        return "const"
    if kind == "TabulatedRate":
        return "tabulated"
    if kind == "PowerLagRate":
        return "beta_int" if float(B.beta).is_integer() else "beta_frac"
    return kind


def tree_shape(tree) -> tuple:
    """(cells, generations, largest generation, stored bytes) of a tree.

    Read from ``tree.parent`` alone (-1 at the root): each cell's depth is
    found by pointer jumping, in log2(generations) vectorized steps.  The
    stored bytes are the ``nbytes`` of every array the tree holds.
    """
    parent = np.asarray(tree.parent)
    n = parent.size
    up = np.where(parent < 0, np.arange(n), parent)  # the root points to itself
    roots = up == np.arange(n)
    depth = np.where(roots, 0, 1)
    while not np.all(roots[up]):
        depth, up = depth + depth[up], up[up]  # depth[i] stays the hops from i to up[i]
    stored = sum(v.nbytes for v in _attributes(tree) if isinstance(v, np.ndarray))
    return n, int(depth.max()) + 1, int(np.bincount(depth).max()), stored


def _attributes(obj) -> list:
    names = set(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.update(getattr(cls, "__slots__", ()))
    return [getattr(obj, a) for a in names if hasattr(obj, a)]


def percentile(values, q: int) -> float:
    """q-th percentile (exclusive method); the value itself for one sample."""
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the spans of one traced pass.

    A layer the workload does not exercise reads 0 (no calls, no time).
    """
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def total_ms(name, self_only=False):
        return sum(s.self_ns if self_only else s.dur_ns for s in spans(name)) / 1e6

    def median_ms(name):
        return percentile([s.dur_ns / 1e6 for s in spans(name)], 50)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["numerics.integrate.calls"] = len(spans("numerics.integrate"))
    m["numerics.integrate.points"] = tracer.counts.get("integrate.points", 0)
    m["numerics.integrate.self_ms"] = total_ms("numerics.integrate", self_only=True)
    roots = len(spans("numerics.find_root_decreasing"))
    h_evals = spans("numerics.root.h")
    m["numerics.root.calls"] = roots
    m["numerics.root.h_evals_per_root"] = ratio(len(h_evals), roots)
    m["numerics.root.us_per_h_eval"] = ratio(sum(s.dur_ns for s in h_evals) / 1e3, len(h_evals))

    cells = sum(t[0] for t in tracer.trees)
    draws = tracer.counts.get("rng.draws", 0)
    rng_ns = sum(
        s.dur_ns
        for name in ("uniforms_at", "open_uniforms_at", "cell_base", "child_key")
        for s in spans("numerics.rng." + name)
    )
    m["numerics.rng.draws_per_cell"] = ratio(draws, cells)
    m["numerics.rng.ns_per_draw"] = ratio(rng_ns, draws)

    solves = spans("age_model.malthus_reference") + spans("age_model.malthus_with_variability")
    for family in ("const", "beta_int", "beta_frac", "tabulated"):
        m["age_model.lambda_ms_p50." + family] = percentile([s.dur_ns / 1e6 for s in solves if s.tag == family], 50)
    m["age_model.integrand.self_ms"] = total_ms("age_model.integrand", self_only=True)
    for name in ("malthus_general", "eigen_pair", "dlambda_dalpha", "d2lambda_at_zero"):
        m[f"age_model.{name}_ms"] = median_ms("age_model." + name)

    trees = spans("size_sim.simulate_tree")
    m["size_sim.simulate_tree.ms_p50"] = percentile([s.dur_ns / 1e6 for s in trees], 50)
    m["size_sim.simulate_tree.ms_p90"] = percentile([s.dur_ns / 1e6 for s in trees], 90)
    m["size_sim.ns_per_cell"] = ratio(sum(s.dur_ns for s in trees), cells)
    m["size_sim.cells_per_tree"] = ratio(cells, len(tracer.trees))
    m["size_sim.generations_per_tree"] = ratio(sum(t[1] for t in tracer.trees), len(tracer.trees))
    m["size_sim.peak_frontier"] = max((t[2] for t in tracer.trees), default=0)
    m["size_sim.tree_bytes_per_cell"] = ratio(sum(t[3] for t in tracer.trees), cells)
    m["size_sim.cells_iter.ns_per_cell"] = ratio(
        sum(s.dur_ns for s in spans("size_sim.cells")), tracer.counts.get("cells_iter.records", 0)
    )

    # trees evaluated by the estimator: those simulated under an estimator span
    est_idx = {i for i, s in enumerate(tracer.spans) if s.name.startswith("estimator.")}
    est_trees = sum(1 for s in trees if s.parent in est_idx)
    m["estimator.hat.us_per_tree"] = ratio(sum(s.dur_ns for s in spans("estimator.hat")) / 1e3, est_trees)
    m["estimator.self_ms"] = sum(tracer.spans[i].self_ns for i in est_idx) / 1e6
    m["cli.self_ms"] = total_ms("cli.main", self_only=True)
    return m
