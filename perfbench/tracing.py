"""Trace mode: spans and counts recorded around calls into periodlab.

Every wrapper is installed from here, at the name its caller looks up (the
CLI and quad bind some names at import), and removed by ``uninstall``, which
puts the original objects back.  Spans are kept in memory as
``[name, start, end, parent, job]`` and written once, at the end of a run.
A layer is the module a span's name starts with; its self time is the span
duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter

NAME, START, END, PARENT, JOB = range(5)


def merged_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its children, clipped to it."""
    children: dict = {}
    for k, sp in enumerate(spans):
        if sp[PARENT] is not None:
            children.setdefault(sp[PARENT], []).append(k)
    out = []
    for k, sp in enumerate(spans):
        s, e = sp[START], sp[END]
        kids = [(max(spans[c][START], s), min(spans[c][END], e)) for c in children.get(k, ())]
        out.append((e - s) - merged_length([iv for iv in kids if iv[1] > iv[0]]))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.matrix_jobs: dict = {}  # period_matrix span -> its worker count
        self._lock = threading.Lock()
        self.active = False
        self.job = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._patches: list = []  # (owner, attr, original)

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's first span belongs to the span the main thread is in
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name):
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._parent(stack), self.job])
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def bump(self, key, n=1):
        with self._lock:  # pool workers count too
            self.counts[key] += n

    def peak(self, key, value):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- wrapping -----------------------------------------------------------

    def patch(self, owner, attr, make):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def span_wrapper(self, name, on_call=None, on_result=None, reentrant=True):
        """Wrapper factory: one span per call.  ``on_call(args, kwargs)`` and
        ``on_result(result, args, kwargs, duration, span_index)`` record counts.  With
        ``reentrant=False`` a recursive call through the patched global is
        passed straight through (expr.diff and compile_expr recurse)."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                if not reentrant:
                    inside = getattr(tracer._local, name, False)
                    if inside:
                        return fn(*args, **kwargs)
                    setattr(tracer._local, name, True)
                if on_call is not None:
                    on_call(args, kwargs)
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    if not reentrant:
                        setattr(tracer._local, name, False)
                if on_result is not None:
                    sp = tracer.spans[idx]
                    on_result(result, args, kwargs, sp[END] - sp[START], idx)
                return result

            return wrapper

        return make

    def count_wrapper(self, key):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.bump(key)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self, pl):
        """Wrap the public functions of every periodlab module."""
        t = self
        sw = self.span_wrapper

        # manifest
        def emitted(result, *_):
            t.bump("manifest.bytes_out", len(result.encode()))

        self.patch(pl.manifest, "load_manifest", sw("manifest.load_manifest"))
        self.patch(pl.manifest, "canonical_json", sw("manifest.canonical_json", on_result=emitted))
        for attr in ("load_manifest", "canonical_json"):
            self._rebind(pl.cli, attr, pl.manifest)

        # expr: compile entry points, and every closure compile_vec returns
        for attr in ("parse", "diff", "compile_expr"):
            self.patch(pl.expr, attr, sw(f"expr.{attr}", reentrant=False))
        eval_span = sw("expr.eval", on_call=lambda a, k: t.bump("expr.eval_points", _ncols(a[0])))

        def compile_vec(fn):
            traced = sw("expr.compile_vec")(fn)

            @functools.wraps(fn)
            def wrapper(e):
                closure = traced(e)
                return eval_span(closure) if t.active else closure

            return wrapper

        self.patch(pl.expr, "compile_vec", compile_vec)

        # chains: batch evaluation on every evaluator class
        for cls in (pl.chains.SingularSimplex, pl.chains.ExprMap, pl.chains.AffineSimplex,
                    pl.chains.Cone, pl.chains.PrismMap, pl.chains.Composed):
            fallback = cls is pl.chains.SingularSimplex
            for attr in ("evaluate_many", "jacobian_many"):

                def on_call(args, kwargs, fallback=fallback):
                    n = len(args[1])
                    t.bump("chains.eval_points", n)
                    if fallback:
                        t.bump("chains.pointwise_points", n)

                self.patch(cls, attr, sw(f"chains.{attr}", on_call=on_call))

        # forms
        self.patch(
            pl.quad,
            "pullback_top_many",
            sw("forms.pullback_top_many", on_call=lambda a, k: t.bump("forms.density_points", len(a[2]))),
        )

        # quad
        default_cells = pl.quad.QuadConfig().max_cells
        for attr in ("integrate_simplex", "integrate_prism", "finite_volume_check"):
            sig = inspect.signature(getattr(pl.quad, attr))

            def on_result(result, args, kwargs, dur, idx, sig=sig):
                parent = t.spans[idx][PARENT]
                if parent is not None and t.spans[parent][NAME] == "quad.integrate_simplex":
                    return  # cone routed through the prism: counted by the caller
                cfg = sig.bind(*args, **kwargs).arguments.get("config")
                cells = cfg.max_cells if cfg is not None else default_cells
                results = result.per_index.values() if hasattr(result, "per_index") else [result]
                for r in results:
                    t.bump("quad.integrals")
                    t.bump("quad.splits", r.subdivisions)
                    t.bump("quad.converged", int(r.converged))
                    t.bump("quad.budget_exhausted", int(r.subdivisions >= cells - 1))

            self.patch(pl.quad, attr, sw(f"quad.{attr}", on_result=on_result))
        self._rebind(pl.cli, "finite_volume_check", pl.quad)
        for mod in (pl.stokes, pl.periods):
            self._rebind(mod, "integrate_simplex", pl.quad)

        # stokes
        for attr in ("stokes_residual", "check_chain", "triangulated_stokes"):
            self.patch(pl.stokes, attr, sw(f"stokes.{attr}"))
        for attr in ("stokes_residual", "check_chain"):
            self._rebind(pl.cli, attr, pl.stokes)

        # periods
        matrix_sig = inspect.signature(pl.periods.period_matrix)

        def matrix_result(result, args, kwargs, dur, idx):
            t.bump("periods.entries", sum(len(row) for row in result.entries))
            t.matrix_jobs[idx] = matrix_sig.bind(*args, **kwargs).arguments.get("jobs", 1)

        self.patch(pl.periods, "period_matrix", sw("periods.period_matrix", on_result=matrix_result))
        self._rebind(pl.cli, "period_matrix", pl.periods)
        self.patch(pl.periods, "chain_integral", sw("periods.chain_integral"))
        self.patch(pl.periods, "form_is_closed", sw("periods.form_is_closed"))
        self.patch(pl.periods.GeometricCycle, "check_closed", sw("periods.check_closed"))

        # homology
        def complex_in(args, kwargs):
            K = args[0]
            t.bump("homology.cells", sum(K.n_cells(d) for d in range(K.dim + 1)))

        def snf_in(args, kwargs):
            M = args[0]
            t.peak("homology.snf_max_side", max(len(M), len(M[0]) if M else 0))

        self.patch(pl.homology, "homology", sw("homology.homology", on_call=complex_in))
        self.patch(pl.homology, "barycentric_subdivide_complex", sw("homology.subdivide"))
        self.patch(pl.homology, "boundary_matrix", sw("homology.boundary_matrix"))
        self.patch(pl.homology, "smith_normal_form", sw("homology.smith_normal_form", on_call=snf_in))

        # glue
        self.patch(pl.glue, "glue", sw("glue.glue"))
        self._rebind(pl.cli, "glue_op", pl.glue, "glue")
        self.patch(pl.glue.Triangulation, "validate", sw("glue.validate"))
        newton = sw("glue.invert_simplex_map")

        def newton_counting(fn):
            traced = newton(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except pl.glue.InputCompatibilityError:
                    if t.active:
                        t.bump("glue.newton_failures")
                    raise

            return wrapper

        self.patch(pl.glue, "invert_simplex_map", newton_counting)
        self.patch(pl.glue.GluedMap, "_g", self.count_wrapper("glue.g_calls"))
        self.patch(pl.glue.GluedMap, "jacobian", self.count_wrapper("glue.fd_jacobian_calls"))

        # cli
        self.patch(pl.cli, "run", sw("cli.run"))
        self.active = True

    def _rebind(self, owner, attr, source, source_attr=None):
        """``owner`` imported ``attr`` from ``source``: point it at the same wrapper."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, getattr(source, source_attr or attr))

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self):
        return [(owner, attr) for owner, attr, _ in self._patches]

    # -- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "maxima": self.maxima},
                fh,
                separators=(",", ":"),
            )

    def layer_metrics(self, passes: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics, counts and times per pass."""
        spans = self.spans
        selfs = self_times(spans)
        c = self.counts
        per = 1.0 / max(1, passes)
        self_by: Counter = Counter()
        incl: Counter = Counter()
        calls: Counter = Counter()
        for sp, st in zip(spans, selfs):
            self_by[layer_of(sp[NAME])] += st
            calls[sp[NAME]] += 1
            incl[sp[NAME]] += sp[END] - sp[START]
        uncovered = sum(st for sp, st in zip(spans, selfs) if sp[NAME] == "job")

        def ratio(a, b):
            return a / b if b else 0.0

        density_calls = calls["forms.pullback_top_many"]
        density_s = incl["forms.pullback_top_many"]
        newton_calls = calls["glue.invert_simplex_map"]
        # busy time of chain_integral spans inside period_matrix, per matrix
        busy = sum(
            sp[END] - sp[START]
            for sp in spans
            if sp[NAME] == "periods.chain_integral" and sp[PARENT] in self.matrix_jobs
        )
        wall_jobs = sum(
            (spans[k][END] - spans[k][START]) * jobs for k, jobs in self.matrix_jobs.items()
        )
        splits = c["quad.splits"]
        out = {
            "manifest.load_s": incl["manifest.load_manifest"] * per,
            "manifest.emit_s": incl["manifest.canonical_json"] * per,
            "manifest.bytes_out": c["manifest.bytes_out"] * per,
            "expr.compile_s": sum(incl[f"expr.{a}"] for a in ("parse", "diff", "compile_vec", "compile_expr")) * per,
            "expr.eval_calls": calls["expr.eval"] * per,
            "expr.eval_points": c["expr.eval_points"] * per,
            "expr.eval_s": incl["expr.eval"] * per,
            "chains.eval_calls": (calls["chains.evaluate_many"] + calls["chains.jacobian_many"]) * per,
            "chains.eval_points": c["chains.eval_points"] * per,
            "chains.self_s": self_by["chains"] * per,
            "chains.pointwise_points": c["chains.pointwise_points"] * per,
            "forms.density_calls": density_calls * per,
            "forms.density_points": c["forms.density_points"] * per,
            "forms.points_per_call": ratio(c["forms.density_points"], density_calls),
            "forms.us_per_call": 1e6 * ratio(density_s, density_calls),
            "forms.us_per_point": 1e6 * ratio(density_s, c["forms.density_points"]),
            "forms.self_s": self_by["forms"] * per,
            "quad.integrals": c["quad.integrals"] * per,
            "quad.splits": splits * per,
            "quad.budget_exhausted": c["quad.budget_exhausted"] * per,
            "quad.converged_ratio": ratio(c["quad.converged"], c["quad.integrals"]),
            "quad.self_s": self_by["quad"] * per,
            "quad.us_per_split": 1e6 * ratio(self_by["quad"], splits),
            "quad.density_calls_per_split": ratio(density_calls, splits),
            "stokes.checks": sum(
                1 for sp in spans
                if layer_of(sp[NAME]) == "stokes"
                and (sp[PARENT] is None or layer_of(spans[sp[PARENT]][NAME]) != "stokes")
            ) * per,
            "stokes.self_s": self_by["stokes"] * per,
            "periods.entries": c["periods.entries"] * per,
            "periods.check_s": (incl["periods.check_closed"] + incl["periods.form_is_closed"]) * per,
            "periods.parallel_efficiency": ratio(busy, wall_jobs),
            "homology.cells": c["homology.cells"] * per,
            "homology.subdivide_s": incl["homology.subdivide"] * per,
            "homology.boundary_s": incl["homology.boundary_matrix"] * per,
            "homology.snf_calls": calls["homology.smith_normal_form"] * per,
            "homology.snf_s": incl["homology.smith_normal_form"] * per,
            "homology.snf_max_side": self.maxima.get("homology.snf_max_side", 0),
            "homology.self_s": self_by["homology"] * per,
            "glue.glue_s": incl["glue.glue"] * per,
            "glue.validate_s": incl["glue.validate"] * per,
            "glue.newton_calls": newton_calls * per,
            "glue.newton_s": incl["glue.invert_simplex_map"] * per,
            "glue.us_per_newton": 1e6 * ratio(incl["glue.invert_simplex_map"], newton_calls),
            "glue.newton_failures": c["glue.newton_failures"] * per,
            "glue.g_cache_hit_ratio": 1.0 - ratio(newton_calls, c["glue.g_calls"]) if c["glue.g_calls"] else 0.0,
            "glue.fd_jacobian_calls": c["glue.fd_jacobian_calls"] * per,
            "cli.self_s": self_by["cli"] * per,
            "trace.uncovered_s": uncovered * per,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0,
        }
        return out


def _ncols(cols) -> int:
    shape = getattr(cols, "shape", None)
    return int(shape[1]) if shape is not None and len(shape) > 1 else 1
