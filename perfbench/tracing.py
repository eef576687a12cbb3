"""Span tracer for the traced benchmark run.

The tracer wraps public calls of each stswall layer from the outside, so the
program itself is unchanged and untraced runs install nothing.  Each wrapped
call is a span with a name, a start, an end and a parent.  Spans of the coarse
layers (runner, integrator entry points, output writing, series, config) are
kept one by one and written out when the run ends.  Spans of the per-call
layers (RHS, coefficients, forcing, constraints, observers) number in the
millions on the verify workload, so they are folded as they close into one
record per (name, parent): count, total time and self time.  A span's self
time is its duration minus the time covered by its child spans.  The
wrapper's own work outside a child's timed interval falls into its parent's
self time; :meth:`Tracer.calibrate` measures that cost per child span, and
the per-call and self-time metrics have it taken out.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import os
import statistics
from time import perf_counter

# Layers whose spans are kept individually.
COARSE = {
    "cases.run", "config.load_config", "cases.emit_outputs",
    "series.write_synthetic_climate", "series.ingest_boundary_series",
    "integrators.euler_run", "integrators.dufort_frankel_run", "integrators.sts_run",
}

INTEGRATORS = ("euler_run", "dufort_frankel_run", "sts_run")
FORCING_FIELDS = ("u_inf", "v_inf", "psat_inf", "g_inf", "flux_m", "flux_t")
COEFFICIENT_FIELDS = ("d_theta", "d_t", "c_t", "k_t", "k_tm")


class Tracer:
    def __init__(self):
        self._stack = []      # open spans: [name, child seconds, span index or -1]
        self.agg = {}         # (name, parent name) -> [count, total s, self s]
        self.spans = []       # coarse spans: [name, start, end, parent index]
        self.marches = []     # (report, observe given, seconds)
        self.frozen_matrix_bytes = 0
        self.output_bytes = 0
        self.span_s = 0.0     # cost of a wrapped call to its caller's self time

    def wrap(self, name, fn, on_return=None):
        """``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        agg = self.agg
        keep = name in COARSE

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = -1
            if keep:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent[2] if parent else -1])
            frame = [name, 0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent else None)
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]
                if keep:
                    self.spans[index][1:3] = [t0, t1]
            if on_return is not None:
                on_return(result, args, kwargs, dt)
            return result

        return traced

    def calibrate(self, calls=20000, repeats=5) -> float:
        """Measure, in seconds, what one wrapped call adds to its caller's self time.

        It is the difference in self time between a span that makes
        ``calls`` calls to a wrapped empty function and one that makes them
        to the bare function; the median of ``repeats`` pairs.
        """
        def noop():
            pass

        def loop(fn):
            for _ in range(calls):
                fn()

        probe = Tracer()
        child = probe.wrap("child", noop)
        wrapped, bare = probe.wrap("wrapped", loop), probe.wrap("bare", loop)
        costs = []
        for _ in range(repeats):
            probe.agg.clear()
            wrapped(child)
            bare(noop)
            costs.append((probe.agg[("wrapped", None)][2] - probe.agg[("bare", None)][2]) / calls)
        self.span_s = max(0.0, statistics.median(costs))
        return self.span_s

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public calls of each stswall layer (stswall must be importable)."""
        from stswall import cases, config, model, operator

        op_cls = operator.SemiDiscreteOperator
        for meth in ("rhs", "apply_constraints", "gershgorin_lambda_max"):
            setattr(op_cls, meth, self.wrap(f"operator.{meth}", getattr(op_cls, meth)))

        def matrix_bytes(result, args, kwargs, dt):
            n = args[0].n
            self.frozen_matrix_bytes = max(self.frozen_matrix_bytes, 8 * (2 * n) ** 2)

        op_cls.frozen_matrix = self.wrap("operator.frozen_matrix", op_cls.frozen_matrix, matrix_bytes)

        # Coefficient and forcing callables are dataclass fields filled by the
        # classmethod constructors, so wrap what those constructors return.
        def wrap_fields(cls, ctor_name, fields, span_name):
            ctor = getattr(cls, ctor_name).__func__

            def build(klass, *args, **kwargs):
                obj = ctor(klass, *args, **kwargs)
                return dataclasses.replace(
                    obj, **{f: self.wrap(span_name, getattr(obj, f)) for f in fields})

            setattr(cls, ctor_name, classmethod(build))

        for ctor_name in ("constants", "polynomials"):
            wrap_fields(model.CoefficientModel, ctor_name, COEFFICIENT_FIELDS, "model.coefficients")
        for ctor_name in ("robin", "dirichlet"):
            wrap_fields(model.SideForcing, ctor_name, FORCING_FIELDS, "model.forcing")

        for name in INTEGRATORS:
            setattr(cases, name, self._wrap_integrator(name, getattr(cases, name)))

        def count_bytes(written, args, kwargs, dt):
            self.output_bytes += sum(os.path.getsize(p) for p in written)

        cases.emit_outputs = self.wrap("cases.emit_outputs", cases.emit_outputs, count_bytes)
        cases.error_norms = self.wrap("metrics.error_norms", cases.error_norms)
        cases.write_synthetic_climate = self.wrap(
            "series.write_synthetic_climate", cases.write_synthetic_climate)
        ingest = self.wrap("series.ingest_boundary_series", cases.ingest_boundary_series)
        cases.ingest_boundary_series = ingest
        config.ingest_boundary_series = ingest

    def _wrap_integrator(self, name, fn):
        sig = inspect.signature(fn)
        traced = self.wrap(f"integrators.{name}", fn)

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            observe = bound.arguments.get("observe")
            if observe is not None:
                bound.arguments["observe"] = self.wrap("integrators.observe", observe)
            t0 = perf_counter()
            report = traced(*bound.args, **bound.kwargs)
            self.marches.append((report, observe is not None, perf_counter() - t0))
            return report

        return call

    # -- results ------------------------------------------------------------

    def _total(self, name, parent=...):
        count = total = self_s = 0
        for (n, p), (c, t, s) in self.agg.items():
            if n == name and (parent is ... or p == parent):
                count += c
                total += t
                self_s += s
        return count, total, self_s

    def _children(self, parent) -> int:
        return sum(c for (_, p), (c, _, _) in self.agg.items() if p == parent)

    def _times(self, name) -> tuple:
        """(calls, total s, self s) of ``name``, less the wrapper cost of its child spans."""
        count, total, self_s = self._total(name)
        cost = self.span_s * self._children(name)
        return count, total - cost, self_s - cost

    def layer_metrics(self, table_reports) -> dict:
        """Per-layer metrics of one traced round.

        ``table_reports`` are the run reports the runner returned; integrator
        marches not among them and run without an observer are the case's
        reference (oracle) marches.
        """
        def per_call(name, scale=1e6):
            count, total, _ = self._times(name)
            return count, (total / count * scale if count else 0.0)

        out = {}
        rhs_calls, rhs_total, rhs_self = self._times("operator.rhs")
        out["operator.rhs.calls"] = rhs_calls
        out["operator.rhs.us_per_call"] = rhs_total / rhs_calls * 1e6 if rhs_calls else 0.0
        out["operator.rhs.self_us_per_call"] = rhs_self / rhs_calls * 1e6 if rhs_calls else 0.0

        coeff_calls, _, _ = self._total("model.coefficients")
        _, coeff_in_rhs, _ = self._total("model.coefficients", "operator.rhs")
        out["model.coefficients.calls"] = coeff_calls
        out["model.coefficients.us_per_rhs"] = coeff_in_rhs / rhs_calls * 1e6 if rhs_calls else 0.0

        for name in ("model.forcing", "operator.apply_constraints",
                     "operator.gershgorin_lambda_max", "operator.frozen_matrix",
                     "integrators.observe", "metrics.error_norms"):
            out[f"{name}.calls"], out[f"{name}.us_per_call"] = per_call(name)
        out["operator.frozen_matrix.bytes"] = self.frozen_matrix_bytes

        steps = sum(report.n_steps for report, _, _ in self.marches)
        loop_self = sum(self._times(f"integrators.{n}")[2] for n in INTEGRATORS)
        out["integrators.steps"] = steps
        out["integrators.self_us_per_step"] = loop_self / steps * 1e6 if steps else 0.0

        table = {id(r) for r in table_reports}
        oracle = [(r, dt) for r, observed, dt in self.marches
                  if id(r) not in table and not observed]
        out["cases.oracle_s"] = sum(dt for _, dt in oracle)
        out["cases.oracle_rhs_calls"] = sum(r.rhs_evals for r, _ in oracle)

        out["cases.emit_outputs_s"] = self._total("cases.emit_outputs")[1]
        out["cases.output_bytes"] = self.output_bytes
        out["series.write_synthetic_climate_s"] = self._total("series.write_synthetic_climate")[1]
        out["series.ingest_boundary_series_s"] = self._total("series.ingest_boundary_series")[1]
        out["config.load_config_s"] = self._total("config.load_config")[1]
        out["trace.span_us"] = self.span_s * 1e6
        return out

    def dump(self, path) -> None:
        """Write the kept spans and the folded per-call records as JSON."""
        origin = min((s[1] for s in self.spans), default=0.0)
        doc = {
            "spans": [{"name": n, "start_s": a - origin, "end_s": b - origin, "parent": p}
                      for n, a, b, p in self.spans],
            "folded": [{"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
                       for (n, p), (c, t, s) in sorted(self.agg.items(), key=str)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
