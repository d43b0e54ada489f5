"""Span tracing installed from outside the library.

Wrappers replace module attributes and class methods of ``rhwznw`` so that
intra-package calls (which go through ``fuchs.transport``,
``FuchsianSystem.A_of``, ``rhsolve.residual_vector`` and so on) are seen.
Each wrapped call records a span ``[name, start_ns, end_ns, parent, op,
A_of calls at start, A_of calls at end]`` in memory; self time is derived
from the spans afterwards.  ``FuchsianSystem.A_of`` is only counted (calls
and evaluation points), never spanned, because it is called hundreds of
thousands of times per solve.

``numcore`` is bound by its callers with ``from .numcore import ...``, so a
wrapper outside the library cannot see it; its cost stays inside the
callers' self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from rhwznw import cli, factor, fuchs, moduli, paths, rhsolve, wznw

# (owner, attribute, span name)
SPANNED = [
    (paths, "plan_route", "paths.plan_route"),
    (fuchs, "transport", "fuchs.transport"),
    (fuchs, "monodromy_rep", "fuchs.monodromy_rep"),
    (fuchs, "rep_distance", "fuchs.rep_distance"),
    (rhsolve, "solve", "rhsolve.solve"),
    (rhsolve, "residual_vector", "rhsolve.residual_vector"),
    (rhsolve, "align_tuple_to_target", "rhsolve.align_tuple_to_target"),
    (rhsolve, "normalize_at_infinity", "rhsolve.normalize_at_infinity"),
    (wznw, "make_metric_field", "wznw.make_metric_field"),
    (wznw.TransportWeb, "__init__", "wznw.TransportWeb"),
    (wznw, "action_regularized", "wznw.action_regularized"),
    (wznw.MetricField, "y_at", "wznw.y_at"),
    (wznw, "flatness_residual", "wznw.flatness_residual"),
    (wznw, "annulus_kinetic_integral", "wznw.annulus_kinetic_integral"),
    (wznw, "three_form_pair", "wznw.three_form_pair"),
    (factor, "bruhat_factor", "factor.bruhat_factor"),
    (factor, "bruhat_permutation", "factor.bruhat_permutation"),
    (factor, "cholesky_minors", "factor.cholesky_minors"),
    (factor, "cholesky_upper", "factor.cholesky_upper"),
    (factor, "cholesky_differential", "factor.cholesky_differential"),
    (moduli, "deform_rep", "moduli.deform_rep"),
    (moduli, "project_conjugators", "moduli.project_conjugators"),
    (cli, "main", "cli.main"),
]

# span names whose per-op call count and self seconds are reported
CALLS = [
    "paths.plan_route", "fuchs.transport", "fuchs.monodromy_rep",
    "rhsolve.residual_vector", "rhsolve.normalize_at_infinity", "wznw.y_at",
    "factor.bruhat_factor", "factor.bruhat_permutation", "factor.cholesky_upper",
    "factor.cholesky_differential",
]
SELF_SECONDS = [
    "paths.plan_route", "fuchs.transport", "fuchs.monodromy_rep", "fuchs.rep_distance",
    "rhsolve.solve", "rhsolve.residual_vector", "rhsolve.align_tuple_to_target",
    "rhsolve.normalize_at_infinity", "wznw.make_metric_field", "wznw.TransportWeb",
    "wznw.action_regularized", "wznw.y_at", "wznw.flatness_residual",
    "wznw.annulus_kinetic_integral", "wznw.three_form_pair", "factor.bruhat_factor",
    "factor.bruhat_permutation", "factor.cholesky_minors", "factor.cholesky_upper",
    "factor.cholesky_differential", "moduli.deform_rep", "moduli.project_conjugators",
    "cli.main",
]
# counters noted from return values: summed per op, or the max over the run
SUMMED = ["fuchs.transport.steps", "rhsolve.lm_iterations", "rhsolve.restarts", "wznw.web_nodes"]
MAXED = ["rhsolve.final_residual_max", "wznw.fit_residual_rel_max", "wznw.imag_residual_max"]
# counters that must repeat exactly between two runs of one seed
DETERMINISTIC = (
    [f"{n}.calls" for n in CALLS]
    + ["fuchs.A_of.calls", "fuchs.A_of.points"]
    + SUMMED
)

# every per-layer metric with its unit; figures of other origin are merged in
UNITS = (
    [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.s", "s") for n in SELF_SECONDS]
    + [(key, "count") for key in SUMMED]
    + [(key, "1") for key in MAXED]
    + [
        ("fuchs.A_of.calls", "count"),
        ("fuchs.A_of.points", "count"),
        ("fuchs.rhs_per_step", "ratio"),
        ("wznw.y_at.hit_ratio", "ratio"),
        ("moduli.levi_margin", "1"),
        ("trace.overhead", "ratio"),
    ]
)


class Tracer:
    """In-memory spans and counters for one traced benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.a_of_calls = 0
        self.a_of_points = 0
        self.notes: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.a_of_by_op: dict[int, tuple[int, int]] = {}
        self._a_start = (0, 0)
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, self._spanned(name, getattr(owner, attr)))
        self._replace(fuchs.FuchsianSystem, "A_of", self._counted(fuchs.FuchsianSystem.A_of))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counted(self, fn):
        def a_of(system, z):
            self.a_of_calls += 1
            self.a_of_points += np.size(z)
            return fn(system, z)

        return a_of

    def _spanned(self, name, fn):
        after = _AFTER.get(name)
        clock = time.perf_counter_ns
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, self.a_of_calls, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[6] = self.a_of_calls
                stack.pop()
            if after is not None:
                after(self.notes[self.op], args, out)
            return out

        return wrapper

    # -- per-op counters ----------------------------------------------------

    def op_counters(self) -> dict[int, dict[str, float]]:
        """Deterministic work counters of every op, keyed by op id."""
        out = {op: dict.fromkeys(DETERMINISTIC, 0.0) for op in self.a_of_by_op}
        for name, _, _, _, op, _, _ in self.spans:
            key = f"{name}.calls"
            if op in out and key in out[op]:
                out[op][key] += 1
        for op, counters in out.items():
            counters["fuchs.A_of.calls"], counters["fuchs.A_of.points"] = self.a_of_by_op[op]
            for key in SUMMED:
                counters[key] = float(self.notes[op].get(key, 0.0)) if op in self.notes else 0.0
        return out

    def begin_op(self, op: int) -> None:
        self.op = op
        self._a_start = (self.a_of_calls, self.a_of_points)

    def end_op(self) -> None:
        calls = self.a_of_calls - self._a_start[0]
        points = self.a_of_points - self._a_start[1]
        self.a_of_by_op[self.op] = (calls, points)
        self.op = -1

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self, ops: list[int]) -> dict[str, float]:
        """Per-op averages of calls, self seconds and counters over ``ops``."""
        wanted = set(ops)
        n_ops = max(len(wanted), 1)
        child_ns = [0] * len(self.spans)
        has_transport_child = [False] * len(self.spans)
        for rec in self.spans:
            parent = rec[3]
            if parent >= 0:
                child_ns[parent] += rec[2] - rec[1]
                if rec[0] == "fuchs.transport":
                    has_transport_child[parent] = True
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        rhs_in_transport = 0
        y_at_hits = 0
        for k, rec in enumerate(self.spans):
            name, t0, t1, _, op, a0, a1 = rec
            if op not in wanted:
                continue
            calls[name] += 1
            self_ns[name] += (t1 - t0) - child_ns[k]
            if name == "fuchs.transport":
                rhs_in_transport += a1 - a0
            elif name == "wznw.y_at" and not has_transport_child[k]:
                y_at_hits += 1
        notes = [self.notes[op] for op in wanted if op in self.notes]

        m: dict[str, float] = {}
        for name in CALLS:
            m[f"{name}.calls"] = calls[name] / n_ops
        for name in SELF_SECONDS:
            m[f"{name}.s"] = self_ns[name] * 1e-9 / n_ops
        for key in SUMMED:
            m[key] = sum(n.get(key, 0.0) for n in notes) / n_ops
        for key in MAXED:
            m[key] = max((n.get(key, 0.0) for n in notes), default=0.0)
        a_of = [self.a_of_by_op.get(op, (0, 0)) for op in wanted]
        m["fuchs.A_of.calls"] = sum(c for c, _ in a_of) / n_ops
        m["fuchs.A_of.points"] = sum(p for _, p in a_of) / n_ops
        steps = m["fuchs.transport.steps"] * n_ops
        m["fuchs.rhs_per_step"] = rhs_in_transport / steps if steps else 0.0
        y_calls = calls["wznw.y_at"]
        m["wznw.y_at.hit_ratio"] = y_at_hits / y_calls if y_calls else 0.0
        return m

    def dump_spans(self) -> list[dict]:
        return [
            {"name": n, "start_ns": t0, "end_ns": t1, "parent": p, "op": op}
            for n, t0, t1, p, op, _, _ in self.spans
        ]


# -- counters read from return values ---------------------------------------


def _after_transport(notes, args, out):
    notes["fuchs.transport.steps"] += out.step_count


def _after_solve(notes, args, out):
    _, report = out
    notes["rhsolve.lm_iterations"] += report.iterations
    notes["rhsolve.restarts"] += report.restart_index
    notes["rhsolve.final_residual_max"] = max(
        notes["rhsolve.final_residual_max"], report.final_residual
    )


def _after_web(notes, args, out):
    web = args[0]
    notes["wznw.web_nodes"] += sum(len(region.z) for region in web.regions)


def _after_action(notes, args, out):
    totals = [t for _, t in out.per_delta]
    scale = max(abs(out.value), max(totals) - min(totals), 1e-300)
    notes["wznw.fit_residual_rel_max"] = max(
        notes["wznw.fit_residual_rel_max"], out.extrapolation_error / scale
    )
    notes["wznw.imag_residual_max"] = max(notes["wznw.imag_residual_max"], out.imag_residual)


_AFTER = {
    "fuchs.transport": _after_transport,
    "rhsolve.solve": _after_solve,
    "wznw.TransportWeb": _after_web,
    "wznw.action_regularized": _after_action,
}
