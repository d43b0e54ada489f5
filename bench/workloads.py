"""Seeded workloads for the rhwznw benchmark: inputs, ops and correctness gates.

Every op is a call sequence into the public API of ``rhwznw``, followed by
the gates that check its outputs.  Only the library calls are timed; an op
that raises or misses a gate is counted as failed and never timed.  Inputs
come from ``numpy.random.default_rng([tag, seed])``, so one seed always
gives the same inputs, and the library only ever sees the generated data.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rhwznw import cli, fuchs, moduli, rhsolve, wznw

OUT_DIR = Path(__file__).resolve().parent / "out"

# the rigid rank-2 fixture of the test suite and its action
FIXTURE_POINTS = [0.0, 1.0]
FIXTURE_WEIGHTS = [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]]
FIXTURE_ACTION = 0.02694229
# rigid draws keep every weight this far from 0 and 1: with a weight of
# 0.0014 or 0.03 the default delta schedule's fit residual came out at 1.1%
# and 0.98% of the spread (FIT_GATE is 1%); near-zero exponents converge
# slowly in delta.  Over 82 draws with every weight in [0.05, 0.95] the
# largest was 0.44%.
WEIGHT_MARGIN = 0.05
# the criterion-9 moduli family
N4_POINTS = [-1.0, 0.0, 1.0]
N4_WEIGHTS = [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
CENTER_SEED = 5
DIRECTION_SEED = 1
# the halved criterion-9 spacing, where every warm solve takes 3 iterations
STENCIL_SPACING = 0.025
STENCIL = (1.0, -1.0, 1j, -1j)
WARM_OPTS = rhsolve.SolveOptions(restarts=3)
# verify suites with the --count of one pass
SUITES = (("bruhat", 20), ("cholesky", 20), ("three-form", 20), ("flatness", 10), ("counterterm", 1))
POOL = 8  # distinct seeded inputs per kind; cycles beyond it wrap around

# gates (criteria 5 and 7 of the acceptance suite, plus the field gate)
RESIDUAL_GATE = 1e-6
SPECTRUM_GATE = 1e-6
RELATION_GATE = 1e-7
MONODROMY_QUALITY_GATE = 1e-6
FIT_GATE = 1e-2
IMAG_GATE = 1e-8
FIXTURE_ACTION_GATE = 1e-5
ABELIAN_GATE = 1e-3
RANK1_MIN_ACTION = 0.25


@dataclass
class Op:
    """One timed call sequence and the gates on its output."""

    label: str
    run: Callable[[], dict]
    check: Callable[[dict], dict[str, bool]]


@dataclass
class Workload:
    name: str
    why: str
    inputs: Callable[[int], dict]  # seed -> inputs; repeated during set-up
    cycle: Callable[[dict, int], list[Op]]  # (state, k) -> the k-th cycle of ops
    prepare: Callable[[dict], None] = lambda state: None  # one-off set-up work
    # (state, finished op records) -> (figures, {failed op id: gate name})
    finish: Callable[[dict, list[dict]], tuple[dict, dict]] = lambda s, r: ({}, {})


def rng_for(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


# ---------------------------------------------------------------------------
# input generators


def fixture_problem():
    ws = fuchs.build_weight_system(FIXTURE_POINTS, FIXTURE_WEIGHTS)
    return ws, fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))


def draw_rigid(rng: np.random.Generator):
    """Rank-2, n=3 weights of degree -2, kept only with a unitary closure.

    Each row is a sorted pair of uniforms on (0, 1), and the last weight is
    set so the weights sum to 2; draws with a weight within WEIGHT_MARGIN
    of 0 or 1 are rejected, and about one draw in 44 is admissible and
    closes.  Returns the weights, the closure target and the closed-form
    residues.
    """
    while True:
        w = np.sort(rng.uniform(0.0, 1.0, size=(3, 2)), axis=1)
        w[2, 1] = 2.0 - (w.sum() - w[2, 1])
        if w.min() < WEIGHT_MARGIN or w.max() > 1.0 - WEIGHT_MARGIN:
            continue
        try:
            ws = fuchs.build_weight_system(FIXTURE_POINTS, w)
            target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
            residues = fuchs.rank2_rigid_residues(ws)
        except ValueError:  # out of order, or no closure
            continue
        return ws, target, residues


def draw_rank1(rng: np.random.Generator):
    """Rank-1, n=4: distinct points in |z| < 1.5 and weights of degree -2.

    Draws whose closed-form action lies within RANK1_MIN_ACTION of 0 are
    rejected, so that the relative oracle gate stays well above the
    quadrature error (about 1e-4 absolute).
    """
    while True:
        pts = 1.5 * np.sqrt(rng.uniform(0, 1, 3)) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        gaps = [abs(pts[i] - pts[j]) for i in range(3) for j in range(i + 1, 3)]
        alphas = rng.uniform(0.1, 0.9, 3)
        last = 2.0 - alphas.sum()
        if min(gaps) < 0.6 or not 0.05 < last < 0.95:
            continue
        ws = fuchs.build_weight_system(pts, [[a] for a in alphas] + [[last]])
        oracle = wznw.abelian_action_closed_form(ws)
        if abs(oracle) >= RANK1_MIN_ACTION:
            break
    target = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * 3)
    system = fuchs.FuchsianSystem(ws, alphas.reshape(3, 1, 1).astype(complex))
    return system, target, oracle


# ---------------------------------------------------------------------------
# gates


def solve_gates(system: fuchs.FuchsianSystem, report: rhsolve.SolveReport) -> dict[str, bool]:
    """Criterion 5: success, residual, spectrum at infinity, relation, large cell."""
    ws = system.weights
    lam = np.sort(np.linalg.eigvals(system.residue_at_infinity()).real)
    spec_err = float(np.max(np.abs(lam - np.sort(ws.infinity_exponents))))
    relation = fuchs.monodromy_rep(system, tol=1e-10).relation_residual
    return {
        "solve.success": bool(report.success),
        "solve.residual": report.final_residual <= RESIDUAL_GATE,
        "solve.spectrum_at_infinity": spec_err <= SPECTRUM_GATE,
        "solve.relation": relation <= RELATION_GATE,
        "solve.large_cell": bool(report.large_cell_flag),
    }


def field_action_gates(fld: wznw.MetricField, act: wznw.ActionResult) -> dict[str, bool]:
    totals = [t for _, t in act.per_delta]
    spread = max(totals) - min(totals)
    return {
        "field.monodromy_quality": fld.monodromy_quality <= MONODROMY_QUALITY_GATE,
        "action.fit_residual": act.extrapolation_error <= FIT_GATE * spread,
        "action.imag": act.imag_residual <= IMAG_GATE,
    }


def field_and_action(system, target) -> dict:
    """A fresh MetricField per call: its y_at cache must not carry over."""
    t0 = time.perf_counter()
    fld = wznw.make_metric_field(system, target)
    act = wznw.action_regularized(fld)
    return {"field": fld, "action": act, "action_s": time.perf_counter() - t0}


def action_op(label: str, system, target, oracle: float | None = None, rel_tol: float = 0.0) -> Op:
    """Field plus action on given residues; S must match ``oracle`` to ``rel_tol``."""

    def check(out):
        gates = field_action_gates(out["field"], out["action"])
        if oracle is not None:
            gates["action.oracle"] = abs(out["action"].value - oracle) <= rel_tol * abs(oracle)
        return gates

    return Op(label, lambda: field_and_action(system, target), check)


def solve_op(label: str, ws, target) -> Op:
    """A cold solve with default options (the fixture cross-check)."""

    def run():
        t0 = time.perf_counter()
        system, report = rhsolve.solve(ws, target)
        return {"system": system, "report": report, "solve_s": time.perf_counter() - t0}

    return Op(label, run, lambda out: solve_gates(out["system"], out["report"]))


# ---------------------------------------------------------------------------
# rigid-action


def rigid_action_inputs(seed: int) -> dict:
    rng = rng_for(2, seed)
    ws, target = fixture_problem()
    fixture = (fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws)), target)
    rigid = []
    for _ in range(POOL):
        ws, target, residues = draw_rigid(rng)
        rigid.append((fuchs.FuchsianSystem(ws, residues), target))
    return {"fixture": fixture, "rigid": rigid, "rank1": [draw_rank1(rng) for _ in range(POOL)]}


def rigid_action_cycle(state: dict, k: int) -> list[Op]:
    j = k % POOL
    return [
        action_op("fixture", *state["fixture"], FIXTURE_ACTION, FIXTURE_ACTION_GATE),
        action_op(f"rigid{j}", *state["rigid"][j]),
        action_op(f"rank1_{j}", *state["rank1"][j], ABELIAN_GATE),
    ]


# ---------------------------------------------------------------------------
# moduli-stencil


def moduli_inputs(seed: int) -> dict:
    """The criterion-9 center and direction, and a stencil rotation from the seed.

    The Levi form is invariant under rotations of the eps-plane, so every
    rotation checks the same quantity.  Centers drawn from the seed needed
    up to 14 LM iterations (one cold solve ran for over 3.5 minutes), and
    on one of them the potential Levi form came out negative; directions
    drawn from the seed made the warm solves take 3 or 4 iterations, which
    spread op_s across seeds by 42%.
    """
    rng = rng_for(3, seed)
    ws = fuchs.build_weight_system(N4_POINTS, N4_WEIGHTS)
    return {
        "weights": ws,
        "center": moduli.random_admissible_rep(ws, seed=CENTER_SEED),
        "direction": moduli.random_tangent_direction(ws, seed=DIRECTION_SEED),
        "rotation": np.exp(2j * np.pi * rng.uniform()),
    }


def moduli_prepare(state: dict) -> None:
    """Cold-solve the center and evaluate its action (part of set-up)."""
    system, report = rhsolve.solve(state["weights"], state["center"])
    gates = solve_gates(system, report)
    out = field_and_action(system, state["center"])
    gates.update(field_action_gates(out["field"], out["action"]))
    state["center_system"] = system
    state["center_action"] = out["action"].value
    state["center_failures"] = sorted(k for k, ok in gates.items() if not ok)


def moduli_cycle(state: dict, k: int) -> list[Op]:
    """The k-th plus-stencil, turned by a further pi/8 on every cycle."""
    turn = state["rotation"] * np.exp(1j * np.pi * k / 8)
    ops = []
    for unit in STENCIL:
        eps = STENCIL_SPACING * turn * unit

        def run(eps=eps):
            t0 = time.perf_counter()
            rep = moduli.deform_rep(state["center"], state["direction"], eps)
            system, report = rhsolve.solve(
                state["weights"], rep, init=state["center_system"], opts=WARM_OPTS
            )
            t1 = time.perf_counter()
            out = field_and_action(system, rep)
            out.update(system=system, report=report, solve_s=t1 - t0)
            return out

        def check(out):
            gates = solve_gates(out["system"], out["report"])
            gates.update(field_action_gates(out["field"], out["action"]))
            return gates

        ops.append(Op(f"eps={eps:.4f}", run, check))
    return ops


def moduli_finish(state: dict, records: list[dict]) -> tuple[dict, dict]:
    """Levi-form sign check on every complete stencil; a stencil whose
    potential Levi form is not positive, or whose center failed a gate,
    fails all of its points."""
    by_cycle: dict[int, list[dict]] = {}
    for rec in records:
        by_cycle.setdefault(rec["cycle"], []).append(rec)
    failed: dict[int, str] = {}
    margins = []
    for recs in by_cycle.values():
        values = [rec.get("action") for rec in recs]
        if len(recs) < len(STENCIL) or None in values or state["center_failures"]:
            failed.update((rec["op"], "moduli.stencil_incomplete") for rec in recs)
            continue
        levi = moduli.potential_levi_form(state["center_action"], *values, STENCIL_SPACING)
        margins.append(levi)
        if not levi > 0:
            failed.update((rec["op"], "moduli.levi_positive") for rec in recs)
    figures = {
        "moduli.levi_margin": min(margins) if margins else 0.0,
        "levi": margins,
        "center_action": state["center_action"],
        "center_failures": state["center_failures"],
    }
    return figures, failed


# ---------------------------------------------------------------------------
# verify-suites


def verify_inputs(seed: int) -> dict:
    rng = rng_for(4, seed)
    return {"seeds": rng.integers(0, 2**31, size=(POOL, len(SUITES))).tolist()}


def verify_cycle(state: dict, k: int) -> list[Op]:
    seeds = state["seeds"][k % POOL]

    def run():
        results = {}
        for (suite, count), seed in zip(SUITES, seeds):
            out = OUT_DIR / "verify" / suite
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(
                    ["verify", suite, "--seed", str(seed), "--count", str(count), "--out", str(out)]
                )
            results[suite] = (rc, json.loads((out / "result.json").read_text()))
        return results

    def check(results):
        gates = {}
        for suite, (rc, record) in results.items():
            gates[f"{suite}.exit_code"] = rc == 0
            for chk in record["checks"]:
                gates[f"{suite}.{chk['name']}"] = bool(chk["passed"])
        return gates

    return [Op("pass", run, check)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "rigid-action",
            "metric field and regularized action on closed-form rigid residues plus rank-1 oracles: TransportWeb dominates, no LM",
            rigid_action_inputs,
            rigid_action_cycle,
        ),
        Workload(
            "moduli-stencil",
            "criterion-9 Levi stencil at n=4: warm solves on a 12-dim chart plus actions, rhsolve to wznw about 3:1",
            moduli_inputs,
            moduli_cycle,
            prepare=moduli_prepare,
            finish=moduli_finish,
        ),
        Workload(
            "verify-suites",
            "cli verify passes over five suites: factor, cli and the MetricField.y_at cache path, little transport or LM",
            verify_inputs,
            verify_cycle,
        ),
    ]
}
