"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured figures (shown in the terminal summary).

The shared rank-2 fixture is solved cold (multi-start from the identity
chart) exactly once and reused by the flatness, action, and counterterm
criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import puncture_loop
from rhwznw import cli, fuchs, moduli, rhsolve, verify, wznw

ACCEPTANCE_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    line = (
        f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def solved_rank2(rank2_weights, rank2_target):
    t0 = time.time()
    system, report = rhsolve.solve(
        rank2_weights, rank2_target, opts=rhsolve.SolveOptions(seed=7)
    )
    fld = wznw.make_metric_field(system, rank2_target)
    return system, report, fld, time.time() - t0


def _report_suite(num: int, name: str, suite: str, seed: int, count: int, budget: float):
    t0 = time.time()
    checks = verify.SUITES[suite](seed, count)
    detail = ", ".join(f"{check} ({figure})" for check, _, figure in checks)
    _report(num, name, all(ok for _, ok, _ in checks), detail, time.time() - t0, budget)


def test_criterion_1_factorization():
    _report_suite(1, "Bruhat factorization", "bruhat", 101, 200, 10.0)


def test_criterion_2_cholesky_minors():
    _report_suite(2, "Cholesky minor formulas", "cholesky", 102, 200, 10.0)


def test_criterion_3_three_form():
    _report_suite(3, "three-form identity", "three-form", 103, 200, 30.0)


def test_criterion_4_rank1_monodromy(rank1_system, rank1_weights):
    t0 = time.time()
    z0 = rank1_weights.default_basepoint()
    worst = 0.0
    for i, a in enumerate((0.3, 0.45, 0.8)):
        loop = puncture_loop(rank1_weights, i, z0)
        value = fuchs.transport(rank1_system, loop, tol=1e-10).value[0, 0]
        worst = max(worst, abs(value - np.exp(-2j * np.pi * a)))
    ok = worst <= 1e-8
    _report(4, "rank-1 monodromy", ok, f"worst loop error {worst:.2e}", time.time() - t0, 5.0)


def test_criterion_5_rank2_round_trip(solved_rank2, rank2_weights):
    system, report, fld, solve_time = solved_rank2
    t0 = time.time() - solve_time
    lam = np.sort(np.linalg.eigvals(system.residue_at_infinity()).real)
    spec_err = np.max(np.abs(lam - np.sort(rank2_weights.infinity_exponents)))
    mon = fuchs.monodromy_rep(system, tol=1e-10)
    # final_residual is a squared gauge distance; the gate is on the distance
    distance = math.sqrt(report.final_residual)
    ok = (
        report.success
        and distance <= 1e-6
        and spec_err <= 1e-6
        and mon.relation_residual <= 1e-7
        and report.large_cell_flag
    )
    _report(
        5,
        "rank-2 n=3 Riemann-Hilbert round trip",
        ok,
        f"gauge distance {distance:.2e}, spec(A_3) {spec_err:.2e}, "
        f"relation {mon.relation_residual:.2e}, large cell {report.large_cell_flag}",
        time.time() - t0,
        120.0,
    )


def test_criterion_6_flatness(solved_rank2):
    _, _, fld, _ = solved_rank2
    t0 = time.time()
    rng = np.random.default_rng(106)
    ratios = []
    for _ in range(50):
        which = int(rng.integers(0, 2))
        center = complex(fld.system.points[which])
        z = center + rng.uniform(0.25, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        r1 = wznw.flatness_residual(fld, z, 0.02)
        r2 = wznw.flatness_residual(fld, z, 0.01)
        ratios.append(r1 / r2)
    med = float(np.median(ratios))
    ok = 3.5 <= med <= 4.5
    _report(
        6,
        "flatness Richardson decay",
        ok,
        f"median ratio {med:.3f} over 50 points (p10 {np.percentile(ratios, 10):.2f}, "
        f"p90 {np.percentile(ratios, 90):.2f})",
        time.time() - t0,
        120.0,
    )


def test_criterion_7_action_convergence(solved_rank2, rank1_field, rank1_weights):
    _, _, fld, _ = solved_rank2
    t0 = time.time()
    act = wznw.action_regularized(fld, (0.1, 0.05, 0.025, 0.0125))
    totals = [t for _, t in act.per_delta]
    spread = max(totals) - min(totals)
    fit_ok = act.extrapolation_error <= 1e-2 * spread
    imag_ok = act.imag_residual <= 1e-8
    act1 = wznw.action_regularized(rank1_field)
    oracle = wznw.abelian_action_closed_form(rank1_weights)
    abelian_rel = abs(act1.value - oracle) / abs(oracle)
    ok = fit_ok and imag_ok and abelian_rel <= 1e-3
    _report(
        7,
        "regularized action convergence",
        ok,
        f"fit residual {act.extrapolation_error:.2e} vs spread {spread:.2e}, "
        f"|Im S| rel {act.imag_residual:.2e}, abelian oracle rel {abelian_rel:.2e}",
        time.time() - t0,
        600.0,
    )


def test_criterion_8_counterterm(solved_rank2, rank2_weights):
    _, _, fld, _ = solved_rank2
    t0 = time.time()
    worst = 0.0
    for i in range(2):
        val = wznw.annulus_kinetic_integral(fld, i, 1e-4)
        pred = 2 * np.pi * np.log(wznw.ANNULUS_RATIO) * float(np.sum(rank2_weights.weights[i] ** 2))
        worst = max(worst, abs(val / pred - 1))
    ok = worst <= 1e-3
    _report(8, "counterterm coefficient", ok, f"worst rel {worst:.2e}", time.time() - t0, 60.0)


@pytest.mark.slow
def test_criterion_9_kahler_positivity():
    t0 = time.time()
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )
    center = moduli.random_admissible_rep(ws, seed=5)
    direction = moduli.random_tangent_direction(ws, seed=1)
    sys_c, rep_c = rhsolve.solve(ws, center, opts=rhsolve.SolveOptions(seed=3))
    assert rep_c.success and rep_c.large_cell_flag

    spacing = 0.05
    values = {}
    warm_opts = rhsolve.SolveOptions(seed=3, restarts=3)

    def action_at(eps: complex) -> float:
        rep = center if eps == 0 else moduli.deform_rep(center, direction, eps)
        system, report = rhsolve.solve(ws, rep, init=sys_c, opts=warm_opts)
        assert report.success, f"solve failed at eps={eps}"
        fld = wznw.make_metric_field(system, rep)
        return wznw.action_regularized(fld).value

    offsets = [0.0]
    for a in (spacing, spacing / 2):
        offsets += [a, -a, 1j * a, -1j * a]
    for eps in offsets:
        values[eps] = action_at(eps)

    # positivity holds for the potential -S/2 (the raw action surface has
    # the opposite-sign Levi form)
    levi_a = moduli.potential_levi_form(
        values[0.0], values[spacing], values[-spacing],
        values[1j * spacing], values[-1j * spacing], spacing,
    )
    half = spacing / 2
    levi_b = moduli.potential_levi_form(
        values[0.0], values[half], values[-half],
        values[1j * half], values[-1j * half], half,
    )
    rel_change = abs(levi_a - levi_b) / max(abs(levi_a), abs(levi_b))
    ok = levi_a > 0 and levi_b > 0 and rel_change <= 0.2
    _report(
        9,
        "Kahler positivity (slow)",
        ok,
        f"potential levi {levi_a:.4f} / halved {levi_b:.4f}, change {100 * rel_change:.1f}%",
        time.time() - t0,
        1800.0,
    )


def test_criterion_10_determinism(tmp_path, rank2_weights):
    t0 = time.time()
    cfg = cli.ProblemConfig(
        points=[0.0, 1.0],
        weights=rank2_weights.weights,
        conjugators=fuchs.rank2_closure_conjugators(rank2_weights),
        residues=fuchs.rank2_rigid_residues(rank2_weights),
    )
    cli.save_config(cfg, tmp_path / "cfg.json")
    cfg1 = cli.ProblemConfig(
        points=[-1.3, 0.0, 1.0],
        weights=np.array([[0.3], [0.45], [0.8], [0.45]]),
        conjugators=[np.eye(1, dtype=complex)] * 3,
    )
    cli.save_config(cfg1, tmp_path / "cfg1.json")

    runs = {
        "monodromy": ["monodromy", "--config", str(tmp_path / "cfg.json"), "--seed", "7"],
        "rhsolve": ["rhsolve", "--config", str(tmp_path / "cfg1.json"), "--seed", "7"],
        "action": ["action", "--config", str(tmp_path / "cfg.json"), "--seed", "7"],
        "verify-bruhat": ["verify", "bruhat", "--seed", "7", "--count", "40"],
        "verify-cholesky": ["verify", "cholesky", "--seed", "7", "--count", "40"],
        "verify-three-form": ["verify", "three-form", "--seed", "7", "--count", "40"],
        "verify-flatness": ["verify", "flatness", "--seed", "7", "--count", "10"],
        "verify-counterterm": ["verify", "counterterm", "--seed", "7", "--count", "2"],
    }
    mismatched = []
    for name, argv in runs.items():
        outs = []
        for trial in ("x", "y"):
            out = tmp_path / f"{name}-{trial}"
            rc = cli.main(argv + ["--out", str(out)])
            assert rc == 0, f"{name} exited {rc}"
            blob = b""
            for f in sorted(out.iterdir()):
                blob += f.name.encode() + b"\0" + f.read_bytes()
            outs.append(blob)
        if outs[0] != outs[1]:
            mismatched.append(name)
    ok = not mismatched
    _report(
        10,
        "determinism",
        ok,
        "byte-identical reruns" if ok else f"mismatch in {mismatched}",
        time.time() - t0,
        600.0,
    )
