import dataclasses
import gc
import re
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from conftest import W3, transport_path
from rhwznw import factor, fuchs, moduli, numcore, paths, rhsolve, wznw


def test_residual_rank1_immediate(rank1_weights, rank1_target):
    parm = rhsolve.ResidueParametrization(
        rank1_weights, np.array([np.eye(1, dtype=complex)] * 3)
    )
    assert parm.dim == 0
    f, _ = rhsolve.residual_vector(parm, np.zeros(0), rank1_target)
    assert np.linalg.norm(f) <= 1e-8


def test_residual_at_rigid_oracle(rank2_weights, rank2_target, rank2_oracle_system):
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    f, _ = rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target)
    assert float(f @ f) <= 1e-6


def test_residual_fixed_point(rank2_solved, rank2_target):
    system, report = rank2_solved
    parm = rhsolve.parametrization_from_system(system)
    f, _ = rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target)
    assert float(f @ f) <= 10 * max(report.final_residual, 1e-12)


def test_residual_gauge_invariance(rank2_weights, rank2_target, rank2_oracle_system):
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    f1, _ = rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target)
    g = np.diag(np.exp(1j * np.array([0.7, -1.2])))
    conj_target = fuchs.AdmissibleRep(
        weights=rank2_target.weights,
        generators=[g @ m @ g.conj().T for m in rank2_target.generators],
        conjugators=[g @ u for u in rank2_target.conjugators],
    )
    f2, _ = rhsolve.residual_vector(parm, np.zeros(parm.dim), conj_target)
    assert abs(np.linalg.norm(f1) - np.linalg.norm(f2)) < 1e-10


def test_parametrization_preserves_spectra(rank2_weights):
    rng = np.random.default_rng(2)
    parm = rhsolve.ResidueParametrization(
        rank2_weights, np.array([np.eye(2, dtype=complex)] * 2)
    )
    for _ in range(10):
        x = rng.standard_normal(parm.dim)
        lam = numcore.sorted_eigvals(parm.residues(x)).real
        assert np.max(np.abs(lam - rank2_weights.weights[:-1])) < 1e-10


def test_parametrization_stack_matches_points(rank2_weights):
    rng = np.random.default_rng(6)
    parm = rhsolve.ResidueParametrization(
        rank2_weights, np.array([scipy.linalg.expm(0.3 * rng.standard_normal((2, 2)))] * 2)
    )
    xs = rng.standard_normal((5, parm.dim))
    cs, res = parm.conjugators(xs), parm.residues(xs)
    assert cs.shape == res.shape == (5, 2, 2, 2)
    for k, x in enumerate(xs):
        assert np.array_equal(cs[k], parm.conjugators(x))
        assert np.allclose(res[k], parm.residues(x), rtol=1e-14, atol=1e-15)


def test_chart_point_whose_exponential_overflows_raises(rank2_weights):
    # the LM rejects a trial point whose residual raises NumericalError; a
    # chart exponential of norm e^800 must end there, not as inf residues
    parm = rhsolve.ResidueParametrization(
        rank2_weights, np.array([np.eye(2, dtype=complex)] * 2)
    )
    with pytest.raises(numcore.NumericalError):
        parm.residues(np.full(parm.dim, 800.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_trial_point_raises_numerical_error(monkeypatch, rank2_target, rank2_oracle_system, bad):
    # the LM rejects a trial point whose residual raises NumericalError: a
    # non-finite chart point ends there at the chart's expm, and non-finite
    # residues that reached the infinity spectrum would end there too, at
    # sorted_eigvals, where np.linalg.eigvals raised LinAlgError
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    x = np.zeros(parm.dim)
    x[0] = bad
    with pytest.raises(numcore.NumericalError, match="expm"):
        rhsolve.residual_vector(parm, x, rank2_target)
    real = parm.loop_generators

    def non_finite_residues(xs, tol):
        residues, gens, series = real(xs, tol)
        residues = residues.copy()
        residues[:, 0, 0, 0] = bad
        return residues, gens, series

    monkeypatch.setattr(parm, "loop_generators", non_finite_residues)
    with pytest.raises(numcore.NumericalError, match="non-finite"):
        rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target)


def test_residual_vector_stack_rows_match_points_rank1(rank1_weights, rank1_target):
    parm = rhsolve.ResidueParametrization(
        rank1_weights, np.array([np.eye(1, dtype=complex)] * 3)
    )
    f, _ = rhsolve.residual_vector(parm, np.zeros((3, 0)), rank1_target)
    one, _ = rhsolve.residual_vector(parm, np.zeros(0), rank1_target)
    assert f.shape == (3, len(one))
    assert np.max(np.abs(f - one)) <= 1e-13


def test_residual_vector_stack_rows_match_points_rank2(rank2_target, rank2_oracle_system):
    # the stack runs at JACOBIAN_TOL and each point at fuchs.TRANSPORT_TOL;
    # the rows agree to 3e-10
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    xs = 0.1 * np.random.default_rng(9).standard_normal((4, parm.dim))
    f, _ = rhsolve.residual_vector(parm, xs, rank2_target)
    for row, x in zip(f, xs):
        one, _ = rhsolve.residual_vector(parm, x, rank2_target)
        assert np.max(np.abs(row - one)) <= 1e-8


def test_residual_vector_runs_each_evaluation_at_its_use(rank2_target, rank2_oracle_system, monodromy_calls):
    # a point, which may become the solution, runs at the normalization's
    # tolerance and comes with what the normalization reads: its residues,
    # its alignment and its loop series; a stack, a Jacobian's even with one
    # member, runs at JACOBIAN_TOL, a larger one without its series.  The
    # chart keeps the first evaluation at each tolerance
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    x = 0.05 * np.random.default_rng(4).standard_normal(parm.dim)
    _, (residues, aligned, series) = rhsolve.residual_vector(parm, x, rank2_target)
    _, (_, _, one) = rhsolve.residual_vector(parm, x[None], rank2_target)
    _, (stacked, _, none) = rhsolve.residual_vector(parm, np.stack([x, -x]), rank2_target)
    assert monodromy_calls == [
        (1, fuchs.TRANSPORT_TOL), (1, rhsolve.JACOBIAN_TOL), (2, rhsolve.JACOBIAN_TOL)
    ]
    assert one is not None and none is None and stacked.shape == (2, *residues.shape)
    assert [(tol, len(points)) for tol, (points, _) in parm.evaluations.items()] == [
        (fuchs.TRANSPORT_TOL, 1), (rhsolve.JACOBIAN_TOL, 1)
    ]
    assert np.array_equal(residues, parm.residues(x[None])[0])
    gens, fresh = rank2_oracle_system.weights.loops.monodromy(parm.residues(x[None]), fuchs.TRANSPORT_TOL)
    want = rhsolve.align_tuple_to_target(gens[0], rank2_target)
    assert np.array_equal(aligned.conjugator, want.conjugator)
    assert np.array_equal(aligned.generators, want.generators)
    assert np.array_equal(series.coords, fresh.coords)


def test_solve_rank1(rank1_weights, rank1_target):
    system, report = rhsolve.solve(
        rank1_weights, rank1_target, opts=rhsolve.SolveOptions(seed=0, restarts=1)
    )
    assert report.success
    assert report.final_residual <= 1e-8
    assert np.allclose(np.diagonal(system.residues, axis1=1, axis2=2).ravel(),
                       rank1_weights.weights[:-1, 0])


def test_solve_rank1_records_its_one_cost(rank1_weights, rank1_target, monkeypatch):
    # a chart of dimension 0 takes no LM step: its history is the one cost
    # it evaluated, as every LM history starts with its initial cost, and
    # LM forms no Jacobian for it
    monkeypatch.setattr(rhsolve, "central_jacobian", _no_jacobian)
    _, report = rhsolve.solve(
        rank1_weights, rank1_target, opts=rhsolve.SolveOptions(seed=0, restarts=1)
    )
    parm = rhsolve.ResidueParametrization(rank1_weights, np.array([np.eye(1, dtype=complex)] * 3))
    f, _ = rhsolve.residual_vector(parm, np.zeros(0), rank1_target)
    assert report.iterations == 0
    assert report.objective_history == [float(f @ f)]
    assert np.isfinite(report.objective_history[0])


def _no_jacobian(residuals, x):
    raise AssertionError("a Jacobian was formed")


def test_solve_rank1_off_target_fails_on_its_one_cost(rank1_weights, monkeypatch):
    # a rank-1 target of other phases than the weights' is out of reach: the
    # chart of dimension 0 stops at its start, above tolerance, with no
    # Jacobian, and every restart reports the same one cost
    monkeypatch.setattr(rhsolve, "central_jacobian", _no_jacobian)
    other = fuchs.build_weight_system([-1.3, 0.0, 1.0], [[0.1], [0.45], [0.8], [0.65]])
    reach = fuchs.build_admissible_rep(other, [np.eye(1, dtype=complex)] * 3)
    target = fuchs.AdmissibleRep(rank1_weights, reach.generators, reach.conjugators)
    _, report = rhsolve.solve(rank1_weights, target, opts=rhsolve.SolveOptions(restarts=2))
    assert not report.success and report.normalization is None
    assert report.iterations == 0 and report.restart_index == 0
    assert report.objective_history[0] > 1.0


def test_solve_rank2_rigid(rank2_solved, rank2_weights, rank2_target):
    system, report = rank2_solved
    assert report.final_residual <= 1e-6
    assert report.infinity_spectrum_error <= 1e-6
    assert report.large_cell_flag
    # recomputed-from-scratch invariant of the report
    mon = fuchs.monodromy_rep(system, tol=1e-10)
    aligned = rhsolve.align_tuple_to_target(mon.generators, rank2_target)
    rep = fuchs.AdmissibleRep(
        weights=rank2_weights,
        generators=aligned.generators,
        conjugators=[np.eye(2, dtype=complex)] * 3,
    )
    again = fuchs.rep_distance(rep, rank2_target)
    assert abs(again - report.final_residual) <= 1e-10 + 0.1 * report.final_residual


def test_solve_round_trip_reproduces_residues(rank2_solved, rank2_weights, rank2_target):
    # re-solving warm from the solution's own system must keep the residues
    system, _ = rank2_solved
    system2, report2 = rhsolve.solve(
        rank2_weights,
        rank2_target,
        init=system,
        opts=rhsolve.SolveOptions(seed=1, restarts=1),
    )
    assert report2.success
    assert max(
        numcore.fro(a - b) for a, b in zip(system.residues, system2.residues)
    ) <= 1e-5


def test_solve_trace_identity(rank2_solved, rank2_weights):
    system, _ = rank2_solved
    tr = sum(np.trace(a) for a in system.residues)
    assert abs(tr + np.sum(rank2_weights.infinity_exponents)) < 1e-9


def test_reducible_target_rejected():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.1, 0.6], [0.4, 0.7], [0.5, 0.7]])
    with pytest.warns(UserWarning):
        rep = fuchs.build_admissible_rep(ws, [np.eye(2, dtype=complex)] * 2)
    with pytest.raises(rhsolve.ReducibleTargetError):
        rhsolve.solve(ws, rep)


def test_normalize_rank1(rank1_system, rank1_target):
    norm = rhsolve.normalize_at_infinity(rank1_system, rank1_target)
    assert norm.large_cell_flag
    assert abs(norm.constant_term[0, 0]) > 1e-8
    assert rank1_system.infinity_spectrum_residual() < 1e-3


def test_normalize_constant_term_is_the_richardson_limit(rank2_solved, rank2_target):
    # three-point Richardson estimates from R, 2R and 4R, along the straight
    # continuation of the basepoint ray at a tolerance 100 times tighter,
    # leave an R^-3 tail: they converge to the series' constant term
    system, _ = rank2_solved
    tol = fuchs.TRANSPORT_TOL
    norm = rhsolve.normalize_at_infinity(system, rank2_target)
    z0, lam = system.weights.loops.z0, system.weights.infinity_exponents
    unit = z0 / abs(z0)

    radii = 20.0 * 2.0 ** np.arange(6)
    g, start, y = {}, z0, np.eye(2, dtype=complex)
    for radius in radii:
        end = radius * unit
        y, _ = transport_path(system.points, system.residues, [paths.Line(start, end)], y, tol / 100)
        g[radius] = (y @ norm.right_conjugator) * np.exp(-lam[None, :] * np.log(end))
        start = end

    scale = numcore.fro(norm.constant_term)
    errors = [
        numcore.fro((g[r] - 6.0 * g[2 * r] + 8.0 * g[4 * r]) / 3.0 - norm.constant_term) / scale
        for r in radii[:4]
    ]
    assert all(b <= a / 6.0 for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1e-8, errors


def test_normalize_builds_the_series_at_infinity_once(rank2_solved, rank2_target, monkeypatch):
    # the constant term reads the infinity member of the series the loop
    # circles came from: one series_stack call per normalization of a system
    # that solve did not normalize already, whose stack holds every point,
    # infinity last at the big circle's radius 1 / |z0|
    system, _ = rank2_solved
    copy = fuchs.FuchsianSystem(system.weights, system.residues.copy())
    calls = []
    series_stack = fuchs.series_stack
    monkeypatch.setattr(fuchs, "series_stack", lambda *a: calls.append(a[2]) or series_stack(*a))
    rhsolve.normalize_at_infinity(copy, rank2_target)
    assert len(calls) == 1 and len(calls[0]) == system.weights.n
    assert calls[0][-1] == 1.0 / abs(system.weights.loops.z0)


def test_normalize_sums_the_series_frame_once(rank2_solved, rank2_target, monkeypatch):
    # the loop set hands over every member's coordinates with the monodromy,
    # so the frames at the loop entries are summed once per normalization,
    # where the circles' transports read them; a fresh copy of the solved
    # system, as solve's own normalization of it is handed back
    system, _ = rank2_solved
    copy = fuchs.FuchsianSystem(system.weights, system.residues.copy())
    calls = []
    frame = fuchs.SeriesStack.frame
    monkeypatch.setattr(fuchs.SeriesStack, "frame", lambda self, x: calls.append(1) or frame(self, x))
    rhsolve.normalize_at_infinity(copy, rank2_target)
    assert len(calls) == 1


def test_normalize_keeps_the_matched_loop_series(rank2_solved, rank2_target):
    # the kept series is in the canonical gauge and matched on every member:
    # at each loop entry it gives the canonical solution, transported there
    # from the basepoint value (the infinity member: the basepoint itself)
    system, _ = rank2_solved
    norm = rhsolve.normalize_at_infinity(system, rank2_target)
    loops = fuchs.MonodromyLoops(system.weights)
    series = norm.series
    assert series.scale.shape == (3,) and series.coords.shape == (3, 2, 2)
    for s, circle in enumerate(loops.circles):
        got = series.values(s, circle.radius, circle.angle0)
        if s < len(loops.approaches):
            want, _ = transport_path(norm.canonical_system.points, norm.canonical_system.residues,
                                     loops.approaches[s], norm.basepoint_value, 1e-12)
        else:
            want = norm.basepoint_value
        assert numcore.fro(got - want) <= 1e-9 * numcore.fro(want)


def test_solve_hands_over_normalization(rank2_solved, rank2_target):
    # the solve's own normalization, handed back for the solved system, has
    # the bits of a fresh one of a copy, and so has the field built from it
    system, report = rank2_solved
    assert report.normalization is not None
    assert report.large_cell_flag == report.normalization.large_cell_flag
    assert rhsolve.normalize_at_infinity(system, rank2_target) is report.normalization
    copy = fuchs.FuchsianSystem(system.weights, system.residues.copy())
    _assert_same_normalization(report.normalization, rhsolve.normalize_at_infinity(copy, rank2_target))
    handed = wznw.make_metric_field(system, rank2_target)
    fresh = wznw.make_metric_field(copy, rank2_target)
    y0 = fresh.basepoint_value
    assert numcore.fro(handed.basepoint_value - y0) <= 1e-12 * numcore.fro(y0)
    assert handed.monodromy_quality == pytest.approx(fresh.monodromy_quality, abs=1e-12)


def test_normalize_flag_invariant_under_left_gauge(rank2_solved, rank2_target):
    system, _ = rank2_solved
    rng = np.random.default_rng(12)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = g + 2.0 * np.eye(2)
    norm1 = rhsolve.normalize_at_infinity(system, rank2_target)
    norm2 = rhsolve.normalize_at_infinity(system.conjugated(g), rank2_target)
    assert norm1.large_cell_flag == norm2.large_cell_flag
    # the canonical data agree regardless of the starting gauge
    y1 = norm1.canonical_system.residues
    y2 = norm2.canonical_system.residues
    assert max(numcore.fro(a - b) for a, b in zip(y1, y2)) < 1e-5


# the weights sum to 3, an odd degree, so the splitting (-2, -1) is not scalar
ODD_DEGREE_ALPHAS = [[0.25, 0.6], [0.15, 0.8], [0.5, 0.7]]


def _closed_form_rank2(alphas):
    ws = fuchs.build_weight_system([0.0, 1.0], alphas)
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    return fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws)), target


def _seeded_gauge():
    rng = np.random.default_rng(3)
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


@pytest.mark.parametrize(
    "alphas", [[[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]], ODD_DEGREE_ALPHAS], ids=["rigid", "odd-degree"]
)
def test_normalize_is_gauge_invariant(alphas):
    # A_i -> g A_i g^{-1} sends the constant term G to g G: the flag and the
    # canonical residues must not follow g
    system, target = _closed_form_rank2(alphas)
    norm1 = rhsolve.normalize_at_infinity(system, target)
    norm2 = rhsolve.normalize_at_infinity(system.conjugated(_seeded_gauge()), target)
    scalar = system.weights.splitting.partition == (2,)
    assert norm1.large_cell_flag == norm2.large_cell_flag == scalar
    y1 = norm1.canonical_system.residues
    y2 = norm2.canonical_system.residues
    assert max(numcore.fro(a - b) for a, b in zip(y1, y2)) < 1e-8


def test_odd_degree_solve_is_off_the_regular_locus():
    # a non-scalar splitting is not decided from G: the solve succeeds with
    # the flag False, and no field is built, whatever the gauge
    system, target = _closed_form_rank2(ODD_DEGREE_ALPHAS)
    _, report = rhsolve.solve(system.weights, target)
    assert report.success and report.normalization is not None
    assert not report.large_cell_flag
    for s in (system, system.conjugated(_seeded_gauge())):
        with pytest.raises(wznw.RegularLocusError, match=r"splitting \(-2, -1\)"):
            wznw.make_metric_field(s, target)


def test_lm_rejects_a_trial_step_whose_residual_raises(monkeypatch, rank2_weights, rank2_target):
    # the cold fixture solve converges at restart 0; its first trial point is
    # evaluated with residues scaled by 1e4, so that the local series
    # overflows and raises the real NumericalError.  That step is rejected
    # like a rise in cost, and the restart goes on to converge
    real = fuchs.MonodromyLoops.monodromy
    singles, raised = [], []

    def scaled_first_trial(self, residues, tol):
        if len(residues) == 1:
            singles.append(residues)
            if len(singles) == 2:  # singles[0] is the start
                try:
                    return real(self, 1e4 * residues, tol)
                except numcore.NumericalError as exc:
                    raised.append(exc)
                    raise
        return real(self, residues, tol)

    monkeypatch.setattr(fuchs.MonodromyLoops, "monodromy", scaled_first_trial)
    with np.errstate(all="ignore"):
        _, report = rhsolve.solve(rank2_weights, rank2_target)
    assert len(raised) == 1 and re.search("tail not finite|tail above", str(raised[0]))
    assert len(singles) > 2
    assert np.all(np.diff(report.objective_history) < 0)
    assert report.success and report.restart_index == 0


def _singular_chart_point():
    """W3's seed-5 target, cold chart 7 and a point of it whose chart
    conjugator 0 is singular to rounding (condition number 1.8e154)."""
    ws = fuchs.build_weight_system(*W3)
    target = moduli.random_admissible_rep(ws, 5)
    parm = rhsolve.cold_chart(ws, 7)
    x = np.zeros(parm.dim)
    x[0] = x[4] = 355.0
    return target, parm, x


def test_singular_chart_conjugator_raises_numerical_error():
    # a singular chart conjugator raises NumericalError, which LM rejects,
    # not numpy's LinAlgError, which would end solve with its restarts unrun
    target, parm, x = _singular_chart_point()
    message = "chart conjugator of point 0 of system 0 is singular"
    with pytest.raises(numcore.NumericalError, match=message):
        parm.residues(x)
    with pytest.raises(numcore.NumericalError, match=message):
        rhsolve.residual_vector(parm, x, target)


def test_lm_rejects_a_trial_point_whose_chart_conjugator_is_singular():
    # the first trial point of a cold W3 run is replaced by a point whose
    # chart conjugator is singular: that step is rejected like a rise in
    # cost, and the later steps lower it
    target, parm, bad = _singular_chart_point()
    calls, raised = [], []

    def residuals(x):
        if x.ndim == 1:
            calls.append(x.copy())
            if len(calls) == 2:  # calls[0] is the start
                try:
                    return rhsolve.residual_vector(parm, bad, target)
                except numcore.NumericalError as exc:
                    raised.append(exc)
                    raise
        return rhsolve.residual_vector(parm, x, target)

    opts = rhsolve.SolveOptions(max_iter=2)
    _, _, _, history = rhsolve._levenberg_marquardt(residuals, np.zeros(parm.dim), opts)
    assert len(raised) == 1 and len(calls) > 2
    assert len(history) == 3 and np.all(np.diff(history) < 0)


def test_lm_rejects_a_raising_trial_point_and_converges():
    # a synthetic residual x - c whose first trial evaluation raises
    # NumericalError: that step is rejected, the damping grows, so the next
    # trial step is shorter, and that one is taken; the run still converges.
    # One callable takes points and Jacobian stacks; only points are counted
    c = np.array([0.7, -0.4, 0.2])
    calls = []

    def residuals(x):
        if x.ndim == 1:
            calls.append(x.copy())
            if len(calls) == 2:  # calls[0] is the start
                raise numcore.NumericalError("trial residual not finite")
        return x - c, None

    x, f, _, history = rhsolve._levenberg_marquardt(residuals, np.zeros(3), rhsolve.SolveOptions())
    rejected, taken = calls[1], calls[2]
    assert np.linalg.norm(taken) < np.linalg.norm(rejected)
    assert history[1] == float((taken - c) @ (taken - c)) < history[0]
    assert float(f @ f) <= 1e-12 and np.allclose(x, c, atol=1e-6)


@pytest.mark.parametrize("where", ["leg", "circle"])
def test_lm_rejects_a_trial_point_whose_loop_matrix_is_singular(
    monkeypatch, where, rank2_weights, rank2_target, rank2_oracle_system
):
    # a singular approach-leg transport or circle frame raises NumericalError
    # from the monodromy, not LinAlgError, so the LM rejects that trial point
    # and goes on; here the first trial's leg 0 or the frame of circle 1 is
    # zeroed, on every system of the stack
    armed = [False]
    if where == "leg":
        real, owner, name = fuchs.transport, fuchs, "transport"
        message = "transport along the approach leg of puncture 0 of system 0"

        def corrupt(out):
            values = out.values.copy()
            values[..., 0, :, :] = 0.0
            return dataclasses.replace(out, values=values)
    else:
        real, owner, name = fuchs.SeriesStack.frame, fuchs.SeriesStack, "frame"
        message = "series frame at the entry of loop circle 1 of system 0"

        def corrupt(out):
            out = out.reshape(-1, rank2_weights.n, 2, 2).copy()
            out[:, 1] = 0.0
            return out.reshape(-1, 2, 2)

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return corrupt(out) if armed[0] else out

    monkeypatch.setattr(owner, name, patched)
    armed[0] = True
    with pytest.raises(numcore.NumericalError, match=message):
        rank2_weights.loops.monodromy(rank2_oracle_system.residues[None], fuchs.TRANSPORT_TOL)

    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    x0 = 0.05 * np.random.default_rng(4).standard_normal(parm.dim)
    calls = []

    def residuals(x):
        # armed on points only: the Jacobian stacks are never corrupted
        if x.ndim == 1:
            calls.append(x.copy())
            armed[0] = len(calls) == 2  # calls[0] is the start
        try:
            return rhsolve.residual_vector(parm, x, rank2_target)
        finally:
            armed[0] = False

    x, f, _, history = rhsolve._levenberg_marquardt(residuals, x0, rhsolve.SolveOptions())
    rejected, taken = calls[1] - x0, calls[2] - x0
    assert np.linalg.norm(taken) < np.linalg.norm(rejected)
    assert history[1] < history[0]
    assert float(f[:-4] @ f[:-4]) <= rhsolve.SolveOptions().tol ** 2


def test_normalize_resonant_rejected(rank2_target):
    # nearly equal weights at infinity make the exponents resonant
    eps = 4e-10
    ws = fuchs.build_weight_system(
        [0.0, 1.0], [[0.2, 0.3], [0.2, 0.3], [0.5, 0.5 + eps]]
    )
    system = fuchs.FuchsianSystem(
        ws, np.array([np.diag([0.2, 0.3]), np.diag([0.2, 0.3])], dtype=complex)
    )
    with pytest.raises(rhsolve.ResonanceError):
        rhsolve.normalize_at_infinity(system, rank2_target)


def test_canonical_constant_term_is_antidiagonal(rank2_solved, rank2_target):
    system, _ = rank2_solved
    norm = rhsolve.normalize_at_infinity(system, rank2_target)
    again = rhsolve.normalize_at_infinity(norm.canonical_system, rank2_target)
    g = again.constant_term
    # Pi0 up to the free scalar of the re-alignment
    scale = g[0, 1]
    pi0 = factor.antidiagonal_permutation(2)
    assert numcore.fro(g / scale - pi0) < 1e-3


def test_stacked_jacobian_matches_columns(rank2_target, rank2_oracle_system):
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    x = 0.05 * np.random.default_rng(4).standard_normal(parm.dim)
    fd_step = rhsolve.FD_STEP
    J = rhsolve.central_jacobian(partial(rhsolve.residual_vector, parm, target=rank2_target), x)
    columns = []
    for j in range(parm.dim):
        h = fd_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fp, _ = rhsolve.residual_vector(parm, xp, rank2_target)
        fm, _ = rhsolve.residual_vector(parm, xm, rank2_target)
        columns.append((fp - fm) / (2 * h))
    J_cols = np.stack(columns, axis=1)
    assert J.shape == J_cols.shape
    # the stack at JACOBIAN_TOL, the columns' points at fuchs.TRANSPORT_TOL
    assert numcore.fro(J - J_cols) <= 1e-6 * numcore.fro(J_cols)


def test_cold_solve_fixture(rank2_weights, rank2_target):
    system, report = rhsolve.solve(rank2_weights, rank2_target)
    assert report.success
    assert report.restart_index == 0
    assert report.iterations <= 9
    assert report.final_residual <= 1e-6


@pytest.mark.parametrize("seed", [3, 1])
def test_cold_solve_rank3(seed):
    # W3 solves cold at restart 0 and meets criterion 5's figures at rank 3,
    # then takes its action. At target seed 3: 13 LM iterations, gauge
    # distance 1.4e-8, spec(A_4) 6.6e-11, relation 1.6e-12, field quality
    # 1.4e-8. At seed 1: 19 iterations, distance 2.0e-7, spec(A_4) 2.5e-9,
    # relation 5.2e-13, quality 1.9e-7, delta-fit residual 4.6e-6, |Im S|
    # 2.3e-16 and S -1.774089358
    ws = fuchs.build_weight_system(*W3)
    target = moduli.random_admissible_rep(ws, seed=seed)
    system, report = rhsolve.solve(ws, target, opts=rhsolve.SolveOptions(restarts=3))
    assert report.success and report.restart_index == 0
    assert np.sqrt(report.final_residual) <= 1e-6
    lam = np.sort(np.linalg.eigvals(system.residue_at_infinity()).real)
    assert np.max(np.abs(lam - np.sort(ws.infinity_exponents))) <= 1e-6
    assert fuchs.monodromy_rep(system, tol=1e-10).relation_residual <= 1e-7
    assert report.large_cell_flag
    fld = wznw.make_metric_field(system, target)
    assert fld.monodromy_quality <= 1e-6
    # the delta-fit passes, or action_regularized raises
    act = wznw.action_regularized(fld)
    assert act.imag_residual <= 1e-8


# (points, weights) of n5, a rank-2 system at n = 5 (scripts/cold_solve_sample.py)
N5 = ([-1.0, 0.0, 1.0, 0.5 + 1.0j], [[0.25, 0.45], [0.3, 0.55], [0.2, 0.4], [0.35, 0.5], [0.4, 0.6]])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cold_solve_n5_at_restart_0(seed):
    # n5 targets 1-4 solve cold at restart 0 at solve seed 0 and meet
    # criterion 5's figures at n = 5
    ws = fuchs.build_weight_system(*N5)
    target = moduli.random_admissible_rep(ws, seed)
    system, report = rhsolve.solve(ws, target, opts=rhsolve.SolveOptions(seed=0, restarts=3))
    assert report.success and report.restart_index == 0
    assert np.sqrt(report.final_residual) <= 1e-6
    lam = np.sort(np.linalg.eigvals(system.residue_at_infinity()).real)
    assert np.max(np.abs(lam - np.sort(ws.infinity_exponents))) <= 1e-6
    assert fuchs.monodromy_rep(system, tol=1e-10).relation_residual <= 1e-7
    assert report.large_cell_flag


# (points, weights) of D4, a rank-3 system at n = 4 of degree -4 with a
# non-scalar splitting
D4 = ([-1.0, 0.0, 1.0], [[0.1, 0.3, 0.6], [0.15, 0.4, 0.7], [0.2, 0.35, 0.55], [0.1, 0.25, 0.3]])


@pytest.mark.parametrize("seed", [2, 3])
def test_cold_solve_d4_at_restart_0(seed):
    # D4 targets 2 and 3 solve cold at restart 0 at solve seed 0, where a
    # gauge alignment with local optima needs later restarts or fails
    ws = fuchs.build_weight_system(*D4)
    target = moduli.random_admissible_rep(ws, seed=seed)
    _, report = rhsolve.solve(ws, target, opts=rhsolve.SolveOptions(restarts=3))
    assert report.success and report.restart_index == 0


def test_capped_solve_short_of_the_tolerance_fails(rank2_weights, rank2_target):
    # three LM iterations stop the cold fixture solve at a squared gauge
    # distance of 1.5e-9, a distance of 3.8e-5: 38 times tol, which used to
    # count as success because the square was compared with tol
    opts = rhsolve.SolveOptions(max_iter=3, restarts=1)
    _, report = rhsolve.solve(rank2_weights, rank2_target, opts=opts)
    assert opts.tol**2 < report.final_residual <= opts.tol
    assert not report.success and report.normalization is None


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cold_solve_seeded_centers_at_restart_0(seed):
    # restart 0 draws its chart basepoints as every later restart does: at
    # identity basepoints the central-difference Jacobian is rounding noise,
    # and a first LM step from there can leave the chart
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )
    center = moduli.random_admissible_rep(ws, seed=seed)
    system, report = rhsolve.solve(ws, center)
    assert report.success
    assert report.restart_index == 0
    assert report.iterations <= 9
    assert report.final_residual <= 1e-6
    lam = numcore.sorted_eigvals(system.residues).real
    assert np.max(np.abs(lam - ws.weights[:-1])) < 1e-10


def test_one_weight_system_plans_its_loops_once(monkeypatch):
    # the loop set belongs to the weight system (WeightSystem.loops) and
    # owns the relation order: closing the target on the weights plans the
    # n-1 approach legs once, and a cold solve, its normalization, a second
    # normalization, monodromy_rep and a warm solve plan nothing more
    calls = []
    plan_route = paths.plan_route
    monkeypatch.setattr(paths, "plan_route", lambda *a: calls.append(a) or plan_route(*a))
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )
    assert calls == []
    center = moduli.random_admissible_rep(ws, seed=5)
    assert len(calls) == ws.n - 1 == 3
    system, report = rhsolve.solve(ws, center)
    assert report.success and report.normalization is not None
    rhsolve.normalize_at_infinity(system, center)
    fuchs.monodromy_rep(system)
    # an init on an equal copy of the weights still reads the solve's loop set
    init = fuchs.FuchsianSystem(dataclasses.replace(ws), system.residues)
    _, warm = rhsolve.solve(ws, center, init=init, opts=rhsolve.SolveOptions(restarts=3))
    assert warm.success
    assert len(calls) == 3
    assert ws.loops is ws.loops
    # a copy of the weights owns a loop set of its own
    copy = dataclasses.replace(ws)
    assert copy.loops is not ws.loops and len(calls) == 6


@pytest.mark.parametrize(
    "points, weights",
    [([0.0, 2.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]]),
     ([0.0, 1.0], [[0.1, 0.4], [0.2, 0.45], [0.3, 0.55]])],
    ids=["points", "weights"],
)
def test_solve_refuses_an_init_of_other_weights(points, weights, rank2_weights, rank2_target):
    # such an init would mix its spectra with the other system's loops
    other = fuchs.build_weight_system(points, weights)
    init = fuchs.FuchsianSystem(other, fuchs.rank2_rigid_residues(other))
    with pytest.raises(ValueError, match="init"):
        rhsolve.solve(rank2_weights, rank2_target, init=init)


# warm start records (rhsolve module docstring)

WARM_OPTS = rhsolve.SolveOptions(restarts=3)


@pytest.fixture(scope="module")
def warm_family():
    """The criterion-9 family: its weights, a stencil point's target and the
    cold-solved center system that warm solves start from."""
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )
    center = moduli.random_admissible_rep(ws, seed=5)
    system, report = rhsolve.solve(ws, center, opts=rhsolve.SolveOptions(seed=3))
    assert report.success
    target = moduli.deform_rep(center, moduli.random_tangent_direction(ws, seed=1), 0.025)
    return ws, target, system


@pytest.fixture
def monodromy_calls(monkeypatch):
    """The residue stack size and tolerance of every MonodromyLoops.monodromy call."""
    calls = []
    real = fuchs.MonodromyLoops.monodromy

    def counted(self, residues, tol):
        calls.append((len(residues), tol))
        return real(self, residues, tol)

    monkeypatch.setattr(fuchs.MonodromyLoops, "monodromy", counted)
    return calls


def _warm_solve(calls, weights, target, init):
    """A warm solve and the number of MonodromyLoops.monodromy calls it made."""
    before = len(calls)
    system, report = rhsolve.solve(weights, target, init=init, opts=WARM_OPTS)
    assert report.success
    return system, report, len(calls) - before


def _assert_same_solve(a, b):
    (sa, ra, _), (sb, rb, _) = a, b
    assert np.array_equal(sa.residues, sb.residues)
    assert np.array_equal(ra.objective_history, rb.objective_history)
    assert ra.iterations == rb.iterations
    assert np.array_equal(ra.normalization.basepoint_value, rb.normalization.basepoint_value)


def test_warm_repeat_from_one_init_is_bit_identical_with_two_fewer_transports(
    warm_family, monodromy_calls
):
    ws, target, center = warm_family
    init = fuchs.FuchsianSystem(ws, center.residues.copy())
    first = _warm_solve(monodromy_calls, ws, target, init)
    again = _warm_solve(monodromy_calls, ws, target, init)
    fresh = _warm_solve(monodromy_calls, ws, target, fuchs.FuchsianSystem(ws, init.residues.copy()))
    _assert_same_solve(again, first)
    _assert_same_solve(fresh, first)
    # the repeat reuses the one-point stack at x0 and the Jacobian stack at x0
    assert again[2] == first[2] - 2
    assert fresh[2] == first[2]
    # a cold solve neither reads nor makes a record
    records = len(rhsolve._WARM_STARTS)
    rhsolve.solve(ws, target, opts=WARM_OPTS)
    assert len(rhsolve._WARM_STARTS) == records


def test_warm_record_misses_on_other_residues_or_weights(warm_family, monodromy_calls):
    ws, target, center = warm_family
    init = fuchs.FuchsianSystem(ws, center.residues.copy())
    first = _warm_solve(monodromy_calls, ws, target, init)
    g = scipy.linalg.expm(0.01 * np.random.default_rng(11).standard_normal((2, 2)))
    # the init's residues change neither in place nor by reassignment (other
    # residues are another init), so its record still holds
    with pytest.raises(ValueError, match="read-only"):
        init.residues[...] = g @ init.residues @ np.linalg.inv(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        init.residues = g @ init.residues @ np.linalg.inv(g)
    again = _warm_solve(monodromy_calls, ws, target, init)
    _assert_same_solve(again, first)
    assert again[2] == first[2] - 2
    # an equal copy of the weights, which owns a loop set of its own
    other = dataclasses.replace(ws)
    got = _warm_solve(monodromy_calls, other, target, init)
    want = _warm_solve(
        monodromy_calls, other, target, fuchs.FuchsianSystem(other, init.residues.copy())
    )
    _assert_same_solve(got, want)
    assert got[2] == want[2]


def test_warm_record_is_read_only_and_dies_with_its_init(warm_family):
    ws, target, center = warm_family
    init = fuchs.FuchsianSystem(ws, center.residues.copy())
    rhsolve.solve(ws, target, init=init, opts=WARM_OPTS)
    rec = rhsolve._WARM_STARTS[init]
    # the record is init's chart, with one evaluation per tolerance: the
    # point x0 keeps its series, which a solve without a step normalizes,
    # and the Jacobian stack at x0 keeps none
    assert type(rec) is rhsolve.ResidueParametrization
    assert list(rec.evaluations) == [fuchs.TRANSPORT_TOL, rhsolve.JACOBIAN_TOL]
    (x0, (*point, series)), (xs, (*stack, none)) = rec.evaluations.values()
    assert none is None and np.array_equal(x0, np.zeros((1, rec.dim)))
    assert np.array_equal(xs[: rec.dim] + xs[rec.dim:], np.zeros((rec.dim, rec.dim)))
    kept = [x0, *point, xs, *stack]
    kept += [getattr(series, f.name) for f in dataclasses.fields(series)]
    assert len(kept) == 13
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    ref = weakref.ref(rec)
    del rec, kept, init, series
    gc.collect()
    assert ref() is None


def _assert_same_normalization(got, want):
    for name in ("constant_term", "basepoint_value", "aligned_generators"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("coefficients", "coords"):
        assert np.array_equal(getattr(got.series, name), getattr(want.series, name)), name


def test_field_after_a_solve_transports_nothing(warm_family, monodromy_calls):
    ws, target, center = warm_family
    system, report = rhsolve.solve(ws, target, init=center, opts=WARM_OPTS)
    before = len(monodromy_calls)
    fld = wznw.make_metric_field(system, target)
    assert len(monodromy_calls) == before
    assert fld.basepoint_value is report.normalization.basepoint_value
    # an equal but distinct target object normalizes afresh, to the solve's bits
    again = rhsolve.normalize_at_infinity(system, dataclasses.replace(target))
    assert len(monodromy_calls) == before + 1
    _assert_same_normalization(again, report.normalization)
    # the record dies with the system
    ref = weakref.ref(report.normalization)
    # other tests' dead systems are collected first, so the count drops by this one
    gc.collect()
    records = len(rhsolve._NORMALIZATIONS)
    del system, report, fld
    gc.collect()
    assert ref() is None and len(rhsolve._NORMALIZATIONS) == records - 1


def test_zero_step_warm_solve_returns_residues_apart_from_the_record(warm_family, monodromy_calls):
    # re-solving the center from its own solution stops at the warm record's
    # x0 without a step, where LM's evaluation is the record's read-only
    # one: the returned system's residues are read-only and its own, and its
    # normalization reads the record's series, so a repeat transports nothing
    ws, _, center = warm_family
    rep = moduli.random_admissible_rep(ws, seed=5)
    rhsolve.solve(ws, rep, init=center, opts=WARM_OPTS)
    before = len(monodromy_calls)
    system, report = rhsolve.solve(ws, rep, init=center, opts=WARM_OPTS)
    assert len(monodromy_calls) == before
    assert report.success and len(report.objective_history) == 1 and report.iterations == 0
    copy = fuchs.FuchsianSystem(ws, system.residues.copy())
    _assert_same_normalization(report.normalization, rhsolve.normalize_at_infinity(copy, rep))
    saved = rhsolve._WARM_STARTS[center].evaluations[fuchs.TRANSPORT_TOL][1][0]
    assert not saved.flags.writeable and not system.residues.flags.writeable
    assert not np.shares_memory(system.residues, saved)
    with pytest.raises(ValueError, match="read-only"):
        system.residues[...] = 0


def test_solved_normalization_is_read_only(rank2_solved, rank2_field):
    # the solve's normalization is one record, handed out by identity to its
    # report, to normalize_at_infinity and to every field built from it: none
    # of its arrays, its series' included, takes a write
    _, report = rank2_solved
    norm = report.normalization
    assert rank2_field.series is norm.series
    arrays = [getattr(norm, f.name) for f in dataclasses.fields(norm)]
    arrays += [getattr(norm.series, f.name) for f in dataclasses.fields(norm.series)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 11 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        norm.aligned_generators[0] = np.eye(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        norm.aligned_generators = np.eye(2)


def test_written_target_cannot_stale_the_solves_normalization(warm_family):
    # the solve's normalization is handed back for its target object; a write
    # to that target's generators would leave the record aligned to the old
    # tuple, off a fresh normalization, so it is refused
    ws, stencil, center = warm_family
    target = fuchs.AdmissibleRep(ws, stencil.generators.copy(), stencil.conjugators.copy())
    system, report = rhsolve.solve(ws, target, init=center, opts=WARM_OPTS)
    g = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
    with pytest.raises(ValueError, match="read-only"):
        target.generators[...] = g.T @ target.generators @ g
    with pytest.raises(ValueError, match="read-only"):
        target.conjugators[...] = g.T @ target.conjugators
    got = rhsolve.normalize_at_infinity(system, target)
    assert got is report.normalization
    _assert_same_normalization(got, rhsolve.normalize_at_infinity(system, dataclasses.replace(target)))


def test_cold_chart_keeps_its_first_point_and_jacobian_stack(rank2_target, monodromy_calls):
    # a cold restart's chart hands its first evaluation at each tolerance
    # back to a repeat, the same bits without a loop set; another point is
    # evaluated afresh and is not kept
    parm = rhsolve.cold_chart(rank2_target.weights, 1)
    residuals = partial(rhsolve.residual_vector, parm, target=rank2_target)
    x0 = np.zeros(parm.dim)
    f0, J0 = residuals(x0)[0], rhsolve.central_jacobian(residuals, x0)
    assert monodromy_calls == [(1, fuchs.TRANSPORT_TOL), (2 * parm.dim, rhsolve.JACOBIAN_TOL)]
    f1, J1 = residuals(x0.copy())[0], rhsolve.central_jacobian(residuals, x0.copy())
    assert len(monodromy_calls) == 2
    assert np.array_equal(f1, f0) and np.array_equal(J1, J0)
    x = np.full(parm.dim, 1e-3)
    residuals(x)
    residuals(x)
    assert monodromy_calls[2:] == [(1, fuchs.TRANSPORT_TOL)] * 2
    assert np.array_equal(parm.evaluations[fuchs.TRANSPORT_TOL][0], x0[None])


@pytest.mark.parametrize("where", ["stencil", "cold-1", "cold-2"])
def test_jacobian_at_the_stack_tolerance_matches_a_tight_reference(where, monkeypatch, request):
    # the stack's members share one step sequence and one series length, so
    # its central differences are derivatives of one discretization: at
    # JACOBIAN_TOL the Jacobian agrees with one at 1e-12 far inside the
    # tolerance (4.2e-9 at the criterion-9 stencil point, 9.8e-9 and 1.4e-8
    # at the fixture's cold charts 1 and 2)
    if where == "stencil":
        _, target, center = request.getfixturevalue("warm_family")
        parm = rhsolve.parametrization_from_system(center)
    else:
        target = request.getfixturevalue("rank2_target")
        parm = rhsolve.cold_chart(target.weights, int(where[-1]))
    residuals = partial(rhsolve.residual_vector, parm, target=target)
    x = np.zeros(parm.dim)
    J = rhsolve.central_jacobian(residuals, x)
    monkeypatch.setattr(rhsolve, "JACOBIAN_TOL", 1e-12)
    reference = rhsolve.central_jacobian(residuals, x)
    assert numcore.fro(J - reference) <= 1e-7 * numcore.fro(reference)


@pytest.fixture
def transport_work(monkeypatch):
    """Calls and steps of the module-level fuchs.transport."""
    work = {"calls": 0, "steps": 0}
    real = fuchs.transport

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        work["calls"] += 1
        work["steps"] += out.step_count
        return out

    monkeypatch.setattr(fuchs, "transport", counted)
    return work


def test_warm_stencil_point_makes_three_transport_calls(warm_family, transport_work, monodromy_calls):
    # after one warm solve from the center has made its record, a stencil
    # point's solve evaluates its first trial point, one Jacobian stack and
    # the second trial point, which it normalizes: three loop sets, one
    # transport call each
    ws, first, center = warm_family
    rhsolve.solve(ws, first, init=center, opts=WARM_OPTS)
    direction = moduli.random_tangent_direction(ws, seed=1)
    target = moduli.deform_rep(moduli.random_admissible_rep(ws, seed=5), direction, 0.025j)
    transport_work.update(calls=0, steps=0)
    del monodromy_calls[:]
    _, report = rhsolve.solve(ws, target, init=center, opts=WARM_OPTS)
    assert report.success and report.normalization is not None
    assert transport_work["calls"] == 3
    assert monodromy_calls == [(1, fuchs.TRANSPORT_TOL), (24, rhsolve.JACOBIAN_TOL), (1, fuchs.TRANSPORT_TOL)]


def test_warm_stencil_point_aligns_five_times(warm_family, monkeypatch):
    # a stencil point's solve from a made record aligns its start point and
    # first Jacobian stack (both kept on the chart), its first trial point,
    # its second Jacobian stack and its second trial point, the solution;
    # the normalization reads the solution's alignment and aligns nothing
    ws, first, center = warm_family
    rhsolve.solve(ws, first, init=center, opts=WARM_OPTS)
    direction = moduli.random_tangent_direction(ws, seed=1)
    target = moduli.deform_rep(moduli.random_admissible_rep(ws, seed=5), direction, 0.025j)
    sizes = []
    real = rhsolve.align_tuple_to_target

    def counted(computed, target):
        sizes.append(np.shape(computed)[:-3])
        return real(computed, target)

    monkeypatch.setattr(rhsolve, "align_tuple_to_target", counted)
    _, report = rhsolve.solve(ws, target, init=center, opts=WARM_OPTS)
    assert report.success and report.normalization is not None
    assert sizes == [(), (24,), (), (24,), ()]


def test_failing_three_restart_solve_takes_at_most_279_steps(rank2_weights, rank2_target, transport_work):
    # no restart reaches tol 1e-14, so each runs to LM's noise floor: the
    # loose Jacobian stacks must pay for the points at the normalization's
    # tolerance, against 279 steps with every evaluation at 1e-9 (269)
    opts = rhsolve.SolveOptions(seed=7, tol=1e-14, restarts=3)
    _, report = rhsolve.solve(rank2_weights, rank2_target, opts=opts)
    assert not report.success
    assert transport_work["steps"] <= 279


def test_solve_normalizes_afresh_when_lm_evaluated_past_its_solution(
    monkeypatch, rank2_weights, rank2_target, monodromy_calls
):
    # LM's last point evaluation is a rejected trial point when its last
    # iteration found no better step: the solve still builds its system and
    # normalization from LM's evaluation of its solution, with no loop set
    # of its own, to the bits of a fresh normalization
    real = rhsolve._levenberg_marquardt
    solutions = []

    def trial_after(residuals, x0, opts):
        x, f, evaluation, history = real(residuals, x0, opts)
        residuals(x + 1e-3)
        solutions.append((residuals.args[0], x, len(monodromy_calls)))
        return x, f, evaluation, history

    monkeypatch.setattr(rhsolve, "_levenberg_marquardt", trial_after)
    system, report = rhsolve.solve(rank2_weights, rank2_target)
    assert report.success and len(solutions) == 1
    parm, x, calls = solutions[0]
    assert np.array_equal(system.residues, parm.residues(x[None])[0])
    assert len(monodromy_calls) == calls
    copy = fuchs.FuchsianSystem(system.weights, system.residues.copy())
    _assert_same_normalization(report.normalization, rhsolve.normalize_at_infinity(copy, rank2_target))
