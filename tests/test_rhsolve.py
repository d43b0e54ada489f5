import numpy as np
import pytest
import scipy.linalg

from rhwznw import factor, fuchs, moduli, numcore, paths, rhsolve, wznw


def test_residual_rank1_immediate(rank1_weights, rank1_target):
    parm = rhsolve.ResidueParametrization(
        rank1_weights, np.array([np.eye(1, dtype=complex)] * 3)
    )
    assert parm.dim == 0
    f = rhsolve.residual_vector(parm, np.zeros(0), rank1_target, fuchs.MonodromyLoops(rank1_weights))
    assert np.linalg.norm(f) <= 1e-8


def test_residual_at_rigid_oracle(rank2_weights, rank2_target, rank2_oracle_system):
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    f = rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target, fuchs.MonodromyLoops(rank2_weights))
    assert float(f @ f) <= 1e-6


def test_residual_fixed_point(rank2_solved, rank2_target):
    system, report = rank2_solved
    parm = rhsolve.parametrization_from_system(system)
    f = rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target, fuchs.MonodromyLoops(system.weights))
    assert float(f @ f) <= 10 * max(report.final_residual, 1e-12)


def test_residual_gauge_invariance(rank2_weights, rank2_target, rank2_oracle_system):
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    problem = fuchs.MonodromyLoops(rank2_weights)
    f1 = rhsolve.residual_vector(parm, np.zeros(parm.dim), rank2_target, problem)
    g = np.diag(np.exp(1j * np.array([0.7, -1.2])))
    conj_target = fuchs.AdmissibleRep(
        weights=rank2_target.weights,
        generators=[g @ m @ g.conj().T for m in rank2_target.generators],
        conjugators=[g @ u for u in rank2_target.conjugators],
    )
    f2 = rhsolve.residual_vector(parm, np.zeros(parm.dim), conj_target, problem)
    assert abs(np.linalg.norm(f1) - np.linalg.norm(f2)) < 1e-10


def test_parametrization_preserves_spectra(rank2_weights):
    rng = np.random.default_rng(2)
    parm = rhsolve.ResidueParametrization(
        rank2_weights, np.array([np.eye(2, dtype=complex)] * 2)
    )
    for _ in range(10):
        x = rng.standard_normal(parm.dim)
        system = parm.system(x)
        assert system.spectrum_residual() < 1e-10


def test_parametrization_stack_matches_points(rank2_weights):
    rng = np.random.default_rng(6)
    parm = rhsolve.ResidueParametrization(
        rank2_weights, np.array([scipy.linalg.expm(0.3 * rng.standard_normal((2, 2)))] * 2)
    )
    xs = rng.standard_normal((5, parm.dim))
    cs, res = parm.conjugators(xs), parm.residues(xs)
    assert cs.shape == res.shape == (5, 2, 2, 2)
    for k, x in enumerate(xs):
        assert np.allclose(cs[k], parm.conjugators(x), rtol=1e-14, atol=1e-15)
        assert np.allclose(res[k], parm.residues(x), rtol=1e-14, atol=1e-15)


def test_residual_stack_rows_match_residual_vector_rank1(rank1_weights, rank1_target):
    parm = rhsolve.ResidueParametrization(
        rank1_weights, np.array([np.eye(1, dtype=complex)] * 3)
    )
    problem = fuchs.MonodromyLoops(rank1_weights)
    f = rhsolve.residual_stack(parm, np.zeros((3, 0)), rank1_target, problem)
    one = rhsolve.residual_vector(parm, np.zeros(0), rank1_target, problem)
    assert f.shape == (3, len(one))
    assert np.max(np.abs(f - one)) <= 1e-13


def test_residual_stack_rows_match_residual_vector_rank2(rank2_target, rank2_oracle_system):
    parm = rhsolve.parametrization_from_system(rank2_oracle_system)
    problem = fuchs.MonodromyLoops(parm.weights)
    xs = 0.1 * np.random.default_rng(9).standard_normal((4, parm.dim))
    f = rhsolve.residual_stack(parm, xs, rank2_target, problem=problem)
    for row, x in zip(f, xs):
        one = rhsolve.residual_vector(parm, x, rank2_target, problem=problem)
        # the stack shares its transport steps, so rows agree to the transport tolerance
        assert np.max(np.abs(row - one)) <= 1e-8


def test_solve_rank1(rank1_weights, rank1_target):
    system, report = rhsolve.solve(
        rank1_weights, rank1_target, opts=rhsolve.SolveOptions(seed=0, restarts=1)
    )
    assert report.success
    assert report.final_residual <= 1e-8
    assert np.allclose(np.diagonal(system.residues, axis1=1, axis2=2).ravel(),
                       rank1_weights.weights[:-1, 0])


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
    assert norm.extrapolation_disagreement < 1e-3


def test_normalize_constant_term_is_the_richardson_limit(rank2_solved, rank2_target):
    # three-point Richardson estimates from R, 2R and 4R, along the straight
    # continuation of the basepoint ray at a tolerance 100 times tighter,
    # leave an R^-3 tail: they converge to the series' constant term
    system, _ = rank2_solved
    tol = fuchs.TRANSPORT_TOL
    norm = rhsolve.normalize_at_infinity(system, rank2_target)
    z0, lam = norm.basepoint, system.weights.infinity_exponents
    unit = z0 / abs(z0)

    radii = 20.0 * 2.0 ** np.arange(6)
    g, start, y = {}, z0, np.eye(2, dtype=complex)
    for radius in radii:
        end = radius * unit
        y = fuchs.transport(system, [paths.Line(start, end)], start=y, tol=tol / 100).value
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
    # circles came from: one series_stack call per normalization
    system, _ = rank2_solved
    calls = []
    series_stack = fuchs.series_stack
    monkeypatch.setattr(fuchs, "series_stack", lambda *a: calls.append(a[2]) or series_stack(*a))
    rhsolve.normalize_at_infinity(system, rank2_target)
    assert calls == [[0, 1, None]]


def test_normalize_sums_the_series_frame_once(rank2_solved, rank2_target, monkeypatch):
    # the loop set hands over every member's coordinates with the monodromy,
    # so the frames at the loop entries are summed once per normalization,
    # where the circles' transports read them
    system, _ = rank2_solved
    calls = []
    frame = fuchs.SeriesStack.frame
    monkeypatch.setattr(fuchs.SeriesStack, "frame", lambda self, x: calls.append(1) or frame(self, x))
    rhsolve.normalize_at_infinity(system, rank2_target)
    assert len(calls) == 1


def test_normalize_keeps_the_matched_loop_series(rank2_solved, rank2_target):
    # the kept series is in the canonical gauge and matched on every member:
    # at each loop entry it gives the canonical solution, transported there
    # from the basepoint value (the infinity member: the basepoint itself)
    system, _ = rank2_solved
    norm = rhsolve.normalize_at_infinity(system, rank2_target)
    loops = fuchs.MonodromyLoops(system.weights)
    series, coords = norm.series, norm.series_coords
    assert series.at == (0, 1, None) and coords.shape == (3, 2, 2)
    for s, circle in enumerate(loops.circles):
        got = series.values(s, circle.radius, circle.angle0, coords[s])
        if s < len(loops.approaches):
            want = fuchs.transport(
                norm.canonical_system, loops.approaches[s], start=norm.basepoint_value, tol=1e-12
            ).value
        else:
            want = norm.basepoint_value
        assert numcore.fro(got - want) <= 1e-9 * numcore.fro(want)


def test_solve_hands_over_normalization(rank2_solved, rank2_target):
    # the field built from the solve's own normalization is the field built
    # from a fresh one
    system, report = rank2_solved
    assert report.normalization is not None
    assert report.large_cell_flag == report.normalization.large_cell_flag
    handed = wznw.make_metric_field(system, rank2_target, normalization=report.normalization)
    fresh = wznw.make_metric_field(system, rank2_target)
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


def test_lm_rejects_a_trial_step_whose_residual_raises():
    # restart 1 of this solve tries a step whose local series has a NaN tail
    # (NumericalError); the step is rejected like a rise in cost, and the
    # restart goes on to converge
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.2, 0.6], [0.1, 0.8], [0.55, 0.75]])
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    with np.errstate(all="ignore"):
        _, report = rhsolve.solve(ws, target, opts=rhsolve.SolveOptions(restarts=2))
    assert report.success and report.restart_index == 1


def test_lm_rejects_a_raising_trial_point_and_converges():
    # a synthetic residual x - c whose first trial evaluation raises
    # NumericalError: that step is rejected, the damping grows, so the next
    # trial step is shorter, and that one is taken; the run still converges
    c = np.array([0.7, -0.4, 0.2])
    calls = []

    def func(x):
        calls.append(x.copy())
        if len(calls) == 2:  # calls[0] is the start
            raise numcore.NumericalError("trial residual not finite")
        return x - c

    x, f, _, history = rhsolve._levenberg_marquardt(
        func, lambda xs: xs - c, np.zeros(3), rhsolve.SolveOptions())
    rejected, taken = calls[1], calls[2]
    assert np.linalg.norm(taken) < np.linalg.norm(rejected)
    assert history[1] == float((taken - c) @ (taken - c)) < history[0]
    assert float(f @ f) <= 1e-12 and np.allclose(x, c, atol=1e-6)


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
    problem = fuchs.MonodromyLoops(parm.weights)
    x = 0.05 * np.random.default_rng(4).standard_normal(parm.dim)
    fd_step = rhsolve.FD_STEP

    def func_stack(xs):
        return rhsolve.residual_stack(parm, xs, rank2_target, problem=problem)

    J = rhsolve.central_jacobian(func_stack, x)
    columns = []
    for j in range(parm.dim):
        h = fd_step * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fp = rhsolve.residual_vector(parm, xp, rank2_target, problem=problem)
        fm = rhsolve.residual_vector(parm, xm, rank2_target, problem=problem)
        columns.append((fp - fm) / (2 * h))
    J_cols = np.stack(columns, axis=1)
    assert J.shape == J_cols.shape
    assert numcore.fro(J - J_cols) <= 1e-6 * numcore.fro(J_cols)
    # the residual at one point is the stacked residual of a one-member stack
    f = rhsolve.residual_vector(parm, x, rank2_target, problem=problem)
    assert np.array_equal(f, func_stack(x[None, :])[0])


def test_cold_solve_fixture(rank2_weights, rank2_target):
    system, report = rhsolve.solve(rank2_weights, rank2_target)
    assert report.success
    assert report.restart_index == 0
    assert report.iterations <= 9
    assert report.final_residual <= 1e-6


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
    assert system.spectrum_residual() < 1e-10
