import csv
import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import W3
from rhwznw import fuchs, moduli, numcore, rhsolve, wznw


# (points, weights) of the criterion-9 family (rank 2) and of a rank-4 system
# at n = 4 whose rows each sum to 2 (all exponents at infinity -2); W3, the
# rank-3 one, is conftest's
N4 = ([-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]])
W4 = (
    [-1.0, 0.0, 1.0],
    [[0.1, 0.4, 0.6, 0.9], [0.2, 0.4, 0.6, 0.8], [0.15, 0.35, 0.65, 0.85], [0.05, 0.45, 0.55, 0.95]],
)


# the criterion-9 family listed right to left: points 1, 0, -1, each with its weight row
N4_REVERSED = ([1.0, 0.0, -1.0], N4[1][2::-1] + N4[1][3:])


@pytest.fixture(scope="module")
def n4_center():
    return moduli.random_admissible_rep(fuchs.build_weight_system(*N4), seed=5)


@pytest.fixture(scope="module")
def n4_direction(n4_center):
    return moduli.random_tangent_direction(n4_center.weights, seed=1)


@pytest.fixture(scope="module")
def w3_center():
    return moduli.random_admissible_rep(fuchs.build_weight_system(*W3), seed=1)


@pytest.fixture(scope="module", params=["n4_center", "w3_center"])
def chart(request):
    """A center of the criterion-9 family (rank 2) or of W3 (rank 3), with
    the direction of seed 1."""
    center = request.getfixturevalue(request.param)
    return center, moduli.random_tangent_direction(center.weights, seed=1)


def test_deform_zero_is_center(n4_center, n4_direction):
    d = moduli.deform_rep(n4_center, n4_direction, 0.0)
    assert fuchs.rep_distance(n4_center, d) < 1e-12


def test_deform_linear_scaling(n4_center, n4_direction):
    slopes = []
    for eps in (1e-2, 1e-3, 1e-4):
        d = moduli.deform_rep(n4_center, n4_direction, eps)
        slopes.append(np.sqrt(fuchs.rep_distance(n4_center, d)) / eps)
    assert np.max(slopes) / np.min(slopes) < 1.1


def test_deform_radius_error(n4_center, n4_direction):
    with pytest.raises(moduli.ChartRadiusError):
        moduli.deform_rep(n4_center, n4_direction, 1.5)


def test_deform_members_admissible(chart):
    center, direction = chart
    off_diagonal = ~np.eye(center.rank, dtype=bool)
    for eps in (0.02, 0.02j, -0.015 + 0.01j):
        rep = moduli.deform_rep(center, direction, eps)
        assert rep.relation_residual() < 1e-8
        assert np.max(numcore.fro(rep.generators @ numcore.adjoint(rep.generators) - np.eye(rep.rank))) < 1e-8
        assert np.sum(np.abs(rep.generators[-1][off_diagonal])) < 1e-8


def test_reversed_listing_solves_cold():
    # the relation takes the points by their angle at z0, not by their index:
    # the criterion-9 family listed right to left closes, solves cold at
    # restart 0 and gives a field inside the quality gate
    ws = fuchs.build_weight_system(*N4_REVERSED)
    assert ws.loops.relation_order.tolist() == [2, 1, 0]
    center = moduli.random_admissible_rep(ws, seed=5)
    system, report = rhsolve.solve(ws, center, opts=rhsolve.SolveOptions(seed=3))
    assert report.success and report.restart_index == 0
    fld = wznw.make_metric_field(system, center)
    assert fld.monodromy_quality <= 1e-6


def test_relabelled_target_is_the_same_tuple(n4_center):
    # the seed-5 center's conjugators listed right to left close to the same
    # tuple, relabelled, and its action is the same S
    ws = fuchs.build_weight_system(*N4_REVERSED)
    rep = fuchs.build_admissible_rep(ws, n4_center.conjugators[2::-1])
    flip = [2, 1, 0, 3]
    assert np.max(np.abs(rep.generators - n4_center.generators[flip])) <= 1e-14
    assert np.max(np.abs(rep.conjugators - n4_center.conjugators[flip])) <= 1e-14
    actions = []
    for target in (n4_center, rep):
        system, report = rhsolve.solve(target.weights, target, opts=rhsolve.SolveOptions(seed=3))
        assert report.success
        fld = wznw.make_metric_field(system, target)
        actions.append(wznw.action_regularized(fld).value)
    assert abs(actions[1] / actions[0] - 1) <= 1e-9


def test_levi_constant_surface():
    assert moduli.potential_levi_form(1.0, 1.0, 1.0, 1.0, 1.0, 0.1) == 0.0


def test_levi_quadratic_exact():
    fun = lambda e: abs(e) ** 2
    c = 0.37 - 0.21j
    for a in (0.1, 0.05, 0.3):
        val = moduli.potential_levi_form(fun(c), fun(c + a), fun(c - a), fun(c + 1j * a), fun(c - 1j * a), a)
        assert abs(val + 0.5) < 1e-10


def test_levi_pluriharmonic_zero():
    c, a = 0.2 + 0.1j, 0.05
    for fun in (lambda e: (e * e).real, lambda e: (e * e).imag, lambda e: e.real):
        val = moduli.potential_levi_form(fun(c), fun(c + a), fun(c - a), fun(c + 1j * a), fun(c - 1j * a), a)
        assert abs(val) < 1e-9


def test_surface_to_csv(tmp_path):
    # a hole writes empty action and fit-error fields; the repr floats read
    # back exactly
    pts = [
        moduli.SurfacePoint(
            eps=0.1 + 0.2 - 1j / 3, action=2 / 3, extrapolation_error=1.1e-17,
            large_cell_flag=True, solve_residual=0.0, message="",
        ),
        moduli.SurfacePoint(
            eps=0.25 - 0.7j, action=None, extrapolation_error=None,
            large_cell_flag=False, solve_residual=None, message="hole",
        ),
    ]
    assert [p.ok for p in pts] == [True, False]
    moduli.surface_to_csv(pts, tmp_path / "surface.csv")
    with open(tmp_path / "surface.csv", newline="") as fh:
        header, full, hole = list(csv.reader(fh))
    assert header == ["re_eps", "im_eps", "action", "extrapolation_error", "large_cell_flag"]
    assert [float(x) for x in full[:4]] == [0.1 + 0.2, -1 / 3, 2 / 3, 1.1e-17]
    assert full[4] == "true"
    assert hole == ["0.25", "-0.7", "", "", "false"]


def test_action_surface_single_point(rank1_weights, rank1_target, rank1_field):
    from rhwznw import rhsolve, wznw

    direction = moduli.random_tangent_direction(rank1_weights, 3)
    pts = moduli.action_surface(rank1_target, direction, [0.0], solve_opts=rhsolve.SolveOptions(restarts=1))
    assert len(pts) == 1 and pts[0].ok
    direct = wznw.action_regularized(rank1_field).value
    assert abs(pts[0].action - direct) < 1e-8


def test_action_surface_normalizes_each_point_once(rank1_weights, rank1_target, monkeypatch):
    # on a rank-1 chart of dimension 0 each point's solve evaluates its one
    # chart point once, at the normalization's tolerance, and normalizes that
    # evaluation without a loop set of its own; the field reads the
    # normalization back
    from rhwznw import fuchs, rhsolve

    calls = []
    monodromy = fuchs.MonodromyLoops.monodromy

    def counted(self, residues, tol):
        calls.append((len(residues), tol))
        return monodromy(self, residues, tol)

    monkeypatch.setattr(fuchs.MonodromyLoops, "monodromy", counted)
    direction = moduli.random_tangent_direction(rank1_weights, 3)
    pts = moduli.action_surface(
        rank1_target, direction, [0.0, 0.02], solve_opts=rhsolve.SolveOptions(restarts=1)
    )
    assert all(p.ok for p in pts)
    assert calls == [(1, fuchs.TRANSPORT_TOL)] * 2


def test_action_surface_hole_above_monodromy_quality_gate(rank1_weights, rank1_target, monkeypatch):
    # a field whose aligned generators are far from unitary has a
    # multi-valued h: the point is a hole, not an action
    from dataclasses import replace

    from rhwznw import rhsolve, wznw

    make = wznw.make_metric_field
    monkeypatch.setattr(
        wznw, "make_metric_field", lambda *a, **k: replace(make(*a, **k), monodromy_quality=1e-3)
    )
    direction = moduli.random_tangent_direction(rank1_weights, 3)
    pts = moduli.action_surface(rank1_target, direction, [0.0], solve_opts=rhsolve.SolveOptions(restarts=1))
    assert len(pts) == 1 and not pts[0].ok
    assert pts[0].action is None and "monodromy quality" in pts[0].message


def test_action_surface_rank1_family_matches_oracle(rank1_weights, rank1_target):
    # rank-1 tuples are rigid under conjugator moves, so every member has
    # the closed-form abelian action
    from rhwznw import rhsolve, wznw

    direction = moduli.random_tangent_direction(rank1_weights, 3)
    pts = moduli.action_surface(
        rank1_target, direction, [0.0, 0.02, -0.02j], solve_opts=rhsolve.SolveOptions(restarts=1)
    )
    oracle = wznw.abelian_action_closed_form(rank1_weights)
    for p in pts:
        assert p.ok and abs(p.action - oracle) <= 1e-3 * abs(oracle)


def test_action_surface_order_reversal(rank2_weights, rank2_target):
    # every point warm-starts from the one center solve, so its value does
    # not depend on where it stands in the grid: a plus-stencil and its
    # reverse give the same points, bit for bit
    direction = moduli.random_tangent_direction(rank2_weights, seed=4)
    a = 0.02
    grid = [0.0, a, -a, 1j * a, -1j * a]
    opts = rhsolve.SolveOptions(seed=2, restarts=4, tol=1e-9)
    fwd = moduli.action_surface(rank2_target, direction, grid, solve_opts=opts)
    rev = moduli.action_surface(rank2_target, direction, grid[::-1], solve_opts=opts)
    assert all(p.ok for p in fwd)
    assert fwd == rev[::-1]


def test_action_surface_warm_starts_every_point_from_the_center(rank1_weights, rank1_target, monkeypatch):
    # one cold solve of the center, whether or not the grid holds 0, and
    # its solved system is the init of every other point's solve
    calls = []
    solve = rhsolve.solve

    def recorded(weights, target, init=None, opts=None):
        system, report = solve(weights, target, init=init, opts=opts)
        calls.append((target, init, system))
        return system, report

    monkeypatch.setattr(rhsolve, "solve", recorded)
    direction = moduli.random_tangent_direction(rank1_weights, 3)
    opts = rhsolve.SolveOptions(restarts=1)
    for grid in ([0.0, 0.02, -0.02j], [0.02, -0.02j, 0.01]):
        calls.clear()
        pts = moduli.action_surface(rank1_target, direction, grid, solve_opts=opts)
        assert all(p.ok for p in pts)
        (target, init, center_system), *warm = calls
        assert target is rank1_target and init is None
        assert len(warm) == sum(eps != 0 for eps in grid)
        assert all(t is not rank1_target and i is center_system for t, i, _ in warm)


def test_action_surface_solves_cold_when_the_center_fails(rank1_weights, rank1_target, monkeypatch):
    # a center whose solve fails is a "solve failed" hole at eps = 0, and
    # every other point solves cold: no init, the caller's own options
    calls = []
    solve = rhsolve.solve

    def failing_center(weights, target, init=None, opts=None):
        system, report = solve(weights, target, init=init, opts=opts)
        calls.append((target, init, opts))
        if target is rank1_target:
            report = dataclasses.replace(report, success=False)
        return system, report

    monkeypatch.setattr(rhsolve, "solve", failing_center)
    direction = moduli.random_tangent_direction(rank1_weights, 3)
    opts = rhsolve.SolveOptions(restarts=1)
    grid = [0.0, 0.02, -0.02j]
    pts = moduli.action_surface(rank1_target, direction, grid, solve_opts=opts)
    assert [p.eps for p in pts] == grid
    assert not pts[0].ok and pts[0].message == "solve failed"
    assert all(p.ok for p in pts[1:])
    (target, init, center_opts), *cold = calls
    assert target is rank1_target and init is None and center_opts is opts
    assert len(cold) == 2
    assert all(t is not rank1_target and i is None and o is opts for t, i, o in cold)


@pytest.mark.parametrize(
    "error",
    [wznw.UnreliableExtrapolationError("delta fit residual"), numcore.NumericalError("non-finite total")],
)
def test_action_surface_numerical_error_is_a_hole(rank1_weights, rank1_target, monkeypatch, error):
    # a NumericalError from one point's action leaves a hole with its
    # message; the points before and after it still carry actions
    action = wznw.action_regularized
    calls = []

    def failing_second(fld, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return action(fld, *args, **kwargs)

    monkeypatch.setattr(wznw, "action_regularized", failing_second)
    direction = moduli.random_tangent_direction(rank1_weights, 3)
    grid = [0.0, 0.02, -0.02j]
    pts = moduli.action_surface(rank1_target, direction, grid, solve_opts=rhsolve.SolveOptions(restarts=1))
    assert [p.eps for p in pts] == grid
    assert [p.ok for p in pts] == [True, False, True]
    assert pts[1].action is None and pts[1].message == str(error)
    assert pts[1].large_cell_flag and pts[1].solve_residual is not None


def test_project_conjugators_is_projection(chart):
    center, _ = chart
    us = center.conjugators[:-1].copy()
    out = moduli.project_conjugators(center.weights, us)
    assert np.array_equal(us, center.conjugators[:-1])
    assert np.max(np.abs(out - us)) < 1e-10


def _su_basis_per_matrix(r):
    """The su(r) basis as a list, built one matrix at a time."""
    out = []
    for a in range(r):
        for b in range(a + 1, r):
            m = np.zeros((r, r), dtype=complex)
            m[a, b], m[b, a] = 1.0, -1.0
            out.append(m)
            m = np.zeros((r, r), dtype=complex)
            m[a, b] = 1j
            m[b, a] = 1j
            out.append(m)
    for a in range(r - 1):
        m = np.zeros((r, r), dtype=complex)
        m[a, a] = 1j
        m[a + 1, a + 1] = -1j
        out.append(m)
    return out


def _closure_per_matrix(weights, conjugators, basis):
    """The closure residual and Jacobian by one loop iteration per
    generator, basis element and power."""
    r, n1 = weights.rank, len(conjugators)
    ds = [np.diag(np.exp(fuchs.TWO_PI_I * weights.weights[i])) for i in range(n1)]
    gens = [u @ d @ u.conj().T for u, d in zip(conjugators, ds)]
    prod = np.eye(r, dtype=complex)
    for m in gens:
        prod = prod @ m
    m_last = prod.conj().T

    target = np.diag(np.exp(fuchs.TWO_PI_I * weights.weights[-1]))
    diffs = []
    mp, tp = m_last.copy(), target.copy()
    for _ in range(r - 1):
        diffs.append(np.trace(mp) - np.trace(tp))
        mp, tp = mp @ m_last, tp @ target
    diff = np.asarray(diffs)

    powers = [np.eye(r, dtype=complex)]
    for _ in range(r - 2):
        powers.append(powers[-1] @ m_last)
    pre = [np.eye(r, dtype=complex)]
    for i in range(n1 - 1):
        pre.append(pre[-1] @ gens[i])
    post = [np.eye(r, dtype=complex)]
    for i in range(n1 - 1, 0, -1):
        post.append(gens[i] @ post[-1])
    post = post[::-1]
    cols = []
    for i in range(n1):
        ui = conjugators[i]
        for bmat in basis:
            dmi = ui @ (bmat @ ds[i] - ds[i] @ bmat) @ ui.conj().T
            dmn = (pre[i] @ dmi @ post[i]).conj().T
            col = np.asarray([j * np.trace(powers[j - 1] @ dmn) for j in range(1, r)])
            cols.append(np.concatenate([col.real, col.imag]))
    return np.concatenate([diff.real, diff.imag]), np.asarray(cols).T


def test_su_basis_keeps_the_per_matrix_order():
    for r in range(1, 6):
        assert np.array_equal(moduli._su_basis(r), np.array(_su_basis_per_matrix(r)).reshape(-1, r, r))


@pytest.mark.parametrize("weights", [N4, W3, W4], ids=["rank2", "rank3", "rank4"])
def test_closure_system_equals_per_matrix_closure(weights):
    # bit for bit at rank 2; above it the gate leaves room for a BLAS that
    # sums the products of the power sums in another order
    ws = fuchs.build_weight_system(*weights)
    r = ws.rank
    basis = moduli._su_basis(r)
    rng = np.random.default_rng([29, r])
    for _ in range(20):
        us = np.array([numcore.random_unitary(rng, r) for _ in range(ws.n - 1)])
        res, gens, powers = moduli._closure_residual(ws, us)
        got = (res, moduli._closure_jacobian(ws, us, basis, gens, powers))
        want = _closure_per_matrix(ws, list(us), _su_basis_per_matrix(r))
        for a, b in zip(got, want):
            if r == 2:
                assert np.array_equal(a, b)
            else:
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize("weights", [N4, W3, W4], ids=["rank2", "rank3", "rank4"])
def test_closure_jacobian_matches_central_differences(weights):
    # column (i, k) is d/dt of the residual at U_i -> U_i expm(t B_k), t = 0
    ws = fuchs.build_weight_system(*weights)
    r = ws.rank
    basis = moduli._su_basis(r)
    rng = np.random.default_rng([37, r])
    us = np.array([numcore.random_unitary(rng, r) for _ in range(ws.n - 1)])
    jac = moduli._closure_jacobian(ws, us, basis, *moduli._closure_residual(ws, us)[1:])
    h = 1e-5
    fd = np.empty_like(jac)
    for i in range(ws.n - 1):
        for k, bmat in enumerate(basis):
            plus, minus = us.copy(), us.copy()
            plus[i] = us[i] @ scipy.linalg.expm(h * bmat)
            minus[i] = us[i] @ scipy.linalg.expm(-h * bmat)
            res_plus = moduli._closure_residual(ws, plus)[0]
            res_minus = moduli._closure_residual(ws, minus)[0]
            fd[:, i * len(basis) + k] = (res_plus - res_minus) / (2 * h)
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))
