import dataclasses
import re
import time

import numpy as np
import pytest

from conftest import FINE, direct_sum, off_curve_integrals, transport_path
from rhwznw import factor, fuchs, moduli, numcore, paths, rhsolve, verify, wznw


def test_metric_rank1_explicit(rank1_field, rank1_weights):
    # scalar case: h is the product of the pairwise weight powers up to the
    # overall normalization fixed at infinity (exact here since the
    # canonical constant term is 1)
    pts = rank1_weights.points
    alphas = rank1_weights.weights[:-1, 0]
    for zt in (0.5 + 0.5j, -2.0 + 0.3j, 1.4 - 0.8j):
        h = rank1_field.h_at(zt)[0, 0].real
        h_exact = np.prod([abs(zt - p) ** (2 * a) for p, a in zip(pts, alphas)])
        assert abs(h / h_exact - 1) < 1e-4


def test_metric_at_basepoint(rank2_field):
    y0 = rank2_field.basepoint_value
    h0 = rank2_field.h_at(rank2_field.basepoint)
    want = np.linalg.inv(y0 @ y0.conj().T)
    assert numcore.fro(h0 - want) < 1e-12 * numcore.fro(want)


def test_metric_derivative_matches_connection(rank2_field):
    # finite-difference d_z h against the analytic h A at 100 sample points
    rng = np.random.default_rng(1)
    s = 1e-5
    done = 0
    while done < 100:
        z = rng.uniform(-1.5, 2.5) + 1j * rng.uniform(-1.5, 1.5)
        if rank2_field.min_distance_to_punctures(z) < 0.3:
            continue
        h, A = rank2_field.h_at(z), rank2_field.system.A_of(z)
        hz = 0.5 * (
            (rank2_field.h_at(z + s) - rank2_field.h_at(z - s)) / (2 * s)
            - 1j * (rank2_field.h_at(z + 1j * s) - rank2_field.h_at(z - 1j * s)) / (2 * s)
        )
        assert numcore.fro(hz - h @ A) < 1e-6 * max(numcore.fro(h @ A), 1.0)
        done += 1


def test_metric_positive_and_single_valued(rank2_field):
    rng = np.random.default_rng(2)
    z0 = rank2_field.basepoint
    for _ in range(8):
        z = rng.uniform(-1.5, 2.5) + 1j * rng.uniform(-1.5, 1.5)
        if rank2_field.min_distance_to_punctures(z) < 0.3:
            continue
        h = rank2_field.h_at(z)
        assert np.linalg.eigvalsh(h).min() > 0
    # two homotopically distinct routes to the same point
    zt = 0.5 - 0.9j
    pts, res, y0 = rank2_field.system.points, rank2_field.system.residues, rank2_field.basepoint_value
    route1 = paths.plan_route(z0, zt, [(0.0, 0.4), (1.0, 0.4)])
    y_direct, _ = transport_path(pts, res, route1, y0, 1e-11)
    detour_mid = -1.6 + 0.0j
    route2 = paths.plan_route(z0, detour_mid, [(0.0, 0.4), (1.0, 0.4)])
    route2 += paths.plan_route(detour_mid, zt, [(0.0, 0.4), (1.0, 0.4)])
    y_detour, _ = transport_path(pts, res, route2, y0, 1e-11)
    h1 = np.linalg.inv(y_direct @ y_direct.conj().T)
    h2 = np.linalg.inv(y_detour @ y_detour.conj().T)
    assert numcore.fro(h1 - h2) <= 10 * (
        np.sqrt(1e-15) + 10 * rank2_field.monodromy_quality
    ) * numcore.fro(h1)


def test_monodromy_quality_gate(rank2_oracle_system, rank2_target):
    # the aligned generators are unitary on the closed-form residues and far
    # from it once the residues are perturbed by 0.01, so that their
    # monodromy no longer matches a unitary tuple
    fld = wznw.make_metric_field(rank2_oracle_system, rank2_target)
    assert fld.monodromy_quality <= 1e-8
    residues = rank2_oracle_system.residues
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(residues.shape) + 1j * rng.standard_normal(residues.shape)
    perturbed = fuchs.FuchsianSystem(rank2_oracle_system.weights, residues + 0.01 * noise / np.sqrt(2))
    with pytest.warns(UserWarning, match="extrapolation disagreement"):
        bad = wznw.make_metric_field(perturbed, rank2_target)
    assert bad.monodromy_quality > 1e-6


def test_action_refuses_a_field_above_the_quality_gate(rank2_field, monkeypatch):
    # h is single-valued only for unitary monodromy: the action refuses the
    # field before it builds a web, with a NumericalError (CLI exit 3)
    built = []
    web = wznw.TransportWeb
    monkeypatch.setattr(wznw, "TransportWeb", lambda *a: built.append(1) or web(*a))
    bad = dataclasses.replace(rank2_field, monodromy_quality=2 * wznw.MONODROMY_QUALITY_GATE)
    with pytest.raises(numcore.NumericalError, match="monodromy quality"):
        wznw.action_regularized(bad)
    assert built == []


def test_action_refuses_totals_off_every_delta_fit(rank2_field, monkeypatch):
    # totals that alternate along the schedule leave a fit residual far above
    # FIT_TOLERANCE times their spread: the action refuses to extrapolate
    monkeypatch.setattr(wznw.TransportWeb, "integrals_at", off_curve_integrals)
    with pytest.raises(wznw.UnreliableExtrapolationError, match="delta-fit residual"):
        wznw.action_regularized(rank2_field)


def _y_of_metric(h):
    """A Y with (Y Y*)^{-1} = h: the inverse of h's upper Cholesky factor."""
    return np.linalg.inv(factor.cholesky_upper(h))


def test_kinetic_density_zero_and_rank1():
    y = _y_of_metric(np.diag([2.0, 3.0]))
    assert wznw.densities(y, np.zeros((2, 2)))[0] == 0.0
    y1 = _y_of_metric(np.array([[1.7]]))
    a1 = np.array([[0.3 + 0.2j]])
    assert abs(wznw.densities(y1, a1)[0] - abs(a1[0, 0]) ** 2) < 1e-14


def test_kinetic_density_positive(rank2_field):
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.uniform(-2, 3) + 1j * rng.uniform(-2, 2)
        if rank2_field.min_distance_to_punctures(z) < 0.2:
            continue
        y, A = rank2_field.y_at(z), rank2_field.system.A_of(z)
        assert wznw.densities(y, A)[0] >= 0


def test_kinetic_asymptotics_near_puncture(rank2_field, rank2_weights):
    # density * |z - z_i|^2 -> sum_j alpha_ij^2 (to 1e-3 at rho = 1e-4)
    rhos = np.array([0.4, 0.1, 1e-2, 1e-3, 1e-4])
    ys = rank2_field.series.values(0, rhos, 0.9)
    z = rank2_weights.points[0] + 1e-4 * np.exp(0.9j)
    kin, _ = wznw.densities(ys[-1], rank2_field.system.A_of(z))
    target = float(np.sum(rank2_weights.weights[0] ** 2))
    assert abs(kin * 1e-8 / target - 1) < 1e-3


def test_topological_density_trivial():
    assert wznw.densities(_y_of_metric(np.array([[2.0]])), np.array([[0.4 + 1j]]))[1] == 0.0
    y = _y_of_metric(np.diag([1.0, 4.0]))
    a = np.diag([0.3, 0.7 + 0.1j])
    assert wznw.densities(y, a)[1] == 0.0


def _topological_density_from_differentials(h, a) -> float:
    """The topological density through the Cholesky differential: b_z b^{-1}
    and b_zbar b^{-1} from the real directional derivatives of the Cholesky
    factor b along dh = h A + A* h and i(h A - A* h)."""
    binv = np.linalg.inv(factor.cholesky_upper(h))
    tx = factor.cholesky_differential(h, h @ a + a.conj().T @ h) @ binv
    ty = factor.cholesky_differential(h, 1j * (h @ a - a.conj().T @ h)) @ binv
    bz, bzb = 0.5 * (tx - 1j * ty), 0.5 * (tx + 1j * ty)
    return float(np.sum(np.abs(bzb) ** 2) - np.sum(np.abs(bz) ** 2))


def test_topological_density_two_routes():
    # the routine the action integrates against the Cholesky-differential route
    rng = np.random.default_rng(4)
    for r in (2, 3):
        for _ in range(15):
            h = numcore.random_hpd(rng, r)
            a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            d1 = wznw.densities(_y_of_metric(h), a)[1]
            d2 = _topological_density_from_differentials(h, a)
            assert abs(d1 - d2) < 1e-8 * (1 + abs(d1))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("cond", [1e2, 1e5, 1e7])
def test_kinetic_density_ill_conditioned(r, cond):
    # Y = U diag(s) V: h = U s^-2 U*, so tr(A h^-1 A* h) is
    # sum |(U* A U)_ij|^2 s_j^2 / s_i^2 exactly; a route through Y Y*
    # squares cond(Y) and loses about 1e-2 relative at cond 1e7
    rng = np.random.default_rng(int(r * np.log10(cond)))
    s = np.geomspace(1.0, 1.0 / cond, r)
    for _ in range(5):
        u, v = numcore.random_unitary(rng, r), numcore.random_unitary(rng, r)
        a = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        b = u.conj().T @ a @ u
        exact = np.sum(np.abs(b) ** 2 * s[None, :] ** 2 / s[:, None] ** 2)
        kin, _ = wznw.densities((u * s) @ v, a)
        assert abs(kin / exact - 1) <= 1e-8


def test_densities_stack_matches_single_nodes():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((4, 3, 3, 3)) + 1j * rng.standard_normal((4, 3, 3, 3))
    a = rng.standard_normal((4, 3, 3, 3)) + 1j * rng.standard_normal((4, 3, 3, 3))
    y_before = y.copy()
    kin, top = wznw.densities(y, a)
    assert kin.shape == top.shape == (4, 3)
    for idx in np.ndindex(4, 3):
        k1, t1 = wznw.densities(y[idx], a[idx])
        assert abs(kin[idx] - k1) <= 1e-14 * k1 and abs(top[idx] - t1) <= 1e-14 * k1
    # the factorisation works on copies: Y is left as it was
    assert np.array_equal(y, y_before)


def test_h_at_matches_inverse_gram(rank2_field):
    # h = b* b from Y = R Q against (Y Y*)^{-1} where Y is well conditioned
    rng = np.random.default_rng(9)
    done = 0
    while done < 10:
        z = rng.uniform(-1.5, 2.5) + 1j * rng.uniform(-1.5, 1.5)
        if rank2_field.min_distance_to_punctures(z) < 0.3:
            continue
        y = rank2_field.y_at(z).copy()
        assert np.linalg.cond(y) < 1e3
        h = rank2_field.h_at(z)
        # h_at leaves Y as it was: a second read is bit-equal to the first
        assert np.array_equal(rank2_field.y_at(z), y)
        want = np.linalg.inv(y @ y.conj().T)
        assert numcore.fro(h - want) <= 1e-13 * numcore.fro(want)
        assert numcore.fro(h - h.conj().T) <= 1e-15 * numcore.fro(h)
        done += 1


# fixture points in each region of MetricField.y_at: inside puncture 0's
# ring (radius 0.5), on outward rays from the rings of punctures 0 and 1,
# and beyond the basepoint's circle |z| = 2
Y_AT_POINTS = [0.3 + 0.2j, 0.2 + 1.1j, 1.3 - 0.8j, -1.5 + 2.5j]


def test_y_at_is_independent_of_query_order(rank2_solved, rank2_target):
    # Y depends on z alone: two fresh fields read in opposite orders agree
    # to the last bit
    system, _ = rank2_solved
    first = wznw.make_metric_field(system, rank2_target)
    second = wznw.make_metric_field(system, rank2_target)
    forward = [first.y_at(z) for z in Y_AT_POINTS]
    backward = [second.y_at(z) for z in Y_AT_POINTS[::-1]][::-1]
    for z, a, b in zip(Y_AT_POINTS, forward, backward):
        assert np.array_equal(a, b), z


def _region_of(fld, z):
    pts = np.asarray(fld.system.points)
    i = int(np.argmin(np.abs(pts - z)))
    if abs(z - pts[i]) <= fld.series.radius[i]:
        return "ring"
    return "outer" if abs(z) >= abs(fld.basepoint) else "ray"


def test_y_at_in_the_outer_annulus_is_the_web_ray_times_a_unitary(rank2_field, monkeypatch):
    # at |z| >= |z0| y_at reads the series at infinity with no transport; a
    # ray from the nearest puncture's ring reaches the same point with a Y
    # that differs by a unitary factor, so h agrees
    fld = rank2_field
    z = 2.5
    assert abs(fld.basepoint) <= z
    calls = []
    fan = fuchs.transport
    monkeypatch.setattr(fuchs, "transport", lambda *a, **k: calls.append(1) or fan(*a, **k))
    y = fld.y_at(z)
    assert calls == []
    monkeypatch.undo()
    ring = fld.series.radius[1]
    start = fld.series.values(1, ring, 0.0)
    ray = paths.RayFan(fld.system.points[1], np.array([0.0]), np.log(ring), np.log(z - 1.0))
    y_ray = fuchs.transport(fld.system.points, fld.system.residues, ray, start).values[-1, 0]
    u = np.linalg.solve(y, y_ray)
    assert numcore.fro(u @ u.conj().T - np.eye(2)) <= 1e-9
    h, h_ray = fld.h_at(z), np.linalg.inv(y_ray @ y_ray.conj().T)
    assert numcore.fro(h - h_ray) <= 1e-9 * numcore.fro(h_ray)


def test_y_at_and_the_web_switch_to_the_series_at_infinity_at_z0(rank2_field):
    # one region rule: for |z| >= |z0| y_at reads the series at infinity (see
    # above), and the web's outer region, read from the same series, starts
    # on that circle (its first Gauss-Legendre node lies just beyond it), so
    # no node of the web beyond |z0| is reached by a ray; the outer region's
    # radius is its local coordinate 1 / |z|
    fld = rank2_field
    web = wznw.TransportWeb(fld, wznw.DELTA_SCHEDULE)
    r0 = abs(fld.basepoint)
    outer = web.regions[-1]
    assert r0 <= np.abs(outer.z).min() < 1.05 * r0
    np.testing.assert_allclose(outer.rho, 1.0 / np.abs(outer.z), rtol=1e-14)


def test_h_at_matches_a_transported_reference(rank2_field):
    # h from the series and the rays against h from a transport of the
    # canonical solution from the basepoint along a plan_route path, at
    # tol / 100, five points in each region
    fld = rank2_field
    tol = fuchs.TRANSPORT_TOL
    pts = fld.system.points
    cap = 0.45 * fuchs._min_pairwise_distance(pts)
    rng = np.random.default_rng(11)
    todo = {"ring": 5, "ray": 5, "outer": 5}
    while any(todo.values()):
        z = complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))
        region = _region_of(fld, z)
        if fld.min_distance_to_punctures(z) < 0.05 or todo[region] == 0:
            continue
        keepouts = [(complex(w), min(0.92 * abs(z - w), 0.92 * abs(fld.basepoint - w), cap)) for w in pts]
        route = paths.plan_route(fld.basepoint, z, keepouts)
        y, _ = transport_path(pts, fld.system.residues, route, fld.basepoint_value, tol / 100)
        want = np.linalg.inv(y @ y.conj().T)
        assert numcore.fro(fld.h_at(z) - want) <= 1e-9 * numcore.fro(want), (region, z)
        todo[region] -= 1


def test_three_form_antisymmetry():
    rng = np.random.default_rng(5)
    h = numcore.random_hpd(rng, 2)
    x = rng.standard_normal((2, 2))
    x = x + x.T
    t3, dw = wznw.three_form_pair(h, x, x, np.eye(2))
    assert abs(t3) < 1e-12 and abs(dw) < 1e-10


def test_three_form_commuting_directions():
    t3, dw = wznw.three_form_pair(
        np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.1, -1.0]), np.diag([1.0, 0.0, 1.0])
    )
    assert abs(t3) < 1e-12 and abs(dw) < 1e-9


def test_three_form_identity_random():
    rng = np.random.default_rng(6)
    for r in (2, 3):
        for _ in range(25):
            h = numcore.random_hpd(rng, r)
            xs = []
            for _ in range(3):
                m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                xs.append(0.5 * (m + m.conj().T))
            t3, dw = wznw.three_form_pair(h, *xs)
            assert abs(t3 - dw) <= 1e-5 * (1 + abs(t3))


def test_three_form_stack_equals_the_per_metric_route():
    # 3 dOmega from one theta1 per (metric, direction) call, as the
    # alternating sum of central differences, matches the stacked route
    # bit for bit
    rng = np.random.default_rng(7)
    for r in (2, 3):
        h = numcore.random_hpd(rng, r)
        xs = []
        for _ in range(3):
            m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            xs.append(0.5 * (m + m.conj().T))

        def theta1(g, v):
            return factor.cholesky_differential(g, v) @ np.linalg.inv(factor.cholesky_upper(g))

        def omega(g, v, w):
            tv, tw = theta1(g, v), theta1(g, w)
            return complex(np.trace(tv @ tw.conj().T - tw @ tv.conj().T))

        def d_omega(d, v, w):
            t = wznw.THREE_FORM_STEP
            return (omega(h + t * d, v, w) - omega(h - t * d, v, w)) / (2 * t)

        x, y, z = xs
        want = complex(3.0 * (d_omega(x, y, z) - d_omega(y, x, z) + d_omega(z, x, y)))
        assert wznw.three_form_pair(h, *xs)[1] == want


def test_three_form_stack_equals_member_calls():
    # a (2, 5) stack at each rank: 3 dOmega bit for bit, Theta to rounding
    rng = np.random.default_rng(9)
    for r in (2, 3):
        h = np.stack([numcore.random_hpd(rng, r) for _ in range(10)]).reshape(2, 5, r, r)
        m = rng.standard_normal((3, 2, 5, r, r)) + 1j * rng.standard_normal((3, 2, 5, r, r))
        xs = 0.5 * (m + numcore.adjoint(m))
        t3, dw = wznw.three_form_pair(h, *xs)
        assert t3.shape == dw.shape == (2, 5)
        for idx in np.ndindex(2, 5):
            one = wznw.three_form_pair(h[idx], *(x[idx] for x in xs))
            assert abs(t3[idx] - one[0]) <= 1e-14 * abs(one[0]) and dw[idx] == one[1]
    with pytest.raises(ValueError, match="shape"):
        wznw.three_form_pair(h, xs[0], xs[1], xs[2][0])


def test_flatness_rank1(rank1_field):
    # scalar case: residual is pure stencil truncation, C step^2 with a
    # moderate constant, and dies quadratically
    r1 = wznw.flatness_residual(rank1_field, 0.4 + 0.5j, 1e-3)
    r2 = wznw.flatness_residual(rank1_field, 0.4 + 0.5j, 5e-4)
    assert r1 < 1e-5
    assert 3.5 < r1 / r2 < 4.5


def test_flatness_constant_field():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.3], [0.8], [0.9]])
    zeros = np.zeros((2, 1, 1), dtype=complex)
    system = fuchs.FuchsianSystem(ws, zeros)
    loops = fuchs.MonodromyLoops(ws)
    fld = wznw.MetricField(
        system=system,
        basepoint_value=np.eye(1, dtype=complex),
        # Y0 = 1 on every member: series_stack's coordinates describe Y0
        series=fuchs.series_stack(ws.points, zeros[None], loops.radii, fuchs.TRANSPORT_TOL),
        monodromy_quality=0.0,
    )
    assert wznw.flatness_residual(fld, 0.5 + 0.4j, 1e-3) < 1e-10


def test_flatness_richardson(rank2_field):
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(10):
        z = rng.uniform(0.25, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        r1 = wznw.flatness_residual(rank2_field, z, 0.02)
        r2 = wznw.flatness_residual(rank2_field, z, 0.01)
        ratios.append(r1 / r2)
    assert 3.5 <= float(np.median(ratios)) <= 4.5


def test_action_abelian_oracle(rank1_field, rank1_weights):
    act = wznw.action_regularized(rank1_field)
    exact = wznw.abelian_action_closed_form(rank1_weights)
    assert abs(act.value - exact) <= 1e-3 * abs(exact)
    assert act.imag_residual <= 1e-8


@pytest.mark.parametrize(
    "points, components",
    [
        ([-1.0, 0.0, 1.0], [[0.15, 0.2, 0.1, 0.55], [0.35, 0.45, 0.05, 0.15]]),
        # the leg to 1 detours round the circle at 0.5+1j
        ([-1.0, 0.0, 1.0, 0.5 + 1j], [[0.25, 0.3, 0.2, 0.35, 0.9], [0.45, 0.55, 0.4, 0.5, 0.1]]),
        ([-1.0, 0.0, 1.0], [[0.1, 0.2, 0.3, 0.4], [0.15, 0.35, 0.2, 0.3], [0.4, 0.25, 0.1, 0.25]]),
        ([-1.0, 0.0, 1.0, 0.5 + 1j, -0.5 - 1j],
         [[0.15, 0.2, 0.1, 0.25, 0.5, 0.8], [0.35, 0.45, 0.3, 0.4, 0.2, 0.3]]),
    ],
    ids=["rank2-n4", "rank2-n5", "rank3-n4", "rank2-n6"],
)
def test_direct_sum_action_matches_closed_form(points, components):
    # a direct sum of rank-1 systems reaches the series, the normalization
    # at infinity, the web and the counterterms with no solve, and its S is
    # the sum of the rank-1 closed forms: measured 3.1e-12 to 2.4e-10 off at
    # FINE, with monodromy quality at most 9e-16
    system, target, closed = direct_sum(points, components)
    fld = wznw.make_metric_field(system, target)
    assert fld.monodromy_quality <= 1e-14
    act = wznw.action_regularized(fld, FINE)
    assert abs(act.value - closed) <= 1e-9 * abs(closed)
    # the default schedule's error is biased: measured 7.5e-6 to 5.2e-5
    # relative, and 3.1 to 10.1 times its extrapolation_error, which so
    # understates it
    default = wznw.action_regularized(fld)
    assert 2 * default.extrapolation_error < abs(default.value - closed) <= 1e-4 * abs(closed)


def test_direct_sum_with_unequal_component_sums_is_refused():
    # component sums 1 and 2 split the bundle as (-2, -1): not a scalar
    # splitting, so the regular locus is not decided and no field is built
    system, target, _ = direct_sum([-1.0, 0.0, 1.0], [[0.15, 0.2, 0.1, 0.55], [0.35, 0.45, 0.3, 0.9]])
    with pytest.raises(wznw.RegularLocusError, match=r"splitting \(-2, -1\)"):
        wznw.make_metric_field(system, target)


def test_action_abelian_scaling():
    # doubling all pairwise distances shifts S by -4 pi log 2 sum alpha_i alpha_j
    alphas = [[0.3], [0.45], [0.8], [0.45]]
    vals = []
    for scale in (1.0, 2.0):
        pts = [scale * p for p in (-1.3, 0.0, 1.0)]
        ws = fuchs.build_weight_system(pts, alphas)
        target = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * 3)
        system = fuchs.FuchsianSystem(
            ws, np.array([[[0.3]], [[0.45]], [[0.8]]], dtype=complex)
        )
        fld = wznw.make_metric_field(system, target)
        vals.append(wznw.action_regularized(fld).value)
    a = np.array([0.3, 0.45, 0.8])
    pair_sum = sum(a[i] * a[j] for i in range(3) for j in range(i + 1, 3))
    predicted = -4 * np.pi * np.log(2.0) * pair_sum
    assert abs((vals[1] - vals[0]) - predicted) < 2e-3 * abs(predicted)


def test_abelian_oracle_against_brute_force_quadrature(rank1_weights):
    # validates the closed form itself: dense trapezoid quadrature of the
    # exact scalar density |A|^2 over X_delta, counterterms added, then
    # extrapolated in delta -- no transport, no library quadrature
    pts = np.asarray(rank1_weights.points)
    alphas = rank1_weights.weights[:-1, 0]
    k1, k2 = rank1_weights.counterterm_coefficients()
    r_out = 2 * float(np.max(np.abs(pts))) + 2.0

    def density(z):
        return np.abs(np.sum(alphas[:, None] / (z[None, :] - pts[:, None]), axis=0)) ** 2

    def brute_total(delta, n_phi=1024, n_s=1200):
        total = 0.0
        for i, c in enumerate(pts):
            phis = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
            rho_max = wznw._voronoi_rho_max(pts, i, phis, r_out)
            for k in range(n_phi):
                s = np.linspace(np.log(delta), np.log(rho_max[k]), n_s)
                z = c + np.exp(s) * np.exp(1j * phis[k])
                total += np.trapezoid(density(z) * np.exp(2 * s), s) * (2 * np.pi / n_phi)
        phis = 2 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
        for k in range(n_phi):
            s = np.linspace(np.log(r_out), np.log(1 / delta), n_s)
            z = np.exp(s) * np.exp(1j * phis[k])
            total += np.trapezoid(density(z) * np.exp(2 * s), s) * (2 * np.pi / n_phi)
        return total + 2 * np.pi * np.log(delta) * (k1 + k2)

    deltas = np.array([0.1, 0.05, 0.025])
    totals = np.array([brute_total(d) for d in deltas])
    design = np.stack([np.ones_like(deltas), deltas**2], axis=1)
    coef, *_ = np.linalg.lstsq(design, totals, rcond=None)
    oracle = wznw.abelian_action_closed_form(rank1_weights)
    assert abs(coef[0] - oracle) <= 1e-3 * abs(oracle)


def test_action_rank2_fit_quality(rank2_field):
    act = wznw.action_regularized(rank2_field)
    totals = [t for _, t in act.per_delta]
    spread = max(totals) - min(totals)
    assert act.extrapolation_error <= 1e-2 * max(abs(act.value), spread)
    assert act.imag_residual <= 1e-8
    assert act.counterterm_k1 == pytest.approx(0.3875)
    assert act.counterterm_k2 == pytest.approx(0.49 + 0.2025)


def test_action_slope_vanishes(rank2_field, rank2_weights):
    # the log-delta slope of the corrected sums dies out as delta -> 0
    act = wznw.action_regularized(
        rank2_field, delta_schedule=(0.05, 0.025, 0.0125, 0.00625)
    )
    (d3, t3), (d4, t4) = act.per_delta[-2], act.per_delta[-1]
    slope = (t4 - t3) / (np.log(d4) - np.log(d3))
    k1, k2 = rank2_weights.counterterm_coefficients()
    assert abs(slope) <= 1e-3 * (k1 + k2)


def test_action_topological_term_delta_independent(rank2_field):
    act = wznw.action_regularized(rank2_field)
    tops = [row["topological"] for row in act.csv_rows]
    assert max(tops) - min(tops) <= 5e-3 * (1 + abs(tops[-1]))


def test_action_refuses_non_regular(rank2_solved, rank2_target, monkeypatch):
    # make_metric_field is the one refusal: a normalization off the regular
    # locus builds no field, so no action is reached
    system, report = rank2_solved
    bad = dataclasses.replace(report.normalization, large_cell_flag=False)
    monkeypatch.setattr(rhsolve, "normalize_at_infinity", lambda *a: bad)
    with pytest.raises(wznw.RegularLocusError, match=r"splitting \(-1, -1\)"):
        wznw.make_metric_field(system, rank2_target)


@pytest.mark.parametrize(
    "schedule",
    [(0.1, 0.05), (0.1, 0.1, 0.1), (0.1, 0.1, 0.05), (0.1, 0.05, 0.0), (0.1, 0.05, -0.01),
     (0.1, 0.05, np.nan)],
    ids=["two", "all-equal", "repeated", "zero", "negative", "nan"],
)
def test_action_rejects_a_bad_delta_schedule(rank2_field, schedule):
    # on the fixture residues (0.1, 0.1, 0.1) used to fit three equal totals
    # to S = 0.00557 (0.02694 at the default schedule), fit residual 1.7e-18
    with pytest.raises(ValueError, match="three or more distinct finite positive deltas"):
        wznw.action_regularized(rank2_field, schedule)


def test_action_non_finite_total_raises(rank2_field):
    # delta 1e-300 puts the outer circle at 1e300, whose area weights
    # overflow: the action used to return NaN.  At rank 2 the delta floor
    # (DELTA_CONDITION_LIMIT) now refuses it first, naming the same delta;
    # test_action_non_finite_total_raises_at_rank_1 reaches the total
    with pytest.raises(numcore.NumericalError, match="delta 1e-300"):
        wznw.action_regularized(rank2_field, (0.1, 0.05, 1e-300))


def test_web_node_limit_raises_before_any_transport(rank2_field, monkeypatch):
    # 6,000 deltas down to 1e-300 plan about 1.2 million nodes; before the
    # node limit, a web of 4 million nodes was built, 771 MB in 6.9 s,
    # before its total overflowed
    def no_transport(*args, **kwargs):
        raise AssertionError("transported past the node limit")

    monkeypatch.setattr(fuchs, "transport", no_transport)
    start = time.process_time()
    with pytest.raises(ValueError, match="WEB_NODE_LIMIT"):
        wznw.action_regularized(rank2_field, tuple(np.geomspace(0.1, 1e-300, 6000)))
    assert time.process_time() - start < 1.0


def test_totals_keep_their_digits_at_tiny_deltas(rank2_field, rank2_weights):
    # A at a patch node comes from its offset x = z - z_i, not from z: at
    # the puncture z_i = 1, z - z_i keeps only about eps / rho of x, and the
    # totals at 1e-16 and 1e-20 used to read 9.09 and 1296
    deltas = (1e-8, 1e-12, 1e-16, 1e-20)
    k1, k2 = rank2_weights.counterterm_coefficients()
    web = wznw.TransportWeb(rank2_field, deltas)
    totals = np.array([sum(web.integrals_at(d)) + 2 * np.pi * np.log(d) * (k1 + k2)
                       for d in deltas])
    assert np.max(np.abs(totals / totals[0] - 1)) <= 1e-9
    assert np.isfinite(wznw.action_regularized(rank2_field, (0.1, 0.05, 0.025, 1e-30)).value)


def test_action_refuses_a_delta_below_the_condition_floor(rank2_oracle_system, rank2_target,
                                                         monkeypatch):
    # on the closed-form fixture (exponent gap g = 1/4) delta_min 1e-60
    # used to return S = 0.0273706, 1.6% off 0.0269508, with no error;
    # delta^(-g) = 1e15 lies above DELTA_CONDITION_LIMIT, and the schedule is
    # refused before any node is evaluated
    fld = wznw.make_metric_field(rank2_oracle_system, rank2_target)

    def no_transport(*args, **kwargs):
        raise AssertionError("transported below the delta floor")

    with monkeypatch.context() as patch:
        patch.setattr(fuchs, "transport", no_transport)
        with pytest.raises(numcore.NumericalError, match="smallest delta 1e-60"):
            wznw.action_regularized(fld, (0.1, 0.05, 0.025, 1e-60))
        with pytest.raises(numcore.NumericalError, match="smallest delta 1e-50"):
            wznw.TransportWeb(fld, (0.1, 0.05, 0.025, 1e-50))
    # 1e-30 (delta^(-g) = 3.2e7) is accepted and agrees with 1e-20
    values = [wznw.action_regularized(fld, (0.1, 0.05, 0.025, d)).value for d in (1e-20, 1e-30)]
    assert abs(values[1] / values[0] - 1) <= 1e-10


def test_action_non_finite_total_raises_at_rank_1(rank1_field):
    # rank 1 has no exponent gap, so no delta is below the condition floor:
    # at delta 1e-300 the outer region's area weights overflow, and the
    # total that is not finite raises
    with pytest.raises(numcore.NumericalError, match="total at delta 1e-300 is nan"):
        wznw.action_regularized(rank1_field, (0.1, 0.05, 1e-300))


def test_counterterm_annulus(rank2_field, rank2_weights):
    for i in range(2):
        val = wznw.annulus_kinetic_integral(rank2_field, i, 1e-4)
        pred = 2 * np.pi * np.log(wznw.ANNULUS_RATIO) * float(np.sum(rank2_weights.weights[i] ** 2))
        assert abs(val / pred - 1) <= 1e-3


def test_counterterm_at_infinity():
    # the K2 counterterm, which enters the action only through the delta
    # fit: the kinetic integral over 1/(2 delta) < |z| < 1/delta, read from
    # the series at infinity (point n-1), tends to 2 pi log 2 K2 as delta -> 0
    fld = verify.rigid_fixture_field()
    inf = fld.weights.n - 1
    pred = 2 * np.pi * np.log(2.0) * fld.weights.counterterm_coefficients()[1]
    errors = []
    for delta in (1e-2, 1e-3, 1e-4):
        x, _, wt, y = wznw._series_grid(fld, inf, wznw._log_panels(0.5 / delta, 1.0 / delta, []))
        kin, _ = wznw.densities(y, wznw._region_A(fld.system, inf, x))
        errors.append(abs(float(np.sum(wt * kin)) / pred - 1))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-6, errors


def _rank1_field_at(points):
    """The rank-1 field of the weights [[.3], [.45], [.8], [.45]] at three points."""
    ws = fuchs.build_weight_system(points, [[0.3], [0.45], [0.8], [0.45]])
    target = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * 3)
    return wznw.make_metric_field(fuchs.FuchsianSystem(ws, ws.weights[:-1, :, None]), target)


@pytest.mark.parametrize(
    "points, where",
    [((-0.3, 0.0, 0.2), "puncture 1"), ((-6.5, 0.0, 5.0), "infinity")],
    ids=["close-pair", "far-point"],
)
def test_default_schedule_refused_at_the_smallest_ring(points, where):
    # a pair 0.2 apart gives puncture 1 the ring 0.1, and a point at
    # |z| = 6.5 gives infinity the ring 1 / |z0| = 1/13: the default
    # schedule's 0.1 does not fit, and the refusal names the point and the
    # bound ring / RING_MARGIN; the schedule scaled under it runs and matches
    # the closed form
    fld = _rank1_field_at(points)
    ring = float(fld.series.radius.min())
    bound = ring / wznw.RING_MARGIN
    message = f"of {where}: every delta must be below {bound:.6g}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        wznw.action_regularized(fld)
    scaled = tuple(0.2 * d for d in wznw.DELTA_SCHEDULE)
    assert max(scaled) < bound
    closed = wznw.abelian_action_closed_form(fld.weights)
    assert abs(wznw.action_regularized(fld, scaled).value / closed - 1) <= 1e-4


@pytest.mark.parametrize("share, fits", [(0.82, True), (0.84, False)])
def test_ring_margin_band(share, fits):
    # the schedule (d, d/2, d/4, d/8) at d = share times the smallest ring
    # (puncture 1's 0.1): RING_MARGIN d is 0.984 of the ring at 0.82, which
    # runs, and 1.008 at 0.84, which is refused
    fld = _rank1_field_at((-0.3, 0.0, 0.2))
    d = share * float(fld.series.radius.min())
    schedule = (d, d / 2, d / 4, d / 8)
    if not fits:
        with pytest.raises(ValueError, match="of puncture 1: every delta must be below"):
            wznw.action_regularized(fld, schedule)
        return
    closed = wznw.abelian_action_closed_form(fld.weights)
    assert abs(wznw.action_regularized(fld, schedule).value / closed - 1) <= 1e-3


def test_cholesky_exponents_along_ray(rank2_field, rank2_weights):
    # local log-log slope of the Cholesky diagonal recovers 2 alpha_ij
    rhos = np.array([0.4, 1e-3, 1e-4])
    ys = rank2_field.series.values(0, rhos, 1.3)
    a_vals = []
    for y in ys[-2:]:
        h = np.linalg.inv(y @ y.conj().T)
        b = factor.cholesky_upper(0.5 * (h + h.conj().T))
        a_vals.append(np.abs(np.diag(b)) ** 2)
    slope = (np.log(a_vals[1]) - np.log(a_vals[0])) / (np.log(1e-4) - np.log(1e-3))
    assert np.max(np.abs(slope - 2 * rank2_weights.weights[0])) < 1e-2


def test_cholesky_exponents_at_infinity(rank2_field, rank2_weights):
    zbig = rank2_field.basepoint * (2e3 / abs(rank2_field.basepoint))
    y, _ = transport_path(rank2_field.system.points, rank2_field.system.residues,
                          [paths.Line(rank2_field.basepoint, zbig)], rank2_field.basepoint_value, 1e-11)
    h = np.linalg.inv(y @ y.conj().T)
    a = np.abs(np.diag(factor.cholesky_upper(0.5 * (h + h.conj().T)))) ** 2
    m = rank2_field.weights.splitting.m
    alpha_n = rank2_weights.weights[-1]
    expected = [-2 * (alpha_n[2 - 1 - j] + m[j]) for j in range(2)]
    got = np.log(a) / np.log(abs(zbig))
    assert np.max(np.abs(got - expected)) < 1e-2


def _kink_angles_loop(points, i, r_out, samples=4096):
    """Kinks located one at a time: the switches of the active constraint on
    equal angles, each bisected."""
    bounds = wznw._patch_constraints(points, i, r_out)
    phis = 2 * np.pi * np.arange(samples) / samples
    active = np.argmin(bounds(phis), axis=0)
    kinks = []
    for k in range(samples):
        if active[k] == active[(k + 1) % samples]:
            continue
        lo, hi = phis[k], phis[k] + 2 * np.pi / samples
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if np.argmin(bounds(np.array([mid]))[:, 0]) == active[k]:
                lo = mid
            else:
                hi = mid
        kinks.append(0.5 * (lo + hi))
    return np.asarray(sorted(k % (2 * np.pi) for k in kinks))


@pytest.mark.parametrize(
    "points", [[0.0, 1.0], [-1.3, 0.0, 1.0], [-1.0, 0.3 + 0.8j, 1.2 - 0.1j, 0.2 - 1.1j]]
)
def test_kink_angles_match_loop_bisection(points):
    pts = np.asarray(points, dtype=complex)
    r_out = 2.0 * float(np.max(np.abs(pts))) + 2.0
    for i in range(len(pts)):
        got = wznw._kink_angles(pts, i, r_out)
        want = _kink_angles_loop(pts, i, r_out)
        assert len(got) == len(want) > 0
        assert np.max(np.abs(got - want)) <= 1e-12


def _normal_draw(k):
    """Draw k (0-based) of rng.normal(size=4) + 1j rng.normal(size=4) from
    default_rng(0)."""
    rng = np.random.default_rng(0)
    for _ in range(k + 1):
        pts = rng.normal(size=4) + 1j * rng.normal(size=4)
    return pts


@pytest.mark.parametrize(
    "points, i, count",
    [([1, 1j, -1, -1.001j], 0, 4), (_normal_draw(170), 3, 3), (_normal_draw(196), 3, 4),
     ([1, 1j, -1, -1j], 2, 3)],
    ids=["near-cocircular", "draw-170", "draw-196", "cocircular"],
)
def test_kink_angles_are_every_switch_of_the_active_constraint(points, i, count):
    # the active constraint switches at every kink and nowhere between two
    # of them.  The first three patches have two kinks closer than
    # 2 pi / 4096, one of which a scan of 4096 equal angles misses; in the
    # last, three pairs of bisectors meet at 0, a corner to be taken once
    pts = np.asarray(points, dtype=complex)
    r_out = 2.0 * float(np.max(np.abs(pts))) + 2.0
    bounds = wznw._patch_constraints(pts, i, r_out)

    def active(phis):
        return np.argmin(bounds(np.asarray(phis)), axis=0)

    kinks = wznw._kink_angles(pts, i, r_out)
    assert len(kinks) == count
    assert np.all(active(kinks - 1e-9) != active(kinks + 1e-9))
    for a, b in zip(kinks, np.append(kinks[1:], kinks[0] + 2 * np.pi)):
        between = active(np.linspace(a, b, 66)[1:-1])
        assert np.all(between == between[0])


def _rank1_action_at_a_fine_schedule_rel_error(points, weights):
    ws = fuchs.build_weight_system(points, weights)
    residues = ws.weights[:-1, :, None].astype(complex)
    target = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * (ws.n - 1))
    fld = wznw.make_metric_field(fuchs.FuchsianSystem(ws, residues), target)
    act = wznw.action_regularized(fld, (1e-3, 5e-4, 2.5e-4, 1.25e-4))
    return abs(act.value / wznw.abelian_action_closed_form(ws) - 1)


def test_rank1_action_near_cocircular_matches_closed_form():
    # -1.001i sits just off the circle through 1, i, -1, so the patch at 1
    # has two corners 1e-3 apart; with every corner a panel edge, the action
    # at a small delta schedule meets the closed form (3.9e-10 with the
    # sampled kinks, which missed one)
    points, weights = [1, 1j, -1, -1.001j], [[0.3], [0.4], [0.35], [0.45], [0.5]]
    assert _rank1_action_at_a_fine_schedule_rel_error(points, weights) <= 2e-10


def test_rank1_action_collinear_matches_closed_form():
    # 5.9e-8 while the patches reached out to 2 max|z_j| + 2 = 4 and the rays
    # covered 2 <= |z| < 4, where the series at infinity now reads Y
    points, weights = [-1, 0, 1], [[0.3], [0.4], [0.35], [0.95]]
    assert _rank1_action_at_a_fine_schedule_rel_error(points, weights) <= 2e-10


def test_rank1_action_with_rings_touching_the_basepoint_circle_matches_closed_form():
    # z0 = 2i: both rings (radius 1, half the distance to the other point)
    # touch |z| = |z0| at -2 and 2, where their outward rays have zero length
    points, weights = [-1, 1], [[0.3], [0.45], [0.25]]
    ws = fuchs.build_weight_system(points, weights)
    assert np.abs(ws.points) + fuchs.MonodromyLoops(ws).radii[:-1] == pytest.approx([2.0, 2.0], rel=1e-15)
    assert _rank1_action_at_a_fine_schedule_rel_error(points, weights) <= 2e-10


def test_web_regression_on_fixture_residues(rank2_oracle_system, rank2_target):
    # the local series and the outward fan marches reach the same quadrature
    # nodes as the fixed-step RK4 marches and the per-angle ring transports
    # of earlier versions, and the action on the closed-form fixture
    # residues stays where those put it
    fld = wznw.make_metric_field(rank2_oracle_system, rank2_target)
    act = wznw.action_regularized(fld)
    assert abs(act.value / 0.0269422224011 - 1) <= 1e-8
    assert act.imag_residual <= 1e-8
    deltas = (0.1, 0.05, 0.025, 0.0125)
    web = wznw.TransportWeb(fld, deltas)
    assert sum(len(region.rho) for region in web.regions) == 6904


def _fixture_problem():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    return [(fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws)), target)]


def _rigid_draws(seed: int, count: int):
    """Rank-2, n=3 weights in [0.05, 0.95] with a unitary closure, and their
    closed-form residues: (system, target) pairs."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        w = np.sort(rng.uniform(0.0, 1.0, size=(3, 2)), axis=1)
        w[2, 1] = 2.0 - (w.sum() - w[2, 1])
        if w.min() < 0.05 or w.max() > 0.95:
            continue
        try:
            ws = fuchs.build_weight_system([0.0, 1.0], w)
            target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
            draws.append((fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws)), target))
        except ValueError:  # out of order, or no closure
            continue
    return draws


def _rank1_draws(seed: int, count: int):
    """Rank-1, n=4: three points in |z| < 1.5 at least 0.6 apart, weights of
    degree -2 in (0.05, 0.95): (system, target) pairs."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        pts = 1.5 * np.sqrt(rng.uniform(0, 1, 3)) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        alphas = rng.uniform(0.1, 0.9, 3)
        if min(abs(pts[i] - pts[j]) for i in range(3) for j in range(i)) < 0.6:
            continue
        if not 0.05 < 2.0 - alphas.sum() < 0.95:
            continue
        ws = fuchs.build_weight_system(pts, [[a] for a in alphas] + [[2.0 - alphas.sum()]])
        target = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * 3)
        draws.append((fuchs.FuchsianSystem(ws, alphas.reshape(3, 1, 1).astype(complex)), target))
    return draws


def _solved_criterion9_center():
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )
    center = moduli.random_admissible_rep(ws, seed=5)
    system, report = rhsolve.solve(ws, center, opts=rhsolve.SolveOptions(seed=3))
    assert report.success
    return (system, report), center


def _criterion9_center():
    (system, _), center = _solved_criterion9_center()
    return [(system, center)]


@pytest.mark.parametrize("problem", ["fixture", "criterion9-center"])
def test_field_does_not_depend_on_the_normalization_source(problem, request):
    # the solve's normalization, which the field of the solved system reads,
    # and one built afresh from a copy of the solution give the same field,
    # bit for bit: the loop set is a function of the weights
    if problem == "fixture":
        solved, target = request.getfixturevalue("rank2_solved"), request.getfixturevalue("rank2_target")
    else:
        solved, target = _solved_criterion9_center()
    system, _ = solved
    fresh = wznw.make_metric_field(fuchs.FuchsianSystem(system.weights, system.residues.copy()), target)
    handed = wznw.make_metric_field(system, target)
    assert np.array_equal(fresh.system.residues, handed.system.residues)
    assert np.array_equal(fresh.basepoint_value, handed.basepoint_value)
    assert fresh.basepoint == handed.basepoint
    assert fresh.monodromy_quality == handed.monodromy_quality
    for f in dataclasses.fields(fuchs.SeriesStack):
        assert np.array_equal(getattr(fresh.series, f.name), getattr(handed.series, f.name)), f.name


@pytest.mark.parametrize(
    "problems",
    [
        _fixture_problem,
        lambda: _rigid_draws(11, 3),
        lambda: _rank1_draws(12, 3),
        _criterion9_center,
    ],
    ids=["fixture", "rigid", "rank1", "criterion9-center"],
)
def test_series_angle_counts_keep_the_totals(problems, monkeypatch):
    # each series-grid circle takes the fewest angles whose first aliased
    # Fourier mode, q^N, is below ANGLE_ALIAS_TOL; every per-delta total
    # agrees with the same web at 192 angles on every circle
    fields = [wznw.make_metric_field(system, target) for system, target in problems()]
    sized = [wznw.action_regularized(fld) for fld in fields]
    monkeypatch.setattr(wznw, "_angle_counts", lambda series, p, rho: np.full(len(rho), 192))
    for fld, act in zip(fields, sized):
        full = wznw.action_regularized(fld)
        assert act.web_nodes < full.web_nodes
        for (_, total), (_, want) in zip(act.per_delta, full.per_delta):
            assert abs(total - want) <= 1e-12


@pytest.mark.parametrize("p", [0, 2], ids=["patch", "outer"])
def test_series_grid_matches_per_circle_values(rank2_oracle_system, rank2_target, p):
    # the one pointwise call over every circle of a region, each circle at
    # its own angle count, matches the circles evaluated one at a time; the
    # outer region is point n-1 = 2, infinity, with the radius 1 / |z|
    fld = wznw.make_metric_field(rank2_oracle_system, rank2_target)
    deltas = list(wznw.DELTA_SCHEDULE)
    outer = p == fld.weights.n - 1
    if outer:
        radial = wznw._log_panels(abs(fld.basepoint), 1 / min(deltas), [1 / d for d in deltas])
    else:
        radial = wznw._log_panels(min(deltas), float(fld.series.radius[p]), deltas)
    x, rho, wt, y = wznw._series_grid(fld, p, radial)
    radii = np.exp(radial[0])
    counts = wznw._angle_counts(fld.series, p, radii)
    assert len(np.unique(counts)) > 1 and len(x) == len(y) == counts.sum()
    for c, n in enumerate(counts):
        part = slice(counts[:c].sum(), counts[: c + 1].sum())
        phis = 2 * np.pi * (np.arange(n) + 0.5) / n
        want = fld.series.values(p, radii[c], phis)
        err = np.linalg.norm(y[part] - want, axis=(-2, -1))
        assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=(-2, -1)))
        assert np.array_equal(x[part], radii[c] * np.exp(1j * phis))
        assert np.all(rho[part] == (1.0 / radii[c] if outer else radii[c]))
        assert np.isclose(wt[part].sum(), 2 * np.pi * radial[1][c] * radii[c] ** 2, rtol=1e-14)


def test_no_series_grid_circle_takes_more_than_64_angles(monkeypatch):
    # the series' convergence ratio q is at most 1/2 on every series-grid
    # circle, the ring and the annulus at the ring's largest delta included,
    # so q^64 <= ANGLE_ALIAS_TOL and the angle count needs no cap
    problems = [*_fixture_problem(), *_rigid_draws(11, 1), *_rank1_draws(12, 1),
                *_criterion9_center()]
    counts, angle_counts = [], wznw._angle_counts
    monkeypatch.setattr(wznw, "_angle_counts", lambda *a: counts.append(angle_counts(*a)) or counts[-1])
    for system, target in problems:
        fld = wznw.make_metric_field(system, target)
        wznw.action_regularized(fld)
        for i, ring in enumerate(fld.series.radius[:-1]):
            wznw.annulus_kinetic_integral(fld, i, ring / wznw.ANNULUS_RATIO)
    assert len(counts) > 0 and max(int(c.max()) for c in counts) <= 64


@pytest.mark.parametrize(
    "deltas, nodes",
    [
        (wznw.DELTA_SCHEDULE, 6904),
        ((0.1, 0.05, 0.025, 1e-30), 22552),
        ((0.1, 0.07, 0.03, 0.01, 1e-3), 8344),
    ],
    ids=["default", "1e-30", "five-deltas"],
)
def test_planned_web_nodes_equal_the_built_web(rank2_oracle_system, rank2_target, monkeypatch,
                                               deltas, nodes):
    # the count checked against WEB_NODE_LIMIT before anything is evaluated
    # is the count of the web that is then built
    fld = wznw.make_metric_field(rank2_oracle_system, rank2_target)
    built = sum(len(region.rho) for region in wznw.TransportWeb(fld, deltas).regions)
    monkeypatch.setattr(wznw, "WEB_NODE_LIMIT", 0)
    with pytest.raises(ValueError, match=f"would have {built} nodes"):
        wznw.TransportWeb(fld, deltas)
    assert built == nodes


def _count_calls(monkeypatch):
    """Record the fans of fuchs.transport and count series_stack and
    MetricField.y_at calls."""
    calls = {"fans": [], "series_stack": 0, "y_at": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return inner(*a, **k)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((fuchs, "series_stack"), (wznw.MetricField, "y_at")):
        counted(owner, name)
    fan = fuchs.transport
    monkeypatch.setattr(fuchs, "transport", lambda *a, **k: calls["fans"].append(a[2]) or fan(*a, **k))
    return calls


def test_action_transports_only_the_outward_rays(rank2_field, monkeypatch):
    # rings, inward nodes and the outer region come from the field's loop
    # series, matched by the normalization: no series is built and no ring
    # entry transported, and one fuchs.transport call is left, for the
    # outward rays of every patch
    calls = _count_calls(monkeypatch)
    wznw.action_regularized(rank2_field)
    assert len(calls["fans"]) == 1
    assert all(isinstance(f, paths.RayFan) for f in calls["fans"])
    # its members run out of every finite puncture
    centers = np.broadcast_to(calls["fans"][0].center, calls["fans"][0].phis.shape)
    assert set(centers.tolist()) == set(rank2_field.system.points.tolist())
    assert calls["series_stack"] == calls["y_at"] == 0


def test_flatness_reads_y_once_and_runs_one_fan(rank2_field, monkeypatch):
    # Y is read at the stencil's center, and the 12 other stencil points
    # are the straight-line members of one fan from there; the center lies
    # inside puncture 0's ring, where y_at reads the series, so the one fan
    # counted is the stencil's own
    z = 0.3 + 0.2j
    calls = _count_calls(monkeypatch)
    wznw.flatness_residual(rank2_field, z, 0.01)
    assert calls["y_at"] == 1
    (fan,) = calls["fans"]
    assert isinstance(fan, paths.SegmentFan) and len(fan.segments) == 12
    assert all(seg.start == z for seg in fan.segments)
    assert len({seg.end for seg in fan.segments}) == 12


def _suite_centers(count):
    rng = np.random.default_rng(7)
    return np.array([rng.uniform(0.25, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                     for _ in range(count)])


def test_flatness_stack_equals_per_stencil_calls(rank2_field, monkeypatch):
    # 10 centers at two steps, 20 stencils: Y read once per center, and the
    # 240 lines of all stencils the members of one fan, whose shared steps
    # move each residual by at most 1e-9 relative
    zs, steps = _suite_centers(10), np.array([[0.02], [0.01]])
    want = np.array([[wznw.flatness_residual(rank2_field, z, s) for z in zs] for s in steps[:, 0]])
    calls = _count_calls(monkeypatch)
    got = wznw.flatness_residual(rank2_field, zs, steps)
    assert got.shape == (2, 10)
    assert np.max(np.abs(got / want - 1)) <= 1e-9
    assert calls["y_at"] == 10
    (fan,) = calls["fans"]
    assert isinstance(fan, paths.SegmentFan) and len(fan.segments) == 240
    assert isinstance(wznw.flatness_residual(rank2_field, zs[0], 0.01), float)


def test_flatness_stack_refuses_each_stencil_alone(rank2_field):
    # one stencil of step 0.1 at 0.3 + 0.2j comes within 8 steps of the
    # puncture at 0; the others are fine
    zs = np.array([0.5 + 0.4j, 0.3 + 0.2j, -0.3 + 0.4j])
    with pytest.raises(paths.ProximityError, match=r"0\.3\+0\.2j"):
        wznw.flatness_residual(rank2_field, zs, np.array([0.01, 0.1, 0.01]))
    assert wznw.flatness_residual(rank2_field, zs, 0.01).shape == (3,)


def test_annulus_integral_builds_and_transports_nothing(rank2_field, monkeypatch):
    calls = _count_calls(monkeypatch)
    wznw.annulus_kinetic_integral(rank2_field, 1, 1e-3)
    assert calls == {"fans": [], "series_stack": 0, "y_at": 0}


def test_action_rings_are_the_loop_circles(monkeypatch):
    # the basepoint 2i sets the loop radius at 1j: 0.5, against half the
    # puncture distance, 1.0; the web's rings follow the loop circles
    ws = fuchs.build_weight_system([1j, -1j], [[0.3], [0.8], [0.9]])
    target = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * 2)
    system = fuchs.FuchsianSystem(ws, np.array([[[0.3]], [[0.8]]], dtype=complex))
    fld = wznw.make_metric_field(system, target)
    radii = fuchs.MonodromyLoops(ws).radii[:-1]
    assert radii[0] == 0.5
    calls = _count_calls(monkeypatch)
    act = wznw.action_regularized(fld)
    (rays,) = calls["fans"]
    # the merged fan's members start on the ring of their own puncture
    rings = [np.exp(rays.s0[rays.center == z]) for z in ws.points]
    assert [float(ring[0]) for ring in rings] == pytest.approx(radii, rel=1e-15)
    assert all(np.all(ring == ring[0]) for ring in rings)
    exact = wznw.abelian_action_closed_form(ws)
    assert abs(act.value - exact) <= 1e-3 * abs(exact)


@pytest.mark.parametrize(
    "edges, span",
    [
        (sorted(np.log([1e-4, 0.01, 0.5, 2.0])), wznw.MAX_PANEL_SPAN),
        (np.array([0.3, 1.2, 2.5, 0.3 + 2 * np.pi]), 2 * np.pi / 12),
        (np.linspace(0, 1, wznw.OUTWARD_PANELS + 1), 1.0),
    ],
    ids=["radial", "angular", "t"],
)
def test_gl_panels_pin_the_per_panel_formula(edges, span):
    # all panels at once give, bit for bit, each panel's own nodes and weights
    x, w = wznw._gl_rule(wznw.GL_ORDER)
    want_x, want_w = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        e = np.linspace(a, b, max(1, int(np.ceil((b - a) / span))) + 1)
        for lo, hi in zip(e[:-1], e[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            want_x.append(mid + half * x)
            want_w.append(half * w)
    nodes, weights = wznw._gl_panels(edges, span)
    assert np.array_equal(nodes, np.concatenate(want_x))
    assert np.array_equal(weights, np.concatenate(want_w))


def test_gl_rule_cached_and_bit_identical():
    x, w = np.polynomial.legendre.leggauss(8)
    # one panel at GL_ORDER 8: [-0.3, 1.7] is no longer than the span 2
    nodes, weights = wznw._gl_panels(np.array([-0.3, 1.7]), 2.0)
    assert np.array_equal(nodes, 0.7 + 1.0 * x) and np.array_equal(weights, 1.0 * w)
    assert wznw._gl_rule(8) is wznw._gl_rule(8)
    with pytest.raises(ValueError):
        wznw._gl_rule(8)[0][0] = 0.0
