import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhwznw import fuchs, moduli


def test_expected_dims_examples():
    assert moduli.expected_dims(2, 4) == (3.0, 1.0)
    dm, dc = moduli.expected_dims(2, 3)
    assert dm == 1.5  # non-integral: flagged, returned raw
    assert dc == 0.0
    with pytest.raises(ValueError):
        moduli.expected_dims(0, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(3, 12))
def test_expected_dims_formula(r, n):
    dm, dc = moduli.expected_dims(r, n)
    assert dm == 0.5 * n * (r * r - 1) - r * r + 1
    assert dc == 0.5 * n * (r * r - r) - r * r + 1


@pytest.fixture(scope="module")
def n4_center():
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )
    return moduli.random_admissible_rep(ws, seed=5)


@pytest.fixture(scope="module")
def n4_direction(n4_center):
    return moduli.random_tangent_direction(n4_center.weights, seed=1)


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


def test_deform_members_admissible(n4_center, n4_direction):
    for eps in (0.02, 0.02j, -0.015 + 0.01j):
        rep = moduli.deform_rep(n4_center, n4_direction, eps)
        assert rep.relation_residual() < 1e-8
        assert rep.unitarity_residual() < 1e-8
        m_last = rep.generators[-1]
        assert abs(m_last[0, 1]) + abs(m_last[1, 0]) < 1e-8


def test_levi_constant_surface():
    assert moduli.levi_form(1.0, 1.0, 1.0, 1.0, 1.0, 0.1) == 0.0


def test_levi_quadratic_exact():
    fun = lambda e: abs(e) ** 2
    c = 0.37 - 0.21j
    for a in (0.1, 0.05, 0.3):
        val = moduli.levi_form(fun(c), fun(c + a), fun(c - a), fun(c + 1j * a), fun(c - 1j * a), a)
        assert abs(val - 1.0) < 1e-10


def test_levi_pluriharmonic_zero():
    c, a = 0.2 + 0.1j, 0.05
    for fun in (lambda e: (e * e).real, lambda e: (e * e).imag, lambda e: e.real):
        val = moduli.levi_form(fun(c), fun(c + a), fun(c - a), fun(c + 1j * a), fun(c - 1j * a), a)
        assert abs(val) < 1e-9


def test_levi_from_surface_table():
    pts = []
    for eps in (0.0, 0.1, -0.1, 0.1j, -0.1j):
        pts.append(
            moduli.SurfacePoint(
                eps=eps, action=abs(eps) ** 2, extrapolation_error=0.0,
                large_cell_flag=True, solve_residual=0.0, ok=True,
            )
        )
    assert abs(moduli.levi_from_surface(pts, 0.0, 0.1) - 1.0) < 1e-12
    with pytest.raises(moduli.ChartRadiusError):
        moduli.levi_from_surface(pts, 0.05, 0.1)


def test_surface_to_csv(tmp_path):
    # a hole writes empty action and fit-error fields; the repr floats read
    # back exactly
    pts = [
        moduli.SurfacePoint(
            eps=0.1 + 0.2 - 1j / 3, action=2 / 3, extrapolation_error=1.1e-17,
            large_cell_flag=True, solve_residual=0.0, ok=True,
        ),
        moduli.SurfacePoint(
            eps=0.25 - 0.7j, action=None, extrapolation_error=None,
            large_cell_flag=False, solve_residual=None, ok=False, message="hole",
        ),
    ]
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
    # the field takes the normalization the solve already computed
    from rhwznw import rhsolve

    calls = []
    normalize = rhsolve.normalize_at_infinity

    def counted(*args, **kwargs):
        calls.append(1)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(rhsolve, "normalize_at_infinity", counted)
    direction = moduli.random_tangent_direction(rank1_weights, 3)
    pts = moduli.action_surface(
        rank1_target, direction, [0.0, 0.02], solve_opts=rhsolve.SolveOptions(restarts=1)
    )
    assert all(p.ok for p in pts)
    assert len(calls) == 2


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
    # warm starting must not bias the values (the solution gauge couples to
    # the log-divergent part of the integrand)
    from rhwznw import rhsolve

    direction = moduli.random_tangent_direction(rank2_weights, seed=4)
    grid = [0.0, 0.02]
    opts = rhsolve.SolveOptions(seed=2, restarts=4, tol=1e-9)
    fwd = moduli.action_surface(rank2_target, direction, grid, solve_opts=opts)
    rev = moduli.action_surface(rank2_target, direction, grid[::-1], solve_opts=opts)
    table_f = {p.eps: p.action for p in fwd if p.ok}
    table_r = {p.eps: p.action for p in rev if p.ok}
    assert set(table_f) == set(table_r) == set(grid)
    for eps in grid:
        assert abs(table_f[eps] - table_r[eps]) <= 1e-8


def test_project_conjugators_is_projection(n4_center):
    us = [u.copy() for u in n4_center.conjugators[:-1]]
    out = moduli.project_conjugators(n4_center.weights, us)
    assert max(np.max(np.abs(a - b)) for a, b in zip(us, out)) < 1e-10
