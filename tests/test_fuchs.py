import dataclasses
import itertools
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from conftest import W3, direct_sum, path_log_increment, puncture_loop, reversed_path, transport_path
from rhwznw import fuchs, moduli, numcore, paths, rhsolve


def test_weight_system_stability_rejection():
    # sum 1 forces d = -1 and exponents (-1, 0): outside the stable range
    with pytest.raises(fuchs.StabilityRangeError):
        fuchs.build_weight_system(
            [0.0, 1.0], [[0.1, 0.3], [0.15, 0.35], [0.04, 0.06]], degree=None
        )


def test_weight_system_n4_evenly_split():
    ws = fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.2, 0.3], [0.2, 0.3], [0.2, 0.3], [0.2, 0.3]]
    )
    assert ws.splitting.m == (-1, -1)
    assert ws.degree == -2


def test_weight_system_infinity_exponents():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    assert ws.splitting.m == (-1, -1)
    assert np.allclose(ws.infinity_exponents, [0.3 - 1, 0.55 - 1])


def test_weight_system_degree_mismatch():
    with pytest.raises(fuchs.DegreeError):
        fuchs.build_weight_system(
            [0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]], degree=-1
        )
    with pytest.raises(fuchs.DegreeError):
        fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.5501]])


def test_weight_system_validation():
    with pytest.raises(ValueError):
        fuchs.build_weight_system([0.0, 0.0], [[0.5], [0.5], [1.0]])
    with pytest.raises(ValueError):
        fuchs.build_weight_system([0.0, 1.0], [[0.5, 0.4], [0.5, 0.6], [0.5, 0.6]])


@pytest.mark.parametrize(
    "points, weights, match",
    [
        ([0.0, 1.0], [[0.15, np.nan], [0.2, 0.45], [0.3, 0.55]], "weights must lie strictly inside"),
        ([0.0, 1.0], [[0.15, 0.35], [0.2, np.inf], [0.3, 0.55]], "weights must lie strictly inside"),
        ([0.0, np.nan], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]], "points must be finite"),
        ([0.0, np.inf], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]], "points must be finite"),
    ],
    ids=["nan-weight", "inf-weight", "nan-point", "inf-point"],
)
def test_weight_system_rejects_non_finite_data(points, weights, match):
    # w <= 0 or w >= 1 is false for NaN: a NaN weight used to reach round()
    # and NaN or infinite points were accepted
    with pytest.raises(ValueError, match=match):
        fuchs.build_weight_system(points, weights)


def test_min_pairwise_distance_is_the_least_pair_abs():
    # the pairwise computation of the distinctness check: its minimum equals
    # the per-pair abs() of complex scalars bit for bit
    rng = np.random.default_rng(11)
    for n in (3, 4, 6, 9):
        for _ in range(40):
            pts = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            ws = fuchs.build_weight_system(pts, [[1.0 / n]] * n)
            pairs = [abs(p - q) for k, p in enumerate(ws.points) for q in ws.points[k + 1:]]
            assert fuchs._min_pairwise_distance(ws.points) == min(pairs)


@pytest.mark.parametrize("gap", [0.0, 5e-13])
def test_weight_system_refuses_coincident_points(gap):
    with pytest.raises(ValueError, match="must be distinct"):
        fuchs.build_weight_system([0.0, 1.0, 1.0 + gap], [[0.25]] * 4)


def test_admissible_rank1():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.3], [0.8], [0.9]])
    rep = fuchs.build_admissible_rep(ws, [np.eye(1, dtype=complex)] * 2)
    for i, a in enumerate((0.3, 0.8, 0.9)):
        assert abs(rep.generators[i][0, 0] - np.exp(2j * np.pi * a)) < 1e-12
    assert rep.relation_residual() < 1e-12


def test_admissible_rank2_closure(rank2_weights, rank2_target):
    rep = rank2_target
    assert rep.relation_residual() < 1e-12
    assert np.max(numcore.fro(rep.generators @ numcore.adjoint(rep.generators) - np.eye(2))) < 1e-10
    # normalized: last generator diagonal in the weight order
    m_last = rep.generators[-1]
    assert abs(m_last[0, 1]) + abs(m_last[1, 0]) < 1e-10
    want = np.exp(2j * np.pi * rank2_weights.weights[-1])
    assert np.max(np.abs(np.diag(m_last) - want)) < 1e-9
    assert rep.is_irreducible()


def test_closure_bisection_oracle(rank2_weights):
    # one-parameter closure: the bisection on the rotation angle lands on
    # the same point as the closed-form segment parameter
    ws = rank2_weights
    d1 = np.exp(2j * np.pi * ws.weights[0])
    d2 = np.exp(2j * np.pi * ws.weights[1])
    target = np.conj(np.sum(np.exp(2j * np.pi * ws.weights[2])))
    direction = d1[0] * d2[1] + d1[1] * d2[0] - (d1[0] * d2[0] + d1[1] * d2[1])

    def f(s):
        c = np.sqrt(1 - s * s)
        u2 = np.array([[c, -s], [s, c]], dtype=complex)
        m1 = np.diag(d1)
        m2 = u2 @ np.diag(d2) @ u2.conj().T
        tr = np.trace(m1 @ m2)
        return np.real((tr - target) / direction)

    lo, hi = 0.0, 1.0
    assert f(lo) < 0 < f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    s_bisect = 0.5 * (lo + hi)
    u2 = fuchs.rank2_closure_conjugators(ws)[1]
    assert abs(u2[1, 0].real - s_bisect) < 1e-8


def test_not_admissible_diagonal_conjugators():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    with pytest.raises(fuchs.NotAdmissibleError):
        fuchs.build_admissible_rep(ws, [np.eye(2, dtype=complex)] * 2)


@pytest.mark.parametrize(
    "conjugators",
    [[np.eye(3, dtype=complex)] * 2, np.ones((2, 2, 3))],
    ids=["3x3", "2x3"],
)
def test_build_admissible_rep_refuses_a_conjugator_shape(rank2_weights, conjugators):
    # numpy's broadcast (3x3) and matmul-signature (2x3) messages used to
    # surface here; the refusal names the (n-1, r, r) shape it expects
    expected = f"as an array of shape (2, 2, 2), got shape {np.shape(conjugators)}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        fuchs.build_admissible_rep(rank2_weights, conjugators)


def test_reducible_warning():
    # per-column weight sums integral: diagonal conjugators close but the
    # resulting tuple is reducible
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.1, 0.6], [0.4, 0.7], [0.5, 0.7]])
    with pytest.warns(UserWarning, match="reducible"):
        rep = fuchs.build_admissible_rep(ws, [np.eye(2, dtype=complex)] * 2)
    assert not rep.is_irreducible()


# problem data are values: WeightSystem, AdmissibleRep and FuchsianSystem


def _problem_values():
    """A fresh rigid rank-2 weight system, its target and its closed-form system."""
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    return {"ws": ws, "target": target, "system": fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws))}


@pytest.mark.parametrize(
    "owner, field",
    [("ws", "points"), ("ws", "weights"), ("ws", "infinity_exponents"),
     ("target", "generators"), ("target", "conjugators"), ("system", "residues")],
)
def test_problem_values_refuse_writes(owner, field):
    obj = _problem_values()[owner]
    kept = getattr(obj, field).copy()
    with pytest.raises(ValueError, match="read-only"):
        getattr(obj, field)[...] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, kept + 1)
    assert np.array_equal(getattr(obj, field), kept)


def test_problem_values_own_a_copy_of_the_callers_arrays():
    points = np.array([0.0, 1.0], dtype=complex)
    weights = np.array([[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    ws = fuchs.build_weight_system(points, weights)
    residues = fuchs.rank2_rigid_residues(ws)
    system = fuchs.FuchsianSystem(ws, residues)
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    gens, conj = target.generators.copy(), target.conjugators.copy()
    rep = fuchs.AdmissibleRep(ws, gens, conj)
    for callers, owned in [(points, ws.points), (weights, ws.weights), (residues, system.residues),
                           (gens, rep.generators), (conj, rep.conjugators)]:
        kept = owned.copy()
        assert callers.flags.writeable and not np.shares_memory(callers, owned)
        callers[...] = 0
        assert np.array_equal(owned, kept)


def test_problem_values_take_dataclasses_replace():
    values = _problem_values()
    ws, target, system = values["ws"], values["target"], values["system"]
    moved = dataclasses.replace(ws, points=ws.points + 1)
    assert np.array_equal(moved.points, [1, 2]) and not moved.points.flags.writeable
    assert np.array_equal(ws.points, [0, 1])
    other = dataclasses.replace(target, weights=moved)
    assert other.weights is moved and np.array_equal(other.generators, target.generators)
    assert not np.shares_memory(other.generators, target.generators)
    flipped = dataclasses.replace(system, residues=-system.residues)
    assert np.array_equal(flipped.residues, -system.residues) and not flipped.residues.flags.writeable


def test_written_points_cannot_stale_the_loop_set():
    # the loop set and the relation order are cached on the weight system; a
    # write to its points would leave them on the old points (relation
    # residual 0.93 where a fresh system reads 2.4e-12), so it is refused
    values = _problem_values()
    ws, system = values["ws"], values["system"]
    before = fuchs.monodromy_rep(system).relation_residual
    assert before <= 1e-10
    with pytest.raises(ValueError, match="read-only"):
        ws.points[1] = 1.5
    assert fuchs.monodromy_rep(system).relation_residual == before
    moved = fuchs.FuchsianSystem(dataclasses.replace(ws, points=[0.0, 1.5]), system.residues)
    assert fuchs.monodromy_rep(moved).relation_residual <= 1e-10


def test_transport_zero_residues():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.3], [0.8], [0.9]])
    system = fuchs.FuchsianSystem(ws, np.zeros((2, 1, 1), dtype=complex))
    loop = puncture_loop(ws, 0)
    value, _ = transport_path(system.points, system.residues, loop, np.eye(1), 1e-12)
    assert abs(value[0, 0] - 1.0) < 1e-11


def test_transport_rank1_loop(rank1_system, rank1_weights):
    loop = puncture_loop(rank1_weights, 0)
    value, _ = transport_path(rank1_system.points, rank1_system.residues, loop, np.eye(1), 1e-10)
    assert abs(value[0, 0] - np.exp(-2j * np.pi * 0.3)) < 1e-8
    assert _det_identity_residual(rank1_system, loop, np.eye(1), value) < 1e-8


def test_transport_tolerance_halving(rank2_oracle_system, rank2_weights):
    loop = puncture_loop(rank2_weights, 0)
    pts, res = rank2_oracle_system.points, rank2_oracle_system.residues
    a, _ = transport_path(pts, res, loop, np.eye(2), 1e-8)
    b, _ = transport_path(pts, res, loop, np.eye(2), 5e-9)
    assert numcore.fro(a - b) < 1e-7
    lam = np.linalg.eigvals(a)
    want = np.exp(-2j * np.pi * rank2_weights.weights[0])
    assert (
        min(abs(lam[0] - want[0]) + abs(lam[1] - want[1]),
            abs(lam[0] - want[1]) + abs(lam[1] - want[0]))
        < 1e-7
    )


def test_monodromy_zero_residues():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.3], [0.8], [0.9]])
    system = fuchs.FuchsianSystem(ws, np.zeros((2, 1, 1), dtype=complex))
    mon = fuchs.monodromy_rep(system, tol=1e-11)
    for m in mon.generators:
        assert abs(m[0, 0] - 1.0) < 1e-9
    assert mon.relation_residual < 1e-9


def test_monodromy_rank1(rank1_system, rank1_weights):
    mon = fuchs.monodromy_rep(rank1_system, tol=1e-11)
    for i, a in enumerate((0.3, 0.45, 0.8)):
        assert abs(mon.generators[i][0, 0] - np.exp(2j * np.pi * a)) < 1e-8
    assert abs(mon.generators[-1][0, 0] - np.exp(2j * np.pi * 0.45)) < 1e-8
    assert mon.relation_residual <= 1e-8


def test_monodromy_local_exponents(rank2_oracle_system, rank2_weights):
    mon = fuchs.monodromy_rep(rank2_oracle_system, tol=1e-10)
    for i in range(3):
        got = np.sort(np.angle(np.linalg.eigvals(mon.generators[i])) / (2 * np.pi) % 1.0)
        want = np.sort(rank2_weights.weights[i] % 1.0)
        assert np.max(np.abs(got - want)) < 1e-6
    assert mon.relation_residual <= 1e-7


def _distinct_points(pts):
    return all(abs(a - b) > 1e-2 for i, a in enumerate(pts) for b in pts[i + 1:])


# two to five distinct points in [-3, 3]^2, in any listing
POINT_LISTS = (st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)), min_size=2, max_size=5)
               .filter(_distinct_points))


@settings(max_examples=200, deadline=None)
@given(POINT_LISTS)
def test_loop_geometry_at_the_one_basepoint_property(pts):
    # the loop set takes z0 = 2i max(1, max|z_j|): every loop circle lies
    # inside |z| <= |z0| (a ring may touch it), and the series at infinity
    # runs at q = max|z_j| / |z0| <= 1/2.  The legs keep their distance by
    # construction (MonodromyLoops): every Line of leg i keeps ring_i from
    # z_i and 0.8 ring_j from each other z_j, and every Arc lies on the
    # keepout circle of another puncture
    m = len(pts)
    ws = fuchs.build_weight_system(pts, [[1 / (m + 1)]] * (m + 1))
    loops = fuchs.MonodromyLoops(ws)
    zmax = float(np.max(np.abs(ws.points)))
    assert loops.z0 == 2j * max(1.0, zmax)
    assert np.all(np.abs(ws.points) + np.asarray(loops.radii[:-1]) <= abs(loops.z0) * (1 + 1e-12))
    assert zmax * loops.radii[-1] <= 0.5 * (1 + 1e-12)
    zs, radii = [complex(z) for z in ws.points], loops.radii[:-1]
    for i, approach in enumerate(loops.approaches):
        for seg in approach:
            if isinstance(seg, paths.Line):
                assert seg.distance_to(zs[i]) >= radii[i] * (1 - 1e-9)
                for j in range(m):
                    if j != i:
                        assert seg.distance_to(zs[j]) >= 0.8 * radii[j] * (1 - 1e-9)
            else:
                k = zs.index(seg.center)
                assert k != i and seg.radius == 0.8 * radii[k]


def test_loop_set_detours_past_ten_points_on_a_line(monkeypatch):
    # the leg to the lowest of ten points 0.5 apart below z0 = 9i detours
    # round the nine circles above it, one keepout per level of plan_route;
    # all legs' segments still run as one kernel call
    alphas = 0.1 + 0.05 * np.arange(10)
    ws = fuchs.build_weight_system(-0.5j * np.arange(10), [[a] for a in alphas] + [[0.75]])
    assert max(len(approach) for approach in ws.loops.approaches) == 19
    calls, kernel = [], fuchs._integrate_stack
    monkeypatch.setattr(fuchs, "_integrate_stack", lambda *a, **k: calls.append(1) or kernel(*a, **k))
    mon = fuchs.monodromy_rep(fuchs.FuchsianSystem(ws, alphas.reshape(-1, 1, 1)))
    assert len(calls) == 1
    assert mon.relation_residual <= 1e-12
    want = np.exp(2j * np.pi * np.append(alphas, 0.75))
    np.testing.assert_allclose(mon.generators[:, 0, 0], want, rtol=0, atol=1e-12)


def test_plan_route_refuses_an_endpoint_inside_a_keepout():
    # the loop set's endpoints lie outside its keepouts by construction; a
    # caller's own keepouts may not
    with pytest.raises(paths.ProximityError, match="endpoint inside a keepout"):
        paths.plan_route(0.1, 2.0, [(0.0, 0.5)])


def test_monodromy_path_independence(rank2_oracle_system, rank2_weights):
    # circle loop against a square loop around the same puncture
    ws = rank2_weights
    z0 = ws.loops.z0
    tol = 1e-10
    circle_loop = puncture_loop(ws, 0)
    r = ws.loops.radii[0]
    c = complex(ws.points[0])
    corners = [c + r * np.exp(1j * (np.pi / 2 + k * np.pi / 2)) for k in range(5)]
    square = [paths.Line(z0, corners[0])]
    square += [paths.Line(corners[k], corners[k + 1]) for k in range(4)]
    square += [paths.Line(corners[0], z0)]
    pts, res = rank2_oracle_system.points, rank2_oracle_system.residues
    a, _ = transport_path(pts, res, circle_loop, np.eye(2), tol)
    b, _ = transport_path(pts, res, square, np.eye(2), tol)
    assert numcore.fro(a - b) <= 10 * 1e-7


def _det_identity_residual(system, path, start, value):
    """Relative residual of Liouville's identity
    det Y_end = det Y_start exp(-sum_i tr(A_i) Delta log(z - z_i))."""
    logs = np.array([path_log_increment(path, complex(w)) for w in system.points])
    traces = np.trace(system.residues, axis1=-2, axis2=-1)
    expected = np.linalg.det(start) * np.exp(-np.sum(traces * logs))
    return abs(np.linalg.det(value) - expected) / abs(expected)


def test_transport_det_identity(rank2_oracle_system, rank2_weights):
    loop = puncture_loop(rank2_weights, 1)
    value, _ = transport_path(rank2_oracle_system.points, rank2_oracle_system.residues, loop, np.eye(2), 1e-10)
    assert _det_identity_residual(rank2_oracle_system, loop, np.eye(2), value) < 1e-8


def test_monodromy_random_systems(rank2_weights):
    # random conjugation-chart points: the relation closes and the local
    # exponents match the weights for generic systems, not just solved ones
    from rhwznw import rhsolve

    rng = np.random.default_rng(21)
    parm = rhsolve.ResidueParametrization(
        rank2_weights, np.array([np.eye(2, dtype=complex)] * 2)
    )
    for _ in range(3):
        x = 0.5 * rng.standard_normal(parm.dim)
        system = fuchs.FuchsianSystem(rank2_weights, parm.residues(x))
        mon = fuchs.monodromy_rep(system, tol=1e-9)
        assert mon.relation_residual <= 1e-7
        for i in range(2):
            got = np.sort(np.angle(np.linalg.eigvals(mon.generators[i])) / (2 * np.pi) % 1.0)
            assert np.max(np.abs(got - np.sort(rank2_weights.weights[i]))) < 1e-6


def test_rep_distance_zero(rank2_target):
    assert fuchs.rep_distance(rank2_target, rank2_target) < 1e-14


def test_rep_distance_gauge_invariance(rank2_target):
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * np.pi, size=2)
    g = np.diag(np.exp(1j * theta))
    other = fuchs.AdmissibleRep(
        weights=rank2_target.weights,
        generators=[g @ m @ g.conj().T for m in rank2_target.generators],
        conjugators=[g @ u for u in rank2_target.conjugators],
    )
    assert fuchs.rep_distance(rank2_target, other) <= 1e-12


def test_rep_distance_small_distance_scales(rank2_target):
    # conjugating M_1 by expm(eps X) moves the squared distance as eps^2;
    # the value must keep that scaling far below the norms of the tuples
    x = np.array([[0.3j, 0.8 + 0.2j], [-0.8 + 0.2j, -0.5j]])

    def dist(eps):
        g = scipy.linalg.expm(eps * x)
        gens = list(rank2_target.generators)
        gens[0] = g @ gens[0] @ np.linalg.inv(g)
        other = fuchs.AdmissibleRep(rank2_target.weights, gens, rank2_target.conjugators)
        return fuchs.rep_distance(other, rank2_target)

    assert abs(dist(1e-7) / (1e-4 * dist(1e-5)) - 1) <= 0.01


def test_rep_distance_rejects_repeated_infinity_phases(rank2_target):
    ws = fuchs.build_weight_system(
        [0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.425 - 5e-10, 0.425 + 5e-10]]
    )
    rep = fuchs.AdmissibleRep(ws, rank2_target.generators, rank2_target.conjugators)
    with pytest.raises(ValueError, match="repeated infinity phases"):
        fuchs.rep_distance(rep, rep)


def test_rep_distance_rejects_phases_adjacent_across_zero(rank2_target):
    # 5e-10 and 1 - 5e-10 are 1e-9 apart on the circle of phases
    ws = fuchs.build_weight_system(
        [0.0, 1.0], [[0.15, 0.35], [0.2, 0.3], [5e-10, 1 - 5e-10]]
    )
    rep = fuchs.AdmissibleRep(ws, rank2_target.generators, rank2_target.conjugators)
    with pytest.raises(ValueError, match="repeated infinity phases"):
        fuchs.rep_distance(rep, rep)


def _perturbed_tuples(target, rng, count, scale):
    """Tuples conjugate to small perturbations of the target by random
    non-unitary matrices, stacked as (count, n, r, r)."""
    r = target.rank
    gens = np.asarray(target.generators)
    out = []
    for _ in range(count):
        bump = scale * (rng.standard_normal(gens.shape) + 1j * rng.standard_normal(gens.shape))
        w = scipy.linalg.expm(0.5 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))))
        out.append(w @ (gens + bump) @ np.linalg.inv(w))
    return np.array(out)


def test_align_stack_matches_single_calls(rank2_target):
    rng = np.random.default_rng(8)
    stack = _perturbed_tuples(rank2_target, rng, 6, 0.05)
    aligned = fuchs.align_tuple_to_target(stack, rank2_target)
    assert aligned.generators.shape == stack.shape
    assert aligned.conjugator.shape == (6, 2, 2)
    assert aligned.mismatch.shape == (6,)
    for k, tup in enumerate(stack):
        one = fuchs.align_tuple_to_target(list(tup), rank2_target)
        assert np.allclose(one.generators, aligned.generators[k], rtol=0, atol=1e-14)
        assert np.allclose(one.conjugator, aligned.conjugator[k], rtol=1e-14, atol=1e-14)
        assert abs(one.mismatch - aligned.mismatch[k]) <= 1e-14 * max(one.mismatch, 1e-300)
        # computed_i = W aligned_i W^{-1}
        w = aligned.conjugator[k]
        assert np.allclose(w @ aligned.generators[k] @ np.linalg.inv(w), tup, atol=1e-12)


# (points, weights) at ranks 2, 3 and 4: the criterion-9 family, W3 and R4
ALIGN_FAMILIES = {
    "C9": ([-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]),
    "W3": W3,
    "R4": ([-1.0, 0.0, 1.0], [[0.05, 0.15, 0.3, 0.45], [0.1, 0.2, 0.35, 0.5],
                              [0.1, 0.25, 0.4, 0.55], [0.05, 0.1, 0.2, 0.25]]),
}


@pytest.fixture(scope="module", params=list(ALIGN_FAMILIES))
def align_target(request):
    return moduli.random_admissible_rep(fuchs.build_weight_system(*ALIGN_FAMILIES[request.param]), seed=2)


def test_align_recovers_a_conjugated_target(align_target):
    # g T g^{-1} for random g in GL(r) aligns back to T itself
    tgts = np.asarray(align_target.generators)
    r = align_target.rank
    rng = np.random.default_rng(31)
    g = rng.standard_normal((12, r, r)) + 1j * rng.standard_normal((12, r, r))
    stack = g[:, None] @ tgts @ np.linalg.inv(g)[:, None]
    aligned = fuchs.align_tuple_to_target(stack, align_target)
    assert np.max(np.abs(aligned.generators - tgts)) <= 1e-12
    assert np.max(aligned.mismatch) <= 1e-24


def test_align_is_gl_covariant(align_target):
    # the aligned tuple of h M h^{-1} is that of M, for h in GL(r), on tuples
    # off the target's orbit
    r = align_target.rank
    rng = np.random.default_rng(32)
    stack = _perturbed_tuples(align_target, rng, 12, 0.3)
    h = rng.standard_normal((12, r, r)) + 1j * rng.standard_normal((12, r, r))
    moved = h[:, None] @ stack @ np.linalg.inv(h)[:, None]
    a = fuchs.align_tuple_to_target(stack, align_target)
    b = fuchs.align_tuple_to_target(moved, align_target)
    assert np.max(np.abs(a.generators - b.generators)) <= 1e-11
    assert np.max(np.abs(a.mismatch - b.mismatch)) <= 1e-11


def test_align_leaves_a_positive_least_squares_intertwiner(align_target):
    # the least right singular vector Y of the stacked Sylvester map
    # X -> aligned_i X - X T_i is, up to one phase, Hermitian positive
    # semi-definite: the aligned tuple is U^* M U with U the unitary polar
    # factor of the least-squares intertwiner of M
    tgts = np.asarray(align_target.generators)
    r = align_target.rank
    eye = np.eye(r)
    rng = np.random.default_rng(33)
    aligned = fuchs.align_tuple_to_target(_perturbed_tuples(align_target, rng, 12, 0.3), align_target)
    for gens in aligned.generators:
        # row-major vec: vec(A X) = kron(A, I) vec X, vec(X T) = kron(I, T^T) vec X
        rows = np.concatenate([np.kron(a, eye) - np.kron(eye, t.T) for a, t in zip(gens, tgts)])
        y = np.conj(scipy.linalg.svd(rows)[2][-1]).reshape(r, r)
        y *= np.exp(-1j * np.angle(np.trace(y)))
        assert numcore.fro(y - y.conj().T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(0.5 * (y + y.conj().T))) >= -1e-12


def test_align_to_a_direct_sum_keeps_a_perturbed_tuple_close():
    # a rank-3 direct sum of rank-1 targets has a 3-dimensional commutant:
    # the intertwiner is the projection of I onto it, so conjugates of
    # T + bump align within a few |bump|^2 of T (an arbitrary least
    # eigenvector, nearly singular, lands up to 2e5 |bump|^2 away)
    _, target, _ = direct_sum([-1.0, 0.0, 1.0], [[0.1, 0.2, 0.3, 0.4], [0.15, 0.35, 0.2, 0.3],
                                                 [0.4, 0.25, 0.1, 0.25]])
    tgts = np.asarray(target.generators)
    rng = np.random.default_rng(7)
    bump = 1e-4 * (rng.standard_normal((50,) + tgts.shape) + 1j * rng.standard_normal((50,) + tgts.shape))
    g = scipy.linalg.expm(0.5 * (rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))))
    aligned = fuchs.align_tuple_to_target(g[:, None] @ (tgts + bump) @ np.linalg.inv(g)[:, None], target)
    assert np.all(aligned.mismatch <= 10 * np.sum(np.abs(bump) ** 2, axis=(-3, -2, -1)))


def test_align_conjugator_stable_under_last_bit_perturbations(rank2_oracle_system, rank2_target):
    # the polar factor is fixed up to one common phase, which U[0, 0] >= 0
    # pins; last-bit changes of the tuple must not turn W by that phase
    gens = np.asarray(fuchs.monodromy_rep(rank2_oracle_system).generators)
    rng = np.random.default_rng(14)
    bits = rng.choice([-1.0, 0.0, 1.0], size=(20,) + gens.shape)
    stack = gens * (1 + np.finfo(float).eps * bits)
    base = fuchs.align_tuple_to_target(gens, rank2_target)
    aligned = fuchs.align_tuple_to_target(stack, rank2_target)
    for w in aligned.conjugator:
        assert numcore.fro(w - base.conjugator) <= 1e-9 * numcore.fro(base.conjugator)


def test_A_of_on_an_array_matches_the_residue_sum(rank2_oracle_system):
    # one product over all nodes against sum_j A_j / (z - z_j) node by node,
    # with the node array's shape kept
    rng = np.random.default_rng(81)
    z = rng.uniform(-2, 3, (7, 5)) + 1j * rng.uniform(-2, 2, (7, 5))
    got = rank2_oracle_system.A_of(z)
    assert got.shape == (7, 5, 2, 2)
    for idx in np.ndindex(z.shape):
        want = sum(a / (z[idx] - p) for a, p in zip(rank2_oracle_system.residues,
                                                    rank2_oracle_system.points))
        assert numcore.fro(got[idx] - want) <= 1e-14 * numcore.fro(want)
    assert rank2_oracle_system.A_of(z[0, 0]).shape == (2, 2)


def test_rank2_rigid_residues_spectra(rank2_oracle_system, rank2_weights):
    lam = numcore.sorted_eigvals(rank2_oracle_system.residues).real
    assert np.max(np.abs(lam - rank2_weights.weights[:-1])) < 1e-12
    assert rank2_oracle_system.infinity_spectrum_residual() < 1e-12
    # trace identity: sum tr A_i = -sum infinity exponents
    tr = sum(np.trace(a) for a in rank2_oracle_system.residues)
    assert abs(tr + np.sum(rank2_weights.infinity_exponents)) < 1e-12


# ---------------------------------------------------------------------------
# stacked transport kernel


def _n4_rank3_weights():
    return fuchs.build_weight_system(
        [-1.0, 0.0, 1.2],
        [[0.1, 0.3, 0.5], [0.2, 0.4, 0.6], [0.15, 0.35, 0.55], [0.1, 0.3, 0.45]],
    )


def _random_residues(ws, rng, count):
    """count random residue tuples with the weight spectra, shape (count, n-1, r, r)."""
    r = ws.rank
    out = np.empty((count, ws.n - 1, r, r), dtype=complex)
    for b in range(count):
        for i in range(ws.n - 1):
            c = np.eye(r) + 0.3 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
            out[b, i] = c @ np.diag(ws.weights[i]) @ np.linalg.inv(c)
    return out


def test_transport_stack_matches_members():
    ws = _n4_rank3_weights()
    residues = _random_residues(ws, np.random.default_rng(11), 6)
    loop = puncture_loop(ws, 1)
    stacked, _ = transport_path(ws.points, residues, loop, np.eye(ws.rank), 1e-12)
    assert stacked.shape == (6, 3, 3)
    for b in range(6):
        solo, _ = transport_path(ws.points, residues[b], loop, np.eye(3), 1e-12)
        rel = numcore.fro(stacked[b] - solo) / numcore.fro(solo)
        assert rel <= 1e-12


def test_transport_stack_det_identity():
    ws = _n4_rank3_weights()
    residues = _random_residues(ws, np.random.default_rng(5), 6)
    loop = puncture_loop(ws, 0)
    stacked, _ = transport_path(ws.points, residues, loop, np.eye(ws.rank), 1e-10)
    logs = np.array([path_log_increment(loop, complex(w)) for w in ws.points])
    for b in range(6):
        traces = np.trace(residues[b], axis1=-2, axis2=-1)
        expected = np.exp(-np.sum(traces * logs))
        got = np.linalg.det(stacked[b])
        assert abs(got - expected) / abs(expected) < 1e-8


def test_transport_stack_shared_step_follows_hardest():
    # a path ending close to a puncture: the member with full-size residues
    # sets the shared steps, the nearly trivial member rides along
    ws = _n4_rank3_weights()
    full = _random_residues(ws, np.random.default_rng(3), 1)[0]
    easy, hard = 0.01 * full, full
    line = [paths.Line(ws.loops.z0, 0.02j)]
    tol = 1e-10
    stacked, steps = transport_path(ws.points, np.array([easy, hard]), line, np.eye(ws.rank), tol)

    def solo(residues, tol):
        return transport_path(ws.points, residues, line, np.eye(3), tol)

    hard_solo, hard_steps = solo(hard, tol)
    assert steps == hard_steps
    rel = numcore.fro(stacked[1] - hard_solo) / numcore.fro(hard_solo)
    assert rel <= 1e-12
    # the easy member agrees with its solo value to its tolerance (the solo
    # value carries a global error of about tol itself, hence 2 tol) and is
    # no less accurate for taking the hard member's smaller steps
    easy_solo, _ = solo(easy, tol)
    ref, _ = solo(easy, 1e-13)
    scale = numcore.fro(ref)
    assert numcore.fro(stacked[0] - easy_solo) <= 2 * tol * scale
    assert numcore.fro(stacked[0] - ref) <= numcore.fro(easy_solo - ref)


def test_transport_stack_stiffness_propagates():
    ws = _n4_rank3_weights()
    full = _random_residues(ws, np.random.default_rng(3), 1)[0]
    # the path runs into the puncture at 0; only the second member is singular there
    residues = np.array([np.zeros_like(full), full])
    with pytest.raises(fuchs.StiffnessError):
        transport_path(ws.points, residues, [paths.Line(ws.loops.z0, 0.0)], np.eye(ws.rank), 1e-10)


def test_transport_stack_stage_on_pole_raises():
    # at a loose tolerance a step landing on the path's end puts a stage
    # point on the puncture there; the NaN error must reject the step and
    # end in StiffnessError, not stall the loop with a NaN step size
    ws = _n4_rank3_weights()
    residues = _random_residues(ws, np.random.default_rng(3), 1)
    with pytest.raises(fuchs.StiffnessError), np.errstate(divide="ignore", invalid="ignore"):
        transport_path(ws.points, residues, [paths.Line(2j, 0.0)], np.eye(ws.rank), 1e-1)


# ---------------------------------------------------------------------------
# the DOP853 kernel: its tableau, its order and its global error


def test_dop853_tableau_is_hairers():
    # the literals are Hairer's dop853.f coefficients as scipy ships them,
    # bit for bit; the error rows have no weight on the FSAL stage
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert np.array_equal(fuchs._DOP_C, ref.C[:13])
    assert np.array_equal(fuchs._DOP_A, ref.A[:13, :12])
    assert np.array_equal(fuchs._DOP_A[12], ref.B)
    assert np.array_equal(fuchs._DOP_E5, ref.E5[:12]) and ref.E5[12] == 0
    assert np.array_equal(fuchs._DOP_E3, ref.E3[:12]) and ref.E3[12] == 0


def test_dop853_tableau_conditions():
    c, a = fuchs._DOP_C, fuchs._DOP_A.real
    assert np.all(fuchs._DOP_A.imag == 0) and np.all(np.triu(a) == 0)
    assert np.max(np.abs(a.sum(axis=1) - c)) <= 1e-14
    # row 12 is the 8th-order solution b, taken at t + h: FSAL
    b = a[12]
    assert c[12] == 1.0
    for k in range(8):
        assert abs(b @ c[:12] ** k - 1 / (k + 1)) <= 1e-14
    assert abs(fuchs._DOP_E5.sum()) <= 1e-14 and abs(fuchs._DOP_E3.sum()) <= 1e-14


def test_transport_order_on_closed_form_rank1():
    # Y = prod (z - z_i)^{-alpha_i} relative to its start; the line crosses
    # no branch cut of the principal powers.  An 8th-order pair meets tol
    # globally, and its steps grow by about 100^(1/8) = 1.8 per factor 100
    points = np.array([0.0, 1.0, 0.3 + 0.8j])
    alphas = np.array([0.3, 0.45, 0.2])
    line = paths.Line(2.5 + 1j, 0.2 + 0.1j)
    exact = np.prod((line.end - points) ** -alphas) / np.prod((line.start - points) ** -alphas)
    steps = []
    for tol in (1e-8, 1e-10, 1e-12):
        out = fuchs.transport(points, alphas.reshape(3, 1, 1), paths.SegmentFan([line]),
                              np.ones((1, 1, 1)), tol=tol)
        assert abs(out.values[-1, 0, 0, 0] - exact) <= tol * abs(exact)
        steps.append(out.step_count)
    assert steps[1] <= 2.2 * steps[0] and steps[2] <= 2.2 * steps[1]


def _ivp_reference(points, residues, fan, starts, stops):
    """One system along every member of a fan, from starts (L, r, r), by
    scipy's DOP853 at rtol 1e-13: the values at the stops, (len(stops), L, r, r)."""
    from scipy.integrate import solve_ivp

    count, r = starts.shape[0], starts.shape[-1]

    def rhs(t, y):
        z, v = fan.point_and_velocity(np.array([t]))
        a = np.einsum("lj,jab->lab", v[0][:, None] / (z[0][:, None] - points), residues)
        return -(a @ y.reshape(count, r, r)).ravel()

    sol = solve_ivp(rhs, (0.0, stops[-1]), starts.astype(complex).ravel(), method="DOP853",
                    t_eval=stops, rtol=1e-13, atol=1e-16)
    return sol.y.T.reshape(len(stops), count, r, r)


def test_transport_global_error_into_punctures(rank2_oracle_system, rank2_weights):
    # lines from rho = 0.8 to 1e-3 into each fixture puncture: the global
    # error, not only each step's local error, stays within tol
    tol, worst = 1e-10, 0.0
    for zi in rank2_weights.points:
        for k in range(6):
            turn = np.exp(2j * np.pi * (k + 0.5) / 6)
            line = paths.Line(complex(zi + 0.8 * turn), complex(zi + 1e-3 * turn))
            got, _ = transport_path(rank2_weights.points, rank2_oracle_system.residues, [line], np.eye(2), tol)
            ref = _ivp_reference(rank2_weights.points, rank2_oracle_system.residues,
                                 paths.SegmentFan([line]), np.eye(2)[None], np.array([1.0]))[0, 0]
            worst = max(worst, numcore.fro(got - ref) / numcore.fro(ref))
    assert worst <= tol


def test_fixture_transports_match_reference_in_few_steps(rank2_oracle_system, rank2_target,
                                                         monkeypatch):
    # the normalization's approach leg and the action's outward-ray fan on
    # the fixture: few steps (the rays' Gauss-Legendre stops cost none: the
    # fan takes the steps of the same fan run to t = 1 without them) and the
    # fan within 1e-11 of the reference at every stop
    from rhwznw import wznw

    calls = []
    fan_call = fuchs.transport

    def recorded(*args, **kwargs):
        out = fan_call(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(fuchs, "transport", recorded)
    wznw.action_regularized(wznw.make_metric_field(rank2_oracle_system, rank2_target))
    (leg_args, leg), (ray_args, rays) = calls
    assert isinstance(leg_args[2], paths.SegmentFan) and leg.step_count <= 15
    points, residues, fan, starts, stops = ray_args[:5]
    assert isinstance(fan, paths.RayFan) and len(stops) == 16
    assert rays.step_count == fan_call(points, residues, fan, starts, (1.0,)).step_count
    ref = _ivp_reference(points, residues, fan, starts, stops)
    rel = np.linalg.norm(rays.values - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    assert rel.max() <= 1e-11


def test_pipeline_does_not_import_scipy_integrate():
    # the tableau is literal: a fixture field, its action and a cold solve,
    # in a fresh interpreter, load no part of scipy.integrate (importing it
    # raised the peak RSS of such a run by about a third)
    import os
    import subprocess
    import sys

    script = """
import sys
from rhwznw import fuchs, rhsolve, wznw
ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
system = fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws))
wznw.action_regularized(wznw.make_metric_field(system, target))
assert rhsolve.solve(ws, target)[1].success
print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fuchs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_pipeline_does_not_import_scipy():
    # the library is numpy only: a fixture field and its action, a cold solve,
    # a deformed tuple with a warm solve and a CLI verify pass, in a fresh
    # interpreter, load no module of scipy (importing scipy.linalg alone
    # raised the peak RSS of such a run by 28 MB)
    import os
    import subprocess
    import sys
    import tempfile

    script = """
import sys
from rhwznw import cli, fuchs, moduli, rhsolve, wznw
ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
system = fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws))
wznw.action_regularized(wznw.make_metric_field(system, target))
assert rhsolve.solve(ws, target)[1].success
moved = moduli.deform_rep(target, moduli.random_tangent_direction(ws, 1), 0.05)
assert rhsolve.solve(ws, moved, init=system)[1].success
assert cli.main(["verify", "cholesky", "--count", "3", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fuchs.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with tempfile.TemporaryDirectory() as out_dir:
        out = subprocess.run([sys.executable, "-c", script, out_dir], env=env,
                             capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# fan paths: one system, B member paths sharing the steps


def _n4_rank3_system(seed):
    ws = _n4_rank3_weights()
    return fuchs.FuchsianSystem(ws, _random_residues(ws, np.random.default_rng(seed), 1)[0])


def _arc_fan(rng, count):
    # arcs on a circle around the puncture at 0 that clears the others
    ends = 0.7 + rng.uniform(-2 * np.pi, 2 * np.pi, count)
    return paths.SegmentFan([paths.Arc(0.0j, 0.45, 0.7, a1) for a1 in ends])


def _ray_fan(rng, count):
    # rays out of the puncture at 1.2, each with its own log-radius window
    phis = rng.uniform(0.0, 2 * np.pi, count)
    return paths.RayFan(1.2 + 0j, phis, np.log(rng.uniform(0.3, 0.5, count)),
                        np.log(rng.uniform(1e-3, 0.1, count)))


def _arc_fan_centers(rng, count):
    # arcs on circles of their own around the three punctures
    centers = rng.choice(_n4_rank3_weights().points, count)
    a0 = rng.uniform(0.0, 2 * np.pi, count)
    arcs = zip(centers, rng.uniform(0.2, 0.45, count), a0,
               a0 + rng.uniform(-2 * np.pi, 2 * np.pi, count))
    return paths.SegmentFan([paths.Arc(complex(c), rad, b0, b1) for c, rad, b0, b1 in arcs])


def _ray_fan_centers(rng, count):
    # rays out of the three punctures, each with its own log-radius window
    centers = rng.choice(_n4_rank3_weights().points, count)
    return paths.RayFan(centers, rng.uniform(0.0, 2 * np.pi, count),
                        np.log(rng.uniform(0.3, 0.45, count)),
                        np.log(rng.uniform(1e-3, 0.1, count)))


def _member(fan, b, t=1.0):
    """Member b of a fan from its start to time t (an Arc of a SegmentFan
    or a ray) as a plain segment: the same path, parametrized anew."""
    if isinstance(fan, paths.SegmentFan):
        seg = fan.segments[b]
        if t == 1.0:
            return seg
        return paths.Arc(seg.center, seg.radius, seg.angle0, seg.angle0 + t * (seg.angle1 - seg.angle0))
    c, phi, s0, s1 = np.broadcast_arrays(fan.center, fan.phis, fan.s0, fan.s1)
    c, phi, s0, s1 = complex(c[b]), float(phi[b].real), float(s0[b].real), float(s1[b].real)
    end = s1 if t == 1.0 else s0 + t * (s1 - s0)
    return paths.Line(c + np.exp(s0 + 1j * phi), c + np.exp(end + 1j * phi))


def _solo(system, segment, tol, start):
    return transport_path(system.points, system.residues, [segment], start, tol)[0]


@pytest.mark.parametrize("make_fan", [_arc_fan, _ray_fan, _arc_fan_centers, _ray_fan_centers])
def test_transport_fan_matches_members(make_fan):
    system = _n4_rank3_system(21)
    fan = make_fan(np.random.default_rng(22), 16)
    start = numcore.random_unitary(np.random.default_rng(23), 3)
    tol = 1e-10
    out = fuchs.transport(system.points, system.residues, fan, start, tol=tol)
    assert out.values.shape == (1, 16, 3, 3)
    for b in range(16):
        # the reference runs at tol / 100: on a Line parametrized linearly
        # into a puncture a solo transport at tol itself carries up to 5 tol
        # of global error, while the log-radial fan member stays below tol
        solo = _solo(system, _member(fan, b), tol / 100, start)
        assert numcore.fro(out.values[0, b] - solo) <= 2 * tol * numcore.fro(solo)


@pytest.mark.parametrize("make_fan", [_arc_fan, _ray_fan])
def test_transport_fan_stops_match_truncated_transports(make_fan):
    # the stops inside a step are read off the dense output: each agrees
    # with a transport that ends there
    system = _n4_rank3_system(31)
    rng = np.random.default_rng(32)
    fan = make_fan(rng, 3)
    stops = np.sort(rng.uniform(0.0, 1.0, 40))
    tol = 1e-10
    out = fuchs.transport(system.points, system.residues, fan, np.eye(3), stops, tol)
    assert out.values.shape == (40, 3, 3, 3)
    for b in range(3):
        for k, t in enumerate(stops):
            solo = _solo(system, _member(fan, b, t), tol / 100, np.eye(3))
            assert numcore.fro(out.values[k, b] - solo) <= 2 * tol * numcore.fro(solo)


def test_transport_fan_residue_stack_matches_single_systems():
    # S = 3 systems on L = 5 arcs with a start of their own per (system, arc):
    # the stacked call shares one step sequence, each single call has its own
    ws = _n4_rank3_weights()
    rng = np.random.default_rng(51)
    residues = _random_residues(ws, rng, 3)
    fan = _arc_fan(rng, 5)
    stops = np.sort(rng.uniform(0.0, 1.0, 6))
    starts = np.eye(3) + 0.2 * rng.standard_normal((3, 5, 3, 3))
    tol = 1e-10
    out = fuchs.transport(ws.points, residues, fan, starts, stops, tol)
    assert out.values.shape == (6, 3, 5, 3, 3)
    for s in range(3):
        solo = fuchs.transport(ws.points, residues[s], fan, starts[s], stops, tol).values
        for k in range(6):
            for b in range(5):
                scale = numcore.fro(solo[k, b])
                assert numcore.fro(out.values[k, s, b] - solo[k, b]) <= 2 * tol * scale


@pytest.mark.parametrize("make_fan", [_arc_fan, _ray_fan])
def test_transport_fan_stops_keep_step_size(make_fan):
    # stops are free: only the last is landed on, so a fan with 40 stops
    # takes the steps of the same fan without them, bit for bit
    system = _n4_rank3_system(41)
    fan = make_fan(np.random.default_rng(42), 8)
    stops = np.sort(np.random.default_rng(43).uniform(0.0, 1.0, 40))
    stops[-1] = 1.0
    free = fuchs.transport(system.points, system.residues, fan, np.eye(3))
    stopped = fuchs.transport(system.points, system.residues, fan, np.eye(3), stops)
    assert stopped.step_count == free.step_count
    assert np.array_equal(stopped.values[-1], free.values[-1])


@pytest.mark.parametrize("stops", [[0.5, 0.2], [-0.1, 0.5], [0.5, 1.5], [], [np.nan], [0.5, np.nan]])
def test_transport_fan_rejects_bad_stops(stops):
    system = _n4_rank3_system(41)
    fan = _arc_fan(np.random.default_rng(42), 2)
    with pytest.raises(ValueError):
        fuchs.transport(system.points, system.residues, fan, np.eye(3), stops)


def test_transport_stops_at_the_start_take_no_step(rank2_oracle_system):
    # stops at t = 0 are the starts: with no later stop no step is taken,
    # and a stop at 0 before the end changes neither the steps nor the end
    pts, res = rank2_oracle_system.points, rank2_oracle_system.residues
    fan = paths.SegmentFan([paths.Line(rank2_oracle_system.weights.loops.z0, 0.5 + 0.5j)])
    start = numcore.random_unitary(np.random.default_rng(5), 2)
    for stops in [(0.0,), (0.0, 0.0)]:
        out = fuchs.transport(pts, res, fan, start, stops)
        assert out.step_count == 0
        assert out.values.shape == (len(stops), 1, 2, 2)
        assert np.array_equal(out.values, np.broadcast_to(start, out.values.shape))
    free = fuchs.transport(pts, res, fan, start)
    both = fuchs.transport(pts, res, fan, start, (0.0, 1.0))
    assert both.step_count == free.step_count > 0
    assert np.array_equal(both.values[0, 0], start)
    assert np.array_equal(both.values[1], free.values[0])


def test_transport_fan_stiffness_propagates():
    system = _n4_rank3_system(3)
    # the second ray runs from -0.5 into the puncture at 0
    fan = paths.RayFan(-1.0 + 0j, np.array([np.pi / 2, 0.0]), np.log(0.5), 0.0)
    with pytest.raises(fuchs.StiffnessError):
        fuchs.transport(system.points, system.residues, fan, np.eye(3))


def test_segment_fan_mixed_members_match_solo_transports():
    # Line and Arc members, each with a parametrization and a start of its
    # own, and zero-length members that must not move at all
    system = _n4_rank3_system(61)
    members = [
        paths.Line(2j, 0.5 + 0.5j),
        paths.Arc(0j, 0.45, 0.7, 0.7 - 5.0),
        paths.Line(1 + 1j, 1 + 1j),
        paths.Arc(-1 + 0j, 0.3, 2.0, 5.0),
        paths.Line(-0.5 - 0.5j, 0.6 - 0.6j),
        paths.Line(2j, 2j),
    ]
    fan = paths.SegmentFan(members)
    t = np.random.default_rng(62).uniform(0.0, 1.0, 7)
    z, v = fan.point_and_velocity(t)
    assert z.shape == v.shape == (7, 6)
    for l, seg in enumerate(members):
        z_l, v_l = seg.point_and_velocity(t)
        assert np.array_equal(z[:, l], z_l) and np.array_equal(v[:, l], v_l)
    starts = np.eye(3) + 0.2 * np.random.default_rng(63).standard_normal((6, 3, 3))
    tol = 1e-10
    out = fuchs.transport(system.points, system.residues, fan, starts, tol=tol)
    for l, seg in enumerate(members):
        if isinstance(seg, paths.Line) and seg.start == seg.end:
            assert np.array_equal(out.values[-1, l], starts[l])
            continue
        solo = _solo(system, seg, tol / 10, starts[l])
        assert numcore.fro(out.values[-1, l] - solo) <= 2 * tol * numcore.fro(solo)


def test_monodromy_detour_legs_run_as_one_fan(monkeypatch):
    # from the basepoint 2i the leg to 0 detours round the loop circle at
    # 1j (Line, Arc, Line) while the leg to 1j is one Line: every segment of
    # every system is one member of one fan call from I (four systems and
    # four segments: uncut), and nothing else is marched
    ws = fuchs.build_weight_system([0.0, 1j], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    loops = fuchs.MonodromyLoops(ws)
    assert loops.z0 == 2j
    kinds = [[type(seg) for seg in approach] for approach in loops.approaches]
    assert kinds == [[paths.Line, paths.Arc, paths.Line], [paths.Line]]
    residues = _random_residues(ws, np.random.default_rng(71), 4)
    calls = {"fan": 0, "kernel": 0}
    fan, kernel = fuchs.transport, fuchs._integrate_stack

    def counted_fan(*a, **k):
        calls["fan"] += 1
        return fan(*a, **k)

    def counted_kernel(*a, **k):
        calls["kernel"] += 1
        return kernel(*a, **k)

    monkeypatch.setattr(fuchs, "transport", counted_fan)
    monkeypatch.setattr(fuchs, "_integrate_stack", counted_kernel)
    tol = 1e-9
    _, series = loops.monodromy(residues, tol)
    assert calls == {"fan": 1, "kernel": 1}
    monkeypatch.undo()
    legs = _entry_values(loops, series)
    for i, approach in enumerate(loops.approaches):
        ref, _ = transport_path(ws.points, residues, approach, np.eye(ws.rank), tol / 100)
        for b in range(4):
            assert numcore.fro(legs[b, i] - ref[b]) <= 5 * tol * numcore.fro(ref[b])


@pytest.fixture(scope="module")
def criterion9_center_system():
    """The criterion-9 family's seed-5 center, solved cold at seed 3."""
    ws = _n4_rank2_weights()
    system, report = rhsolve.solve(ws, moduli.random_admissible_rep(ws, seed=5),
                                   opts=rhsolve.SolveOptions(seed=3))
    assert report.success
    return system


def _rigid_system(points):
    ws = fuchs.build_weight_system(points, [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    return fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws))


@pytest.mark.parametrize("which", ["fixture", "criterion9-center", "detour"])
def test_cut_legs_of_one_system_agree_with_an_uncut_stack(which, request):
    # a 16-system stack runs its legs uncut, and each member on its own has
    # them cut into LEG_FAN_MEMBERS // segments pieces: the generators and
    # the legs' transports agree to 10 tol
    system = {
        "fixture": lambda: _rigid_system([0.0, 1.0]),
        "criterion9-center": lambda: request.getfixturevalue("criterion9_center_system"),
        "detour": lambda: _rigid_system([0.0, 1j]),
    }[which]()
    ws, tol = system.weights, 1e-9
    loops = fuchs.MonodromyLoops(ws)
    parm = rhsolve.parametrization_from_system(system)
    residues = parm.residues(0.01 * np.random.default_rng(72).standard_normal((16, parm.dim)))
    gens, series = loops.monodromy(residues, tol)
    legs = _entry_values(loops, series)
    for b in range(16):
        one, one_series = loops.monodromy(residues[b : b + 1], tol)
        one_legs = _entry_values(loops, one_series)
        for i in range(ws.n):
            assert numcore.fro(one[0, i] - gens[b, i]) <= 10 * tol * numcore.fro(gens[b, i])
            assert numcore.fro(one_legs[0, i] - legs[b, i]) <= 10 * tol * numcore.fro(legs[b, i])


def test_one_system_loop_set_is_one_short_kernel_call(monkeypatch, criterion9_center_system):
    # the criterion-9 center's three legs, cut into five pieces each, take
    # one kernel call of at most six steps (eleven when they ran uncut)
    steps, kernel = [], fuchs._integrate_stack

    def counted_kernel(*a, **k):
        out = kernel(*a, **k)
        steps.append(out[1])
        return out

    monkeypatch.setattr(fuchs, "_integrate_stack", counted_kernel)
    fuchs.MonodromyLoops(criterion9_center_system.weights).monodromy(
        criterion9_center_system.residues[None], fuchs.TRANSPORT_TOL)
    assert len(steps) == 1 and steps[0] <= 6


def _relation_residuals(ws, gens):
    """||M_p1 ... M_p(n-1) M_n - I||_F of an (n, r, r) generator stack for
    every order p of the finite punctures."""
    out = {}
    for p in itertools.permutations(range(ws.n - 1)):
        prod = np.eye(ws.rank, dtype=complex)
        for g in gens[list(p) + [ws.n - 1]]:
            prod = prod @ g
        out[p] = numcore.fro(prod - np.eye(ws.rank))
    return out


def _least_order_margin(ws, gens):
    """The relation residual in the loop set's relation order and the least
    residual of any other order."""
    res = _relation_residuals(ws, gens)
    order = tuple(ws.loops.relation_order.tolist())
    return res[order], min(v for p, v in res.items() if p != order)


@settings(max_examples=25, deadline=None)
@given(POINT_LISTS, st.integers(0, 2**31 - 1))
# a point 1.2e-13 west of the line from z0 through 1j: its leg detours round 1j
@example(pts=[1j, -1.187333468784054e-13 + 0j], seed=0)
# points on the line to z0, behind a detour round a point off it
@example(pts=[0j, 0.125j, -1j, 0.125 + 1j], seed=0)
@example(pts=[-2j, -2.5j, -2.875j, 1 + 2j], seed=0)
def test_relation_order_is_the_least_residual_order_property(pts, seed):
    # the loops leave z0 = 2i max(1, max|z_j|) counterclockwise by
    # arg(z_i - z0): in that order the relation holds, in every other order
    # it misses by at least 1e4 times as much, whatever the points' listing
    m = len(pts)
    last = [0.4, 0.6] if m % 2 == 0 else [0.2, 0.3]  # integer total weight
    ws = fuchs.build_weight_system(pts, [[0.15, 0.35]] * m + [last])
    residues = _random_residues(ws, np.random.default_rng(seed), 1)[0]
    mon = fuchs.monodromy_rep(fuchs.FuchsianSystem(ws, residues))
    best, other = _least_order_margin(ws, mon.generators)
    assert mon.relation_residual == best
    assert other >= 1e4 * best


@pytest.mark.parametrize("pts, order", [([0.0, 1j], [1, 0]), ([1j, 0.0], [0, 1])])
def test_relation_order_on_a_tie_puts_the_nearer_point_first(pts, order):
    # both points lie straight below z0 = 2i: the angles tie, and the leg to 0
    # detours round the circle at 1j, so the relation takes 1j first
    ws = fuchs.build_weight_system(pts, [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    assert ws.loops.relation_order.tolist() == order
    residues = _random_residues(ws, np.random.default_rng(71), 1)[0]
    mon = fuchs.monodromy_rep(fuchs.FuchsianSystem(ws, residues))
    best, other = _least_order_margin(ws, mon.generators)
    assert mon.relation_residual == best <= 1e-9
    assert other >= 1e4 * best


@pytest.mark.parametrize("turn, order", [(1e-7, [0, 1]), (-1e-7, [1, 0])])
def test_relation_order_near_a_tie_is_the_legs_order(turn, order):
    # the point near 1j lies 1e-7 radians to either side of the line from
    # z0 = 2i through 0, not on it: the leg to 0 detours round its circle on
    # the side away from it, and the relation takes the order the legs give
    ws = fuchs.build_weight_system(
        [0.0, 2j + np.exp(1j * (turn - np.pi / 2))], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]]
    )
    angle = np.angle(ws.points - ws.loops.z0)
    assert angle[1] - angle[0] == pytest.approx(turn, rel=1e-6)
    assert [len(approach) for approach in ws.loops.approaches] == [3, 1]
    assert ws.loops.relation_order.tolist() == order
    residues = _random_residues(ws, np.random.default_rng(71), 1)[0]
    mon = fuchs.monodromy_rep(fuchs.FuchsianSystem(ws, residues), tol=1e-12)
    best, other = _least_order_margin(ws, mon.generators)
    assert mon.relation_residual == best <= 1e-12
    assert other >= 1e4 * best


@st.composite
def _loop_point_lists(draw):
    """Three to six points in [-3, 3]^2, more than 1e-2 apart; in a third of
    the draws the last lies near the line from z0 through the first,
    0.05 to 0.5 beyond it and 1e-8 to 1e-2 off it, with z0 unchanged."""
    cell = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
    pts = draw(st.lists(cell, min_size=3, max_size=6).filter(_distinct_points))
    if draw(st.integers(0, 2)) == 0:
        z0 = 2j * max(1.0, max(abs(z) for z in pts))
        u = (pts[0] - z0) / abs(pts[0] - z0)
        off = draw(st.sampled_from([-1, 1])) * 10 ** draw(st.floats(-8, -2))
        near = pts[0] + u * (draw(st.floats(0.05, 0.5)) + 1j * off)
        pts[-1] = near
        assume(abs(near) < abs(z0) / 2 and _distinct_points(pts))
    return pts


@settings(max_examples=80, deadline=None)
@given(_loop_point_lists())
def test_departure_order_is_the_angle_order_off_ties_property(pts):
    # where every two angles arg(z_i - z0) lie more than 1e-6 apart, however
    # little more, the relation order read off the legs is their increasing
    # order
    ws = fuchs.build_weight_system(pts, [[1 / (len(pts) + 1)]] * (len(pts) + 1))
    angle = np.angle(ws.points - ws.loops.z0)
    order = np.argsort(angle, kind="stable")
    assume(np.all(np.diff(angle[order]) > 1e-6))
    assert ws.loops.relation_order.tolist() == order.tolist()


def _entry_values(loops, series):
    """The solution's values F(x) diag(x^-lam) coords at every loop entry x,
    (B, n, r, r), from the coordinates of the series that
    MonodromyLoops.monodromy returns: the approach legs' transports at the
    punctures, I on the big circle."""
    n, r = len(series.scale), series.coords.shape[-1]
    b = len(series.coords) // n
    coords = series.coords.reshape(b, n, r, r)
    frame = series.frame(np.exp(loops.entry_logs)).reshape(b, n, r, r)
    power = np.exp(-loops.entry_logs[:, None] * series.exponents.reshape(b, n, r))
    return (frame * power[:, :, None, :]) @ coords


def _admissible_n4_rank3(rng):
    """Random weights of n = 4, rank 3 with an integer degree in the stable
    range, and random residues with those spectra."""
    while True:
        w = np.sort(rng.uniform(0.05, 0.95, size=(4, 3)), axis=1)
        total = w.sum() - w[3, 2]
        w[3, 2] = np.ceil(total + w[3, 1] + 0.02) - total
        try:
            ws = fuchs.build_weight_system(rng.uniform(-1.5, 1.5, 3) + 0j, w)
        except ValueError:  # last weight outside (w[3, 1], 1), or unstable
            continue
        if fuchs._min_pairwise_distance(ws.points) > 0.4:
            return fuchs.FuchsianSystem(ws, _random_residues(ws, rng, 1)[0])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transport_fan_det_identity_property(seed):
    # log det Y_end - log det Y_start = -sum_i tr(A_i) dlog(z - z_i) on every
    # member, with dlog taken on that member's own path
    rng = np.random.default_rng(seed)
    system = _admissible_n4_rank3(rng)
    pts = system.points
    i = int(rng.integers(3))
    radius = 0.45 * min(abs(pts[i] - pts[j]) for j in range(3) if j != i)
    phis = rng.uniform(0.0, 2 * np.pi, 6)
    fans = [
        paths.SegmentFan([paths.Arc(complex(pts[i]), radius, a0, a0 + turn) for a0, turn
                          in zip(phis, rng.uniform(-2 * np.pi, 2 * np.pi, 6))]),
        paths.RayFan(pts[i], phis, np.log(radius), np.log(radius * rng.uniform(1e-3, 0.5, 6))),
    ]
    start = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    traces = np.trace(system.residues, axis1=-2, axis2=-1)
    for fan in fans:
        out = fuchs.transport(pts, system.residues, fan, start)
        for b in range(6):
            logs = np.array([path_log_increment([_member(fan, b)], complex(w)) for w in pts])
            expected = np.linalg.det(start) * np.exp(-np.sum(traces * logs))
            got = np.linalg.det(out.values[-1, b])
            assert abs(got - expected) <= 1e-8 * abs(expected)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(seed=1_838_530_778)  # ill-conditioned frames (test_monodromy_loops_transport_ill_conditioned_frames)
def test_monodromy_loops_path_independence_property(seed):
    # the loop set assembles each puncture generator as P^-1 C P from its
    # approach leg P and its circle C, without the return leg; it must agree
    # with a transport along the whole loop run backwards (approach, circle
    # clockwise, return), and its big circle with a transport once around
    # that circle counterclockwise.  The reference is the transport kernel
    # with the three systems stacked, at tol / 100.
    rng = np.random.default_rng(seed)
    ws = _admissible_n4_rank3(rng).weights
    residues = _random_residues(ws, rng, 3)
    loops = fuchs.MonodromyLoops(ws)
    tol = 1e-9  # the solver's default transport tolerance
    gens, series = loops.monodromy(residues, tol)
    assert gens.shape == (3, 4, 3, 3) and series.coords.shape == (12, 3, 3)
    # the circles' series: system b at point p is member 4 b + p, infinity last
    assert series.scale.shape == (4,) and series.exponents.shape == (12, 3)
    for b in range(3):
        lead = np.concatenate([residues[b], -residues[b].sum(axis=0, keepdims=True)])
        for p in range(4):
            want = np.sort_complex(np.linalg.eigvals(lead[p]))
            assert np.allclose(np.sort_complex(series.exponents[4 * b + p]), want, atol=1e-12)
    big = paths.circle(0.0, abs(loops.z0), float(np.angle(loops.z0)))
    refs = [reversed_path(puncture_loop(ws, i)) for i in range(3)] + [[big]]
    for i, loop in enumerate(refs):
        ref, _ = transport_path(ws.points, residues, loop, np.eye(ws.rank), tol / 100)
        for b in range(3):
            assert numcore.fro(gens[b, i] - ref[b]) <= 5 * tol * numcore.fro(ref[b])
    # the coordinates give the approach transports from I to each puncture
    # circle's entry, and I at the big circle's
    legs = _entry_values(loops, series)
    assert np.allclose(legs[:, 3], np.eye(3), rtol=0.0, atol=1e-12)
    for i, approach in enumerate(loops.approaches):
        ref, _ = transport_path(ws.points, residues, approach, np.eye(ws.rank), tol / 100)
        for b in range(3):
            assert numcore.fro(legs[b, i] - ref[b]) <= 5 * tol * numcore.fro(ref[b])


def test_monodromy_loops_transport_ill_conditioned_frames(monkeypatch):
    # seed 1838530778 draws a system (b = 1) with a residue of norm ~350 at
    # z_0: its puncture frames at the circles' entries have condition numbers
    # 2e6 to 5e9, where F exp(2 pi i Lambda) F^-1 loses up to 1e-5 of its
    # digits, so those three generators are transported along their whole
    # loops; every other member keeps the closed form.  A seed of ordinary
    # residues transports none.
    for seed, want in [(1_838_530_778, [(1, 0), (1, 1), (1, 2)]), (7, [])]:
        rng = np.random.default_rng(seed)
        ws = _admissible_n4_rank3(rng).weights
        residues = _random_residues(ws, rng, 3)
        loops = fuchs.MonodromyLoops(ws)
        calls, real = [], loops._loop_transport

        def spy(res, k, tol):
            calls.extend((b, k) for b in range(3) if np.array_equal(res, residues[b]))
            return real(res, k, tol)

        monkeypatch.setattr(loops, "_loop_transport", spy)
        loops.monodromy(residues, 1e-9)
        assert calls == want


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
def test_transports_reject_non_positive_tol(tol):
    system = _n4_rank3_system(41)
    fan = _arc_fan(np.random.default_rng(42), 2)
    with pytest.raises(ValueError):
        fuchs.transport(system.points, system.residues, fan, np.eye(3), tol=tol)
    with pytest.raises(ValueError):
        fan = paths.SegmentFan([paths.Line(2j, 1j)])
        fuchs.transport(system.points, system.residues[None], fan, np.eye(3), tol=tol)


# ---------------------------------------------------------------------------
# local series


def _series_at(points, residues, p, radius, tol):
    """series_stack of residues (B, n-1, r, r) at every point, point p
    (n-1: infinity) at the given radius and every other point at 1/100 of
    its convergence radius, so that the count is point p's, as if its
    members were summed alone; read them as members b n + p."""
    pts = np.asarray(points, dtype=complex)
    gaps = np.abs(pts[:, None] - pts[None]) + np.diag(np.full(len(pts), np.inf))
    radii = np.append(gaps.min(axis=1), 1.0 / np.abs(pts).max()) / 100
    radii[p] = radius
    return fuchs.series_stack(pts, residues, radii, tol)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
# at this draw the series read 5.8 tol off a tol / 100 reference, 1.93 tol off tol / 1e4
@example(34764)
def test_local_series_matches_fan_property(seed):
    # at every puncture and at infinity the series, matched to the value at
    # a ring entry, agrees with tol / 1e4 fan transports from that entry:
    # counterclockwise along the ring, then along rays into the puncture (at
    # infinity: out to 20 ring radii), with the branch of the power
    # following the sweep; the reference's own error stays well below the
    # 2 tol gate
    rng = np.random.default_rng(seed)
    system = _admissible_n4_rank3(rng)
    pts, res = system.points, system.residues
    tol = 1e-10
    for p in range(4):
        if p == 3:
            center, ring = 0j, 2.0 * np.max(np.abs(pts)) + 2.0
            radius, s_far = 1.0 / ring, np.log(20 * ring)
        else:
            center = pts[p]
            ring = 0.5 * min(abs(pts[p] - pts[j]) for j in range(3) if j != p)
            radius, s_far = ring, np.log(1e-3 * ring)
        series = _series_at(pts, res[None], p, radius, tol)
        assert series.tail[p] <= tol / 100
        a0 = rng.uniform(0.0, 2 * np.pi)
        entry_value = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        # the coordinates diag(x^lam) F(x)^{-1} Y of the entry value, log x =
        # +-(log ring + i a0)
        log_x = (-1.0 if p == 3 else 1.0) * (np.log(ring) + 1j * a0)
        x = np.zeros(4, dtype=complex)
        x[p] = np.exp(log_x)
        lifted = np.linalg.solve(series.frame(x)[p], entry_value)
        right = np.exp(log_x * series.exponents[p])[:, None] * lifted
        # the series carries that solution, entered at a0
        coords, entry_angle = series.coords.copy(), series.entry_angle.copy()
        coords[p], entry_angle[p] = right, a0
        series = dataclasses.replace(series, coords=coords, entry_angle=entry_angle)
        phi = rng.uniform(0.0, 2 * np.pi, 6)
        theta = a0 + np.mod(phi - a0, 2 * np.pi)
        arcs = paths.SegmentFan([paths.Arc(complex(center), ring, a0, a1) for a1 in theta])
        ring_ref = fuchs.transport(pts, res, arcs, entry_value, tol=tol / 1e4).values[-1]
        stops = np.array([0.2, 0.6, 1.0])
        rays = paths.RayFan(center, theta, np.log(ring), s_far)
        ray_ref = fuchs.transport(pts, res, rays, ring_ref, stops, tol / 1e4).values
        rhos = np.exp(np.log(ring) + stops * (s_far - np.log(ring)))
        got = series.values(p, np.concatenate([[ring], rhos])[:, None], phi[None, :])
        refs = np.concatenate([ring_ref[None], ray_ref])
        for k in range(len(refs)):
            for b in range(6):
                scale = numcore.fro(refs[k, b])
                assert numcore.fro(got[k, b] - refs[k, b]) <= 2 * tol * scale


def test_local_series_near_resonant_divisor_raises():
    # at the puncture 0 the residue has eigenvalues 0.2 and 1.2 + 1e-8: the
    # order-1 divisor 1 + 0.2 - (1.2 + 1e-8) is about -1e-8
    c = np.array([[1.0, 0.3], [0.2, 1.0]])
    a0 = c @ np.diag([0.2, 1.2 + 1e-8]) @ np.linalg.inv(c)
    residues = np.array([a0, np.diag([0.3, 0.6])], dtype=complex)
    with pytest.raises(fuchs.ResonanceError, match="at order 1$"):
        _series_at([0.0, 1.0], residues[None], 0, 0.5, 1e-10)
    # the same eigenvalue gap 1 + 1e-8 one order away is no resonance
    residues[0] = c @ np.diag([0.2, 0.7 + 1e-8]) @ np.linalg.inv(c)
    _series_at([0.0, 1.0], residues[None], 0, 0.5, 1e-10)


def test_local_series_limits():
    system = _n4_rank3_system(41)
    pts, res = system.points, system.residues[None]
    # the nearest other puncture is 1.0 away from the one at 0
    with pytest.raises(ValueError, match="convergence radius"):
        _series_at(pts, res, 1, 1.0, 1e-10)
    with pytest.raises(ValueError):
        _series_at(pts, res, 1, 0.5, 0.0)
    # at q = 0.99 the tail needs thousands of terms
    with pytest.raises(numcore.NumericalError):
        _series_at(pts, res, 1, 0.99, 1e-10)
    series = _series_at(pts, res, 1, 0.5, 1e-10)
    with pytest.raises(ValueError):
        series.values(1, 0.6, 0.0)


@pytest.mark.parametrize("p", [1, 3], ids=["puncture", "infinity"])
def test_local_series_grid_values_match_horner(p):
    # Y0 K on a random rho x theta grid (broadcast nodes) from the power
    # table against Horner on the coefficients, with x^{-L} from one complex
    # exp per node, at every node, for a puncture member and for the
    # infinity member
    system = _n4_rank3_system(41)
    radius = 0.5 if p < 3 else 0.3
    series = _series_at(system.points, system.residues[None], p, radius, 1e-10)
    rng = np.random.default_rng(3)
    rho = rng.uniform(1e-3, radius, 37)
    if p == 3:
        rho = 1.0 / rho
    theta = rng.uniform(-4 * np.pi, 4 * np.pi, 23)
    coords = series.coords.copy()
    coords[p] = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    got = dataclasses.replace(series, coords=coords).values(p, rho[:, None], theta[None, :])
    assert got.shape == (37, 23, 3, 3)
    # series_stack's principal branch: arg(z - z_i) in [-pi, pi)
    branch = -np.pi + np.mod(theta + np.pi, 2 * np.pi)
    log_x = np.log(rho)[:, None] + 1j * branch[None, :]
    if p == 3:
        log_x = -log_x
    u = (np.exp(log_x) / series.scale[p])[..., None, None]
    coefficients = series.coefficients[p]
    frame = np.broadcast_to(coefficients[-1], got.shape).copy()
    for c in coefficients[-2::-1]:
        frame = frame * u + c
    want = (frame * np.exp(-log_x[..., None] * series.exponents[p])[..., None, :]) @ coords[p]
    err = np.linalg.norm(got - want, axis=(-2, -1))
    assert np.all(err <= 1e-14 * np.linalg.norm(want, axis=(-2, -1)))


def test_local_series_values_are_pointwise():
    # values takes rho and phi that broadcast to the nodes' shape: (N,)
    # arrays are the diagonal of the grid they span, a scalar pair gives one
    # (r, r) value, and shapes that do not broadcast raise; agreement is to
    # rounding, as BLAS may sum a product of another size in another order
    system = _n4_rank3_system(41)
    series = _series_at(system.points, system.residues[None], 1, 0.5, 1e-10)
    rng = np.random.default_rng(5)
    rho = rng.uniform(1e-3, 0.5, 29)
    phi = rng.uniform(-4 * np.pi, 4 * np.pi, 29)
    nodes = series.values(1, rho, phi)
    grid = series.values(1, rho[:, None], phi[None, :])
    assert nodes.shape == (29, 3, 3) and grid.shape == (29, 29, 3, 3)
    scale = np.linalg.norm(nodes, axis=(-2, -1))
    diagonal = grid[np.arange(29), np.arange(29)]
    assert np.all(np.linalg.norm(nodes - diagonal, axis=(-2, -1)) <= 1e-15 * scale)
    single = series.values(1, rho[3], phi[3])
    assert single.shape == (3, 3) and numcore.fro(single - nodes[3]) <= 1e-15 * scale[3]
    with pytest.raises(ValueError):
        series.values(1, rho, phi[:5])


def _n4_rank2_weights():
    return fuchs.build_weight_system(
        [-1.0, 0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.1, 0.3], [0.05, 0.4]]
    )


def _set_infinity_exponents(residues, exponents, rng):
    """Replace the last residue of one tuple (n-1, r, r) so that -sum A_j has
    the given exponents; the other residues keep their spectra."""
    r = len(exponents)
    c = np.eye(r) + 0.3 * rng.standard_normal((r, r))
    lead = c @ np.diag(exponents) @ np.linalg.inv(c)
    residues[-1] = -lead - np.sum(residues[:-1], axis=0)


@pytest.mark.parametrize("make_weights, seed", [(_n4_rank2_weights, 1), (_n4_rank3_weights, 2)])
def test_circle_transports_match_fan(make_weights, seed):
    # every loop circle of a 4-system stack in closed form from the series,
    # against tol / 10^4 fan transports once around it: clockwise round a
    # puncture and counterclockwise on the big circle, the generator's sense
    ws = make_weights()
    rng = np.random.default_rng(seed)
    residues = _random_residues(ws, rng, 4)
    # one member with exponents off the real axis at infinity
    shift = np.array([0.3j, -0.4j, 0.2j])[: ws.rank]
    _set_infinity_exponents(residues[2], ws.infinity_exponents + shift, rng)
    loops = fuchs.MonodromyLoops(ws)
    tol = 1e-9
    got = loops._circle_transports(residues, tol)[0]
    assert got.shape == (4, ws.n, ws.rank, ws.rank)
    turns = [-2 * np.pi] * (ws.n - 1) + [2 * np.pi]
    fan = paths.SegmentFan([paths.Arc(a.center, a.radius, a.angle0, a.angle0 + turn)
                            for a, turn in zip(loops.circles, turns)])
    ref = fuchs.transport(ws.points, residues, fan, np.eye(ws.rank), tol=tol / 1e4)
    for b in range(4):
        for i in range(ws.n):
            scale = numcore.fro(ref.values[-1, b, i])
            assert numcore.fro(got[b, i] - ref.values[-1, b, i]) <= tol / 10 * scale


def test_series_stack_members_match_local_series():
    # 3 systems at every puncture and at infinity in one recursion: each
    # member's G agrees with the series of that system alone at nodes on
    # and inside its radius; the stack runs to the hardest member's count
    ws = _n4_rank3_weights()
    residues = _random_residues(ws, np.random.default_rng(7), 3)
    radii = [0.4, 0.3, 0.5, 0.2]
    tol = 1e-10
    stack = fuchs.series_stack(ws.points, residues, radii, tol)
    assert np.all(stack.tail <= tol / 100)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = np.array(radii) * rng.uniform(0.0, 1.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
        frame = stack.frame(x)
        for b in range(3):
            for p in range(4):
                alone = _series_at(ws.points, residues[b : b + 1], p, radii[p], tol)
                assert alone.tail[p] <= tol / 100
                u = x[p] / alone.scale[p]
                f_alone = sum(c * u**m for m, c in enumerate(alone.coefficients[p]))
                g_alone = f_alone @ np.linalg.inv(alone.coefficients[p, 0])
                s = 4 * b + p
                g_stack = frame[s] @ np.linalg.inv(stack.coefficients[s, 0])
                assert numcore.fro(g_stack - g_alone) <= tol / 100


def test_series_stack_tail_not_converging_raises():
    # one member at q = 0.99 needs thousands of terms: the stack raises
    ws = _n4_rank3_weights()
    residues = _random_residues(ws, np.random.default_rng(9), 2)
    fuchs.series_stack(ws.points, residues, [0.5, 0.5, 0.6, 0.5 / 1.2], 1e-10)
    with pytest.raises(numcore.NumericalError, match="tail"):
        fuchs.series_stack(ws.points, residues, [0.5, 0.5, 0.6, 0.99 / 1.2], 1e-10)


def _series_by_convolution(points, residues, series, tol):
    """The reference for series_stack: the direct convolution
    m G_m + [L, G_m] = -sum_{k+l=m-1} B_k G_l over all earlier orders, with
    B_k = -sum_j t_j^(k+1) A~_j, on the members of series (its eigenbasis
    V = coefficients[:, 0], exponents and scales).  Returns the coefficients
    V g_m up to the first order whose tail bound is <= tol / 100 for every
    member, and the tails there."""
    pts, p = np.asarray(points, dtype=complex), len(series.scale)
    v = series.coefficients[:, 0]
    s, r = v.shape[:2]
    t = np.array([sc * pts if i == p - 1 else sc / np.where(np.arange(len(pts)) == i, np.inf, pts - pts[i])
                  for i, sc in enumerate(series.scale)])[np.arange(s) % p]
    v_inv = np.linalg.inv(v)
    a_e = v_inv[:, None] @ np.asarray(residues)[np.arange(s) // p] @ v[:, None]
    gaps = series.exponents[:, :, None] - series.exponents[:, None, :]
    q = np.tile(series.radius / series.scale, s // p)
    b_k, g, norms = [], [np.broadcast_to(np.eye(r), (s, r, r))], [np.full(s, np.sqrt(r))]
    for m in range(1, fuchs.SERIES_MAX_TERMS + 1):
        b_k.append(-np.einsum("sj,sjab->sab", t**m, a_e))
        g.append(sum(b_k[k] @ g[m - 1 - k] for k in range(m)) / -(m + gaps))
        norms.append(np.linalg.norm(v @ g[m] @ v_inv, axis=(1, 2)))
        tail = np.max(norms[-4:], axis=0) * q ** (m + 1) / (1 - q)
        if tail.max() <= tol / 100:
            return v[:, None] @ np.stack(g, axis=1), tail
    raise AssertionError("the reference series does not converge")


def _fixture_series_input():
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    loops = fuchs.MonodromyLoops(ws)
    residues = fuchs.rank2_rigid_residues(ws)[None]
    return ws.points, residues, loops.radii, fuchs.TRANSPORT_TOL


def _rank3_series_input():
    ws = _n4_rank3_weights()
    residues = _random_residues(ws, np.random.default_rng(7), 3)
    return ws.points, residues, [0.4, 0.3, 0.5, 0.2], 1e-10


def _criterion9_jacobian_series_input():
    # the 2 dim = 24 chart points of the central-difference Jacobian at the
    # solved criterion-9 center, as an LM step evaluates them
    ws = _n4_rank2_weights()
    center = moduli.random_admissible_rep(ws, seed=5)
    system, report = rhsolve.solve(ws, center, opts=rhsolve.SolveOptions(seed=3))
    assert report.success
    parm = rhsolve.parametrization_from_system(system)
    shift = np.diag(rhsolve.FD_STEP * np.ones(parm.dim))
    residues = parm.residues(np.concatenate([shift, -shift]))
    loops = fuchs.MonodromyLoops(ws)
    return ws.points, residues, loops.radii, rhsolve.JACOBIAN_TOL


@pytest.mark.parametrize(
    "make_input",
    [_fixture_series_input, _rank3_series_input, _criterion9_jacobian_series_input],
    ids=["rank2-fixture", "rank3-stack", "criterion9-jacobian"],
)
def test_series_stack_matches_the_direct_convolution(make_input):
    # the partial-sum recursion against the convolution over all earlier
    # orders: the same count and tails, and coefficients that agree to
    # 1e-13 of each member's largest
    points, residues, radii, tol = make_input()
    series = fuchs.series_stack(points, residues, radii, tol)
    want, tail = _series_by_convolution(points, residues, series, tol)
    assert series.coefficients.shape == want.shape
    assert series.coefficients.shape[0] == len(residues) * len(radii)
    largest = np.abs(want).max(axis=(1, 2, 3))
    err = np.abs(series.coefficients - want).max(axis=(1, 2, 3))
    assert np.all(err <= 1e-13 * largest)
    np.testing.assert_allclose(series.tail, tail, rtol=1e-12, atol=0)


def _resonant_at_zero(gap):
    """One system at 0 and 1 whose residue at 0 has eigenvalues 0.2 and 0.2 + gap."""
    c = np.array([[1.0, 0.3], [0.2, 1.0]])
    a0 = c @ np.diag([0.2, 0.2 + gap]) @ np.linalg.inv(c)
    return np.array([[a0, np.diag([0.3, 0.6])]], dtype=complex)


def test_series_stack_resonance_up_to_the_count_raises():
    # eigenvalues 0.2 and 3.2 at 0: the divisor 3 + 0.2 - 3.2 vanishes at
    # order 3, well below the count at q = 1/2
    with pytest.raises(fuchs.ResonanceError, match="at order 3$"):
        _series_at([0.0, 1.0], _resonant_at_zero(3.0), 0, 0.5, 1e-10)


def test_series_stack_resonance_beyond_the_count_is_not_reached():
    # a gap of 12 + 1e-9: near-resonant at order 12; at q = 1/100 the tail
    # is below tol / 100 before that order and the series is returned, at
    # q = 1/2 the count would pass order 12, and the stack raises naming it
    residues = _resonant_at_zero(12.0 + 1e-9)
    series = _series_at([0.0, 1.0], residues, 0, 0.01, 1e-10)
    assert series.coefficients.shape[1] - 1 < 12
    assert series.tail[0] <= 1e-12
    with pytest.raises(fuchs.ResonanceError, match="at order 12$"):
        _series_at([0.0, 1.0], residues, 0, 0.5, 1e-10)


def test_series_stack_diverging_member_raises_without_warnings():
    # a conjugator with an entry of 1e8 makes the coefficients overflow
    # (first at order 77): the recursion stops at the first order
    # that is not finite, with the tail NumericalError, and numpy warns of
    # no overflow on the way
    g = np.array([[1.0, 1e8], [0.0, 1.0]])
    h = np.array([[1.0, 0.5], [-0.3, 1.0]])
    residues = np.array([[g @ np.diag([0.2, 0.6]) @ np.linalg.inv(g),
                          h @ np.diag([0.1, 0.8]) @ np.linalg.inv(h)]], dtype=complex)
    with pytest.raises(numcore.NumericalError, match="tail not finite at order"):
        fuchs.series_stack([0.0, 1.0], residues, [0.5, 0.5, 0.5], 1e-9)


def test_monodromy_resonant_infinity_member_raises():
    # the second of three systems has exponents -0.3 and -2.3 at infinity: its
    # order-2 divisor vanishes, and the whole stack raises
    ws = _n4_rank2_weights()
    rng = np.random.default_rng(10)
    residues = _random_residues(ws, rng, 3)
    _set_infinity_exponents(residues[1], np.array([-0.3, -2.3]), rng)
    loops = fuchs.MonodromyLoops(ws)
    loops.monodromy(residues[[0, 2]], 1e-9)
    with pytest.raises(fuchs.ResonanceError, match="order 2"):
        loops.monodromy(residues, 1e-9)
