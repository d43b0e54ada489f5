import os

import numpy as np
import pytest
from hypothesis import settings

from rhwznw import fuchs, paths, rhsolve, wznw

# HYPOTHESIS_PROFILE=ci draws every property test's examples from a fixed
# seed, so that two runs of one tree test the same inputs
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", []) if mod else []
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def reversed_path(path):
    """The path of Line and Arc segments run backwards."""
    return [paths.Line(s.end, s.start) if isinstance(s, paths.Line)
            else paths.Arc(s.center, s.radius, s.angle1, s.angle0) for s in reversed(path)]


def transport_path(points, residues, path, start, tol):
    """One system (n-1, r, r) or a stack (S, n-1, r, r) from start along a
    piecewise path: one fuchs.transport call per segment on a one-member
    SegmentFan.  Returns the end values, (r, r) or (S, r, r), and the
    summed step count.  No clearance check is made."""
    y, steps = start, 0
    for seg in path:
        out = fuchs.transport(points, residues, paths.SegmentFan([seg]), y, tol=tol)
        y, steps = out.values[-1], steps + out.step_count
    return y[..., 0, :, :], steps


def puncture_loop(weights, i):
    """The loop around puncture i from the loop set's basepoint z0: its
    approach leg, its full circle, and the approach run back."""
    approach = weights.loops.approaches[i]
    return approach + [weights.loops.circles[i]] + reversed_path(approach)


def off_curve_integrals(web, delta):
    """A stand-in for TransportWeb.integrals_at whose totals, counterterm
    included, are +1 and -1 in turn along the halving delta schedule: a
    sawtooth that lies off every S + C delta^kappa + C2 delta^2 curve."""
    k1, k2 = web.field.weights.counterterm_coefficients()
    sign = (-1.0) ** round(np.log2(wznw.DELTA_SCHEDULE[0] / delta))
    return sign - 2 * np.pi * np.log(delta) * (k1 + k2), 0.0


def _segment_log_increment(seg, w, pieces):
    ts = np.linspace(0.0, 1.0, pieces + 1)
    pts = seg.point(ts) - w
    ratios = pts[1:] / pts[:-1]
    if np.any(np.abs(np.angle(ratios)) > 2.5):
        if pieces > 1 << 16:
            raise paths.ProximityError("log increment cannot resolve the branch")
        return _segment_log_increment(seg, w, 4 * pieces)
    return complex(np.sum(np.log(ratios)))


def path_log_increment(path, w):
    """Continuous increment of log(z - w) along the path.

    Each segment is subdivided, from 64 pieces up, finely enough that
    consecutive ratios stay well away from the principal branch cut, so
    summing principal logs of the ratios tracks the continuous branch
    exactly.
    """
    return sum((_segment_log_increment(seg, w, 64) for seg in path), 0.0 + 0.0j)


def direct_sum(points, components):
    """A direct sum of rank-1 systems on the points: (system, target, S).

    components holds r rank-1 weight rows, each one weight per point and a
    last one at infinity.  The residues are diag(c_k) at every puncture, the
    target's conjugators the permutations that sort each puncture's row
    (build_admissible_rep warns that the tuple is reducible), and S the sum
    of the components' closed-form actions: every density of the action is
    a trace, so S is additive on block-diagonal metrics."""
    comps = np.asarray(components, dtype=float)
    ws = fuchs.build_weight_system(points, np.sort(comps.T, axis=1))
    order = np.argsort(comps.T[:-1], axis=1)
    eye = np.eye(len(comps), dtype=complex)
    with pytest.warns(UserWarning, match="reducible"):
        target = fuchs.build_admissible_rep(ws, eye[:, order].transpose(1, 0, 2))
    residues = np.stack([np.diag(row) for row in comps.T[:-1]]).astype(complex)
    closed = sum(wznw.abelian_action_closed_form(fuchs.build_weight_system(points, c[:, None]))
                 for c in comps)
    return fuchs.FuchsianSystem(ws, residues), target, closed


# (points, weights) of W3, a rank-3 system at n = 4
W3 = ([-1.0, 0.0, 1.0], [[0.1, 0.2, 0.4], [0.15, 0.3, 0.55], [0.2, 0.3, 0.45], [0.05, 0.1, 0.2]])
# a delta schedule finer than wznw.DELTA_SCHEDULE, where the web's bias is
# below 1e-9 on the rigid fixture and on the direct sums
FINE = (1e-3, 5e-4, 2.5e-4, 1.25e-4)

RANK2_POINTS = [0.0, 1.0]
RANK2_ALPHAS = [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]]


@pytest.fixture(scope="session")
def rank2_weights():
    return fuchs.build_weight_system(RANK2_POINTS, RANK2_ALPHAS)


@pytest.fixture(scope="session")
def rank2_target(rank2_weights):
    return fuchs.build_admissible_rep(
        rank2_weights, fuchs.rank2_closure_conjugators(rank2_weights)
    )


@pytest.fixture(scope="session")
def rank2_oracle_system(rank2_weights):
    return fuchs.FuchsianSystem(rank2_weights, fuchs.rank2_rigid_residues(rank2_weights))


@pytest.fixture(scope="session")
def rank2_solved(rank2_weights, rank2_target, rank2_oracle_system):
    system, report = rhsolve.solve(
        rank2_weights,
        rank2_target,
        init=rank2_oracle_system,
        opts=rhsolve.SolveOptions(seed=7, restarts=3),
    )
    assert report.success
    return system, report


@pytest.fixture(scope="session")
def rank2_field(rank2_solved, rank2_target):
    system, _ = rank2_solved
    return wznw.make_metric_field(system, rank2_target)


@pytest.fixture(scope="session")
def rank1_weights():
    return fuchs.build_weight_system([-1.3, 0.0, 1.0], [[0.3], [0.45], [0.8], [0.45]])


@pytest.fixture(scope="session")
def rank1_target(rank1_weights):
    eye = [np.eye(1, dtype=complex)] * 3
    return fuchs.build_admissible_rep(rank1_weights, eye)


@pytest.fixture(scope="session")
def rank1_system(rank1_weights):
    residues = np.array([[[0.3]], [[0.45]], [[0.8]]], dtype=complex)
    return fuchs.FuchsianSystem(rank1_weights, residues)


@pytest.fixture(scope="session")
def rank1_field(rank1_system, rank1_target):
    return wznw.make_metric_field(rank1_system, rank1_target)
