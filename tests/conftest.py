import numpy as np
import pytest

from rhwznw import fuchs, paths, rhsolve, wznw


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", []) if mod else []
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def puncture_loop(weights, i, basepoint):
    """The basepoint loop around puncture i: the loop set's approach leg,
    its full circle, and the approach run back."""
    approach, circle = fuchs._approach_leg(weights, i, basepoint)
    back = [paths.Line(s.end, s.start) if isinstance(s, paths.Line)
            else paths.Arc(s.center, s.radius, s.angle1, s.angle0) for s in reversed(approach)]
    return approach + [circle] + back


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
