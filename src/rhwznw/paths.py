"""Piecewise paths in the punctured plane.

A path is a list of segments, each parameterized over t in [0, 1]; its
point_and_velocity(t) gives the point and the analytic derivative.
Straight lines and circular arcs are enough for the loops and radial
marches used here.  ``plan_route`` builds a segment list between two
points that keeps a prescribed clearance from every puncture by inserting
circular detours.  A fan holds L member paths on one parameter, for
transporting systems along all of them at once: a SegmentFan of arbitrary
Line and Arc members, or a RayFan of log-radial rays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProximityError(RuntimeError):
    """A path passes too close to a singular point."""


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def point(self, t):
        return self.start + t * (self.end - self.start)

    def point_and_velocity(self, t):
        return self.point(t), (self.end - self.start) * np.ones_like(np.asarray(t, dtype=float))

    def distance_to(self, w: complex) -> float:
        d = self.end - self.start
        if abs(d) == 0:
            return abs(self.start - w)
        t = np.clip(((w - self.start) / d).real, 0.0, 1.0)
        return abs(self.start + t * d - w)


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    angle0: float
    angle1: float  # signed sweep: angle1 < angle0 traverses clockwise

    def point(self, t):
        ang = self.angle0 + t * (self.angle1 - self.angle0)
        return self.center + self.radius * np.exp(1j * ang)

    def point_and_velocity(self, t):
        ang = self.angle0 + t * (self.angle1 - self.angle0)
        e = np.exp(1j * ang)
        return self.center + self.radius * e, 1j * (self.angle1 - self.angle0) * self.radius * e

    def distance_to(self, w: complex) -> float:
        if abs(w - self.center) < 1e-300:
            return self.radius
        ang = np.angle(w - self.center)
        lo, hi = sorted((self.angle0, self.angle1))
        # bring ang into [lo, lo + 2*pi)
        k = np.floor((ang - lo) / (2 * np.pi))
        ang = ang - 2 * np.pi * k
        if ang <= hi:
            return abs(abs(w - self.center) - self.radius)
        return min(abs(self.point(0.0) - w), abs(self.point(1.0) - w))


Segment = Line | Arc


class SegmentFan:
    """L member segments on one t in [0, 1], member l the Line or Arc
    segments[l] with its own parametrization; point_and_velocity(t) maps t
    (T,) to (T, L).  Every member is read as start + t d + radius
    e^{i(angle0 + t sweep)}, a Line with radius 0 and an Arc with d = 0, so
    each member's values are exactly its segment's own.  A zero-length Line
    has velocity 0: a member on it does not move."""

    def __init__(self, segments):
        self.segments = tuple(segments)
        rows = [(s.start, s.end - s.start, 0.0, 0.0, 0.0) if isinstance(s, Line)
                else (s.center, 0.0, s.radius, s.angle0, s.angle1 - s.angle0)
                for s in self.segments]
        cols = np.array(rows, dtype=complex).T
        self._start, self._d = cols[:2]
        self._radius, self._angle0, self._sweep = cols[2:].real

    def point_and_velocity(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        e = np.exp(1j * (self._angle0 + t * self._sweep))
        return (self._start + t * self._d + self._radius * e,
                self._d + 1j * self._sweep * self._radius * e)


class RayFan:
    """Rays center[l] + e^{s + i phis[l]}, member l running from s = s0[l]
    to s1[l]; point_and_velocity(t) maps t (T,) to (T, L).  A scalar center,
    s0 or s1 is shared by every member.  e^{i phis} is taken once, so a
    point costs one real exp."""

    def __init__(self, center, phis, s0, s1):
        self.center = center  # scalar or (L,)
        self.phis = phis      # (L,)
        self.s0 = s0          # (L,) or a scalar
        self.s1 = s1          # (L,) or a scalar
        self._turn = np.exp(1j * np.asarray(phis))

    def point_and_velocity(self, t):
        e = np.exp(self.s0 + np.asarray(t)[..., None] * (self.s1 - self.s0)) * self._turn
        return self.center + e, e * (self.s1 - self.s0)


def path_min_distance(path: list[Segment], w: complex) -> float:
    return min(seg.distance_to(w) for seg in path)


def circle(center: complex, radius: float, start_angle: float) -> Arc:
    """The full counterclockwise circle entered at start_angle."""
    return Arc(center, radius, start_angle, start_angle + 2 * np.pi)


def plan_route(
    a: complex,
    b: complex,
    keepouts: list[tuple[complex, float]],
    depth: int = 0,
) -> list[Segment]:
    """Segments from a to b keeping distance r_k from each keepout center.

    Straight line if clear; otherwise detour around the most intruding
    keepout along its clearance circle, recursing on the two remaining
    pieces.
    """
    if depth > 8:
        raise ProximityError("route planning recursion limit; geometry too tight")
    seg = Line(a, b)
    worst, worst_pen = None, 0.0
    for center, r in keepouts:
        pen = r - seg.distance_to(center)
        if pen > 1e-12 and pen > worst_pen:
            worst, worst_pen = (center, r), pen
    if worst is None:
        return [seg]
    center, r = worst
    if abs(a - center) < r * (1 - 1e-9) or abs(b - center) < r * (1 - 1e-9):
        raise ProximityError("route endpoint inside a keepout disk")
    d = b - a
    # intersections of the line with the clearance circle
    t0 = ((center - a) / d).real
    foot = a + t0 * d
    h2 = r * r - abs(foot - center) ** 2
    half = np.sqrt(max(h2, 0.0)) / abs(d)
    t1, t2 = np.clip(t0 - half, 0.0, 1.0), np.clip(t0 + half, 0.0, 1.0)
    p1, p2 = a + t1 * d, a + t2 * d
    # project entry/exit onto the circle and connect by the shorter arc
    q1 = center + r * (p1 - center) / abs(p1 - center)
    q2 = center + r * (p2 - center) / abs(p2 - center)
    a1, a2 = np.angle(q1 - center), np.angle(q2 - center)
    sweep = np.angle(np.exp(1j * (a2 - a1)))
    route: list[Segment] = []
    route += plan_route(a, q1, [k for k in keepouts if k[0] != center], depth + 1)
    route.append(Arc(center, r, a1, a1 + sweep))
    route += plan_route(q2, b, [k for k in keepouts if k[0] != center], depth + 1)
    return route
