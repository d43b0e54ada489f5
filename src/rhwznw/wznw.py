"""Singular Hermitian metric, WZNW densities, and the regularized action.

The metric field h(z) = (Y(z) Y(z)*)^{-1} of the canonically normalized
fundamental solution Y is read as the action's web reaches its nodes
(Transport, below), by the loop series' one region rule: from the local
series inside a puncture's ring and on and beyond the basepoint's circle
|z| = |z0|, and along one outward ray from the nearest puncture's ring
everywhere else.  The regularized action is

    S = lim_{delta -> 0} [ int_{X_delta} (kinetic + topological) d2z
        + 2 pi log(delta) (K1 + K2) ]

with X_delta the plane minus delta-disks at the finite punctures minus
the outside of the 1/delta circle, K1 the sum of squared finite weights
and K2 the sum of squared exponents at infinity.  With K = b A b^{-1}
(b the upper Cholesky factor of h) split into strict upper u, diagonal
d, strict lower l parts,

    kinetic     = tr(A h^{-1} A* h) = |u|^2 + |d|^2 + |l|^2,
    topological = |l|^2 - |u|^2,

so the combined integrand is |d|^2 + 2|l|^2 >= 0.

Densities come from Y without forming h: factor Y = R Q, R upper
triangular with positive diagonal and Q unitary.  Then h = b* b with
b = R^{-1}, so K = R^{-1} A R.  R is read off the rows of Y by
Gram-Schmidt and K by back-substitution on whole node vectors; no
Y Y* is formed, so cond(Y), not its square, sets the rounding error.
MetricField.h_at builds h = b* b from the same R.

Quadrature: the plane is tiled exactly by star-shaped polar patches (one
per finite puncture, bounded by Voronoi bisectors and the outer circle
|z| = |z0|) plus a log-polar annulus from there to 1/delta.  Radial
directions use Gauss-Legendre panels in log-radius with panel edges
aligned to the delta schedule, so one transported web serves every delta
at once.  Full circles use the periodic trapezoid rule in the angle, each
with the fewest angles at which the local series' convergence ratio q on
it leaves no aliased Fourier mode above ANGLE_ALIAS_TOL (_angle_counts),
at most 64 since q <= 1/2 there (fuchs.MonodromyLoops); the outward patch
regions, whose radial extent is only piecewise smooth in the angle, use
Gauss-Legendre panels split at the boundary kinks, the patch's corners,
where its bisectors and the outer circle meet (_kink_angles).  Every Gauss-Legendre panel has order
GL_ORDER, so the quadrature follows from the points, the loop series and
the delta schedule alone.  The web counts its nodes from these rules
first and refuses more than WEB_NODE_LIMIT of them.

Transport: near each puncture and near infinity Y is a convergent
Frobenius series times a power.  The normalization at infinity already
holds it: the monodromy loops' one fuchs.SeriesStack over all n points, in
the canonical gauge, which describes Y on every member, matched at the
loop circle's entry to the approach leg's transport, on the branch that
starts there.  A patch's ring is its puncture's loop circle.  The series gives the ring values,
every inward node of a patch and the whole outer region, so the web
builds no series and transports no ring entry; only the outward rays,
from the ring to the Voronoi or outer boundary, are transported: the rays
of all patches as the members of one adaptive fan call
(fuchs.transport_fan), with a stop at every Gauss-Legendre node, read
off the kernel's dense output, so the stops cost no steps.  The inward
nodes of a patch and the outer region lie on circles, each circle at its
own angle count; all nodes of a region are one pointwise series
evaluation (fuchs.SeriesStack.values), and A at all nodes of a region is
one product.  A patch takes it from the nodes' offsets
x = z - z_i, A_i / x + sum_{j != i} A_j / (x + z_i - z_j), which keep their
digits however close to z_i; the outer region uses FuchsianSystem.A_of.

The two identity checks take stacks: three_form_pair a (..., r, r) stack
of metrics and directions, all their Cholesky differentials one call, and
flatness_residual a broadcast stack of stencil centers and steps, all
their lines one fan.  A single input is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import factor, fuchs, paths, rhsolve
from .numcore import NumericalError, adjoint, as_cstack, fro


class RegularLocusError(RuntimeError):
    """Field not canonically normalized on the regular locus."""


class UnreliableExtrapolationError(NumericalError):
    pass


class MonodromyQualityError(NumericalError):
    """The field's monodromy is not unitary, so h is not single-valued."""


# largest MetricField.monodromy_quality at which h counts as single-valued
MONODROMY_QUALITY_GATE = 1e-6
# the default delta schedule of the action's extrapolation
DELTA_SCHEDULE = (0.1, 0.05, 0.025, 0.0125)
# largest delta-fit residual, relative to max(|S|, spread of the totals)
FIT_TOLERANCE = 1e-2
# Gauss-Legendre panels along every outward ray of the web
OUTWARD_PANELS = 2
# largest log-radius length of one radial Gauss-Legendre panel
MAX_PANEL_SPAN = 0.8
# order of every Gauss-Legendre panel of the web: radial, outward and angular
GL_ORDER = 8
# largest q^N on a series-grid circle of N trapezoid angles, q the series'
# convergence ratio there: the size of the first Fourier mode that aliases
ANGLE_ALIAS_TOL = 1e-17
# most nodes of one quadrature web, 144 times the 6,904 of the default
# schedule on the rank-2 fixture
WEB_NODE_LIMIT = 1_000_000
# largest delta_min^(-g) of an action schedule, g the largest exponent gap
# of the weights and at infinity: Y's condition number grows like it at the
# web's innermost and outermost circles.  On the rigid rank-2 fixture
# (g = 1/4) S at delta_min 1e-36 (1e9) agrees with delta_min 1e-20 to
# 1.8e-12, at 1e-44 (1e11) reads 1.5e-10 off, at 1e-50 (3.2e12) 1.6e-7 and
# at 1e-60 1.6e-2: the error grows like the square of delta_min^(-g).
DELTA_CONDITION_LIMIT = 1e10
# outer over inner radius of annulus_kinetic_integral's annulus
ANNULUS_RATIO = 2.0
# central-difference step of three_form_pair's d omega
THREE_FORM_STEP = 1e-5


# ---------------------------------------------------------------------------
# densities


def densities(y: np.ndarray, A: np.ndarray):
    """(kinetic, topological) densities of the metric h = (Y Y*)^{-1} and A,
    for one Y or a (..., r, r) stack; A broadcasts against it.

    With Y = R Q (R upper triangular with positive diagonal, Q unitary),
    h = b* b for b = R^{-1}, the upper Cholesky factor of h.  Then
    K = b A b^{-1} = R^{-1} A R, kinetic = tr(A h^{-1} A* h) = |K|^2 >= 0 and
    topological = |l|^2 - |u|^2, u and l the strict upper and lower parts
    of K.  R comes from the rows of Y itself, so the condition number of Y
    is never squared, as it is in Y Y*.
    """
    y = np.asarray(y, dtype=complex)
    R = _upper_factor(_entries(y))
    a = _entries(np.broadcast_to(np.asarray(A, dtype=complex), y.shape))
    # A R by r broadcast rank-1 updates: column k of A times row k of R
    m = a[:, :1] * R[:1]
    for k in range(1, len(R)):
        m += a[:, k : k + 1] * R[k : k + 1]
    K = _back_substitute(R, m)
    absK2 = K.real**2 + K.imag**2
    iu, ju = np.triu_indices(len(R), 1)
    kinetic = np.sum(absK2, axis=(0, 1))
    topological = np.sum(absK2[ju, iu], axis=0) - np.sum(absK2[iu, ju], axis=0)
    return kinetic.reshape(y.shape[:-2])[()], topological.reshape(y.shape[:-2])[()]


def _entries(x: np.ndarray) -> np.ndarray:
    """A copy of a (..., r, r) stack as an (r, r, N) array whose entries are
    contiguous node vectors: every step below is then an operation on whole
    vectors, and may overwrite them."""
    r = x.shape[-1]
    return np.moveaxis(x.reshape(-1, r, r), 0, -1).copy()


def _upper_factor(v: np.ndarray) -> np.ndarray:
    """R of Y = R Q for every node of an (r, r, N) entry array v, which is
    overwritten: R upper triangular with positive real diagonal, Q unitary.

    Modified Gram-Schmidt on the rows of Y, from the last row up: the
    residual of row i, once the rows below it are projected out, gives R_ii
    and the unit row q_i, and its component along q_i leaves every row above
    it at once.  The only loop runs over the r rows.
    """
    R = np.zeros_like(v)
    for i in range(len(v) - 1, -1, -1):
        row = v[i]
        norm = np.sqrt(np.sum(row.real**2 + row.imag**2, axis=0))
        R[i, i] = norm
        q = row / norm
        c = np.sum(v[:i] * q.conj(), axis=1)
        R[:i, i] = c
        v[:i] -= c[:, None] * q
    return R


def _back_substitute(R: np.ndarray, m: np.ndarray) -> np.ndarray:
    """R^{-1} m for (r, r, N) entry arrays, R upper triangular, row by row
    from the last; m is overwritten and returned."""
    for i in range(len(R) - 1, -1, -1):
        m[i] -= np.sum(R[i, i + 1 :, None] * m[i + 1 :], axis=0)
        m[i] /= R[i, i]
    return m


def _metric_from_factor(y: np.ndarray) -> np.ndarray:
    """h = (Y Y*)^{-1} = b* b with b = R^{-1} from Y = R Q, made exactly
    Hermitian, for one Y or a (..., r, r) stack."""
    R = _upper_factor(_entries(y))
    b = _back_substitute(R, np.repeat(np.eye(len(R), dtype=complex)[:, :, None], R.shape[-1], axis=2))
    h = np.einsum("kin,kjn->nij", b.conj(), b)
    h = 0.5 * (h + adjoint(h))
    return h.reshape(np.shape(y))


# ---------------------------------------------------------------------------
# metric field


@dataclass(frozen=True)
class MetricField:
    """Canonically normalized solution, read as the action's web reads it.

    series is the normalization's loop series, describing Y on each member
    (NormalizationResult).  y_at(z) depends on z alone: with z_i the
    puncture nearest z, Y comes from z_i's member of the series inside its
    ring (its loop circle), from the member at infinity for |z| >= |z0|,
    and otherwise from one outward ray from the ring to z
    (fuchs.transport_fan on a paths.RayFan), the rule by which the web
    reaches its nodes.  h(z) is path independent because the monodromy is
    unitary (to solver tolerance).
    make_metric_field builds a field only on the regular locus, so every
    field is regular.
    """

    system: fuchs.FuchsianSystem
    basepoint: complex
    basepoint_value: np.ndarray
    series: fuchs.SeriesStack
    monodromy_quality: float

    @property
    def weights(self) -> fuchs.WeightSystem:
        return self.system.weights

    def min_distance_to_punctures(self, z: complex) -> float:
        return float(np.min(np.abs(np.asarray(self.system.points) - z)))

    def y_at(self, z: complex) -> np.ndarray:
        z = complex(z)
        pts = np.asarray(self.system.points)
        i = int(np.argmin(np.abs(pts - z)))
        x = z - pts[i]
        rho, phi = abs(x), float(np.angle(x))
        if rho < 1e-8:
            raise paths.ProximityError(f"evaluation point {z} too close to a puncture")
        ring = float(self.series.radius[i])
        if rho <= ring:
            return self.series.values(i, rho, phi)
        if abs(z) >= abs(self.basepoint):
            # the member at infinity, last of the field's one-system stack
            return self.series.values(-1, abs(z), float(np.angle(z)))
        fan = paths.RayFan(pts[i], np.array([phi]), np.log(ring), np.log(rho))
        start = self.series.values(i, ring, phi)
        return fuchs.transport_fan(pts, self.system.residues, fan, start).values[-1, 0]

    def h_at(self, z: complex) -> np.ndarray:
        return _metric_from_factor(self.y_at(z))


def make_metric_field(
    system: fuchs.FuchsianSystem,
    target: fuchs.AdmissibleRep,
    normalization: rhsolve.NormalizationResult | None = None,
) -> MetricField:
    """Normalize a solved system at infinity and wrap it as a metric field.

    normalization, when given, is the system's normalize_at_infinity result
    (SolveReport.normalization) and is used as it is.  A normalization whose
    large_cell_flag is False raises RegularLocusError, the one refusal of
    the regular locus (rhsolve.normalize_at_infinity).  monodromy_quality is
    the largest ||M M* - I||_F over its aligned generators: the monodromy
    of the canonical solution in the gauge of its basepoint value, where
    unitarity is what makes h single-valued.  A field above
    MONODROMY_QUALITY_GATE is still built, so that its quality can be read;
    action_regularized refuses it.
    """
    norm = normalization or rhsolve.normalize_at_infinity(system, target)
    if not norm.large_cell_flag:
        raise RegularLocusError(
            f"not on the regular locus (splitting {system.weights.splitting.m}): a scalar "
            "splitting needs an invertible constant term at infinity, and a non-scalar "
            "one is not decided"
        )
    eye = np.eye(system.weights.rank)
    quality = max(fro(m @ m.conj().T - eye) for m in norm.aligned_generators)
    return MetricField(
        system=norm.canonical_system,
        basepoint=norm.basepoint,
        basepoint_value=norm.basepoint_value,
        monodromy_quality=float(quality),
        series=norm.series,
    )


# ---------------------------------------------------------------------------
# local series regions


def _angle_counts(series: fuchs.SeriesStack, at: int | None, rho: np.ndarray) -> np.ndarray:
    """Trapezoid angles of the series-grid circles of radii rho about the
    center of region `at`: the fewest N, a multiple of 8 and at least 8,
    with q^N <= ANGLE_ALIAS_TOL.  q = |x| / scale is the series' convergence
    ratio on the circle, x = rho at a patch and 1 / rho at infinity; the
    grids keep q <= 1/2, so N <= 64."""
    q = (1.0 / rho if at is None else rho) / series.scale[-1 if at is None else at]
    n = 8 * np.ceil(np.log(ANGLE_ALIAS_TOL) / (8 * np.log(q)))
    return np.maximum(n, 8).astype(int)


def _series_grid(fld: MetricField, at: int | None, radial):
    """Node offsets x = z - center, radii, area weights and Y of one region,
    the patch at puncture `at` or, for at = None, the outer region (center
    0), on the circles of the log-radius rule radial = (s, weights), each
    flattened circle by circle.  Y comes from the region's member of the
    field's loop series (fuchs.SeriesStack.values).

    The circle of radius rho takes _angle_counts trapezoid angles.  The
    densities there are periodic and analytic in the angle, with Fourier
    modes decaying like q^|m| (q <= 1/2 on and inside the ring, and on and
    beyond the outer circle |z| = |z0|), so N angles
    err only by the aliased modes, of size q^N, and no circle takes more
    than 64.  The nodes of all circles, each circle at its own count, are
    one pointwise series evaluation.
    """
    s, w_s = radial
    rho = np.exp(s)
    counts = _angle_counts(fld.series, at, rho)
    circle = np.repeat(np.arange(len(rho)), counts)
    # each node's position on its circle, and its circle's angle count
    k = np.arange(len(circle)) - np.repeat(np.cumsum(counts) - counts, counts)
    n = counts[circle]
    phis = 2 * np.pi * (k + 0.5) / n
    x = rho[circle] * np.exp(1j * phis)
    wt = (w_s * np.exp(2 * s) * (2 * np.pi / counts))[circle]
    y = fld.series.values(-1 if at is None else at, rho[circle], phis)
    return x, rho[circle], wt, y


def _region_A(system: fuchs.FuchsianSystem, at: int | None, x: np.ndarray) -> np.ndarray:
    """A at the nodes z = z_at + x of the patch at puncture `at`, from their
    offsets x: A_at / x + sum_{j != at} A_j / (x + z_at - z_j).  Forming z
    and then z - z_at would keep only about eps |z_at| / |x| of x's relative
    accuracy.  The outer region (at = None) is centered at 0: A_of(x)."""
    if at is None:
        return system.A_of(x)
    w = 1.0 / (x.reshape(-1, 1) + (system.points[at] - system.points))
    return (w @ system.residues.reshape(w.shape[1], -1)).reshape(x.shape + system.residues.shape[1:])


# ---------------------------------------------------------------------------
# quadrature web


@dataclass
class _WebRegion:
    z: np.ndarray        # nodes; only counted, by bench/tracing.py
    rho: np.ndarray      # distance to the governing center
    weight: np.ndarray   # area weights (already include rho^2 ds dphi)
    kinetic: np.ndarray
    topological: np.ndarray


@lru_cache(maxsize=None)
def _gl_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_nodes(a: float, b: float, order: int):
    x, w = _gl_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _panel_edges(a: float, b: float, max_span: float) -> np.ndarray:
    n = max(1, int(np.ceil((b - a) / max_span)))
    return np.linspace(a, b, n + 1)


def _gl_panels(edges, max_span: float):
    """GL nodes and weights on [edges[0], edges[-1]] with a panel edge at
    every given edge and no panel longer than max_span."""
    fine = [_panel_edges(a, b, max_span) for a, b in zip(edges[:-1], edges[1:])]
    parts = [_gl_nodes(a, b, GL_ORDER) for e in fine for a, b in zip(e[:-1], e[1:])]
    return np.concatenate([x for x, _ in parts]), np.concatenate([w for _, w in parts])


def _log_panels(r_lo: float, r_hi: float, fixed: list[float]):
    """GL nodes and weights in s = log rho on [log r_lo, log r_hi] with panel
    edges at every fixed radius in between."""
    edges = sorted({np.log(r_lo), np.log(r_hi), *[np.log(f) for f in fixed if r_lo < f < r_hi]})
    return _gl_panels(edges, MAX_PANEL_SPAN)


def _patch_constraints(points: np.ndarray, i: int, r_out: float):
    """Per-constraint radial bounds of the star patch at puncture i.

    Constraint 0 is the outer circle, the rest are Voronoi bisectors with
    the other punctures; the patch boundary is their pointwise minimum.
    """
    zi = points[i]
    others = [points[j] for j in range(len(points)) if j != i]

    def bounds(phis: np.ndarray) -> np.ndarray:
        e = np.exp(1j * phis)
        beta = (np.conj(zi) * e).real
        disc = beta**2 + r_out**2 - abs(zi) ** 2
        rows = [-beta + np.sqrt(np.maximum(disc, 0.0))]
        for zj in others:
            d = zj - zi
            denom = (np.conj(d) * e).real
            with np.errstate(divide="ignore"):
                rows.append(
                    np.where(denom > 1e-12, (abs(d) ** 2) / (2 * denom), np.inf)
                )
        return np.stack(rows)

    return bounds


def _voronoi_rho_max(points: np.ndarray, i: int, phis: np.ndarray, r_out: float) -> np.ndarray:
    """Star-shaped patch boundary: nearest Voronoi bisector or outer circle."""
    return np.min(_patch_constraints(points, i, r_out)(np.asarray(phis, dtype=float)), axis=0)


def _kink_angles(points: np.ndarray, i: int, r_out: float) -> np.ndarray:
    """Angles about z_i of the corners of the patch at puncture i, its
    Voronoi cell clipped by the outer circle, sorted in [0, 2 pi): the kinks
    of its boundary, where the active constraint of _patch_constraints
    switches.

    In the offset x = z - z_i the bisector with z_j is Re(conj(d) x) =
    |d|^2 / 2, d = z_j - z_i.  Every pair of bisectors and every bisector
    with the outer circle meet in candidate points; the corners are those
    on or inside every constraint, each taken once (cocircular punctures
    give one corner from several pairs).  A handful of points: plain
    Python on complex scalars is several times faster than numpy here."""
    zi = complex(points[i])
    ds = [complex(z) - zi for j, z in enumerate(points) if j != i]
    xs = []
    for a, da in enumerate(ds):
        # two bisectors meet at i (|d_k|^2 d_j - |d_j|^2 d_k) / (2 Im(conj(d_j) d_k))
        for db in ds[a + 1 :]:
            det = (da.conjugate() * db).imag
            if abs(det) > 1e-12 * abs(da * db):
                xs.append(1j * (abs(db) ** 2 * da - abs(da) ** 2 * db) / (2 * det))
        # the bisector through the midpoint m along u = i d / |d| meets the
        # outer circle |z_i + m + t u| = r_out at t = -b -+ sqrt(...)
        m, u = da / 2, 1j * da / abs(da)
        b = (u.conjugate() * (zi + m)).real
        t = math.sqrt(b * b - abs(zi + m) ** 2 + r_out**2)
        xs += [m - (b + t) * u, m - (b - t) * u]
    # on or inside the outer circle and every bisector, to rounding
    slack = 1 + 1e-9
    phi = sorted(math.atan2(x.imag, x.real) % (2 * np.pi) for x in xs if abs(zi + x) <= r_out * slack
                 and all((d.conjugate() * x).real <= abs(d) ** 2 / 2 * slack for d in ds))
    # a corner found more than once: keep the last of each run of equal angles
    return np.array([p for p, q in zip(phi, phi[1:] + [phi[0] + 2 * np.pi]) if q - p > 1e-12])


class TransportWeb:
    """Transported solution values and densities on the full quadrature web.

    Besides the densities, the web keeps h and A at IMAG_SAMPLE nodes of the
    first patch, spread evenly over its node list, for the check that the
    trace form stays real.  The web spans the smallest delta of the schedule.
    Its nodes are counted from its radial and angular rules before anything
    is evaluated: a web of more than WEB_NODE_LIMIT nodes raises ValueError.
    Then, still before any node is evaluated, a smallest delta with
    delta^(-g) above DELTA_CONDITION_LIMIT, g the largest exponent gap of
    the weight rows and at infinity, raises NumericalError.

    The patches end and the outer region starts on |z| = |z0|, as in y_at.
    Every ring lies inside that circle (fuchs.MonodromyLoops); a ring that
    touches it has outward rays of zero length there (_patch_rays).
    """

    IMAG_SAMPLE = 64

    def __init__(self, fld: MetricField, delta_schedule: tuple):
        self.field = fld
        pts = np.asarray(fld.system.points)
        self.r_out = abs(fld.basepoint)
        if 1.0 / max(delta_schedule) <= 1.2 * self.r_out:
            raise ValueError("largest delta too coarse for the outer region")
        # each patch's ring is its puncture's loop circle
        ring_radii = fld.series.radius[:-1]
        if max(delta_schedule) >= 0.8 * min(ring_radii):
            raise ValueError("largest delta must sit inside every puncture patch")
        delta_min = min(delta_schedule)
        fixed = sorted(set(delta_schedule))
        inward = [_log_panels(delta_min, ring_r, fixed) for ring_r in ring_radii]
        outer = _log_panels(self.r_out, 1.0 / delta_min, [1.0 / d for d in delta_schedule])
        angles = [self._ray_angles(i) for i in range(len(pts))]
        t_nodes, t_weights = _gl_panels(np.linspace(0, 1, OUTWARD_PANELS + 1), 1.0)
        nodes = (sum(int(_angle_counts(fld.series, at, np.exp(s)).sum())
                     for at, (s, _) in [*enumerate(inward), (None, outer)])
                 + len(t_nodes) * sum(len(phi) for phi, _ in angles))
        if nodes > WEB_NODE_LIMIT:
            raise ValueError(f"the quadrature web would have {nodes} nodes, "
                             f"more than WEB_NODE_LIMIT = {WEB_NODE_LIMIT}")
        ws = fld.weights
        gap = max(float(np.max(np.ptp(ws.weights, axis=1))), float(np.ptp(ws.infinity_exponents)))
        if -gap * np.log(delta_min) > np.log(DELTA_CONDITION_LIMIT):
            raise NumericalError(
                f"the smallest delta {delta_min:g} is below {DELTA_CONDITION_LIMIT ** (-1 / gap):.3g}, "
                f"the floor DELTA_CONDITION_LIMIT^(-1/g) for the exponent gap g = {gap:.3g}: "
                "Y is too ill-conditioned there for h"
            )
        # every patch's outward rays are the members of one fan call, with a
        # stop at every Gauss-Legendre node in t
        rays, ring_y = zip(*[self._patch_rays(i, ring_radii[i], phi)
                             for i, (phi, _) in enumerate(angles)])
        fan = paths.RayFan(*map(np.concatenate, zip(*rays)))
        y_out = fuchs.transport_fan(pts, fld.system.residues, fan, np.concatenate(ring_y),
                                    t_nodes).values
        ends = np.cumsum([len(phi) for phi, _ in angles])[:-1]
        self.regions = [
            self._build_patch(i, ray, w_phi, radial, y, t_nodes, t_weights)
            for i, (ray, (_, w_phi), radial, y)
            in enumerate(zip(rays, angles, inward, np.split(y_out, ends, axis=1)))
        ]
        # the outer region from the series at infinity, out to 1 / delta_min
        x, rho, wt, y = _series_grid(fld, None, outer)
        self.regions.append(_WebRegion(x, rho, wt, *densities(y, _region_A(fld.system, None, x))))

    # -- patches ------------------------------------------------------------

    def _ray_angles(self, i: int):
        """The angles of the outward rays of the patch at puncture i and their
        weights.  The boundary rho_max(phi) has kinks at the corners of the
        patch (_kink_angles), at least two since n >= 2, so the angular rule
        is GL on panels split at the kinks (uniform trapezoid would stall at
        N^-2)."""
        kinks = _kink_angles(np.asarray(self.field.system.points), i, self.r_out)
        edges = np.concatenate([kinks, [kinks[0] + 2 * np.pi]])
        return _gl_panels(edges, 2 * np.pi / 12)

    def _patch_rays(self, i: int, ring_r: float, phi: np.ndarray):
        """The outward rays of the patch at puncture i at the angles phi, from
        its ring to the patch boundary, as the RayFan fields (center, phis,
        s0, s1) of one member per ray, and their ring values from the series."""
        pts = np.asarray(self.field.system.points)
        rho_max = _voronoi_rho_max(pts, i, phi, self.r_out)
        rays = (np.full(len(phi), complex(pts[i])), phi, np.full(len(phi), np.log(ring_r)),
                np.log(np.maximum(rho_max, ring_r)))
        return rays, self.field.series.values(i, ring_r, phi)

    def _build_patch(self, i: int, rays, w_rays, radial, y_out, t_nodes, t_weights) -> _WebRegion:
        """The patch at puncture i: its inward nodes from the series, at the
        log-radius rule radial from delta_min to the ring, and its rays'
        values y_out (len(t_nodes), rays, r, r) at the stops t_nodes, w_rays
        their angular weights."""
        x_in, rho_in, wt_in, y_in = _series_grid(self.field, i, radial)
        _, phis, s0, s1 = rays
        span = s1 - s0
        s_out = s0 + t_nodes[:, None] * span[None, :]
        rho_out = np.exp(s_out)
        x_out = rho_out * np.exp(1j * phis)[None, :]
        wt_out = (t_weights[:, None] * span[None, :]) * np.exp(2 * s_out) * w_rays[None, :]

        x = np.concatenate([x_in, x_out.ravel()])
        y = np.concatenate([y_in, y_out.reshape(-1, *y_out.shape[2:])])
        A = _region_A(self.field.system, i, x)
        if i == 0:
            # the trace-form check's sample, spread evenly over the first patch
            idx = np.linspace(0, len(x) - 1, min(self.IMAG_SAMPLE, len(x))).astype(int)
            self.sample_h, self.sample_A = _metric_from_factor(y[idx]), A[idx]
        kin, top = densities(y, A)
        return _WebRegion(z=self.field.system.points[i] + x,
                          rho=np.concatenate([rho_in, rho_out.ravel()]),
                          weight=np.concatenate([wt_in, wt_out.ravel()]), kinetic=kin, topological=top)

    # -- assembly -----------------------------------------------------------

    def integrals_at(self, delta: float) -> tuple[float, float]:
        """(kinetic, topological) integrals over X_delta."""
        kin = top = 0.0
        n_patches = len(self.regions) - 1
        eps = 1e-12
        for region in self.regions[:n_patches]:
            mask = region.rho >= delta * (1 - eps)
            kin += float(np.sum(region.weight[mask] * region.kinetic[mask]))
            top += float(np.sum(region.weight[mask] * region.topological[mask]))
        outer = self.regions[-1]
        mask = outer.rho <= (1.0 / delta) * (1 + eps)
        kin += float(np.sum(outer.weight[mask] * outer.kinetic[mask]))
        top += float(np.sum(outer.weight[mask] * outer.topological[mask]))
        return kin, top


# ---------------------------------------------------------------------------
# regularized action


@dataclass
class ActionResult:
    value: float
    counterterm_k1: float
    counterterm_k2: float
    per_delta: list[tuple[float, float]]
    extrapolation_error: float
    topological_part: float
    kinetic_part: float
    kappa: float
    imag_residual: float
    web_nodes: int  # nodes of the quadrature web
    csv_rows: list[dict]


def decay_exponent(weights: fuchs.WeightSystem) -> float:
    """kappa = min_i 2 (alpha_i1 - alpha_ir + 1): the slowest correction power."""
    w = weights.weights
    return float(np.min(2.0 * (w[:, 0] - w[:, -1] + 1.0)))


def checked_delta_schedule(schedule) -> tuple[float, ...]:
    """The schedule as a tuple of floats in its order; ValueError unless it
    holds at least three values, each finite and positive, no two equal."""
    deltas = tuple(float(d) for d in schedule)
    positive = all(np.isfinite(d) and d > 0 for d in deltas)
    if len(set(deltas)) < max(len(deltas), 3) or not positive:
        raise ValueError(f"need three or more distinct finite positive deltas, got {list(deltas)}")
    return deltas


def action_regularized(
    fld: MetricField,
    delta_schedule: tuple[float, ...] = DELTA_SCHEDULE,
) -> ActionResult:
    """Regularized WZNW action with delta -> 0 extrapolation.

    Integrates the kinetic and topological densities over X_delta for each
    delta in the schedule (checked_delta_schedule), taken in decreasing
    order, adds the log-delta counterterms, and fits
    total(delta) = S + C delta^kappa.  A total that is not finite raises
    NumericalError.  The fit residual is reported and must stay below
    FIT_TOLERANCE * max(|S|, spread of the totals).  A field whose
    monodromy_quality is above MONODROMY_QUALITY_GATE raises
    MonodromyQualityError before any node is evaluated.
    """
    if fld.monodromy_quality > MONODROMY_QUALITY_GATE:
        raise MonodromyQualityError(
            f"monodromy quality {fld.monodromy_quality:.3e} above {MONODROMY_QUALITY_GATE:g}: "
            "the monodromy is not unitary, so h is not single-valued"
        )
    deltas = tuple(sorted(checked_delta_schedule(delta_schedule), reverse=True))
    k1, k2 = fld.weights.counterterm_coefficients()
    # a non-finite value at any node reaches the smallest delta's total,
    # which is checked below, so numpy's overflow warnings would only repeat it
    with np.errstate(all="ignore"):
        web = TransportWeb(fld, deltas)
        integrals = [web.integrals_at(d) for d in deltas]

    rows, totals = [], []
    kin_last = top_last = 0.0
    for d, (kin, top) in zip(deltas, integrals):
        ct = float(2 * np.pi * np.log(d) * (k1 + k2))
        total = kin + top + ct
        if not np.isfinite(total):
            raise NumericalError(f"the total at delta {d:g} is {total}, not finite")
        rows.append(
            {
                "delta": float(d),
                "kinetic": float(kin),
                "topological": float(top),
                "counterterm": ct,
                "total": float(total),
            }
        )
        totals.append(total)
        kin_last, top_last = kin, top

    kappa = decay_exponent(fld.weights)
    dd = np.asarray(deltas)
    # the weight-gap power plus the universal delta^2 background (angular
    # averaging of the local expansions leaves an analytic tail); the two
    # columns merge when kappa is at its maximum 2
    cols = [np.ones_like(dd), dd**kappa]
    if abs(kappa - 2.0) > 0.1 and len(deltas) >= 4:
        cols.append(dd**2)
    design = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(totals), rcond=None)
    fit = design @ coef
    resid = float(np.max(np.abs(fit - totals)))
    value = float(coef[0])
    spread = float(np.max(totals) - np.min(totals))
    if resid > FIT_TOLERANCE * max(abs(value), spread, 1e-12):
        raise UnreliableExtrapolationError(
            f"delta-fit residual {resid:.3e} vs value {value:.3e} (spread {spread:.3e})"
        )
    # densities are assembled from norms, so the imaginary part can only
    # enter through the trace form; track it at a sample of web nodes
    imag_residual = _imag_residual_sample(web)
    return ActionResult(
        value=value,
        counterterm_k1=k1,
        counterterm_k2=k2,
        per_delta=[(float(d), float(t)) for d, t in zip(deltas, totals)],
        extrapolation_error=resid,
        topological_part=top_last,
        kinetic_part=kin_last,
        kappa=kappa,
        imag_residual=imag_residual,
        web_nodes=sum(len(region.rho) for region in web.regions),
        csv_rows=rows,
    )


def _imag_residual_sample(web: TransportWeb) -> float:
    """max |Im tr(A h^{-1} A* h)| / |Re ...| over the web's sample nodes."""
    h, A = web.sample_h, web.sample_A
    Ah = adjoint(A)
    val = np.trace(A @ np.linalg.solve(h, Ah @ h), axis1=-2, axis2=-1)
    return float(np.max(np.abs(val.imag) / np.maximum(np.abs(val.real), 1e-300)))


def annulus_kinetic_integral(fld: MetricField, puncture_index: int, delta: float) -> float:
    """Kinetic integral over the annulus delta < |z - z_i| < ANNULUS_RATIO * delta,
    on the action web's quadrature.

    As delta -> 0 this tends to 2 pi log(ANNULUS_RATIO) * sum_j alpha_ij^2;
    used to check the counterterm coefficient.  Y at the nodes comes from
    the puncture's member of the field's loop series, as in the action's
    web, so ANNULUS_RATIO * delta must not exceed its loop circle's radius
    (ValueError).
    """
    radial = _log_panels(delta, ANNULUS_RATIO * delta, [])
    x, _, wt, y = _series_grid(fld, puncture_index, radial)
    kin, _ = densities(y, _region_A(fld.system, puncture_index, x))
    return float(np.sum(wt * kin))


def abelian_action_closed_form(weights: fuchs.WeightSystem) -> float:
    """Rank-1 action: S = -4 pi sum_{i<j} alpha_i alpha_j log|z_i - z_j|.

    Derived by Stokes' theorem from the pairwise logarithmic potentials of
    A(z) = sum alpha_i / (z - z_i); the log-delta divergences match the
    counterterm convention exactly, leaving the pair interaction term.
    """
    if weights.rank != 1:
        raise ValueError("closed form applies to rank 1")
    a = weights.weights[:-1, 0]
    pts = weights.points
    total = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            total += a[i] * a[j] * np.log(abs(pts[i] - pts[j]))
    return float(-4 * np.pi * total)


# ---------------------------------------------------------------------------
# three-form identity


def three_form_pair(h, X, Y, Z):
    """(Theta(X,Y,Z), 3 dOmega(X,Y,Z)) on the space of positive metrics.

    Theta is the alternating sum over the six permutations of
    tr(h^{-1} X h^{-1} Y h^{-1} Z); the second entry differentiates the
    2-form omega(Y,Z) = tr(theta1(Y) theta1(Z)* - theta1(Z) theta1(Y)*),
    theta1(V) = db(V) b^{-1} for the upper Cholesky factor b, by central
    differences of step THREE_FORM_STEP, so their agreement is a genuine
    two-route check of the antiderivative identity.  The twelve theta1
    values (the metrics h +- t X, h +- t Y, h +- t Z, two directions each)
    are taken as one stack.

    h, X, Y and Z may be (..., r, r) stacks of one shape, each member taken
    alone, and every member's twelve theta1 values join the one stack.  A
    single h gives two complex numbers, a stack two complex arrays of its
    leading shape.
    """
    h = as_cstack(h, "h")
    mats = [as_cstack(m, name) for m, name in ((X, "X"), (Y, "Y"), (Z, "Z"))]
    if any(m.shape != h.shape for m in mats):
        raise ValueError(f"X, Y and Z must have the shape {h.shape} of h")
    hinv = np.linalg.inv(h)
    theta3 = 0
    for perm, sign in zip(permutations((0, 1, 2)), (1, -1, -1, 1, 1, -1)):
        a, b_, c = (mats[k] for k in perm)
        theta3 = theta3 + sign * np.trace(hinv @ a @ hinv @ b_ @ hinv @ c, axis1=-2, axis2=-1)

    t = THREE_FORM_STEP
    # omega(v1, v2) at h + t d and h - t d, for (d; v1, v2) = (X; Y, Z), (Y; X, Z), (Z; X, Y)
    x, y, z = mats
    terms = ((x, y, z), (y, x, z), (z, x, y))
    hs = np.stack([h + s * t * d for d, _, _ in terms for s in (1, -1) for _ in range(2)], axis=-3)
    vs = np.stack([v for _, v1, v2 in terms for _ in range(2) for v in (v1, v2)], axis=-3)
    theta1 = factor.cholesky_differential(hs, vs) @ np.linalg.inv(factor.cholesky_upper(hs))
    ty, tz = theta1[..., 0::2, :, :], theta1[..., 1::2, :, :]
    prod = ty @ adjoint(tz) - tz @ adjoint(ty)
    omega = np.trace(prod, axis1=-2, axis2=-1)
    # divided as floats, part by part, as Python divides a complex by a
    # float (numpy would divide by t + 0j and move the last bit)
    dw = (np.ascontiguousarray(omega[..., 0::2] - omega[..., 1::2]).view(float) / (2 * t)).view(complex)
    dw = 3.0 * (dw[..., 0] - dw[..., 1] + dw[..., 2])
    if h.ndim == 2:
        return complex(theta3), complex(dw)
    return theta3, dw


# ---------------------------------------------------------------------------
# flatness of the transported metric


# the compact stencil in units of its step: h^{-1} h_z at each w = z + arm
# needs h at w + arm and at w, and the 20 offsets hold 12 distinct nonzero ones
_ARMS = (1, -1, 1j, -1j)
_OFFSETS = tuple(complex(a + o) for a in _ARMS for o in (*_ARMS, 0))
_LINES = tuple(dict.fromkeys(o for o in _OFFSETS if o != 0))


def flatness_residual(fld: MetricField, z, step):
    """|| d/dzbar (h^{-1} h_z) || from a compact finite-difference stencil.

    Y is read at z once (MetricField.y_at) and transported from there to
    the 12 other distinct stencil points along straight lines, as the
    members of one fan (fuchs.transport_fan); every line stays within
    2 step of z, at least 6 step from every puncture.  h at all 13 points
    comes from one factorisation; the inner central differences form
    h^{-1} h_z, the outer one differentiates it in zbar.  Decays like
    step^2 down to the transport tolerance floor.

    z and step broadcast against each other, one stencil per member: Y is
    read once per distinct center, the 12 lines of every stencil are the
    members of the one fan, and h^{-1} h_z of all stencils is one stacked
    solve.  Each stencil is refused alone (ProximityError).  Scalar z and
    step give a float, otherwise an array of their broadcast shape.
    """
    zs, steps = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(step, dtype=float))
    shape = zs.shape
    zs, s = zs.ravel(), steps.ravel()
    for w, sw in zip(zs, s):
        if fld.min_distance_to_punctures(w) < 8 * sw:
            raise paths.ProximityError(f"stencil at {complex(w)} of step {sw:g} too close to a puncture")
    y_of = {w: fld.y_at(w) for w in dict.fromkeys(zs.tolist())}
    y0 = np.stack([y_of[w] for w in zs.tolist()])
    fan = paths.SegmentFan([paths.Line(w, w + sw * o) for w, sw in zip(zs, s) for o in _LINES])
    ys = fuchs.transport_fan(fld.system.points, fld.system.residues, fan, np.repeat(y0, len(_LINES), axis=0))
    # each stencil's 12 line ends, then its center
    ends = np.concatenate([ys.values[-1].reshape(len(zs), len(_LINES), *y0.shape[1:]), y0[:, None]], axis=1)
    take = [_LINES.index(o) if o != 0 else len(_LINES) for o in _OFFSETS]
    hs = _metric_from_factor(ends[:, take]).reshape(len(zs), 4, 5, *y0.shape[1:])
    s2 = 2 * s[:, None, None]
    hp, hm, hq, hr, h = np.moveaxis(hs, 2, 0)
    g = np.linalg.solve(h, 0.5 * ((hp - hm) / s2[:, None] - 1j * (hq - hr) / s2[:, None]))
    gz = 0.5 * ((g[:, 0] - g[:, 1]) / s2 + 1j * (g[:, 2] - g[:, 3]) / s2)
    res = np.linalg.norm(gz, axis=(-2, -1)).reshape(shape)
    return float(res) if res.ndim == 0 else res
