"""Forward problem: weight systems, admissible unitary tuples, parallel
transport of the Fuchsian system, and monodromy.

Orientation conventions (documented once, used everywhere):

* The fundamental solution solves dY/dz = -A(z) Y with
  A(z) = sum_i A_i / (z - z_i); transporting it around a counterclockwise
  loop at z_i multiplies on the right by a matrix with spectrum
  {exp(-2 pi i alpha_ij)} (in rank 1: the loop value is exp(-2 pi i alpha)).
* The *representation generators* returned by :func:`monodromy_rep` are the
  inverses of those loop transports.  Loop inversion turns the transport
  anti-homomorphism into a homomorphism, so the generators satisfy
  M_i1 ... M_i(n-1) M_n = I with (i1, ..., i(n-1)) the order in which the
  loops leave the basepoint z0 counterclockwise, read off the approach
  legs once by the loop set (WeightSystem.loops.relation_order), and
  spec(M_i) = exp(2 pi i spec(A_i)), matching admissible tuples built from
  the weights.  The points may be listed in any order: member i of every
  tuple belongs to point i, and every relation product (closing M_n,
  relation residuals, the closure Newton of moduli) reads that one order.
* M_n is the plain transport around a large counterclockwise circle
  through the basepoint (no inversion: seen from infinity that circle is
  already the inverted loop).

Tuples are stacks: the generators and conjugators of an
:class:`AdmissibleRep`, the conjugators U_1 .. U_{n-1} that
:func:`build_admissible_rep` closes and the generators and loop transports
of a :class:`MonodromyResult` are (m, r, r) complex arrays, and every tuple
computation (closing, conjugating, unitarity, the commutant) takes the whole
stack in one call.  The one loop over a tuple multiplies its relation in
relation order, left to right from I (_relation_product).

The problem types WeightSystem, AdmissibleRep and FuchsianSystem are
values: frozen dataclasses that own read-only copies of their arrays
(_own).  Whatever is kept per object, such as the loop set below, holds
for as long as the object lives.

One loop set per weight system (WeightSystem.loops, a
:class:`MonodromyLoops` built on first access, when a tuple is first
closed on the weights or a system first evaluated) owns the loop
geometry: the basepoint z0, the circles, the approach legs and the
relation order.  It serves every monodromy evaluation of its systems: the
solver's residuals, the normalization at infinity and :func:`monodromy_rep`,
which is the loop set with one member.  Each puncture loop is an approach
leg P_i from the basepoint, a full circle and the approach run back.  The
loop set computes generators only, one formula for all n loops:
M_i = P_i^{-1} F exp(2 pi i Lambda) F^{-1} P_i, F the local series at the
circle's entry (below) and P = I on the big circle.  The circles of all
loops and all systems of a stack are not marched, all come from one
stacked recursion; every segment of every approach leg of all systems is
one member of one fan, each taken from I (cut into pieces while the stack
is small) and the legs their products; the return leg is never integrated
(MonodromyLoops).
:func:`monodromy_rep` forms the loop transports from the generators.
One gauge alignment (:func:`align_tuple_to_target`) brings computed tuples,
one (n, r, r) or a stack (B, n, r, r), to a normalized target, each step on
the whole stack: conjugate by the ordered eigenbasis of the last generator
(batched eig; all r! matchings to the target phases scored at once),
balance over the positive diagonal group (Osborne sweeps on (B, r) arrays;
away from a solution the tuple is only conjugate to a unitary one, and
balancing lands on the unitary gauge when one exists), then align the
diagonal torus by coordinate ascent with its seven starts as one more stack
axis (B, 7, r).  :func:`rep_distance` is the mismatch it leaves.

Transport has one integrator, an adaptive Dormand-Prince 8(5,3) loop
(DOP853: 12 stages, the last at the 8th-order solution, so FSAL) over a
members-last stack (r, r, M), with the coefficients -A(z(t)) z'(t) of
every member at all twelve stage points of a step from one product and
each stage one einsum over the members.  A member's error is Hairer's
combined estimate e5^2 / sqrt(e5^2 + 0.01 e3^2) from the per-member
Frobenius norms of its 5th- and 3rd-order error estimates.  The step is
shared: it is accepted when the largest scaled error over the members is
<= 1, so every member meets the tolerance and the hardest member sets the
pace.
Values are recorded at stop times: only the last stop is landed on, by a
clipped step, and the others are read off DOP853's 7th-order dense output
of the step that passes them (three more stages and one weight product), so
the stops never change the steps.  One
builder makes the coefficients on a fan of L member paths, its point and
velocity read from one call as (T, L).  The one kernel entry is
:func:`transport`: one system, or a stack of S systems, each along
every member of a fan, with stops.  A paths.SegmentFan holds arbitrary
Line and Arc members, a paths.RayFan log-radial rays with per-member
centers and windows.  Every transport stage is one call: every approach-leg
piece of a monodromy evaluation (the solver stacks the 2 dim perturbed
systems of its central-difference Jacobian), all outward rays of the
action's web, and the flatness stencil's twelve lines.

Near a puncture and near infinity no march is needed: the Frobenius
solution Y0 = G(x) x^{-L} (x = z - z_i, or 1/z at infinity) is summed to a
tail below tol / 100, and every solution is Y0 K.  There is one recursion
for G, :func:`series_stack`, over a members-last stack of B systems at
all n points (infinity is point n-1, as in WeightSystem.weights), each
order from running partial sums at the same cost, the hardest member
setting the term count as it sets the shared step of the kernel, and
one series type, :class:`SeriesStack`, which sums any set of
nodes pointwise in one call: one power table of all nodes and one product
with the coefficients.  A SeriesStack carries the solution it describes:
each member's coordinates and the entry angle where its branch starts.
The loop set takes every circle from one stacked call,
reading the frames at the loop entries once, and the stack it hands to the
normalization at infinity describes the solution that is I at the
basepoint: the coordinates are the inverse frame at the entry, times the
entry's power, times the approach leg's transport.  The normalization
keeps the stack, so the action's web builds no series of its own and
resolves no branch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, cmp_to_key
from itertools import permutations

import numpy as np

from . import paths
from .factor import SplittingType
from .numcore import NumericalError, adjoint, diag_stack, fro, read_only, sorted_eigvals

TWO_PI_I = 2j * np.pi
# build_admissible_rep's largest distance of M_n's spectrum from the infinity phases
ADMISSIBLE_SPECTRUM_TOL = 1e-6
# commutant_dimension counts the singular values up to this times the largest
COMMUTANT_TOL = 1e-8
# the transport and local-series tolerance of the normalization at infinity,
# the metric field and its flatness stencil, the action's web, the CLI's
# monodromy and the LM residual at a chart point; a Jacobian stack runs at
# rhsolve.JACOBIAN_TOL
TRANSPORT_TOL = 1e-10
# a loop set of B systems cuts each of its S approach-leg segments into
# max(1, LEG_FAN_MEMBERS // (B S)) pieces (MonodromyLoops.monodromy): a kernel
# step costs about the same up to some 30 members, and short pieces take few
LEG_FAN_MEMBERS = 16


class DegreeError(ValueError):
    """Weight sums incompatible with an integer degree."""


class StabilityRangeError(ValueError):
    """Splitting exponents violate -n < m_j < 0."""


class NotAdmissibleError(ValueError):
    """Conjugators do not close to the required spectrum at infinity."""


class StiffnessError(NumericalError):
    """Step size underflow in the transport integrator."""


def _own(obj, **dtypes) -> None:
    """Store read-only copies (numcore.read_only), as the given dtypes, of the
    named array fields of a frozen dataclass: a problem value owns its
    arrays, and a write into them raises ValueError."""
    for name, dtype in dtypes.items():
        object.__setattr__(obj, name, read_only(np.asarray(getattr(obj, name), dtype)))


# ---------------------------------------------------------------------------
# weight systems


@dataclass(frozen=True)
class WeightSystem:
    """Marked points, parabolic weights, splitting type, exponents at infinity.

    points holds the n-1 finite punctures; the n-th is infinity.  weights
    has one strictly increasing row in (0,1) per puncture, the last row
    belonging to infinity.  loops is the one loop set (MonodromyLoops) that
    every monodromy evaluation and every relation product of these weights
    reads, with its basepoint z0 and its relation order, built on first
    access.  A value: the arrays are read-only copies, so it never goes
    stale.
    """

    points: np.ndarray
    weights: np.ndarray
    splitting: SplittingType
    infinity_exponents: np.ndarray

    def __post_init__(self):
        _own(self, points=complex, weights=float, infinity_exponents=float)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def rank(self) -> int:
        return self.weights.shape[1]

    @property
    def degree(self) -> int:
        return int(sum(self.splitting.m))

    @cached_property
    def loops(self) -> MonodromyLoops:
        return MonodromyLoops(self)

    def counterterm_coefficients(self) -> tuple[float, float]:
        """(K1, K2) = (sum of squared finite weights, squared infinity exponents)."""
        k1 = float(np.sum(self.weights[:-1] ** 2))
        k2 = float(np.sum(self.infinity_exponents**2))
        return k1, k2


def _min_pairwise_distance(pts: np.ndarray) -> float:
    """Least |z_i - z_j| over the pairs i < j of two or more points, each
    distance by np.hypot, which abs() of a complex scalar also takes (np.abs
    of a complex array differs from it in the last bit)."""
    a, b = np.triu_indices(len(pts), 1)
    d = pts[a] - pts[b]
    return float(np.min(np.hypot(d.real, d.imag)))


def build_weight_system(points, weights, degree: int | None = None) -> WeightSystem:
    """Validate weight data and fill in the evenly-split twist at infinity.

    The points must be finite and distinct, every weight finite and
    strictly inside (0, 1), each row strictly increasing.  The total
    weight must be a (negative of an) integer d; the evenly split
    exponents are m repeated r-p times and m+1 repeated p times where
    d = m r + p, and every exponent must lie strictly inside (-n, 0).  The
    infinity exponents are alpha_{n,j} + m'_j with m' the exchange-reversed
    exponent vector.
    """
    pts = np.asarray(points, dtype=complex).reshape(-1)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError("weights must be an n x r matrix")
    n, r = w.shape
    if n < 3:
        raise ValueError("need at least three marked points (n >= 3)")
    if len(pts) != n - 1:
        raise ValueError(f"expected {n - 1} finite points for {n} weight rows")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"marked points must be finite, got {pts[~np.isfinite(pts)][0]}")
    if _min_pairwise_distance(pts) < 1e-12:
        raise ValueError("marked points must be distinct")
    inside = (w > 0.0) & (w < 1.0)  # false for NaN
    if not np.all(inside):
        raise ValueError(f"weights must lie strictly inside (0, 1), got {w[~inside][0]}")
    if np.any(np.diff(w, axis=1) <= 0.0):
        raise ValueError("weights must be strictly increasing within each row")

    total = float(np.sum(w))
    d = -round(total)
    if abs(total + d) > 1e-9:
        raise DegreeError(f"weight sum {total} is not an integer")
    if degree is not None and degree != d:
        raise DegreeError(f"declared degree {degree} != -sum(weights) = {d}")

    m, p = d // r, d - (d // r) * r
    exponents = tuple([m] * (r - p) + [m + 1] * p)
    if exponents[0] <= -n or exponents[-1] >= 0:
        raise StabilityRangeError(
            f"splitting exponents {exponents} outside the stable range (-{n}, 0)"
        )
    splitting = SplittingType(exponents)
    m_rev = np.asarray(exponents[::-1], dtype=float)
    infinity_exponents = w[-1] + m_rev
    return WeightSystem(
        points=pts, weights=w, splitting=splitting, infinity_exponents=infinity_exponents
    )


# ---------------------------------------------------------------------------
# admissible representations


def commutant_dimension(mats) -> int:
    """Dimension of {X : [X, M_i] = 0 for all i} of an (m, r, r) stack: one
    SVD of the rows kron(M_i^T, I) - kron(I, M_i) of all members, stacked."""
    m = np.asarray(mats, dtype=complex)
    r = m.shape[-1]
    eye = np.eye(r)
    # big[k, a, i, b, j] = M_k[b, a] delta_ij - delta_ab M_k[i, j]
    big = (np.swapaxes(m, -1, -2)[:, :, None, :, None] * eye[:, None, :]
           - eye[:, None, :, None] * m[:, None, :, None, :])
    sv = np.linalg.svd(big.reshape(-1, r * r), compute_uv=False)
    return int(np.sum(sv <= COMMUTANT_TOL * max(sv[0], 1.0)))


@dataclass(frozen=True)
class AdmissibleRep:
    """Normalized admissible unitary tuple M_1 ... M_n with product I.

    generators and conjugators are (n, r, r) complex arrays; any array-like
    of that shape is copied, read-only, as FuchsianSystem's residues are.
    Each generator is U_i exp(2 pi i W_i) U_i^{-1}; after normalization the
    last generator is diagonal (U_n = I) with phases given by the last
    weight row.
    """

    weights: WeightSystem
    generators: np.ndarray  # (n, r, r)
    conjugators: np.ndarray  # (n, r, r)

    def __post_init__(self):
        _own(self, generators=complex, conjugators=complex)
        shape = (self.weights.n, self.weights.rank, self.weights.rank)
        if self.generators.shape != shape or self.conjugators.shape != shape:
            raise ValueError(f"generators and conjugators must have shape {shape}")

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def rank(self) -> int:
        return self.weights.rank

    def relation_residual(self) -> float:
        return _relation_residual(self.weights, self.generators)

    def is_irreducible(self) -> bool:
        return commutant_dimension(self.generators) == 1


def _relation_product(weights: WeightSystem, gens: np.ndarray) -> np.ndarray:
    """M_i1 ... M_i(n-1) of the n-1 finite generators, an (n-1, r, r) stack
    whose member i belongs to point i, in the loop set's relation order
    (weights.loops.relation_order), multiplied left to right starting from
    I: the one ordered-product loop of tuples."""
    prod = np.eye(gens.shape[-1], dtype=complex)
    for m in gens[weights.loops.relation_order]:
        prod = prod @ m
    return prod


def _relation_residual(weights: WeightSystem, gens: np.ndarray) -> float:
    """||M_i1 ... M_i(n-1) M_n - I||_F of an (n, r, r) generator stack."""
    return fro(_relation_product(weights, gens[:-1]) @ gens[-1] - np.eye(weights.rank))


def closing_generator(weights: WeightSystem, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The local generators U_i diag(exp(2 pi i W_i)) U_i^* of an (n-1, r, r)
    conjugator stack, as one (n-1, r, r) product in the conjugators' order,
    and M_n, the inverse of their (unitary) product in relation order."""
    gens = us @ diag_stack(np.exp(TWO_PI_I * weights.weights[:-1])) @ adjoint(us)
    return gens, _relation_product(weights, gens).conj().T


def _match_to_targets(lam: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best permutation matching of eigenvalues to target phases (r <= 5).

    lam (..., r); every permutation is scored by its largest distance and
    the first best one in itertools order wins.  Returns perm (..., r) and
    its cost (...).
    """
    perms = np.array(list(permutations(range(lam.shape[-1]))))
    cost = np.max(np.abs(lam[..., perms] - targets), axis=-1)
    return perms[np.argmin(cost, axis=-1)], np.min(cost, axis=-1)


def unitary_eig(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (numerically) unitary matrix with unitary V."""
    lam, V = np.linalg.eig(M)
    Q, R = np.linalg.qr(V)
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    return lam, Q


def build_admissible_rep(weights: WeightSystem, conjugators) -> AdmissibleRep:
    """Close U_1 .. U_{n-1}, any array-like of shape (n-1, r, r), into a
    normalized admissible tuple.

    Another shape raises ValueError naming the expected one.  M_n is the
    inverse of the product of the first n-1 generators in
    weights.loops.relation_order (closing_generator), so closing a tuple
    plans the weights' loop set; it is accepted when
    its spectrum matches the infinity weight phases to
    ADMISSIBLE_SPECTRUM_TOL, then the whole tuple is conjugated by the
    eigenbasis V of M_n, in one construction: generators V^* M_i V, with M_n
    diagonal in the weight order, and conjugators V^* U_i, with U_n = I.
    """
    n, r = weights.n, weights.rank
    us = np.asarray(conjugators, dtype=complex)
    if us.shape != (n - 1, r, r):
        raise ValueError(
            f"expected the {n - 1} conjugators U_1 .. U_{n - 1} as an array of shape "
            f"{(n - 1, r, r)}, got shape {us.shape}"
        )
    if not np.all(np.isfinite(us)):
        raise NumericalError("conjugators contain non-finite entries")
    if np.any(fro(us @ adjoint(us) - np.eye(r)) > 1e-10):
        raise ValueError("conjugators must be unitary")
    gens, m_last = closing_generator(weights, us)

    targets = np.exp(TWO_PI_I * weights.weights[-1])
    lam, V = unitary_eig(m_last)
    perm, mismatch = _match_to_targets(lam, targets)
    if mismatch > ADMISSIBLE_SPECTRUM_TOL:
        raise NotAdmissibleError(
            f"spectrum at infinity misses the weights by {mismatch:.3e}"
        )
    V = V[:, perm]
    Vh = V.conj().T
    rep = AdmissibleRep(
        weights=weights,
        generators=Vh @ np.concatenate([gens, m_last[None]]) @ V,
        conjugators=np.concatenate([Vh @ us, np.eye(r, dtype=complex)[None]]),
    )
    if not rep.is_irreducible():
        warnings.warn("admissible tuple is reducible")
    return rep


def rank2_closure_conjugators(weights: WeightSystem) -> np.ndarray:
    """The rigid rank-2, n=3 closure (U_1, U_2) as a (2, 2, 2) array: U_1 = I
    and a real rotation U_2.

    With M_1 diagonal and U_2 a rotation by angle t, the trace of M_1 M_2
    moves on a straight segment in the complex plane as sin^2 t goes from
    0 to 1; closure happens where it meets the conjugate trace required at
    infinity.  Raises NotAdmissibleError when the segment misses it.
    """
    if weights.n != 3 or weights.rank != 2:
        raise ValueError("closure solve applies to n=3, rank 2 only")
    d1 = np.exp(TWO_PI_I * weights.weights[0])
    d2 = np.exp(TWO_PI_I * weights.weights[1])
    target = np.conj(np.sum(np.exp(TWO_PI_I * weights.weights[2])))
    t0 = d1[0] * d2[0] + d1[1] * d2[1]
    t1 = d1[0] * d2[1] + d1[1] * d2[0]
    if abs(t1 - t0) < 1e-14:
        raise NotAdmissibleError("degenerate weights: trace segment collapses")
    lam = (target - t0) / (t1 - t0)
    if abs(lam.imag) > 1e-9 or lam.real < -1e-12 or lam.real > 1 + 1e-12:
        raise NotAdmissibleError(
            f"no unitary closure for these weights (segment parameter {lam:.4f})"
        )
    s = np.sqrt(min(max(lam.real, 0.0), 1.0))
    c = np.sqrt(1.0 - s * s)
    u2 = np.array([[c, -s], [s, c]], dtype=complex)
    return np.array([np.eye(2, dtype=complex), u2])


def rank2_rigid_residues(weights: WeightSystem) -> np.ndarray:
    """Closed-form residues for the rigid rank-2, n=3 system.

    In the eigenbasis of the residue at infinity the trace and the two
    determinant constraints leave a single gauge parameter; the returned
    pair (A_1, A_2) has exactly the weight spectra and
    -(A_1 + A_2) = diag(infinity exponents).
    """
    if weights.n != 3 or weights.rank != 2:
        raise ValueError("rigid residues apply to n=3, rank 2 only")
    lam1, lam2 = (float(x) for x in weights.infinity_exponents)
    if abs(lam2 - lam1) < 1e-12:
        raise ValueError("degenerate exponents at infinity")
    w1, w2 = weights.weights[0], weights.weights[1]
    tau1 = float(w1.sum())
    det1 = float(w1.prod())
    det2 = float(w2.prod())
    p = (det2 - det1 - lam1 * lam2 - lam1 * tau1) / (lam2 - lam1)
    t = tau1 - p
    qs = p * t - det1
    a1 = np.array([[p, qs], [1.0, t]], dtype=complex)
    a3 = np.diag([lam1, lam2]).astype(complex)
    a2 = -a3 - a1
    return np.array([a1, a2])


# ---------------------------------------------------------------------------
# Fuchsian systems and transport


@dataclass(frozen=True, eq=False)
class FuchsianSystem:
    """Residues A_1 .. A_{n-1} at the finite punctures of a weight system.

    A value: residues is a read-only copy of any array-like of that shape,
    and no field can be reassigned.  Compared and hashed by identity (an
    elementwise == of the residue arrays has no truth value), so that
    rhsolve can key its records on the system object, each of which holds
    as long as the object lives."""

    weights: WeightSystem
    residues: np.ndarray  # (n-1, r, r)

    def __post_init__(self):
        _own(self, residues=complex)
        n, r = self.weights.n, self.weights.rank
        if self.residues.shape != (n - 1, r, r):
            raise ValueError(f"residues must have shape {(n - 1, r, r)}")

    @property
    def rank(self) -> int:
        return self.weights.rank

    @property
    def points(self) -> np.ndarray:
        return self.weights.points

    def residue_at_infinity(self) -> np.ndarray:
        return -np.sum(self.residues, axis=0)

    def A_of(self, z) -> np.ndarray:
        """A(z) = sum_i A_i / (z - z_i) at a scalar or any array z, shape
        z.shape + (r, r): the N nodes' 1 / (z - z_i), (N, n-1), times the
        residues (n-1, r r) in one product."""
        z = np.asarray(z, dtype=complex)
        w = 1.0 / (z.reshape(-1, 1) - self.points)
        return (w @ self.residues.reshape(w.shape[1], -1)).reshape(z.shape + self.residues.shape[1:])

    def infinity_spectrum_residual(self) -> float:
        lam = sorted_eigvals(self.residue_at_infinity())
        target = np.sort(self.weights.infinity_exponents)
        re_err = np.max(np.abs(lam.real - target))
        return float(max(re_err, np.max(np.abs(lam.imag))))

    def conjugated(self, g: np.ndarray) -> "FuchsianSystem":
        return FuchsianSystem(self.weights, g @ self.residues @ np.linalg.inv(g))


@dataclass
class StackTransport:
    """Transported values of systems along the member paths of a fan."""

    values: np.ndarray  # (len(stops), [S,] L, r, r)
    step_count: int     # accepted shared steps


# Dormand-Prince 8(5,3) tableau (DOP853: Hairer, Norsett & Wanner, Solving
# ODEs I, II.10), the coefficients of Hairer's dop853.f.  _DOP_C holds the 13
# stage times and row s of _DOP_A the stage-s weights; row 12 is the 8th-order
# solution b, so stage 12 is the next step's stage 0 (FSAL).  _DOP_E5 and
# _DOP_E3 weight stages 0-11 into the embedded 5th- and 3rd-order error
# estimates.  The rows are stored complex so that products with the stage
# stack need no cast.
_DOP_C = np.array(
    [
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
        0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
        0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0,
    ]
)
_DOP_A = np.array(
    [row + [0.0] * (12 - len(row)) for row in [
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [
            0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242,
        ],
        [
            0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
            -0.017578125,
        ],
        [
            0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
            -0.015319437748624402, 0.008273789163814023,
        ],
        [
            0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
            27.59209969944671, 20.154067550477894, -43.48988418106996,
        ],
        [
            0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
            21.230051448181193, 15.279233632882423, -33.28821096898486,
            -0.020331201708508627,
        ],
        [
            -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
            -8.149787010746927, -18.52006565999696, 22.739487099350505,
            2.4936055526796523, -3.0467644718982196,
        ],
        [
            2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
            -17.9589318631188, 27.94888452941996, -2.8589982771350235,
            -8.87285693353063, 12.360567175794303, 0.6433927460157636,
        ],
        [
            0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
        ],
    ]],
    dtype=complex,
)
_DOP_E5 = np.array(
    [
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
    ],
    dtype=complex,
)
_DOP_E3 = np.array(
    [
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
        0.20136540080403034, 0.02265179219836082,
    ],
    dtype=complex,
)
# DOP853's dense output (dop853.f, CONTD8): three more stages at _DOP_C_EXTRA,
# row s of _DOP_A_EXTRA weighting stages 0..12+s, and the rows _DOP_D of the
# interpolant's last four terms.  With stage 12 the one at the new solution,
# y(t + theta h) = y + sum_i p_i(theta) F_i, p_i the products of i + 1
# alternating factors theta, 1 - theta, F_0 = dy, F_1 = h k_0 - dy,
# F_2 = 2 dy - h (k_0 + k_12) and F_3..F_6 = h _DOP_D k, dy = h b k; _DOP_DENSE
# holds the F_i / h as weights of the 16 stages.
_DOP_C_EXTRA = np.array([0.1, 0.2, 0.7777777777777778])
_DOP_A_EXTRA = np.array(
    [row + [0.0] * (15 - len(row)) for row in [
        [
            0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
            -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
            0.00820105229563469, 0.007567897660545699, -0.008298,
        ],
        [
            0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
            0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
            -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
            0.1413124436746325,
        ],
        [
            -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
            7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
            -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
        ],
    ]],
    dtype=complex,
)
_DOP_D = np.array(
    [
        [
            -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
            2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
            0.6315787787694688, -0.08899033645133331, 18.148505520854727,
            -9.194632392478356, -4.436036387594894,
        ],
        [
            10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
            -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
            -9.332130526430229, 15.697238121770845, -31.139403219565178,
            -9.35292435884448, 35.81684148639408,
        ],
        [
            19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
            527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
            0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
            11.99229113618279,
        ],
        [
            -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
            357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
            29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
            -149.72683625798564,
        ],
    ]
)
_DOP_B = np.concatenate([_DOP_A[12].real, np.zeros(4)])
_K0, _K12 = np.eye(16)[[0, 12]]
_DOP_DENSE = np.vstack([_DOP_B, _K0 - _DOP_B, 2 * _DOP_B - _K0 - _K12, _DOP_D])


def _member_fro(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of every member of a members-last complex stack
    (..., M): the sum runs over all leading axes."""
    x = np.ascontiguousarray(a).view(float).reshape(-1, a.shape[-1], 2)
    return np.sqrt(np.einsum("imc,imc->m", x, x))


def _integrate_stack(coefficients, y, tol: float, stops) -> tuple[np.ndarray, int]:
    """Adaptive Dormand-Prince 8(5,3) loop (DOP853) from t = 0 to stops[-1]
    for a members-last (r, r, M) stack.

    coefficients maps stage times (T,) to -A(z(t)) z'(t) of every member,
    shape (T, r, r, M), so all twelve stage points of a step take one call.
    Each stage is one einsum over the members, at every M: np.matmul would
    multiply the tiny matrices one at a time.  The 12 stages give the
    8th-order solution, whose last stage is the next step's first (FSAL).
    A member's error is Hairer's combined estimate
    e5^2 / sqrt(e5^2 + 0.01 e3^2) from the Frobenius norms e5, e3 of its
    5th- and 3rd-order error estimates, scaled by tol times its largest
    norm so far.  One step is shared by the stack and accepted when the
    largest scaled error over the members is <= 1, so every member meets
    tol; PI control.  Only the last stop is landed on, by a clipped step;
    the steps never depend on the other stops, so a fan with stops takes
    the steps of the same fan with the last stop alone.  An accepted step
    that passes earlier stops reads them off DOP853's 7th-order dense
    output: three more stages (a second coefficients call, made only on
    such steps), then one (stops, 16) real weight matrix times the stage
    stack; stops at t = 0 take the start, before any step.  Returns the
    values at the increasing stops, each in [0, 1], shape
    (len(stops), r, r, M), and the number of accepted steps.
    """
    shape = y.shape
    ks = np.empty((16,) + shape, dtype=complex)
    kf = ks.reshape(16, -1)
    out = np.empty((len(stops),) + shape, dtype=complex)
    marks = [float(s) for s in stops]
    end, last = marks[-1], len(marks) - 1
    t, h, k, accepted = 0.0, 0.1, 0, 0
    yn = np.maximum(_member_fro(y), 1.0)
    np.einsum("ijm,jkm->ikm", coefficients(np.zeros(1))[0], y, out=ks[0])
    err_prev = 1.0
    while True:
        # every stop at or before t that no dense output took takes y: the
        # start at t = 0 (stops all at 0 take no step), after a step its end
        while k < len(marks) and marks[k] <= t:
            out[k] = y
            k += 1
        if k == len(marks):
            break
        clipped = h >= end - t
        step = end - t if clipped else h
        cs = coefficients(t + _DOP_C[1:] * step)
        ha = step * _DOP_A
        for s in range(1, 13):
            ys = (ha[s, :s] @ kf[:s]).reshape(shape)
            ys += y
            np.einsum("ijm,jkm->ikm", cs[s - 1], ys, out=ks[s])
        # the last stage is taken at the 8th-order solution
        y8n = _member_fro(ys)
        e5sq = _member_fro((step * (_DOP_E5 @ kf[:12])).reshape(shape)) ** 2
        e3sq = _member_fro((step * (_DOP_E3 @ kf[:12])).reshape(shape)) ** 2
        # e5 = e3 = 0 reads 0, not 0 / 0
        errs = e5sq / np.maximum(np.sqrt(e5sq + 0.01 * e3sq), 1e-300)
        errs /= tol * np.maximum(yn, y8n)
        err = float(errs.max())
        # NaN means a stage point hit a pole: reject and shrink
        err = np.inf if np.isnan(err) else max(err, 1e-16)
        if err <= 1.0:
            t_new = end if clipped else t + step
            inside = k
            while inside < last and marks[inside] < t_new:
                inside += 1
            if inside > k:
                # the dense output's three stages, then each stop's weights
                # of the 16 stages: p(theta) @ _DOP_DENSE, times the step
                cs = coefficients(t + _DOP_C_EXTRA * step)
                ha = step * _DOP_A_EXTRA
                for s in range(13, 16):
                    yd = (ha[s - 13, :s] @ kf[:s]).reshape(shape)
                    yd += y
                    np.einsum("ijm,jkm->ikm", cs[s - 13], yd, out=ks[s])
                theta = (np.array(marks[k:inside]) - t) / step
                p = np.cumprod([theta, 1 - theta, theta, 1 - theta, theta, 1 - theta, theta], axis=0)
                dense = (p.T @ (step * _DOP_DENSE)) @ kf
                out[k:inside] = dense.reshape((inside - k,) + shape) + y
                k = inside
            y = ys
            ks[0] = ks[12]  # FSAL
            yn = np.maximum(yn, y8n)
            accepted += 1
            factor = 0.9 * err ** (-0.7 / 8.0) * err_prev ** (0.4 / 8.0)
            h = step * min(max(factor, 0.2), 5.0)
            err_prev = err
            t = t_new
        else:
            h = step * min(max(0.9 * err ** (-1.0 / 8.0), 0.2), 5.0)
        if h < 1e-13:
            raise StiffnessError("step size underflow during transport")
    return out, accepted


def _check_tol(tol: float) -> None:
    # a tolerance <= 0 turns every error ratio negative: every step would pass
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def transport(
    points: np.ndarray,
    residues: np.ndarray,
    fan: paths.SegmentFan | paths.RayFan,
    starts: np.ndarray,
    stops=(1.0,),
    tol: float = TRANSPORT_TOL,
) -> StackTransport:
    """Transport systems along every member path of a fan: a SegmentFan of
    Line and Arc members or a RayFan of log-radial rays.

    residues is one system (n-1, r, r) or a stack of S systems
    (S, n-1, r, r); every system runs along every one of the L member
    paths.  starts broadcasts to (L, r, r) for one system and to
    (S, L, r, r) for a stack.  All S*L members share the step sequence and
    the values are recorded at the increasing stop times in [0, 1]: values
    has shape (len(stops), L, r, r) for one system and
    (len(stops), S, L, r, r) for a stack; no stops, or a non-finite one,
    raise ValueError.  The kernel (_integrate_stack) runs them as one
    members-last stack (r, r, S*L); the values are a view of it in these
    shapes.  fan.point_and_velocity(t) is read as (T, L), so
    the coefficients of all members at all stage points are one product
    (r*r*S, n-1) @ (T, n-1, L) -> (T, r, r, S*L) with the negated residues.
    No proximity check is made.
    """
    _check_tol(tol)
    stops = np.asarray(stops, dtype=float)
    # NaN fails every comparison, so ">= 0" refuses it where "< 0" would not
    if stops.ndim != 1 or not stops.size or not np.all(np.diff(stops, prepend=0.0, append=1.0) >= 0):
        raise ValueError("stops must be increasing times in [0, 1]")
    res = np.asarray(residues, dtype=complex)
    single = res.ndim == 3
    res = res.reshape((-1,) + res.shape[-3:])
    s, m, r, _ = res.shape
    count = fan.point_and_velocity(np.zeros(1))[0].shape[1]
    starts = np.broadcast_to(np.asarray(starts, dtype=complex), (s, count, r, r))
    # the kernel's stack is members-last, (r, r, S*L) ordered (system, fan
    # member): the coefficient product's order
    y = np.ascontiguousarray(np.moveaxis(starts, (2, 3), (0, 1)).reshape(r, r, s * count))
    pts = np.asarray(points, dtype=complex)[:, None]
    res_t = -np.transpose(res, (2, 3, 0, 1)).reshape(-1, m)

    def coefficients(t):
        z, v = fan.point_and_velocity(t)
        w = v[:, None, :] / (z[:, None, :] - pts)
        return (res_t @ w).reshape((len(t),) + y.shape)

    values, steps = _integrate_stack(coefficients, y, tol, stops)
    values = np.moveaxis(values.reshape(len(stops), r, r, s, count), (1, 2), (3, 4))
    return StackTransport(values=values[:, 0] if single else values, step_count=steps)


# ---------------------------------------------------------------------------
# local series


class ResonanceError(NumericalError):
    """Exponents with (near) integer differences: the local series has no
    power-times-series form there."""


# the local series' limits: a divisor m + lam_a - lam_b below SERIES_MIN_DIVISOR
# is (near) resonant, and a tail still above tol / 100 after SERIES_MAX_TERMS
# terms converges too slowly
SERIES_MIN_DIVISOR = 1e-6
SERIES_MAX_TERMS = 200
# orders of the local series between two tests of its tails
SERIES_CHUNK = 8


@dataclass(frozen=True)
class SeriesStack:
    """Local series of B systems at all n points, from one recursion.

    Member s = b n + p is system b at point p: the puncture z_p for
    p < n-1, with the local coordinate x = z - z_p, and infinity for
    p = n-1, with x = 1/z, as WeightSystem.weights indexes them.  Its
    Frobenius solution is Y0(x) = G(x) x^{-L}, L = V diag(exponents) V^{-1}
    the residue there, and every solution near the point is Y0 K for a
    constant K.  The frame
    F = G V = sum_m coefficients[s, m] (x / scale[p])^m (order 0: V, as
    G(0) = I) converges for |x| < scale[p], the distance to the nearest
    other singular point; tail bounds G's truncation error for |x| <= radius[p].

    The stack carries the solution it describes: member s is Y0 K with
    coordinates coords[s] = V^{-1} K, on the branch of x^{-L} that starts
    at the argument entry_angle[p] of z - z_p (of z at infinity) and runs
    counterclockwise once round the point.  series_stack describes Y0
    itself on the principal branch: coords = V^{-1}, entry_angle = -pi.
    """

    scale: np.ndarray         # (n,), infinity last
    radius: np.ndarray        # (n,)
    exponents: np.ndarray     # (S, r)
    coefficients: np.ndarray  # (S, M + 1, r, r): V g_m, g_0 = I
    tail: np.ndarray          # (S,)
    coords: np.ndarray        # (S, r, r): V^{-1} K
    entry_angle: np.ndarray   # (n,)

    def frame(self, x) -> np.ndarray:
        """F of every member, (S, r, r), at one local coordinate x[p] per point."""
        coef = self.coefficients
        s, terms, r, _ = coef.shape
        u = np.tile(np.asarray(x, dtype=complex) / self.scale, s // len(self.scale))
        # rows of powers, contiguous: a strided operand changes how matmul
        # sums, and the loop circles' last bits with it
        table = np.ascontiguousarray(_power_table(u, terms).T)
        return (table[:, None] @ coef.reshape(s, terms, r * r)).reshape(s, r, r)

    def values(self, s: int, rho, phi) -> np.ndarray:
        """Y0 K of member s at the nodes z = z_p + rho e^{i phi} (at infinity,
        p = n-1, z = rho e^{i phi}); rho and phi broadcast to the nodes' shape
        (ValueError if they do not), and the values have that shape + (r, r).

        K is the member's own (coords), and so is its branch: the argument
        of z - z_i is taken as theta = a0 + mod(phi - a0, 2 pi), a0 its
        point's entry_angle, the branch a transport from the entry
        counterclockwise along a circle and then radially reaches.  Each
        node is summed on its own, so any set of nodes is one call: the
        powers of u = x / scale as one (M, N) table, F of all N nodes one
        product with the (M, r r) coefficients, and x^{-lam} as
        exp(-lam log x) per node.  A node outside the member's radius raises
        ValueError.
        """
        n = len(self.scale)
        p = s % n
        rho, phi = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(phi, dtype=float))
        a0 = self.entry_angle[p]
        theta = a0 + np.mod(phi.ravel() - a0, 2 * np.pi)
        # log x = +-(log rho + i theta), x = z - z_i or 1/z
        log_x = np.log(rho.ravel()) + 1j * theta
        if p == n - 1:
            log_x = -log_x
        if np.any(np.exp(log_x.real) > self.radius[p] * (1 + 1e-12)):
            raise ValueError(f"node outside the series radius {self.radius[p]:.6g}")
        coef, lam = self.coefficients[s], self.exponents[s]
        terms, r, _ = coef.shape
        powers = _power_table(np.exp(log_x) / self.scale[p], terms)
        frame = (powers.T @ coef.reshape(terms, r * r)).reshape(-1, r, r)
        frame *= np.exp(-log_x[:, None] * lam)[:, None, :]
        # Y0 K = F diag(x^{-lam}) coords: one 2-D product over all nodes (a
        # stacked (N, r, r) matmul is many times slower), and each row of
        # coords only scaled, so none is swamped by a larger one
        return (frame.reshape(-1, r) @ self.coords[s]).reshape(rho.shape + (r, r))


def _power_table(u: np.ndarray, terms: int) -> np.ndarray:
    """The powers u^m, m < terms, of u (N,), as a (terms, N) table:
    by doubling, rows m.. are rows 0.. times u^m, so the table takes about
    log2(terms) products (np.cumprod is slower on complex)."""
    powers = np.empty((terms, len(u)), dtype=u.dtype)
    powers[0] = 1.0
    powers[1] = u
    m = 2
    while m < terms:
        c = min(m, terms - m)
        np.multiply(powers[:c], powers[m - 1] * u, out=powers[m : m + c])
        m += c
    return powers


def series_stack(points, residues, radius, tol: float) -> SeriesStack:
    """Frobenius series Y0 = G(x) x^{-L} of a stack of systems at all n
    points, every member summed to tol / 100 for |x| <= its radius.

    residues (B, n-1, r, r) at the n-1 points, radius the n radii, infinity
    last; member b n + p is system b at point p, the puncture z_p for
    p < n-1 and infinity for p = n-1.  x = z - z_p at the puncture z_p and
    x = 1/z at infinity.  In x the
    system reads dY/dx = -(L/x + sum_k B_k x^k) Y.  With R the distance to
    the nearest other singular point, B_k R^{k+1} = -sum_j A_j t_j^{k+1}:
    at z_i, L = A_i, t_i = 0 and t_j = R / (z_j - z_i); at infinity
    L = -sum_j A_j, R = 1 / max |z_j| and t_j = R z_j.  The coefficients
    solve m G_m + [L, G_m] = -sum_{k+l=m-1} B_k G_l, in the eigenbasis of L
    an elementwise division by m + lam_a - lam_b.  In scaled terms the
    convolution is -sum_j A~_j H_j (A~_j the residues in the eigenbasis),
    and the partial sums H_j = sum_{k<m} t_j^(k+1) G_{m-1-k} obey
    H_j <- t_j (G_{m-1} + H_j) (|t_j| <= 1: stable), so every order is the
    same few whole-array operations on the members-last stack (r, r, B n).

    Terms are added until every member's tail bound
    max ||G_m R^m|| q^(m+1) / (1 - q) over its last four terms (natural
    basis, q = radius / R) is <= tol / 100, tested SERIES_CHUNK orders at a
    time: the first such order is the count, the hardest member's.  Raises
    ResonanceError on an eigenvalue gap of L, or a divisor at an order up
    to the count, below SERIES_MIN_DIVISOR, and NumericalError (naming the
    tail) at the first order with non-finite coefficients or when a tail
    is still above tol / 100 after SERIES_MAX_TERMS terms, for the whole
    stack.  The stack describes Y0 on the principal branch (SeriesStack).
    """
    _check_tol(tol)
    pts = np.asarray(points, dtype=complex)
    res = np.asarray(residues, dtype=complex)
    b, npts, r, _ = res.shape
    p = npts + 1
    scale = np.empty(p)
    t = np.zeros((p, npts), dtype=complex)
    for i in range(npts):
        others = np.arange(npts) != i
        d = pts[others] - pts[i]
        scale[i] = float(np.min(np.abs(d)))
        t[i, others] = scale[i] / d
    scale[-1] = 1.0 / float(np.max(np.abs(pts)))
    t[-1] = scale[-1] * pts
    radius = np.asarray(radius, dtype=float)
    q = radius / scale
    outside = np.flatnonzero(~((q > 0) & (q < 1)))
    if outside.size:
        k = outside[0]
        raise ValueError(f"radius {radius[k]:.6g} outside the convergence radius {scale[k]:.6g}")

    lead = np.concatenate([res, -np.sum(res, axis=1, keepdims=True)], axis=1)
    lam, basis = np.linalg.eig(lead.reshape(b * p, r, r))
    basis_inv = np.linalg.inv(basis)
    gaps = lam[:, :, None] - lam[:, None, :]
    if np.min(np.abs(gaps) + np.eye(r)) < SERIES_MIN_DIVISOR:
        raise ResonanceError("residue with a (near) repeated eigenvalue")
    # the first order k whose divisor k + lam_a - lam_b is below
    # SERIES_MIN_DIVISOR: only the integer nearest -Re(lam_a - lam_b) can be
    near = np.rint(-gaps.real)
    near = near[(near >= 1) & (np.abs(near + gaps) < SERIES_MIN_DIVISOR)]
    resonant = int(near.min()) if near.size else SERIES_MAX_TERMS + 1

    # members last, (r, r, S) as in the kernel, member s = b n + p: the
    # residues A~_j in each member's eigenbasis as (r, (n-1) r, S), row a
    # and column (j, c), the partial sums H_j as (n-1, r, r, S), G_m coef[m]
    s = b * p
    v, v_inv = (np.ascontiguousarray(np.moveaxis(x, 0, -1)) for x in (basis, basis_inv))
    res_s = np.repeat(np.moveaxis(res, 0, -1), p, axis=-1)
    res_e = np.einsum("ajds,dbs->ajbs", np.einsum("acs,jcds->ajds", v_inv, res_s), v)
    res_e = res_e.reshape(r, npts * r, s)
    t_s = np.tile(t.T, b).reshape(npts, 1, 1, s)
    partial = np.zeros((npts, r, r, s), dtype=complex)
    coef = np.empty((SERIES_MAX_TERMS + 1, r, r, s), dtype=complex)
    coef[0] = np.eye(r)[:, :, None]
    gaps = np.moveaxis(gaps, 0, -1)
    # vec(basis G basis^-1) = kron(basis, basis^-T) vec(G) for the natural-basis norms
    natural = np.einsum("acs,dbs->abcds", v, v_inv).reshape(r * r, r * r, s)
    # the norm of G_m in row m + 3, behind three zero rows: rows m .. m + 3
    # are the last four terms at order m
    norms = np.zeros((SERIES_MAX_TERMS + 4, s))
    norms[3] = np.sqrt(r)
    # q^(m+1) / (1 - q) of every point at every order m
    decay = np.cumprod(np.vstack([q / (1 - q), np.broadcast_to(q, (SERIES_MAX_TERMS, p))]), axis=0)
    target, stop, end = tol / 100, None, min(resonant, SERIES_MAX_TERMS + 1)
    # a diverging member overflows: its first non-finite order ends the recursion
    with np.errstate(over="ignore", invalid="ignore"):
        for m0 in range(1, end, SERIES_CHUNK):
            m1 = min(m0 + SERIES_CHUNK, end)
            for m, divisor in zip(range(m0, m1), np.arange(m0, m1)[:, None, None, None] + gaps):
                # H_j <- t_j (G_{m-1} + H_j), G_m = sum_j A~_j H_j / divisor
                partial += coef[m - 1]
                partial *= t_s
                np.einsum("aks,kbs->abs", res_e, partial.reshape(npts * r, r, s), out=coef[m])
                coef[m] /= divisor
            block = coef[m0:m1]
            lifted = (natural * block.reshape(m1 - m0, 1, r * r, s)).sum(axis=2)
            norms[m0 + 3 : m1 + 3] = np.sqrt((lifted.real**2 + lifted.imag**2).sum(axis=1))
            window = np.max([norms[m0 + i : m1 + i] for i in range(4)], axis=0)
            tails = (window.reshape(-1, b, p) * decay[m0:m1, None]).reshape(-1, s)
            finite = np.isfinite(block).all(axis=(1, 2, 3))
            hits = np.flatnonzero((tails.max(axis=1) <= target) | ~finite)
            if hits.size:
                k = hits[0]
                if not finite[k]:
                    raise NumericalError(f"local series tail not finite at order {m0 + k}")
                stop, tail = m0 + k, tails[k]
                break
    if stop is None:
        if resonant <= SERIES_MAX_TERMS:
            raise ResonanceError(f"near-resonant divisor at order {resonant}")
        raise NumericalError(
            f"local series tail {tails[-1].max():.3e} above {target:.1e} after {SERIES_MAX_TERMS} terms"
        )
    # the frame's coefficients basis g_l in increasing order, all orders of
    # a member in one product
    frame = np.einsum("acs,lcbs->labs", v, coef[: stop + 1])
    return SeriesStack(
        scale=scale,
        radius=radius,
        exponents=lam,
        coefficients=np.ascontiguousarray(np.moveaxis(frame, -1, 0)),
        tail=tail,
        coords=basis_inv,
        entry_angle=np.full(p, -np.pi),
    )


# ---------------------------------------------------------------------------
# monodromy


def _departure_order(points: np.ndarray, approaches) -> np.ndarray:
    """The punctures in the order their loops leave z0 counterclockwise,
    read off the approach legs: leg i, run on to z_i, comes before leg j
    when arg(z - z_j) turns more along it than arg(z - z_i) turns along
    leg j (paths.arg_change).  For straight legs that is the order of
    increasing arg(z_i - z0); a detour passes a point on one side or the
    other and turns by about pi round it, and on an exact tie it is
    clockwise, so the nearer point comes first."""
    pts, m = [complex(z) for z in points], len(points)
    legs = [leg + [paths.Line(leg[-1].point(1.0), z)] for leg, z in zip(approaches, pts)]
    turn = np.zeros((m, m))
    for i, j in permutations(range(m), 2):
        turn[i, j] = paths.arg_change(legs[i], pts[j])
    return np.array(sorted(range(m), key=cmp_to_key(lambda i, j: turn[j, i] - turn[i, j])))


class MonodromyLoops:
    """The monodromy loops of a weight system, built once, by
    WeightSystem.loops: the one owner of the loop geometry.

    The basepoint is z0 = 2i max(1, max |z_j|).  Loop i < n-1 runs from z0
    along its approach leg P_i to the circle around puncture i, once around
    that circle counterclockwise and back along P_i; loop n is the big
    counterclockwise circle |z| = |z0|.  At z0 the series at infinity
    converges with q = max |z_j| / |z0| <= 1/2 on and beyond that circle,
    and every loop circle lies inside |z| <= |z0| (a ring is at most half
    the distance to another puncture, so |z_i| + ring_i <= 2 max |z_j|); a
    ring may touch the big circle.  relation_order, the order in which the
    loops leave z0 counterclockwise (_departure_order), is the one order
    that every relation product M_i1 ... M_i(n-1) M_n = I reads.

    Every loop keeps at least 0.2 d_min from every puncture, d_min the
    least distance between two punctures, by construction; nothing checks
    it.  Puncture i's ring is ring_i = 1/2 min(|z_i - z_k|, |z_i - z0|),
    and leg i detours round keepout disks of radius 0.8 ring_j about the
    other punctures (plan_route).  These disks are pairwise disjoint, as
    0.8 (ring_j + ring_k) <= 0.8 |z_j - z_k|, and neither z0 nor a leg's
    entry lies in one.  So each Line of leg i lies on the segment from z0
    to its entry, outside every keepout disk, and each Arc on a keepout
    circle: leg i keeps ring_i from z_i and 0.8 ring_j from each other
    z_j, and circle i keeps ring_i from every puncture.  Every ring is at
    least d_min / 4, since |z_j - z0| >= max(1, max |z|) >= d_min / 2, and
    the big circle keeps that max(1, max |z|) too.

    A monodromy evaluation marches the approach legs of all systems in one
    transport call (a leg is one Line unless plan_route detours it round
    another puncture's circle).  Transport is linear, so a leg's transport
    is the product of its pieces' transports, each from I, later pieces on
    the left: every segment of every leg of every system is one fan member
    started at I, and P_i is the product of its members in path order.
    While the fan is small each segment is cut into
    k = max(1, LEG_FAN_MEMBERS // (B S)) pieces, B systems and S segments
    over all legs, so the one call takes fewer, shared steps: a Line of
    leg i lies on the ray from z_i through z0 and is cut at equal steps of
    log |z - z_i|, an Arc at equal angles (_cut).  A stack of 16 or more
    systems is not cut.  Every circle
    is taken in closed form from one series_stack call over all
    (system, point) members, the n-1 punctures and infinity.  With
    F = G(x) V the series at the circle's entry x, V the eigenbasis of the
    point's residue L = V Lambda V^{-1}, every generator is
    M_i = P_i^{-1} F exp(2 pi i Lambda) F^{-1} P_i, with P = I on the big
    circle.  One phase sign serves every circle: a counterclockwise circle
    in z is clockwise in w = 1/z, and that sign at infinity cancels the
    generator's inversion of the counterclockwise transport
    F exp(-2 pi i Lambda) F^{-1} at a puncture.  The return leg is never
    integrated: its transport is exactly P_i^{-1}.
    """

    def __init__(self, weights: WeightSystem):
        self.weights = weights
        pts, m = weights.points, weights.n - 1
        self.z0 = z0 = 2j * max(1.0, float(np.max(np.abs(pts))))
        # a loop circle's radius: half the distance to the nearest other
        # puncture or to z0; its approach leg runs from z0 around the other
        # circles (plan_route) to its entry on the ray from z_i to z0
        rings = [0.5 * min([abs(pts[i] - pts[j]) for j in range(m) if j != i] + [abs(pts[i] - z0)])
                 for i in range(m)]
        circles, self.approaches = [], []
        for i in range(m):
            center = complex(pts[i])
            entry = center + rings[i] * (z0 - center) / abs(z0 - center)
            keepouts = [(complex(pts[j]), 0.8 * rings[j]) for j in range(m) if j != i]
            self.approaches.append(paths.plan_route(z0, entry, keepouts))
            circles.append(paths.circle(center, rings[i], float(np.angle(z0 - center))))
        self.relation_order = read_only(_departure_order(pts, self.approaches))
        circles.append(paths.circle(0.0, abs(z0), float(np.angle(z0))))
        self.circles = circles
        self._segments = sum(len(approach) for approach in self.approaches)
        self._leg_fans = {}
        # each point's series radius, entry angle (the argument of z - z_p,
        # of z0 on the big circle) and log x at its entry, x the local
        # coordinate: log rho + i theta0 at a puncture, -log z0 at infinity
        self.radii = [c.radius for c in circles[:-1]] + [1.0 / abs(self.z0)]
        self.entry_angles = np.array([c.angle0 for c in circles])
        self.entry_logs = np.array([np.log(c.radius) + 1j * c.angle0 for c in circles[:-1]]
                                   + [-(np.log(abs(self.z0)) + 1j * np.angle(self.z0))])

    def _leg_fan(self, cuts: int) -> tuple[paths.SegmentFan, list]:
        """The one fan of every approach-leg segment cut into cuts pieces
        (_cut), leg by leg in path order, and per place j along a leg the
        legs that have a piece there with that piece's fan member: built
        once per cut count."""
        if cuts not in self._leg_fans:
            legs = [[piece for seg in approach for piece in _cut(seg, z, cuts)]
                    for approach, z in zip(self.approaches, self.weights.points)]
            sizes = np.array([len(leg) for leg in legs])
            first = np.cumsum(sizes) - sizes
            places = [(np.flatnonzero(sizes > j), first[sizes > j] + j) for j in range(sizes.max())]
            self._leg_fans[cuts] = paths.SegmentFan([piece for leg in legs for piece in leg]), places
        return self._leg_fans[cuts]

    def circle_transports(self, residues, tol: float) -> tuple[np.ndarray, SeriesStack]:
        """The generator circles F exp(2 pi i Lambda) F^{-1}, (B, n, r, r),
        of a (B, n-1, r, r) residue stack (class docstring), and the one
        SeriesStack they come from, describing on every member the solution
        that is I at its circle's entry x: coordinates diag(x^lam) F(x)^{-1}
        and the entry's angle.  One series_stack call; the power is a row
        scaling of F^{-1}, never a dense inverse of x^{-L}: rows it spreads
        over many orders of magnitude keep their digits.  A frame that
        np.linalg.inv finds singular raises NumericalError naming it."""
        res = np.asarray(residues, dtype=complex)
        b, n, r = len(res), self.weights.n, self.weights.rank
        series = series_stack(self.weights.points, res, self.radii, tol)
        frame = series.frame(np.exp(self.entry_logs)).reshape(b, n, r, r)
        try:
            frame_inv = np.linalg.inv(frame)
        except np.linalg.LinAlgError:
            raise NumericalError(_singular_member(frame, "series frame at the entry of loop circle")) from None
        exponents = series.exponents.reshape(b, n, r)
        circles = (frame * np.exp(TWO_PI_I * exponents)[:, :, None, :]) @ frame_inv
        coords = np.exp(self.entry_logs[:, None] * exponents)[..., None] * frame_inv
        series = replace(series, coords=coords.reshape(b * n, r, r), entry_angle=self.entry_angles)
        return circles, series

    def monodromy(self, residues, tol: float) -> tuple[np.ndarray, SeriesStack]:
        """Representation generators, (B, n, r, r), of a (B, n-1, r, r)
        residue stack, and the circles' series (member b n + p: system b at
        point p, infinity last) describing the solution that is I at the
        basepoint: its coordinates are diag(x^lam) F(x)^{-1} P_i, P_i the
        approach leg's transport to the circle's entry x, I on the big
        circle.  The circles come in closed form (circle_transports), the
        legs of all systems from one transport call on their pieces
        (_leg_fan; class docstring), and every generator is
        P_i^{-1} (F exp(2 pi i Lambda) F^{-1}) P_i.  A leg transport that
        np.linalg.solve finds singular, or a singular circle frame, raises
        NumericalError naming it, so that the LM rejects such a trial point
        as it rejects one whose series tail is not finite."""
        res = np.asarray(residues, dtype=complex)
        circles, series = self.circle_transports(res, tol)
        fan, places = self._leg_fan(max(1, LEG_FAN_MEMBERS // (len(res) * self._segments)))
        eye = np.eye(self.weights.rank, dtype=complex)
        # called by its module name, so that a wrapper of fuchs.transport sees it
        pieces = transport(self.weights.points, res, fan, eye, tol=tol).values[-1]
        # each leg's transport, the product of its pieces' in path order, later
        # pieces on the left; a leg of one piece is that piece's transport
        legs = np.broadcast_to(eye, circles.shape).copy()
        for j, (which, members) in enumerate(places):
            legs[:, which] = pieces[:, members] @ legs[:, which] if j else pieces[:, members]
        try:
            gens = np.linalg.solve(legs, circles @ legs)
        except np.linalg.LinAlgError:
            raise NumericalError(_singular_member(legs, "transport along the approach leg of puncture")) from None
        series = replace(series, coords=series.coords @ legs.reshape(series.coords.shape))
        return gens, series


def _cut(seg: paths.Segment, center: complex, cuts: int) -> list[paths.Segment]:
    """seg, a piece of the approach leg to the puncture center, as cuts
    pieces in path order: a Line, which lies on a ray from center, at equal
    steps of log |z - center|, an Arc at equal angles."""
    f = np.arange(1, cuts) / cuts
    if isinstance(seg, paths.Line):
        u = seg.start - center
        ends = [seg.start, *(center + u * (abs(seg.end - center) / abs(u)) ** f), seg.end]
        return [paths.Line(a, b) for a, b in zip(ends[:-1], ends[1:])]
    ends = [seg.angle0, *(seg.angle0 + f * (seg.angle1 - seg.angle0)), seg.angle1]
    return [paths.Arc(seg.center, seg.radius, a, b) for a, b in zip(ends[:-1], ends[1:])]


def _singular_member(stack: np.ndarray, what: str) -> str:
    """Names the first member (b, i) of a (B, m, r, r) stack that
    np.linalg.inv finds singular: the what at loop i of system b."""
    for b, i in np.ndindex(stack.shape[:2]):
        try:
            np.linalg.inv(stack[b, i])
        except np.linalg.LinAlgError:
            return f"the {what} {i} of system {b} is singular"
    return f"a {what} is singular"


@dataclass
class MonodromyResult:
    generators: np.ndarray       # (n, r, r) representation convention, product = I
    loop_transports: np.ndarray  # (n, r, r) CCW transports, loop i and big circle
    relation_residual: float


def monodromy_rep(system: FuchsianSystem, tol: float = TRANSPORT_TOL) -> MonodromyResult:
    """Representation generators of the system's monodromy, and the loop
    transports they come from.

    The weights' loop set (WeightSystem.loops) with one member.  The loop
    transports are formed here: the inverse of each puncture generator,
    and the big circle's generator as it is.  The relation residual
    multiplies the generators in the loop set's relation_order, as every
    relation product does.  It is a genuine check: the big circle comes
    from the series at infinity, which depends neither on the approach
    legs nor on the puncture series.
    """
    ws = system.weights
    gens = ws.loops.monodromy(system.residues[None], tol)[0][0]
    return MonodromyResult(
        generators=gens,
        loop_transports=np.concatenate([np.linalg.inv(gens[:-1]), gens[-1:]]),
        relation_residual=_relation_residual(ws, gens),
    )


# ---------------------------------------------------------------------------
# gauge alignment


# most sweeps of _balance_positive_diagonal and of _torus_ascent
BALANCE_SWEEPS = 200
TORUS_SWEEPS = 1000


def _balance_positive_diagonal(sq: np.ndarray) -> np.ndarray:
    """Positive diagonals D minimizing sum ||D M D^{-1}||_F^2 (Osborne sweeps).

    sq (B, r, r) holds sum_i |M_i|^2 of each member; returns d (B, r).  A
    member stops moving once a sweep moves it by less than 1e-14, or after
    BALANCE_SWEEPS sweeps.
    """
    r = sq.shape[-1]
    # with the diagonal zeroed, row and column sums skip it (adding 0 is exact)
    off = sq * (1 - np.eye(r))
    lam = np.zeros(sq.shape[:-1])
    active = np.ones(len(sq), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(BALANCE_SWEEPS):
            before = lam.copy()
            for j in range(r):
                row = (off[:, j, :] * np.exp(-2 * lam)).sum(axis=-1)
                col = (off[:, :, j] * np.exp(2 * lam)).sum(axis=-1)
                step = active & (row > 0) & (col > 0)
                lam[:, j] = np.where(step, 0.25 * np.log(col / row), lam[:, j])
            moved = np.abs(lam - before).max(axis=-1)
            # subtracting 0.0 leaves the members that stopped as they are
            lam -= active[:, None] * (lam.sum(axis=-1, keepdims=True) / r)
            active &= moved >= 1e-14
            if not active.any():
                break
    return np.exp(lam)


def _torus_ascent(c: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Coordinate ascent of Re sum_jk g_j c_jk conj(g_k), g = e^{i theta}.

    c (B, r, r), theta (B, S, r) with S starts per member; each start stops
    once a sweep moves it by less than 1e-14, or after TORUS_SWEEPS sweeps,
    and later sweeps run on the starts still moving alone.  Every coordinate
    step is the exact maximizer along its axis.
    """
    r = theta.shape[-1]
    off = c * (1 - np.eye(r))
    # the (member, start) index pairs still moving, the only ones a sweep updates
    live = np.nonzero(np.ones(theta.shape[:-1], dtype=bool))
    for _ in range(TORUS_SWEEPS):
        t, o = theta[live], off[live[0]]
        before = t.copy()
        for j in range(r):
            g = np.exp(1j * t)
            w = (o[..., j, :] * np.conj(g)).sum(axis=-1) + np.conj((o[..., :, j] * g).sum(axis=-1))
            t[:, j] = np.where(np.abs(w) > 0, -np.arctan2(w.imag, w.real), t[:, j])
        theta[live] = t
        turn = np.exp(1j * (t - before))
        moving = np.abs(np.arctan2(turn.imag, turn.real)).max(axis=-1) >= 1e-14
        live = tuple(i[moving] for i in live)
        if not moving.any():
            break
    return theta


@dataclass
class TupleAlignment:
    generators: np.ndarray  # (..., n, r, r) aligned tuples
    conjugator: np.ndarray  # (..., r, r) W with computed_i = W aligned_i W^{-1}
    mismatch: np.ndarray    # (...) sum_i ||aligned_i - target_i||_F^2


def align_tuple_to_target(computed, target: AdmissibleRep) -> TupleAlignment:
    """Conjugate computed tuples, one (n, r, r) or a stack (..., n, r, r), as
    close as possible to the target tuple; every step runs on the whole stack.
    """
    m = np.asarray(computed, dtype=complex)
    lead, (n, r) = m.shape[:-3], m.shape[-3:-1]
    m = m.reshape(-1, n, r, r)
    tgt = target.generators

    lam, v = np.linalg.eig(m[:, -1])
    perm, _ = _match_to_targets(lam, np.exp(TWO_PI_I * target.weights.weights[-1]))
    v = np.take_along_axis(v, perm[:, None, :], axis=-1)
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    gens = np.linalg.inv(v)[:, None] @ m @ v[:, None]

    d = _balance_positive_diagonal(np.sum(np.abs(gens) ** 2, axis=1))
    gens = d[:, None, :, None] * gens * (1.0 / d)[:, None, None, :]

    # maximize Re sum_i <g M_i g^*, T_i> over the diagonal torus g = diag(e^{i theta}),
    # from theta = 0 and six seeded starts; the first best start wins
    c = np.sum(gens * np.conj(tgt), axis=1)
    draws = np.random.default_rng(2024).uniform(0, 2 * np.pi, (6, r))
    starts = np.concatenate([np.zeros((1, r)), draws])
    theta = _torus_ascent(c, np.broadcast_to(starts, (len(m), 7, r)).copy())
    g = np.exp(1j * theta)
    value = np.real(np.sum(g[..., :, None] * np.conj(g)[..., None, :] * c[:, None], axis=(-2, -1)))
    theta = theta[np.arange(len(m)), np.argmax(value, axis=-1)]
    # the starts reach one optimum up to a common phase, which moves no
    # aligned generator: pin theta_0 = 0, so that W does not follow the
    # rounding tie that argmax breaks between them
    theta -= theta[:, :1]
    g = np.exp(1j * theta)
    gens = g[:, None, :, None] * gens * np.conj(g)[:, None, None, :]

    mismatch = np.sum(np.abs(gens - tgt) ** 2, axis=(-3, -2, -1))
    conj = v * (1.0 / d)[:, None, :] * np.exp(-1j * theta)[:, None, :]
    return TupleAlignment(
        generators=gens.reshape(*lead, n, r, r),
        conjugator=conj.reshape(*lead, r, r),
        mismatch=mismatch.reshape(lead)[()],
    )


def rep_distance(a: AdmissibleRep, b: AdmissibleRep) -> float:
    """Squared gauge distance between normalized tuples: the mismatch of
    a aligned to b by :func:`align_tuple_to_target`.

    The residual gauge of a normalized tuple is the diagonal torus only
    when the infinity phases are distinct; repeated phases raise
    ValueError (their exponents at infinity are resonant anyway).
    """
    if a.weights.weights.shape != b.weights.weights.shape:
        raise ValueError("weight data must match")
    w = np.sort(a.weights.weights[-1])
    # the phases lie on a circle: the first and last weights are neighbours too
    gaps = np.append(np.diff(w), 1.0 - (w[-1] - w[0]))
    if a.rank > 1 and np.min(gaps) < 1e-8:
        raise ValueError("repeated infinity phases: the residual gauge is not a torus")
    return align_tuple_to_target(a.generators, b).mismatch
