"""Inverse problem: residues with prescribed spectra matching a target
unitary monodromy, plus the canonical normalization at infinity.

The unknowns are conjugators C_i in the chart C_i = B_i exp(K_i) with
zero-diagonal K_i (the right-diagonal torus acting trivially on
A_i = C_i W_i C_i^{-1} is removed exactly).  Every restart without an
initial system, the first included, draws its basepoints B_i = exp(K)
from zero-diagonal Gaussian K (cold_chart); at identity basepoints the
central-difference Jacobian is rounding noise.  The merit function
compares gauge-aligned computed monodromy generators with the target
tuple entrywise and adds a penalty, weighted by INFINITY_WEIGHT, on the
spectrum of the residue at infinity, which pins the splitting type.
One entry, residual_vector, takes a chart point or a stack: LM's points
and each iteration's central-difference Jacobian, a single stack of 2 dim
points, mapped to residues by one batched numcore.expm, taken through the
weights' loop set (every loop circle in closed form from one stacked
local-series recursion, one kernel call per approach leg), and
gauge-aligned in one call.  Each runs at the tolerance its use needs: a
point at fuchs.TRANSPORT_TOL, the normalization's, a Jacobian stack at
the looser JACOBIAN_TOL.

The loops and the gauge alignment live in fuchs (WeightSystem.loops,
align_tuple_to_target); nothing here builds or passes a loop set.  A
restart's final residual is the squared norm of the generator block of
its last LM residual.  Each residual comes with the evaluation it was
made from (its residues, their alignment to the target and, at a point,
its loop series), and LM keeps the one of the point it accepted last, so
solve returns the residues of LM's solution and normalizes it from that
evaluation, on one path: the solution is neither transported nor aligned
again.  Nor is the solution normalized after that: normalize_at_infinity
hands the normalization back for the system that solve returned and its
target object (_NORMALIZATIONS, held weakly).

Both records are keyed on objects of the problem types, which are values
(fuchs.WeightSystem, AdmissibleRep and FuchsianSystem: frozen, with
read-only copies of their arrays).  What a record was made from cannot
change, so it holds for as long as its key lives and is never checked.
What a record holds cannot change either: a normalization
(NormalizationResult, frozen) and a chart's kept evaluations are
read-only copies, arrays and series alike, made by one helper
(_read_only_arrays).  So the one normalization that the solve's report,
normalize_at_infinity and every metric field built from it share by
identity cannot be written through.

A chart keeps the first evaluation of its loop set at each tolerance
(ResidueParametrization.loop_generators).  In LM's order these are its
start point x0 = 0 at fuchs.TRANSPORT_TOL and its first Jacobian stack,
the central differences at x0, at JACOBIAN_TOL; only LM decides that
order.  Every evaluation depends on the chart alone up to the gauge
alignment to the target.  A warm solve's restart 0 runs on the chart of
its init, and each init object given to solve owns that chart as its
warm start record (_warm_start, held weakly, so it dies with init).  A
later warm solve from the same init on the same weights object aligns
the kept evaluations to its own target without transporting them again,
and takes the same LM steps to the same bits.  A cold chart keeps its
own for its restart, and dies with it.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import factor, fuchs
# called by this name, so that a wrapper of rhsolve.align_tuple_to_target sees every call
from .fuchs import ResonanceError, align_tuple_to_target
from .numcore import NumericalError, diag_stack, expm, read_only, sorted_eigvals


class ReducibleTargetError(ValueError):
    pass


# weight of the infinity-spectrum entries of the LM residual against the generators'
INFINITY_WEIGHT = 10.0
# relative step of the central-difference Jacobian, scaled by max(1, |x_j|)
FD_STEP = 1e-6
# transport and local-series tolerance of a central-difference Jacobian
# stack; a chart point runs at fuchs.TRANSPORT_TOL (residual_vector)
JACOBIAN_TOL = 1e-6


# ---------------------------------------------------------------------------
# parametrization


@dataclass
class ResidueParametrization:
    """Chart for residue tuples with exact spectra.

    C_i = B_i exp(K_i) with K_i zero-diagonal; A_i = C_i W_i C_i^{-1}
    has spectrum exactly the i-th weight row at every chart point.

    A chart keeps one record, set in __post_init__, so it is not a field:
    evaluations, the first evaluation of loop_generators at each tolerance.
    """

    weights: fuchs.WeightSystem
    basepoints: np.ndarray  # (n-1, r, r)

    def __post_init__(self):
        # {tol: (points, (residues, generators, series or None))}, read-only
        self.evaluations = {}

    @property
    def dim(self) -> int:
        n, r = self.weights.n, self.weights.rank
        return 2 * (r * r - r) * (n - 1)

    def _unpack(self, x: np.ndarray) -> np.ndarray:
        """K_i of chart points x (..., dim) as (..., n-1, r, r): per residue the
        off-diagonal entries in row-major order, each a (real, imaginary) pair."""
        n, r = self.weights.n, self.weights.rank
        a, b = np.nonzero(~np.eye(r, dtype=bool))
        ks = np.zeros(x.shape[:-1] + (n - 1, r, r), dtype=complex)
        ks[..., a, b] = (x[..., 0::2] + 1j * x[..., 1::2]).reshape(*x.shape[:-1], n - 1, len(a))
        return ks

    def conjugators(self, x: np.ndarray) -> np.ndarray:
        """C_i of chart points x (..., dim) as (..., n-1, r, r)."""
        ks = self._unpack(np.asarray(x, dtype=float))
        return self.basepoints @ expm(ks)

    def residues(self, x: np.ndarray) -> np.ndarray:
        """A_i of chart points x (..., dim) as (..., n-1, r, r); a singular
        conjugator raises NumericalError naming it."""
        cs = self.conjugators(x)
        try:
            return cs @ diag_stack(self.weights.weights[:-1]) @ np.linalg.inv(cs)
        except np.linalg.LinAlgError:
            stack = cs.reshape(-1, *cs.shape[-3:])
            raise NumericalError(fuchs._singular_member(stack, "chart conjugator of point")) from None

    def loop_generators(self, xs: np.ndarray, tol: float) -> tuple:
        """The target-free part of the residuals of a (B, dim) stack of chart
        points: its residues (B, n-1, r, r), their monodromy generators
        (B, n, r, r) and, when the stack is one point, the loops' series on
        the weights' loop set at tol, each from one call, read-only.

        The first stack evaluated at each tol is kept in evaluations; an
        equal stack at that tol gets its evaluation back without a loop set.
        In LM's order these are its start point and its first Jacobian
        stack, so a warm chart (_warm_start) keeps them for every solve from
        its init."""
        kept = self.evaluations.get(tol)
        if kept is not None and np.array_equal(xs, kept[0]):
            return kept[1]
        residues = self.residues(xs)
        gens, series = self.weights.loops.monodromy(residues, tol)
        series = _read_only_arrays(series) if len(xs) == 1 else None
        new = (read_only(xs), (read_only(residues), read_only(gens), series))
        self.evaluations.setdefault(tol, new)
        return new[1]


def parametrization_from_system(system: fuchs.FuchsianSystem) -> ResidueParametrization:
    """Chart centered at an existing system: its basepoints are the residues'
    unit eigenvectors in the order of increasing real eigenvalue parts, from
    one batched eig."""
    lam, v = np.linalg.eig(system.residues)
    order = np.argsort(lam.real, axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    if np.max(np.abs(lam.real - system.weights.weights[:-1])) > 1e-6:
        warnings.warn("system spectra deviate from the weights; chart recentered")
    return ResidueParametrization(system.weights, v / np.linalg.norm(v, axis=-2, keepdims=True))


def cold_chart(weights: fuchs.WeightSystem, seed: int) -> ResidueParametrization:
    """The chart of a restart without an initial system: basepoints
    B_i = exp(K_i) from one Gaussian draw of seed, per conjugator its real,
    then its imaginary part, scaled by 0.6, with zero diagonal."""
    n, r = weights.n, weights.rank
    g = np.random.default_rng(seed).standard_normal((n - 1, 2, r, r))
    ks = 0.6 * (g[:, 0] + 1j * g[:, 1])
    ks[:, np.arange(r), np.arange(r)] = 0.0
    return ResidueParametrization(weights, expm(ks))


# the warm start record of each init object solve was given, dropped with it
_WARM_STARTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _warm_start(weights: fuchs.WeightSystem, init: fuchs.FuchsianSystem) -> ResidueParametrization:
    """The warm start record of init on weights: init's chart
    (parametrization_from_system), with the evaluations that it keeps
    (ResidueParametrization.loop_generators).  The saved one when it was
    made for these weights (the same object, so the same loop set), else a
    new one in its place.  The init is a value (fuchs.FuchsianSystem), so
    the record holds for as long as it lives."""
    chart = _WARM_STARTS.get(init)
    if chart is None or chart.weights is not weights:
        chart = parametrization_from_system(fuchs.FuchsianSystem(weights, init.residues))
        _WARM_STARTS[init] = chart
    return chart


# ---------------------------------------------------------------------------
# residual


def residual_vector(
    parm: ResidueParametrization, x: np.ndarray, target: fuchs.AdmissibleRep
) -> tuple:
    """Concatenated gauge-aligned monodromy and infinity-spectrum residuals,
    with the evaluation they come from: (m,) at a chart point x (dim,),
    (B, m) for a (B, dim) stack.  Each runs at the tolerance its use needs:
    a point, an LM start or trial point that may become the solution, at
    fuchs.TRANSPORT_TOL, the tolerance of its normalization; a stack, a
    central-difference Jacobian, at JACOBIAN_TOL.  Its members share one
    step sequence and one series length, so their differences are
    derivatives of one discretization (internal numerical
    differentiation), far more accurate than the tolerance.  The
    target-free residues and generators come from the chart
    (ResidueParametrization.loop_generators), their gauge alignment to the
    target from one call; then the infinity spectrum.  The evaluation is
    (residues, alignment, series): at a point the residues (n-1, r, r), the
    alignment of its one tuple and its loop series, which solve normalizes
    (_normalize); for a stack the stacked residues and alignment, and the
    series only when the stack has one member.  Nothing is written to the
    chart but what loop_generators keeps."""
    x = np.asarray(x, dtype=float)
    point = x.ndim == 1
    xs = x[None] if point else x
    residues, gens, series = parm.loop_generators(xs, fuchs.TRANSPORT_TOL if point else JACOBIAN_TOL)
    aligned = align_tuple_to_target(gens[0] if point else gens, target)
    diff = aligned.generators - target.generators
    # per generator: real parts, then imaginary parts
    d = np.stack([diff.real, diff.imag], axis=-3).reshape(len(xs), -1)
    lam = sorted_eigvals(-np.sum(residues, axis=1))
    tgt = np.sort(parm.weights.infinity_exponents)
    f = np.concatenate(
        [d, INFINITY_WEIGHT * (lam.real - tgt), INFINITY_WEIGHT * lam.imag],
        axis=1,
    )
    return (f[0], (residues[0], aligned, series)) if point else (f, (residues, aligned, series))


def central_jacobian(residuals, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian from one call of residuals (residual_vector
    with parm and target bound) on one (2 dim, dim) stack: x plus each step
    FD_STEP * max(1, |x_j|), then x minus each."""
    steps = FD_STEP * np.maximum(1.0, np.abs(x))
    shift = np.diag(steps)
    f = residuals(np.concatenate([x + shift, x - shift]))[0]
    n = len(x)
    return ((f[:n] - f[n:]) / (2 * steps[:, None])).T


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


@dataclass
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 200
    restarts: int = 10
    seed: int = 0


@dataclass
class SolveReport:
    # the squared gauge distance of the best restart's monodromy from the
    # target: success means final_residual <= tol**2
    final_residual: float
    iterations: int
    objective_history: list[float]
    infinity_spectrum_error: float
    success: bool
    restart_index: int
    message: str
    # the normalization at infinity of the solution, None when the solve
    # failed or the normalization raised
    normalization: NormalizationResult | None

    @property
    def large_cell_flag(self) -> bool:
        """The normalization's large_cell_flag; False without a normalization."""
        return self.normalization is not None and self.normalization.large_cell_flag


def _levenberg_marquardt(residuals, x0: np.ndarray, opts: SolveOptions):
    """Small dense LM with central-difference Jacobian and Nielsen damping.

    residuals takes one point (dim,) or a stack (B, dim) and returns the
    residual with its evaluation, as residual_vector does: LM calls it at
    its start and trial points, and on one stack for each iteration's
    Jacobian (central_jacobian).  Returns the final point, its residual and
    evaluation, which LM keeps beside them as it accepts a point, and the
    cost history, the start's cost and one entry per iteration.  A start of
    dimension 0, a rank-1 chart, is its own solution: LM evaluates it and
    forms no Jacobian.
    """
    x = x0.copy()
    f, evaluation = residuals(x)
    cost = float(f @ f)
    history = [cost]
    lam, nu = 1e-3, 2.0
    # cost is on the squared scale of the gauge distance; stop at the
    # acceptance bound tol^2, floored at the noise level (10
    # fuchs.TRANSPORT_TOL)^2 that a point's transport tolerance sets, which
    # binds only for tol below 1e-9
    target_cost = max(opts.tol**2, (10.0 * fuchs.TRANSPORT_TOL) ** 2)
    n = len(x)
    for _ in range(opts.max_iter):
        # a chart of dimension 0 (rank 1) has no step to take: its history
        # is its start's cost, reached or not
        if cost <= target_cost or not n:
            break
        J = central_jacobian(residuals, x)
        g = J.T @ f
        if np.linalg.norm(g, np.inf) < 1e-14:
            break
        JtJ = J.T @ J
        improved = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(n), -g)
            except np.linalg.LinAlgError:
                lam *= nu
                nu *= 2
                continue
            x_new = x + delta
            try:
                f_new, ev_new = residuals(x_new)
                cost_new = float(f_new @ f_new)
            except NumericalError:
                # a trial point whose residual cannot be evaluated is rejected
                # like one that raises the cost
                cost_new = np.inf
            predicted = float(delta @ (lam * delta - g))
            rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
            if cost_new < cost and rho > 0:
                x, f, evaluation, cost = x_new, f_new, ev_new, cost_new
                lam = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                improved = True
                break
            lam *= nu
            nu *= 2.0
            if lam > 1e12:
                break
        history.append(cost)
        if not improved:
            break
        if len(history) > 3 and abs(history[-3] - cost) < 1e-16 * (1 + cost):
            break
    return x, f, evaluation, history


def solve(
    weights: fuchs.WeightSystem,
    target: fuchs.AdmissibleRep,
    init: fuchs.FuchsianSystem | None = None,
    opts: SolveOptions | None = None,
) -> tuple[fuchs.FuchsianSystem, SolveReport]:
    """Find residues with the weight spectra whose monodromy matches the target.

    Levenberg-Marquardt from deterministic multi-starts, every restart's
    chart through LM, a rank-1 chart of dimension 0 too: restart 0 starts
    from the chart of init when one is given; otherwise, and on every later
    restart, the chart basepoints are drawn from the restart's seed
    (cold_chart).  A warm restart 0 runs on init's warm start record, its
    chart (module docstring): a repeat solve from one init transports its
    first residual and first Jacobian stack once, whatever the target.  An
    init of other points or weight rows than weights raises ValueError.
    Success means the gauge distance between the solution's monodromy and
    the target (the norm of the generator block of the last LM residual)
    is at most opts.tol; the report's final_residual is its square.  The
    returned report carries the normalization at infinity of a successful
    solution, whose large_cell_flag it reads, and normalize_at_infinity
    hands it back for the returned system (module docstring).  The system
    and its normalization (_normalize) are built from LM's evaluation of
    its solution (residual_vector at fuchs.TRANSPORT_TOL): its residues,
    its alignment to the target and its loop series, with no loop set and
    no alignment of their own.  The report's iterations are the entries of
    objective_history after the start's.
    """
    opts = opts or SolveOptions()
    if not target.is_irreducible():
        raise ReducibleTargetError("target representation is reducible")
    r = weights.rank
    if init is not None:
        if not (np.array_equal(init.points, weights.points)
                and np.array_equal(init.weights.weights, weights.weights)):
            raise ValueError("init has other points or weights than the system solved for")
        # its chart reads the loop set of weights, as every restart's does
        warm = _warm_start(weights, init)

    best = None
    rng_master = np.random.default_rng(opts.seed)
    seeds = rng_master.integers(0, 2**63 - 1, size=max(opts.restarts, 1))
    for restart, seed in enumerate(seeds):
        parm = warm if restart == 0 and init is not None else cold_chart(weights, seed)

        # the module-global name: a wrapper of rhsolve.residual_vector sees every call
        residuals = partial(residual_vector, parm, target=target)
        _, f, evaluation, history = _levenberg_marquardt(residuals, np.zeros(parm.dim), opts)

        # the generator block of the residual is aligned - target; the last
        # 2r entries are the infinity-spectrum penalty
        gauge = f[: -2 * r]
        final = float(gauge @ gauge)
        cand = (final, restart, evaluation, history)
        if best is None or cand[0] < best[0]:
            best = cand
        # final is a squared distance, tol a distance
        success = best[0] <= opts.tol**2
        if success:
            break

    final, restart, (residues, aligned, series), history = best
    system = fuchs.FuchsianSystem(weights, residues)
    norm = None
    if success:
        try:
            _refuse_resonance_at_infinity(weights)
            norm = _normalize(system, series, aligned)
            _NORMALIZATIONS[system] = (target, norm)
        except NumericalError as exc:
            warnings.warn(f"normalization at infinity failed: {exc}")
    report = SolveReport(
        final_residual=float(final),
        iterations=len(history) - 1,
        objective_history=history,
        infinity_spectrum_error=system.infinity_spectrum_residual(),
        success=success,
        restart_index=restart,
        message="converged" if success else "no restart reached tolerance",
        normalization=norm,
    )
    return system, report


# ---------------------------------------------------------------------------
# normalization at infinity


# normalize_at_infinity warns above this exponent drift at infinity
DISAGREEMENT_WARNING = 1e-3

# solve's (target, normalization) of each system it returned
_NORMALIZATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class NormalizationResult:
    """The canonical solution at infinity.  The spectrum's drift there is
    SolveReport.infinity_spectrum_error; normalize_at_infinity warns on it.

    A value: its arrays, and every array of its series, are read-only
    copies (_read_only_arrays).  The record is handed out by identity, to
    SolveReport.normalization, to normalize_at_infinity's callers and to
    every metric field built from it (wznw.make_metric_field), so a write
    through one of them raises ValueError instead of reaching the others."""

    constant_term: np.ndarray
    # whether the solution lies on the regular locus: a scalar splitting with
    # an invertible constant term (normalize_at_infinity)
    large_cell_flag: bool
    canonical_system: fuchs.FuchsianSystem
    basepoint_value: np.ndarray  # canonical fundamental solution at the basepoint
    right_conjugator: np.ndarray
    # the monodromy generators aligned to the target, W^{-1} M_i W: the
    # canonical solution's monodromy in the gauge of basepoint_value
    aligned_generators: np.ndarray  # (n, r, r)
    # the loops' series in the canonical gauge, member p at point p
    # (infinity n-1), describing the canonical solution: matched at the
    # loop entry, at argument arg(z0 - z_p)
    series: fuchs.SeriesStack


def normalize_at_infinity(
    system: fuchs.FuchsianSystem, target: fuchs.AdmissibleRep
) -> NormalizationResult:
    """Read the constant term at infinity from the local series and
    renormalize to the canonical fundamental solution, at
    fuchs.TRANSPORT_TOL, on the weights' loop set (WeightSystem.loops).  A
    system that solve returned gets the solve's normalization back when
    the target is the solve's object; an equal but distinct target
    normalizes afresh.  Only solve writes that record.

    The right conjugator W aligns the monodromy with the target unitary
    tuple (the aligned generators W^{-1} M_i W are kept).  Y W = Y0 K on
    every region of the loops' SeriesStack, Y0 = F(x) x^{-L} the member's
    series (F's order-0 coefficient V the eigenbasis of L), and the
    coordinates V^{-1} K of all members are the loop set's coordinates of
    Y times W (MonodromyLoops.monodromy), one product inside the one
    replace that also moves the series to the canonical gauge.  At
    infinity column b of Y W z^{-(N'+W_n)} tends to the constant term
    V[:, pi(b)] C[pi(b), b], C = V^{-1} K and pi matching the series'
    exponents to N' + W_n.  When G is invertible (cond(G) <= 1e10) the
    solution is left-normalized so the constant term becomes Pi0, whatever
    the splitting: the gauge A_i -> g A_i g^{-1} sends G to g G, so this
    pins it.

    The regular locus asks for G in the coset P_N Pi0 N(r).  For a scalar
    splitting P_N is all of GL(r), so the coset is GL(r) and large_cell_flag
    says that G is invertible.  For any other splitting the flag is False:
    G -> g G can move G in and out of the coset, so no function of G alone
    decides it.  The series is kept, describing the canonical solution:
    its frame is left F, and the coordinates do not change.
    """
    rec = _NORMALIZATIONS.get(system)
    if rec is not None and rec[0] is target:
        return rec[1]
    ws = system.weights
    _refuse_resonance_at_infinity(ws)
    gens, series = ws.loops.monodromy(system.residues[None], fuchs.TRANSPORT_TOL)
    return _normalize(system, series, align_tuple_to_target(gens[0], target))


def _refuse_resonance_at_infinity(ws: fuchs.WeightSystem) -> None:
    diffs = ws.infinity_exponents[:, None] - ws.infinity_exponents[None, :]
    off = np.abs(diffs - np.round(diffs))
    mask = ~np.eye(len(ws.infinity_exponents), dtype=bool)
    if ws.rank > 1 and np.min(off[mask]) < 1e-6:
        raise ResonanceError("infinity exponents have (near) integer differences")


def _normalize(
    system: fuchs.FuchsianSystem, series: fuchs.SeriesStack, aligned: fuchs.TupleAlignment
) -> NormalizationResult:
    """The normalization at infinity (normalize_at_infinity) of one
    evaluation of the system's loop set at fuchs.TRANSPORT_TOL: its series
    (n members) and the gauge alignment of its generators to the target."""
    ws = system.weights
    W = aligned.conjugator
    coords = series.coords @ W
    inf = ws.n - 1  # the big circle's member: at infinity, radius 1/|z0|
    C = coords[inf]
    perm, _ = fuchs._match_to_targets(series.exponents[inf], ws.infinity_exponents)
    G = series.coefficients[inf, 0][:, perm] * np.diagonal(C[perm])
    disagreement = system.infinity_spectrum_residual()
    if disagreement > DISAGREEMENT_WARNING:
        warnings.warn(
            f"constant-term extrapolation disagreement {disagreement:.2e}: the "
            "exponents at infinity drift from the weights; expansion unreliable"
        )

    invertible = bool(np.linalg.cond(G) <= 1e10)
    if invertible:
        left = factor.antidiagonal_permutation(ws.rank) @ np.linalg.inv(G)
    else:
        left = np.eye(ws.rank, dtype=complex)
    flag = invertible and ws.splitting.partition == (ws.rank,)
    return _read_only_arrays(NormalizationResult(
        constant_term=G,
        large_cell_flag=flag,
        canonical_system=system.conjugated(left),
        basepoint_value=left @ W,
        right_conjugator=W,
        aligned_generators=aligned.generators,
        series=_read_only_arrays(series, coefficients=left @ series.coefficients, coords=coords),
    ))


def _read_only_arrays(record, **changes):
    """A copy of the dataclass record with changes made and every array
    field a read-only copy (numcore.read_only): a record that is handed out
    by identity cannot be written through."""
    values = {f.name: getattr(record, f.name) for f in fields(record)} | changes
    return replace(record, **{k: read_only(v) if isinstance(v, np.ndarray) else v for k, v in values.items()})
