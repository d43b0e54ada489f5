"""Inverse problem: residues with prescribed spectra matching a target
unitary monodromy, plus the canonical normalization at infinity.

The unknowns are conjugators C_i in the chart C_i = B_i exp(K_i) with
zero-diagonal K_i (the right-diagonal torus acting trivially on
A_i = C_i W_i C_i^{-1} is removed exactly).  Every restart without an
initial system, the first included, draws its basepoints B_i = exp(K)
from zero-diagonal Gaussian K; at identity basepoints the
central-difference Jacobian is rounding noise.  The merit function
compares gauge-aligned computed monodromy generators with the target
tuple entrywise and adds a penalty, weighted by INFINITY_WEIGHT, on the
spectrum of the residue at infinity, which pins the splitting type.
Residuals are evaluated for stacks of chart points: the central-difference Jacobian of
one LM iteration is a single stack of 2 dim points, mapped to residues by
one batched expm, taken through the loop set (every loop circle in closed
form from one stacked local-series recursion, one kernel call per
approach leg), and gauge-aligned in one call.

The monodromy loops and the gauge alignment live in fuchs (MonodromyLoops,
align_tuple_to_target).  A restart's final residual is the squared norm of
the generator block of its last LM residual: nothing is transported again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import factor, fuchs
# called by this name, so that a wrapper of rhsolve.align_tuple_to_target sees every call
from .fuchs import ResonanceError, align_tuple_to_target
from .numcore import NumericalError


class ReducibleTargetError(ValueError):
    pass


# weight of the infinity-spectrum entries of the LM residual against the generators'
INFINITY_WEIGHT = 10.0
# relative step of the central-difference Jacobian, scaled by max(1, |x_j|)
FD_STEP = 1e-6
# transport and local-series tolerance of the LM residuals; (10 times it)^2
# is the floor of the LM's target cost
LM_TRANSPORT_TOL = 1e-9


# ---------------------------------------------------------------------------
# parametrization


@dataclass
class ResidueParametrization:
    """Chart for residue tuples with exact spectra.

    C_i = B_i exp(K_i) with K_i zero-diagonal; A_i = C_i W_i C_i^{-1}
    has spectrum exactly the i-th weight row at every chart point.
    """

    weights: fuchs.WeightSystem
    basepoints: np.ndarray  # (n-1, r, r)

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
        return self.basepoints @ scipy.linalg.expm(ks)

    def residues(self, x: np.ndarray) -> np.ndarray:
        """A_i of chart points x (..., dim) as (..., n-1, r, r)."""
        cs = self.conjugators(x)
        spectra = np.array([np.diag(w) for w in self.weights.weights[:-1]])
        return cs @ spectra @ np.linalg.inv(cs)

    def system(self, x: np.ndarray) -> fuchs.FuchsianSystem:
        return fuchs.FuchsianSystem(self.weights, self.residues(x))


def parametrization_from_system(system: fuchs.FuchsianSystem) -> ResidueParametrization:
    """Chart centered at an existing system (eigenvector basepoints)."""
    bases = []
    for i in range(system.weights.n - 1):
        lam, v = np.linalg.eig(system.residues[i])
        order = np.argsort(lam.real)
        v = v[:, order]
        lam = lam[order]
        if np.max(np.abs(lam.real - system.weights.weights[i])) > 1e-6:
            warnings.warn("system spectra deviate from the weights; chart recentered")
        bases.append(v / np.linalg.norm(v, axis=0, keepdims=True))
    return ResidueParametrization(system.weights, np.array(bases))


# ---------------------------------------------------------------------------
# residual


def residual_stack(
    parm: ResidueParametrization,
    xs: np.ndarray,
    target: fuchs.AdmissibleRep,
    problem: fuchs.MonodromyLoops,
) -> np.ndarray:
    """Residual vectors (B, m) of a (B, dim) stack of chart points.

    Residues of the whole stack, its generators (the loop set problem's
    monodromy at LM_TRANSPORT_TOL) and their gauge alignment each come from
    one call; then the infinity spectrum.
    """
    residues = parm.residues(xs)
    _, gens, _, _ = problem.monodromy(residues, LM_TRANSPORT_TOL)
    aligned = align_tuple_to_target(gens, target).generators
    diff = aligned - np.asarray(target.generators)
    # per generator: real parts, then imaginary parts
    d = np.stack([diff.real, diff.imag], axis=2).reshape(len(gens), -1)
    lam = np.linalg.eigvals(-np.sum(residues, axis=1))
    lam = np.take_along_axis(lam, np.argsort(lam.real, axis=-1), axis=-1)
    tgt = np.sort(parm.weights.infinity_exponents)
    return np.concatenate(
        [d, INFINITY_WEIGHT * (lam.real - tgt), INFINITY_WEIGHT * lam.imag],
        axis=1,
    )


def residual_vector(
    parm: ResidueParametrization,
    x: np.ndarray,
    target: fuchs.AdmissibleRep,
    problem: fuchs.MonodromyLoops,
) -> np.ndarray:
    """Concatenated gauge-aligned monodromy and infinity-spectrum residuals."""
    xs = np.asarray(x, dtype=float)[None, :]
    return residual_stack(parm, xs, target, problem)[0]


def central_jacobian(func_stack, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian from one stacked evaluation of 2 dim points,
    step FD_STEP * max(1, |x_j|) in coordinate j."""
    steps = FD_STEP * np.maximum(1.0, np.abs(x))
    shift = np.diag(steps)
    f = func_stack(np.concatenate([x + shift, x - shift]))
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


def _levenberg_marquardt(func, func_stack, x0: np.ndarray, opts: SolveOptions):
    """Small dense LM with central-difference Jacobian and Nielsen damping.

    func(x) is the residual at one point; func_stack evaluates a stack of
    points and builds each iteration's Jacobian in one call.  Returns the
    final point, its residual, the iteration count and the cost history.
    """
    x = x0.copy()
    f = func(x)
    cost = float(f @ f)
    history = [cost]
    lam, nu = 1e-3, 2.0
    n_iter = 0
    # cost is on the squared scale of the gauge distance; push well below the
    # acceptance tolerance so downstream single-valuedness of h is clean,
    # down to the noise floor set by the transport tolerance
    target_cost = max(opts.tol**2, (10.0 * LM_TRANSPORT_TOL) ** 2)
    for n_iter in range(1, opts.max_iter + 1):
        if cost <= target_cost:
            break
        n = len(x)
        J = central_jacobian(func_stack, x)
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
                f_new = func(x_new)
                cost_new = float(f_new @ f_new)
            except NumericalError:
                # a trial point whose residual cannot be evaluated is rejected
                # like one that raises the cost
                cost_new = np.inf
            predicted = float(delta @ (lam * delta - g))
            rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
            if cost_new < cost and rho > 0:
                x, f, cost = x_new, f_new, cost_new
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
    return x, f, n_iter, history


def solve(
    weights: fuchs.WeightSystem,
    target: fuchs.AdmissibleRep,
    init: fuchs.FuchsianSystem | None = None,
    opts: SolveOptions | None = None,
) -> tuple[fuchs.FuchsianSystem, SolveReport]:
    """Find residues with the weight spectra whose monodromy matches the target.

    Levenberg-Marquardt from deterministic multi-starts: restart 0 starts
    from the chart of init when one is given; otherwise, and on every later
    restart, the chart basepoints are drawn from the restart's seed.
    Success means the gauge distance between the solution's monodromy and
    the target (the norm of the generator block of the last LM residual)
    is at most opts.tol; the report's final_residual is its square.  The
    returned report carries the normalization at
    infinity of a successful solution, whose large_cell_flag it reads;
    make_metric_field accepts it as is.
    """
    opts = opts or SolveOptions()
    if not target.is_irreducible():
        raise ReducibleTargetError("target representation is reducible")
    n, r = weights.n, weights.rank
    problem = fuchs.MonodromyLoops(weights)

    best = None
    rng_master = np.random.default_rng(opts.seed)
    seeds = rng_master.integers(0, 2**63 - 1, size=max(opts.restarts, 1))
    for restart, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        if restart == 0 and init is not None:
            parm = parametrization_from_system(init)
        else:
            bases = []
            for _ in range(n - 1):
                k = 0.6 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
                np.fill_diagonal(k, 0.0)
                bases.append(scipy.linalg.expm(k))
            parm = ResidueParametrization(weights, np.array(bases))

        def func(x, parm=parm):
            return residual_vector(parm, x, target, problem=problem)

        def func_stack(xs, parm=parm):
            return residual_stack(parm, xs, target, problem=problem)

        x0 = np.zeros(parm.dim)
        if parm.dim == 0:
            x, f, iters, history = x0, func(x0), 0, []
        else:
            x, f, iters, history = _levenberg_marquardt(func, func_stack, x0, opts)

        # the generator block of the residual is aligned - target; the last
        # 2r entries are the infinity-spectrum penalty
        gauge = f[: -2 * r]
        final = float(gauge @ gauge)
        cand = (final, restart, parm, x, iters, history)
        if best is None or cand[0] < best[0]:
            best = cand
        # final is a squared distance, tol a distance
        success = best[0] <= opts.tol**2
        if success:
            break

    final, restart, parm, x, iters, history = best
    system = parm.system(x)
    norm = None
    if success:
        try:
            # make_metric_field takes the result as it is
            norm = normalize_at_infinity(system, target, problem=problem)
        except NumericalError as exc:
            warnings.warn(f"normalization at infinity failed: {exc}")
    report = SolveReport(
        final_residual=float(final),
        iterations=iters,
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


@dataclass
class NormalizationResult:
    constant_term: np.ndarray
    # whether the solution lies on the regular locus: a scalar splitting with
    # an invertible constant term (normalize_at_infinity)
    large_cell_flag: bool
    canonical_system: fuchs.FuchsianSystem
    basepoint: complex
    basepoint_value: np.ndarray  # canonical fundamental solution at the basepoint
    # the spectrum at infinity's drift from the exponents Lambda, whose power
    # z^{lam - Lambda} keeps Y W z^{-Lambda} from having a limit
    extrapolation_disagreement: float
    right_conjugator: np.ndarray
    left_gauge: np.ndarray
    # the monodromy generators aligned to the target, W^{-1} M_i W: the
    # canonical solution's monodromy in the gauge of basepoint_value
    aligned_generators: np.ndarray  # (n, r, r)
    # the loops' series in the canonical gauge, member p at the loop point
    # at[p], and the coordinates basis^{-1} K (n, r, r) of the canonical
    # solution on each, matched at the loop entry at argument arg(z0 - z_p)
    series: fuchs.SeriesStack
    series_coords: np.ndarray


def normalize_at_infinity(
    system: fuchs.FuchsianSystem,
    target: fuchs.AdmissibleRep,
    problem: fuchs.MonodromyLoops | None = None,
) -> NormalizationResult:
    """Read the constant term at infinity from the local series and
    renormalize to the canonical fundamental solution, at
    fuchs.TRANSPORT_TOL.

    The right conjugator W aligns the monodromy with the target unitary
    tuple (the aligned generators W^{-1} M_i W are kept).  Y W = Y0 K on
    every region of the loops' SeriesStack, Y0 = F(x) x^{-L} the member's
    series, and the coordinates basis^{-1} K of all members are the loop
    set's coordinates of Y times W (MonodromyLoops.monodromy), one product.
    The loop set applies the power x^lam as a row scaling, never a dense
    inverse, so components that x^{-L} spreads over many orders of
    magnitude keep their digits.  At infinity column b of Y W z^{-(N'+W_n)} tends to the constant term
    basis[:, pi(b)] C[pi(b), b], C = basis^{-1} K and pi matching the
    series' exponents to N' + W_n.  When G is invertible
    (cond(G) <= 1e10) the solution is left-normalized so the constant term
    becomes Pi0, whatever the splitting: the gauge A_i -> g A_i g^{-1}
    sends G to g G, so this pins it.

    The regular locus asks for G in the coset P_N Pi0 N(r).  For a scalar
    splitting P_N is all of GL(r), so the coset is GL(r) and large_cell_flag
    says that G is invertible.  For any other splitting the flag is False:
    G -> g G can move G in and out of the coset, so no function of G alone
    decides it.  The series and the coordinates
    basis^{-1} K of every member are kept for the canonical solution:
    its frame is left F, and the coordinates do not change.
    """
    ws = system.weights
    diffs = ws.infinity_exponents[:, None] - ws.infinity_exponents[None, :]
    off = np.abs(diffs - np.round(diffs))
    mask = ~np.eye(len(ws.infinity_exponents), dtype=bool)
    if ws.rank > 1 and np.min(off[mask]) < 1e-6:
        raise ResonanceError("infinity exponents have (near) integer differences")

    if problem is None:
        problem = fuchs.MonodromyLoops(ws)
    _, gens, series, coords = problem.monodromy(system.residues[None], fuchs.TRANSPORT_TOL)
    aligned = align_tuple_to_target(gens[0], target)
    W = aligned.conjugator
    coords = coords[0] @ W
    inf = ws.n - 1  # the big circle's member: at infinity, radius 1/|z0|
    C = coords[inf]
    perm, _ = fuchs._match_to_targets(series.exponents[inf], ws.infinity_exponents)
    G = series.basis[inf][:, perm] * np.diagonal(C[perm])
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
    return NormalizationResult(
        constant_term=G,
        large_cell_flag=flag,
        canonical_system=system.conjugated(left),
        basepoint=problem.z0,
        basepoint_value=left @ W,
        extrapolation_disagreement=float(disagreement),
        right_conjugator=W,
        left_gauge=left,
        aligned_generators=aligned.generators,
        series=replace(series, basis=left @ series.basis, coefficients=left @ series.coefficients),
        series_coords=coords,
    )
