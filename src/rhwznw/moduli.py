"""Deformations of admissible tuples, action surfaces, and the
finite-difference chart Laplacian of the action.

Families here are charts on the representation variety: conjugators move
along fixed anti-Hermitian directions with the real and imaginary parts
of a complex parameter eps, a minimum-norm Newton correction spread over
the conjugators restores the closure constraint (the spectrum of the
implied generator at infinity), and the tuple is re-normalized.  The
conjugators are an (n-1, r, r) array, member i at point i however the
points are listed, and a direction a (2, n-1, r, r) array, its index 0
moving Re eps and its index 1 Im eps.  The generator at infinity is the
inverse of the product in the weights' one relation order, which their
loop set reads off its approach legs (WeightSystem.loops.relation_order),
as everywhere in fuchs; the first closure on a weight system plans its
loop set.  Each Newton iterate forms the closure residual; only one that
misses the tolerance forms its Jacobian too, from the residual's
generators and powers, every Jacobian block one stacked product over the
su(r) basis, and the step moves all conjugators by one einsum and one
batched expm.

action_surface warm-starts every grid point from one solve of the center,
so a point's value depends on its eps alone, not on the grid's order.

eps is not a holomorphic coordinate on the moduli of parabolic bundles, so
the stencil below (potential_levi_form) is a Laplacian in the chart eps of
the potential -S/2, not the Levi form of the Kahler potential: its value
depends on the family's direction and can be negative, so its sign is a
statement about the chart only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fuchs, rhsolve, wznw
from .numcore import NumericalError, adjoint, diag_stack, expm, fro, random_unitary


# closure residual (max norm) at which project_conjugators stops
PROJECTION_TOL = 1e-12
# Newton steps project_conjugators takes before it gives up
PROJECTION_MAX_ITER = 40
# random conjugator draws random_admissible_rep tries
ADMISSIBLE_ATTEMPTS = 40
# largest |eps| that deform_rep accepts
CHART_RADIUS = 0.35


class ChartRadiusError(RuntimeError):
    """Newton projection failed: parameter outside the chart radius."""


# ---------------------------------------------------------------------------
# Newton projection onto the closure constraint


def _su_basis(r: int) -> np.ndarray:
    """Anti-Hermitian basis of su(r) as an (r^2 - 1, r, r) stack: for each
    pair a < b in row-major order E_ab - E_ba and i (E_ab + E_ba), then
    i (E_aa - E_{a+1,a+1}) for a = 0 .. r-2."""
    a, b = np.triu_indices(r, 1)
    k, d = 2 * np.arange(len(a)), np.arange(r - 1)
    out = np.zeros((r * r - 1, r, r), dtype=complex)
    out[k, a, b], out[k, b, a] = 1.0, -1.0
    out[k + 1, a, b] = out[k + 1, b, a] = 1j
    out[2 * len(a) + d, d, d], out[2 * len(a) + d, d + 1, d + 1] = 1j, -1j
    return out


def _closure_residual(
    weights: fuchs.WeightSystem, conjugators: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closure residual of the (n-1, r, r) conjugators, from one
    closing_generator call, with the generators and the powers M_n^j,
    j = 0 .. r-1, that its Jacobian (_closure_jacobian) reads.

    The residual is the real, then the imaginary parts of the power sums
    tr(M_n^j) - tr(T^j), j = 1 .. r-1, T the diagonal of infinity phases:
    with the automatically matched determinant they pin the spectrum of the
    implied generator at infinity.
    """
    r = weights.rank
    gens, m_last = fuchs.closing_generator(weights, conjugators)
    powers = [np.eye(r, dtype=complex)]
    for _ in range(r - 1):
        powers.append(powers[-1] @ m_last)
    powers = np.array(powers)
    target = np.diag(np.exp(fuchs.TWO_PI_I * weights.weights[-1]))
    tp, diffs = target, []
    for mp in powers[1:]:
        diffs.append(np.trace(mp) - np.trace(tp))
        tp = tp @ target
    diff = np.asarray(diffs)
    return np.concatenate([diff.real, diff.imag]), gens, powers


def _closure_jacobian(
    weights: fuchs.WeightSystem,
    conjugators: np.ndarray,
    basis: np.ndarray,
    gens: np.ndarray,
    powers: np.ndarray,
) -> np.ndarray:
    """The analytic Jacobian of the closure residual along the su-moves
    U_i exp(t B), from the generators and powers of _closure_residual.

    With dM_i = U_i [B, D_i] U_i^{-1} and M_n the conjugate transpose of
    the generator product, d tr(M_n^j) = j tr(M_n^{j-1} dM_n).  The
    columns, conjugator major and basis element minor, come from one
    stacked product over all (i, B), between the prefix and suffix products
    of the generators in relation order (WeightSystem.loops.relation_order),
    which are then put back in the conjugators' order.
    """
    r = weights.rank
    order = weights.loops.relation_order
    pre = [np.eye(r, dtype=complex)]
    for g in gens[order[:-1]]:
        pre.append(pre[-1] @ g)
    post = [np.eye(r, dtype=complex)]
    for g in gens[order[:0:-1]]:
        post.append(g @ post[-1])
    back = np.argsort(order)
    pre, post = np.array(pre)[back, None], np.array(post[::-1])[back, None]
    ds = diag_stack(np.exp(fuchs.TWO_PI_I * weights.weights[:-1]))[:, None]
    dm = conjugators[:, None] @ (basis @ ds - ds @ basis) @ adjoint(conjugators)[:, None]
    dmn = adjoint(pre @ dm @ post)
    dtr = np.arange(1, r)[:, None, None] * np.trace(
        powers[:-1, None, None] @ dmn, axis1=-2, axis2=-1
    )
    return np.concatenate([dtr.real, dtr.imag]).reshape(2 * (r - 1), -1)


def project_conjugators(weights: fuchs.WeightSystem, conjugators) -> np.ndarray:
    """Newton-correct the conjugators, an (n-1, r, r) array-like, so the
    tuple closes admissibly; returns a new (n-1, r, r) array.

    The correction is spread over all conjugators in minimum norm.  The
    constraint differential is rank deficient (the determinant direction
    is rigid), so the step solves through a truncated SVD; without the
    truncation the null rows inject noise and the chart loses smoothness.
    Each step moves U_i to U_i exp(sum_k c_ik B_k), all conjugators in one
    einsum and one batched expm.
    """
    us = np.array(conjugators, dtype=complex)
    r = weights.rank
    if r == 1:
        return us  # the only closure constraint is the automatic determinant
    basis = _su_basis(r)
    for _ in range(PROJECTION_MAX_ITER):
        res, gens, powers = _closure_residual(weights, us)
        if np.linalg.norm(res, np.inf) < PROJECTION_TOL:
            return us
        J = _closure_jacobian(weights, us, basis, gens, powers)
        U_, sv, Vt = np.linalg.svd(J, full_matrices=False)
        keep = sv > 1e-8 * sv[0]
        coef = Vt[keep].T @ ((U_[:, keep].T @ (-res)) / sv[keep])
        if np.linalg.norm(coef) > 2.0:
            coef = coef * (2.0 / np.linalg.norm(coef))
        us = us @ expm(np.einsum("ik,kab->iab", coef.reshape(len(us), -1), basis))
    raise ChartRadiusError("closure Newton did not converge")


def random_admissible_rep(weights: fuchs.WeightSystem, seed: int) -> fuchs.AdmissibleRep:
    """Admissible tuple from random conjugators plus Newton projection."""
    rng = np.random.default_rng(seed)
    last_err: Exception | None = None
    for _ in range(ADMISSIBLE_ATTEMPTS):
        us = np.array([random_unitary(rng, weights.rank) for _ in range(weights.n - 1)])
        try:
            us = project_conjugators(weights, us)
            rep = fuchs.build_admissible_rep(weights, us)
            if rep.is_irreducible():
                return rep
        except (ChartRadiusError, fuchs.NotAdmissibleError) as exc:
            last_err = exc
    raise ChartRadiusError(
        f"no admissible tuple found in {ADMISSIBLE_ATTEMPTS} attempts: {last_err}"
    )


# ---------------------------------------------------------------------------
# deformation families


def random_tangent_direction(weights: fuchs.WeightSystem, seed: int) -> np.ndarray:
    """Unit-norm random anti-Hermitian conjugator velocities as a
    (2, n-1, r, r) array: index 0 moves Re eps, index 1 moves Im eps.

    One standard_normal draw of shape (2, n-1, 2, r, r) holds the real and
    imaginary parts of each member in the order of one draw per part and
    member, the Re members first; each member is scaled to unit numcore.fro.
    """
    r = weights.rank
    g = np.random.default_rng(seed).standard_normal((2, weights.n - 1, 2, r, r))
    m = g[:, :, 0] + 1j * g[:, :, 1]
    a = 0.5 * (m - adjoint(m))
    return a / np.maximum(fro(a), 1e-12)[..., None, None]


def deform_rep(
    center: fuchs.AdmissibleRep, direction: np.ndarray, eps: complex
) -> fuchs.AdmissibleRep:
    """Move the conjugators along the (2, n-1, r, r) direction (its Re and
    Im members) and re-close the tuple.

    The chart is valid while the Newton correction converges; beyond
    CHART_RADIUS a ChartRadiusError is raised without trying.
    """
    if abs(eps) > CHART_RADIUS:
        raise ChartRadiusError(f"|eps| = {abs(eps):.3f} beyond chart radius {CHART_RADIUS}")
    x, y = float(np.real(eps)), float(np.imag(eps))
    us = center.conjugators[:-1] @ expm(x * direction[0] + y * direction[1])
    us = project_conjugators(center.weights, us)
    return fuchs.build_admissible_rep(center.weights, us)


# ---------------------------------------------------------------------------
# action over a family


@dataclass
class SurfacePoint:
    eps: complex
    action: float | None
    extrapolation_error: float | None
    large_cell_flag: bool
    solve_residual: float | None
    message: str

    @property
    def ok(self) -> bool:
        """Whether the point carries an action; a hole's message says why not."""
        return self.action is not None


def action_surface(
    center: fuchs.AdmissibleRep,
    direction: np.ndarray,
    grid: list[complex],
    solve_opts: rhsolve.SolveOptions,
) -> list[SurfacePoint]:
    """Regularized action at every member of the family eps ->
    deform_rep(center, direction, eps) on the grid, at action_regularized's
    defaults, in grid order.

    The center's one cold solve (solve_opts) serves eps = 0 and is the init
    of every other member's warm solve (restarts cut to a third); when it
    fails, the members solve cold with solve_opts.  Non-solving or
    non-regular members, and members whose field or action raises
    NumericalError (wznw.MonodromyQualityError above
    wznw.MONODROMY_QUALITY_GATE, among others), are holes carrying the
    reason in message instead of aborting the sweep.
    """
    warm_opts = replace(solve_opts, restarts=max(2, solve_opts.restarts // 3))
    center_solve = rhsolve.solve(center.weights, center, opts=solve_opts)
    init, opts = (center_solve[0], warm_opts) if center_solve[1].success else (None, solve_opts)
    out: list[SurfacePoint] = []
    for eps in map(complex, grid):
        try:
            rep = center if eps == 0 else deform_rep(center, direction, eps)
            solved = center_solve if eps == 0 else rhsolve.solve(rep.weights, rep, init=init, opts=opts)
            system, report = solved
            flag, residual = report.large_cell_flag, report.final_residual
            if not report.success:
                out.append(SurfacePoint(eps, None, None, flag, residual, "solve failed"))
                continue
            try:
                fld = wznw.make_metric_field(system, rep)
                act = wznw.action_regularized(fld)
            except NumericalError as exc:
                out.append(SurfacePoint(eps, None, None, flag, residual, str(exc)))
                continue
            out.append(SurfacePoint(eps, act.value, act.extrapolation_error, flag, residual, ""))
        except (wznw.RegularLocusError, ChartRadiusError, fuchs.NotAdmissibleError) as exc:
            out.append(SurfacePoint(eps, None, None, False, None, str(exc)))
    return out


# ---------------------------------------------------------------------------
# Levi form


def potential_levi_form(
    s_center: float,
    s_plus: float,
    s_minus: float,
    s_iplus: float,
    s_iminus: float,
    spacing: float,
) -> float:
    """d^2 (-S/2) / (d eps d epsbar) from the 5-point plus-stencil of action
    values: the chart Laplacian in eps of the potential -S/2 (module
    docstring), not a Levi form in a holomorphic coordinate on the moduli.

    -1/2 [S(e+a) + S(e-a) + S(e+ia) + S(e-ia) - 4 S(e)] / (4 a^2): the
    potential's share of one quarter of the standard Laplacian stencil, so
    the synthetic surface S = |eps|^2 evaluates to -1/2 at any spacing.

    The Kahler potential of the moduli metric is -S/2, so the regular-locus
    positivity statement applies to its Levi form in a holomorphic
    coordinate.  eps is not one: this value depends on the family's
    direction and is negative at some seeded centers.
    """
    num = s_plus + s_minus + s_iplus + s_iminus - 4.0 * s_center
    return -0.5 * float(num / (4.0 * spacing * spacing))


def surface_to_csv(points: list[SurfacePoint], path) -> None:
    """Write an action surface as CSV rows (Re eps, Im eps, S, fit error, flag)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_eps", "im_eps", "action", "extrapolation_error", "large_cell_flag"])
        for p in points:
            writer.writerow(
                [
                    repr(float(p.eps.real)),
                    repr(float(p.eps.imag)),
                    "" if p.action is None else repr(float(p.action)),
                    "" if p.extrapolation_error is None else repr(float(p.extrapolation_error)),
                    str(bool(p.large_cell_flag)).lower(),
                ]
            )

