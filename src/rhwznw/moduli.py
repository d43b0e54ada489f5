"""Dimension counts, deformations of admissible tuples, action surfaces,
and the finite-difference chart Laplacian of the action.

Families here are charts on the representation variety: conjugators move
along fixed anti-Hermitian directions with the real and imaginary parts
of a complex parameter eps, a minimum-norm Newton correction spread over
the conjugators restores the closure constraint (the spectrum of the
implied generator at infinity), and the tuple is re-normalized.  eps is
not a holomorphic coordinate on the moduli of parabolic bundles, so the
stencil below (levi_form) is a Laplacian in the chart eps, not the Levi
form of the Kahler potential: its value depends on the family's direction
and can be negative, so its sign is a statement about the chart only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import fuchs, rhsolve, wznw
from .numcore import fro


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


def expected_dims(r: int, n: int) -> tuple[float, float]:
    """(moduli dimension, cotangent dimension) by the count formulas.

    Returned raw: for small (r, n) the first formula can be non-integral
    (e.g. r=2, n=3 gives 1.5), which simply signals an empty or
    exceptional stratum rather than an honest chart dimension.
    """
    if r < 1 or n < 3:
        raise ValueError("need r >= 1 and n >= 3")
    dim_moduli = 0.5 * n * (r * r - 1) - r * r + 1
    dim_cotangent = 0.5 * n * (r * r - r) - r * r + 1
    return dim_moduli, dim_cotangent


# ---------------------------------------------------------------------------
# Newton projection onto the closure constraint


def _su_basis(r: int) -> list[np.ndarray]:
    """Anti-Hermitian basis of su(r)."""
    out = []
    for a in range(r):
        for b in range(a + 1, r):
            m = np.zeros((r, r), dtype=complex)
            m[a, b], m[b, a] = 1.0, -1.0
            out.append(m)
            m = np.zeros((r, r), dtype=complex)
            m[a, b] = 1j
            m[b, a] = 1j
            out.append(m)
    for a in range(r - 1):
        m = np.zeros((r, r), dtype=complex)
        m[a, a] = 1j
        m[a + 1, a + 1] = -1j
        out.append(m)
    return out


def _closure_residual(weights: fuchs.WeightSystem, conjugators: list[np.ndarray]) -> np.ndarray:
    """Real residual of power sums tr(M_n^j), j = 1..r-1.

    Power sums plus the automatically matched determinant pin the spectrum
    of the implied generator at infinity.
    """
    r = weights.rank
    _, m_last = fuchs.closing_generator(weights, conjugators)
    target = np.diag(np.exp(fuchs.TWO_PI_I * weights.weights[-1]))
    diffs = []
    mp, tp = m_last.copy(), target.copy()
    for _ in range(r - 1):
        diffs.append(np.trace(mp) - np.trace(tp))
        mp, tp = mp @ m_last, tp @ target
    diff = np.asarray(diffs)
    return np.concatenate([diff.real, diff.imag])


def _closure_jacobian(
    weights: fuchs.WeightSystem, conjugators: list[np.ndarray], basis: list[np.ndarray]
) -> np.ndarray:
    """Analytic derivative of the closure residual along su-moves U_i exp(t B).

    With dM_i = U_i [B, D_i] U_i^{-1} and M_n the conjugate transpose of
    the generator product, d tr(M_n^j) = j tr(M_n^{j-1} dM_n).
    """
    r = weights.rank
    n1 = len(conjugators)
    gens, m_last = fuchs.closing_generator(weights, conjugators)
    powers = [np.eye(r, dtype=complex)]
    for _ in range(r - 2):
        powers.append(powers[-1] @ m_last)
    ds = [np.diag(np.exp(fuchs.TWO_PI_I * weights.weights[i])) for i in range(n1)]
    pre = [np.eye(r, dtype=complex)]
    for i in range(n1 - 1):
        pre.append(pre[-1] @ gens[i])
    post = [np.eye(r, dtype=complex)]
    for i in range(n1 - 1, 0, -1):
        post.append(gens[i] @ post[-1])
    post = post[::-1]

    cols = []
    for i in range(n1):
        ui = conjugators[i]
        for bmat in basis:
            dmi = ui @ (bmat @ ds[i] - ds[i] @ bmat) @ ui.conj().T
            dprod = pre[i] @ dmi @ post[i]
            dmn = dprod.conj().T
            col = []
            for j in range(1, r):
                dtr = j * np.trace(powers[j - 1] @ dmn)
                col.append(dtr)
            col = np.asarray(col)
            cols.append(np.concatenate([col.real, col.imag]))
    return np.asarray(cols).T


def project_conjugators(
    weights: fuchs.WeightSystem, conjugators: list[np.ndarray]
) -> list[np.ndarray]:
    """Newton-correct the conjugators so the tuple closes admissibly.

    The correction is spread over all conjugators in minimum norm.  The
    constraint differential is rank deficient (the determinant direction
    is rigid), so the step solves through a truncated SVD; without the
    truncation the null rows inject noise and the chart loses smoothness.
    """
    us = [np.array(u, dtype=complex) for u in conjugators]
    r = weights.rank
    if r == 1:
        return us  # the only closure constraint is the automatic determinant
    basis = _su_basis(r)
    per = len(basis)
    for _ in range(PROJECTION_MAX_ITER):
        res = _closure_residual(weights, us)
        if np.linalg.norm(res, np.inf) < PROJECTION_TOL:
            return us
        J = _closure_jacobian(weights, us, basis)
        U_, sv, Vt = np.linalg.svd(J, full_matrices=False)
        keep = sv > 1e-8 * sv[0]
        coef = Vt[keep].T @ ((U_[:, keep].T @ (-res)) / sv[keep])
        if np.linalg.norm(coef) > 2.0:
            coef = coef * (2.0 / np.linalg.norm(coef))
        for i in range(len(us)):
            gen = sum(c * bmat for c, bmat in zip(coef[i * per : (i + 1) * per], basis))
            us[i] = us[i] @ scipy.linalg.expm(gen)
    raise ChartRadiusError("closure Newton did not converge")


def random_admissible_rep(weights: fuchs.WeightSystem, seed: int) -> fuchs.AdmissibleRep:
    """Admissible tuple from random conjugators plus Newton projection."""
    from .numcore import random_unitary

    rng = np.random.default_rng(seed)
    last_err: Exception | None = None
    for _ in range(ADMISSIBLE_ATTEMPTS):
        us = [random_unitary(rng, weights.rank) for _ in range(weights.n - 1)]
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


@dataclass
class TangentDirection:
    """Pair of anti-Hermitian conjugator velocities for Re and Im moves."""

    xi_re: list[np.ndarray]
    xi_im: list[np.ndarray]


def random_tangent_direction(weights: fuchs.WeightSystem, seed: int) -> TangentDirection:
    """Unit-norm random anti-Hermitian velocities for the Re and Im moves."""
    rng = np.random.default_rng(seed)

    def anti_hermitian() -> np.ndarray:
        m = rng.standard_normal((weights.rank,) * 2) + 1j * rng.standard_normal(
            (weights.rank,) * 2
        )
        a = 0.5 * (m - m.conj().T)
        return a / max(fro(a), 1e-12)

    n = weights.n
    return TangentDirection(
        xi_re=[anti_hermitian() for _ in range(n - 1)],
        xi_im=[anti_hermitian() for _ in range(n - 1)],
    )


def deform_rep(
    center: fuchs.AdmissibleRep, direction: TangentDirection, eps: complex
) -> fuchs.AdmissibleRep:
    """Move the conjugators along the direction and re-close the tuple.

    The chart is valid while the Newton correction converges; beyond
    CHART_RADIUS a ChartRadiusError is raised without trying.
    """
    if abs(eps) > CHART_RADIUS:
        raise ChartRadiusError(f"|eps| = {abs(eps):.3f} beyond chart radius {CHART_RADIUS}")
    x, y = float(np.real(eps)), float(np.imag(eps))
    us = []
    for i in range(center.n - 1):
        gen = x * direction.xi_re[i] + y * direction.xi_im[i]
        us.append(center.conjugators[i] @ scipy.linalg.expm(gen))
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
    ok: bool
    message: str = ""


def action_surface(
    center: fuchs.AdmissibleRep,
    direction: TangentDirection,
    grid: list[complex],
    solve_opts: rhsolve.SolveOptions | None = None,
) -> list[SurfacePoint]:
    """Regularized action at every member of the family eps ->
    deform_rep(center, direction, eps) on the grid (center itself at
    eps = 0), at action_regularized's defaults, each solve after the first
    success warm-started from the last.

    Non-solving or non-regular members, and members whose field misses
    wznw.MONODROMY_QUALITY_GATE (wznw.MonodromyQualityError), produce holes
    (ok=False) instead of aborting the sweep.
    """
    solve_opts = solve_opts or rhsolve.SolveOptions()
    warm_opts = replace(solve_opts, restarts=max(2, solve_opts.restarts // 3))
    out: list[SurfacePoint] = []
    prev_system: fuchs.FuchsianSystem | None = None
    for eps in grid:
        try:
            rep = center if eps == 0 else deform_rep(center, direction, complex(eps))
            opts = solve_opts if prev_system is None else warm_opts
            system, report = rhsolve.solve(rep.weights, rep, init=prev_system, opts=opts)
            if not report.success:
                out.append(
                    SurfacePoint(eps, None, None, report.large_cell_flag, report.final_residual, False, "solve failed")
                )
                continue
            prev_system = system
            fld = wznw.make_metric_field(system, rep, normalization=report.normalization)
            try:
                act = wznw.action_regularized(fld)
            except wznw.MonodromyQualityError as exc:
                out.append(SurfacePoint(eps, None, None, True, report.final_residual, False, str(exc)))
                continue
            out.append(
                SurfacePoint(
                    eps=complex(eps),
                    action=act.value,
                    extrapolation_error=act.extrapolation_error,
                    large_cell_flag=True,
                    solve_residual=report.final_residual,
                    ok=True,
                )
            )
        except (wznw.RegularLocusError, ChartRadiusError, fuchs.NotAdmissibleError) as exc:
            out.append(SurfacePoint(complex(eps), None, None, False, None, False, str(exc)))
    return out


# ---------------------------------------------------------------------------
# Levi form


def levi_form(
    s_center: float,
    s_plus: float,
    s_minus: float,
    s_iplus: float,
    s_iminus: float,
    spacing: float,
) -> float:
    """d^2 S / (d eps d epsbar) from the 5-point plus-stencil: the chart
    Laplacian in eps (module docstring), not a Levi form in a holomorphic
    coordinate on the moduli.

    [S(e+a) + S(e-a) + S(e+ia) + S(e-ia) - 4 S(e)] / (4 a^2): one quarter
    of the standard Laplacian stencil, so the synthetic surface |eps|^2
    evaluates to 1 at any spacing.

    Note the sign convention for action surfaces: the Kahler potential of
    the moduli metric is -S/2, so the regular-locus positivity statement
    applies to the Levi form of -S/2 in a holomorphic coordinate.
    """
    num = s_plus + s_minus + s_iplus + s_iminus - 4.0 * s_center
    return float(num / (4.0 * spacing * spacing))


def potential_levi_form(
    s_center: float,
    s_plus: float,
    s_minus: float,
    s_iplus: float,
    s_iminus: float,
    spacing: float,
) -> float:
    """The chart Laplacian (levi_form) of the potential -S/2, from action
    values.

    eps is not a holomorphic coordinate, so this is not the Levi form of
    the Kahler potential: it depends on the family's direction and is
    negative at some seeded centers.
    """
    return -0.5 * levi_form(s_center, s_plus, s_minus, s_iplus, s_iminus, spacing)


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


def levi_from_surface(points: list[SurfacePoint], center: complex, spacing: float) -> float:
    """Levi form out of an action_surface table containing the plus-stencil."""
    table = {}
    for p in points:
        if not p.ok:
            continue
        table[complex(np.round(p.eps.real, 12) + 1j * np.round(p.eps.imag, 12))] = p.action
    def get(e):
        key = complex(np.round(e.real, 12) + 1j * np.round(e.imag, 12))
        if key not in table:
            raise ChartRadiusError(f"stencil point {e} is a hole in the surface")
        return table[key]
    return levi_form(
        get(center),
        get(center + spacing),
        get(center - spacing),
        get(center + 1j * spacing),
        get(center - 1j * spacing),
        spacing,
    )
