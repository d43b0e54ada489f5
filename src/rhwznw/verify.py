"""Property suites behind ``rhwznw verify`` and the acceptance criteria.

Each suite takes a seed and a sample count and returns a list of
``(check name, passed, detail)`` triples:

* ``bruhat``: reconstruction of the Bruhat factorization, agreement with
  the exhaustive-permutation oracle, and uniqueness on the large cell;
* ``cholesky``: the minor formulas against the textbook factor, and
  their invariance under a unitary change of square root;
* ``three-form``: the identity Theta = 3 dOmega behind the antiderivative
  statement, on random positive metrics;
* ``flatness``: the Richardson ratio of the flatness residual of h on the
  rigid rank-2 fixture;
* ``counterterm``: the annulus divergence at each finite puncture of that
  fixture against 2 pi log(wznw.ANNULUS_RATIO) sum_j alpha_ij^2.  Its
  checks are one per finite puncture, so it ignores the count.

The library is called through module attributes (``factor.bruhat_factor``,
``wznw.flatness_residual``, ...), so that a wrapper installed on those
attributes sees every call.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import factor, fuchs, numcore, wznw


def oracle_bruhat_permutation(g: np.ndarray) -> tuple[int, ...]:
    """Exhaustive-permutation factorization oracle.

    Tries every permutation, solving the triangular column system by
    Gaussian elimination, and accepts when the reconstruction holds with a
    lower-triangular P; exactly one permutation may be accepted.
    """
    r = g.shape[0]
    accepted = []
    for perm in permutations(range(r)):
        Pi = np.zeros((r, r))
        for i, c in enumerate(perm):
            Pi[i, c] = 1.0
        inv_perm = np.argsort(np.asarray(perm))
        X = np.eye(r, dtype=complex)
        ok = True
        for c in range(r):
            k = int(inv_perm[c])
            if k == 0 or c == r - 1:
                continue
            Amat = g[:k, c + 1 :]
            rhs = -g[:k, c]
            sol, res, rank, _ = np.linalg.lstsq(Amat, rhs, rcond=None)
            X[c + 1 :, c] = sol
        gx = g @ X
        P = gx @ Pi.T
        if numcore.fro(np.triu(P, 1)) > 1e-8 * max(numcore.fro(P), 1e-300):
            ok = False
        L = np.linalg.inv(X)
        if numcore.fro(P @ Pi @ L - g) > 1e-8 * max(numcore.fro(g), 1e-300):
            ok = False
        if ok:
            accepted.append(perm)
    if len(accepted) != 1:
        raise numcore.NumericalError(f"oracle accepted {len(accepted)} permutations")
    return accepted[0]


def _suite_bruhat(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    checks = []
    worst_recon, worst_unique, mismatches = 0.0, 0.0, 0
    for k in range(count):
        r = 3 if k % 2 == 0 else 4
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        f = factor.bruhat_factor(g)
        worst_recon = max(
            worst_recon, numcore.fro(f.reconstruct() - g) / numcore.fro(g)
        )
        if f.permutation != oracle_bruhat_permutation(g):
            mismatches += 1
        if factor.in_large_cell(g):
            f2 = factor.bruhat_large_cell_minors(g)
            worst_unique = max(
                worst_unique,
                numcore.fro(f.P - f2.P) / max(numcore.fro(f.P), 1.0),
                numcore.fro(f.L - f2.L) / max(numcore.fro(f.L), 1.0),
            )
    checks.append(("reconstruction <= 1e-10", worst_recon <= 1e-10, f"worst {worst_recon:.3e}"))
    checks.append(("oracle agreement 100%", mismatches == 0, f"{mismatches} mismatches"))
    checks.append(("large-cell uniqueness <= 1e-9", worst_unique <= 1e-9, f"worst {worst_unique:.3e}"))
    return checks


def _suite_cholesky(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst_ref, worst_inv = 0.0, 0.0
    for _ in range(count):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = m.conj().T @ m + 0.1 * np.eye(4)
        msq = hpd_sqrt(h)
        f = factor.cholesky_minors(h, msq)
        b_ref = factor.cholesky_upper(h)
        worst_ref = max(worst_ref, numcore.fro(f.b - b_ref) / numcore.fro(b_ref))
        u = numcore.random_unitary(rng, 4)
        f2 = factor.cholesky_minors(h, u @ msq)
        worst_inv = max(worst_inv, numcore.fro(f.b - f2.b) / numcore.fro(f.b))
    return [
        ("textbook agreement <= 1e-9", worst_ref <= 1e-9, f"worst {worst_ref:.3e}"),
        ("U-invariance <= 1e-9", worst_inv <= 1e-9, f"worst {worst_inv:.3e}"),
    ]


def hpd_sqrt(h: np.ndarray) -> np.ndarray:
    """The Hermitian positive square root of a Hermitian positive matrix."""
    lam, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.sqrt(lam)) @ v.conj().T


def _suite_three_form(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(count):
        r = 2 if k % 2 == 0 else 3
        h = numcore.random_hpd(rng, r)
        xs = []
        for _ in range(3):
            m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            xs.append(0.5 * (m + m.conj().T))
        t3, dw = wznw.three_form_pair(h, *xs)
        worst = max(worst, abs(t3 - dw) / (1 + abs(t3)))
    return [("three-form identity <= 1e-5", worst <= 1e-5, f"worst {worst:.3e}")]


def rigid_fixture_field() -> wznw.MetricField:
    """Metric field of the closed-form rigid rank-2 system at points 0, 1."""
    ws = fuchs.build_weight_system([0.0, 1.0], [[0.15, 0.35], [0.2, 0.45], [0.3, 0.55]])
    target = fuchs.build_admissible_rep(ws, fuchs.rank2_closure_conjugators(ws))
    system = fuchs.FuchsianSystem(ws, fuchs.rank2_rigid_residues(ws))
    return wznw.make_metric_field(system, target)


def _suite_flatness(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    fld = rigid_fixture_field()
    ratios = []
    for _ in range(count):
        ang = rng.uniform(0, 2 * np.pi)
        rad = rng.uniform(0.25, 0.45)
        z = rad * np.exp(1j * ang)
        r1 = wznw.flatness_residual(fld, z, 0.02)
        r2 = wznw.flatness_residual(fld, z, 0.01)
        ratios.append(r1 / r2)
    med = float(np.median(ratios))
    return [("Richardson ratio in [3.5, 4.5]", 3.5 <= med <= 4.5, f"median {med:.3f}")]


def _suite_counterterm(seed: int, count: int) -> list[tuple[str, bool, str]]:
    fld = rigid_fixture_field()
    checks = []
    for i, row in enumerate(fld.weights.weights[:-1]):
        val = wznw.annulus_kinetic_integral(fld, i, 1e-4)
        pred = 2 * np.pi * np.log(wznw.ANNULUS_RATIO) * float(np.sum(row**2))
        rel = abs(val / pred - 1)
        checks.append(
            (f"annulus divergence at puncture {i + 1} <= 1e-3", rel <= 1e-3, f"rel {rel:.3e}")
        )
    return checks


SUITES = {
    "bruhat": _suite_bruhat,
    "cholesky": _suite_cholesky,
    "three-form": _suite_three_form,
    "flatness": _suite_flatness,
    "counterterm": _suite_counterterm,
}
