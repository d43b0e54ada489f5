"""Property suites behind ``rhwznw verify`` and the acceptance criteria.

Each suite takes a seed and a sample count and returns a list of
``(check name, passed, detail)`` triples:

* ``bruhat``: reconstruction of the Bruhat factorization, agreement with
  the exhaustive-permutation oracle (least-squares column solves taken
  once per (row, column) pair, all r! candidates checked as one stack),
  and uniqueness on the large cell;
* ``cholesky``: the minor formulas against the textbook factor, and
  their invariance under a unitary change of square root;
* ``three-form``: the identity Theta = 3 dOmega behind the antiderivative
  statement, on random positive metrics;
* ``flatness``: the Richardson ratio of the flatness residual of h on the
  rigid rank-2 fixture;
* ``counterterm``: the annulus divergence at each finite puncture of that
  fixture against 2 pi log(wznw.ANNULUS_RATIO) sum_j alpha_ij^2.  Its
  checks are one per finite puncture, so it ignores the count.

The cholesky, three-form and flatness suites draw their samples in the
order of a per-sample loop, so a seed gives the same samples, and hand
them to the library as stacks of at most STACK_SAMPLES samples: per
chunk, one cholesky_upper and two cholesky_minors calls, one
three_form_pair call per rank, and one flatness_residual call for every
center at both steps.  Every check stays per sample, so the worst figure
of a chunk is the worst of its members.  The bruhat suite factors one
matrix per call.

The library is called through module attributes (``factor.bruhat_factor``,
``wznw.flatness_residual``, ...), so that a wrapper installed on those
attributes sees every call.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import factor, fuchs, numcore, wznw


# most samples that a suite hands to one library call: the stacked suites
# take their samples in chunks of this many, so memory stays flat in the count
STACK_SAMPLES = 64


def _chunks(count: int) -> list[range]:
    """The sample indices 0 .. count - 1 in chunks of at most STACK_SAMPLES."""
    return [range(lo, min(lo + STACK_SAMPLES, count)) for lo in range(0, count, STACK_SAMPLES)]


def _fro(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of every member of a (..., r, r) stack."""
    return np.linalg.norm(m, axis=(-2, -1))


def oracle_bruhat_permutation(g: np.ndarray) -> tuple[int, ...]:
    """Exhaustive-permutation factorization oracle.

    For a candidate permutation, column c of X = L^{-1} (lower unipotent)
    is the least-squares solution that makes column c of g X vanish above
    row k = perm^{-1}(c).  It depends only on (k, c), so each of the
    (r-1)^2 column solves (np.linalg.lstsq) is taken once and placed in the
    X of every permutation with perm(k) = c.  All r! candidates are then
    checked as one stack: P = g X Pi^T must be lower triangular and
    P Pi X^{-1} must reproduce g, both to 1e-8 relative.  Exactly one
    permutation may be accepted.  The rank pattern of bruhat_factor is
    never read.
    """
    r = g.shape[0]
    perms = np.array(list(permutations(range(r))))
    Pi = np.eye(r)[perms]
    X = np.tile(np.eye(r, dtype=complex), (len(perms), 1, 1))
    for k in range(1, r):
        for c in range(r - 1):
            sol = np.linalg.lstsq(g[:k, c + 1 :], -g[:k, c], rcond=None)[0]
            X[perms[:, k] == c, c + 1 :, c] = sol
    P = g @ X @ np.swapaxes(Pi, -1, -2)
    upper = np.linalg.norm(np.triu(P, 1), axis=(-2, -1))
    lower = upper <= 1e-8 * np.maximum(np.linalg.norm(P, axis=(-2, -1)), 1e-300)
    resid = np.linalg.norm(P @ Pi @ np.linalg.inv(X) - g, axis=(-2, -1))
    accepted = perms[lower & (resid <= 1e-8 * max(numcore.fro(g), 1e-300))]
    if len(accepted) != 1:
        raise numcore.NumericalError(f"oracle accepted {len(accepted)} permutations")
    return tuple(int(c) for c in accepted[0])


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
    for chunk in _chunks(count):
        ms, us = [], []
        for _ in chunk:
            ms.append(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            us.append(numcore.random_unitary(rng, 4))
        m = np.stack(ms)
        h = numcore.adjoint(m) @ m + 0.1 * np.eye(4)
        msq = hpd_sqrt(h)
        f = factor.cholesky_minors(h, msq)
        b_ref = factor.cholesky_upper(h)
        f2 = factor.cholesky_minors(h, np.stack(us) @ msq)
        worst_ref = max(worst_ref, float(np.max(_fro(f.b - b_ref) / _fro(b_ref))))
        worst_inv = max(worst_inv, float(np.max(_fro(f.b - f2.b) / _fro(f.b))))
    return [
        ("textbook agreement <= 1e-9", worst_ref <= 1e-9, f"worst {worst_ref:.3e}"),
        ("U-invariance <= 1e-9", worst_inv <= 1e-9, f"worst {worst_inv:.3e}"),
    ]


def hpd_sqrt(h: np.ndarray) -> np.ndarray:
    """The Hermitian positive square root of a Hermitian positive matrix,
    or of every member of a (..., r, r) stack."""
    lam, v = np.linalg.eigh(0.5 * (h + numcore.adjoint(h)))
    return (v * np.sqrt(lam)[..., None, :]) @ numcore.adjoint(v)


def _suite_three_form(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for chunk in _chunks(count):
        # samples alternate between ranks 2 and 3: one stack per rank
        by_rank = {}
        for k in chunk:
            r = 2 if k % 2 == 0 else 3
            h = numcore.random_hpd(rng, r)
            xs = []
            for _ in range(3):
                m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                xs.append(0.5 * (m + m.conj().T))
            by_rank.setdefault(r, []).append((h, *xs))
        for samples in by_rank.values():
            t3, dw = wznw.three_form_pair(*map(np.stack, zip(*samples)))
            worst = max(worst, float(np.max(np.abs(t3 - dw) / (1 + np.abs(t3)))))
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
    for chunk in _chunks(count):
        zs = []
        for _ in chunk:
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.25, 0.45)
            zs.append(rad * np.exp(1j * ang))
        # every center at both steps, as one stack of stencils
        r1, r2 = wznw.flatness_residual(fld, np.array(zs), np.array([[0.02], [0.01]]))
        ratios.extend(r1 / r2)
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
