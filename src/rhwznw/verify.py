"""Property suites behind ``rhwznw verify`` and the acceptance criteria.

Each suite takes a seed and a sample count and returns a list of
``(check name, passed, detail)`` triples:

* ``bruhat``: reconstruction of the Bruhat factorization, agreement with
  the exhaustive-permutation oracle (least-squares column solves taken
  once per (row, column) pair over all members, all r! candidates of all
  members checked as one stack), and uniqueness on the large cell;
* ``cholesky``: the minor formulas against the textbook factor, and
  their invariance under a unitary change of square root;
* ``three-form``: the identity Theta = 3 dOmega behind the antiderivative
  statement, on random positive metrics;
* ``flatness``: the Richardson ratio of the flatness residual of h on the
  rigid rank-2 fixture;
* ``counterterm``: the annulus divergence at each finite puncture of that
  fixture against 2 pi log(wznw.ANNULUS_RATIO) sum_j alpha_ij^2.  Its
  checks are one per finite puncture, so it ignores the count.

The bruhat, cholesky, three-form and flatness suites draw their samples
in the order of a per-sample loop, so a seed gives the same samples, and
hand them to the library as stacks of at most STACK_SAMPLES samples: per
chunk, one bruhat_factor, oracle, in_large_cell and
bruhat_large_cell_minors (on the large-cell members) call per rank, one
cholesky_upper and two cholesky_minors calls, one three_form_pair call
per rank, and one flatness_residual call for every center at both steps.
Every check stays per sample, so the worst figure of a chunk is the
worst of its members.

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


def oracle_bruhat_permutation(g: np.ndarray):
    """Exhaustive-permutation factorization oracle, for g or for every member
    of a (..., r, r) stack: a tuple for one matrix, an (..., r) integer
    array for a stack.

    For a candidate permutation, column c of X = L^{-1} (lower unipotent)
    is the least-squares solution that makes column c of g X vanish above
    row k = perm^{-1}(c).  It depends only on (k, c), so each of the
    (r-1)^2 column solves is taken once, as one minimum-norm solve over the
    members (a stacked pseudo-inverse with lstsq's rcond=None cutoff), and
    placed in the X of every permutation with perm(k) = c.  All r!
    candidates of all members are then checked as one (B, r!, r, r) stack:
    P = g X Pi^T must be lower triangular and P Pi X^{-1} must reproduce g,
    both to 1e-8 relative.  Exactly one permutation per member may be
    accepted.  The rank pattern of bruhat_factor is never read.
    """
    g = np.asarray(g, dtype=complex)
    r = g.shape[-1]
    gs = g.reshape(-1, r, r)
    perms = np.array(list(permutations(range(r))))
    X = np.tile(np.eye(r, dtype=complex), (len(gs), len(perms), 1, 1))
    for k in range(1, r):
        for c in range(r - 1):
            sol = np.linalg.pinv(gs[:, :k, c + 1 :], rtol=None) @ -gs[:, :k, c, None]
            column = X[..., c]
            column[:, perms[:, k] == c, c + 1 :] = sol[:, None, :, 0]
    # with M = g X, P = M Pi^T takes column perm(j) of M as its column j,
    # and P Pi = M: both exactly, as products with Pi would give them
    gx = gs[:, None] @ X
    P = np.take_along_axis(gx, perms[None, :, None, :], axis=-1)
    lower = numcore.fro(np.triu(P, 1)) <= 1e-8 * np.maximum(numcore.fro(P), 1e-300)
    resid = numcore.fro(gx @ np.linalg.inv(X) - gs[:, None])
    accepted = lower & (resid <= 1e-8 * np.maximum(numcore.fro(gs), 1e-300)[:, None])
    counts = accepted.sum(axis=1)
    if np.any(counts != 1):
        raise numcore.NumericalError(f"oracle accepted {counts[counts != 1][0]} permutations")
    found = perms[np.argmax(accepted, axis=1)]
    if g.ndim == 2:
        return tuple(int(c) for c in found[0])
    return found.reshape(g.shape[:-2] + (r,))


def _suite_bruhat(seed: int, count: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    worst_recon, worst_unique, mismatches = 0.0, 0.0, 0
    for chunk in _chunks(count):
        # samples alternate between ranks 3 and 4: one stack per rank
        by_rank = {}
        for k in chunk:
            r = 3 if k % 2 == 0 else 4
            by_rank.setdefault(r, []).append(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        for samples in by_rank.values():
            g = np.stack(samples)
            f = factor.bruhat_factor(g)
            worst_recon = max(worst_recon, float(np.max(numcore.fro(f.reconstruct() - g) / numcore.fro(g))))
            mismatches += int(np.sum(np.any(f.permutation != oracle_bruhat_permutation(g), axis=-1)))
            large = factor.in_large_cell(g)
            if np.any(large):
                f2 = factor.bruhat_large_cell_minors(g[large])
                for one, two in ((f.P[large], f2.P), (f.L[large], f2.L)):
                    worst_unique = max(worst_unique, float(np.max(numcore.fro(one - two) / np.maximum(numcore.fro(one), 1.0))))
    return [
        ("reconstruction <= 1e-10", worst_recon <= 1e-10, f"worst {worst_recon:.3e}"),
        ("oracle agreement 100%", mismatches == 0, f"{mismatches} mismatches"),
        ("large-cell uniqueness <= 1e-9", worst_unique <= 1e-9, f"worst {worst_unique:.3e}"),
    ]


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
        worst_ref = max(worst_ref, float(np.max(numcore.fro(f.b - b_ref) / numcore.fro(b_ref))))
        worst_inv = max(worst_inv, float(np.max(numcore.fro(f.b - f2.b) / numcore.fro(f.b))))
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
