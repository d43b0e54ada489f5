"""Bruhat and Cholesky factorizations for small complex matrices.

Conventions (fixed throughout the package, see README):

* ``B(r)`` is the Borel subgroup of *lower* triangular matrices and
  ``N(r)`` its unipotent subgroup (lower unipotent).
* ``Pi0`` is the antidiagonal permutation (exchange) matrix; the large
  Bruhat cell is ``B(r) Pi0 N(r)``.
* For a splitting type with multiplicity partition (i_1, ..., i_s),
  ``P_N`` is the block-lower-triangular parabolic subgroup.
* Cholesky factors are *upper* triangular: ``h = b* b`` with positive
  real diagonal, equivalently ``h = c* a c`` with ``a`` positive diagonal
  and ``c`` upper unipotent, ``b = sqrt(a) c``.

The cell membership test works on upper-right corner minors
``det g[:k, r-k:]``: these are exactly the minors that are invariant
under ``g -> B g L`` with lower-triangular B and lower-unipotent L, and
their non-vanishing characterizes ``B(r) Pi0 N(r)``.  The Bruhat
permutation comes from the ranks of all r^2 upper-right corners, taken
as one stacked SVD of the corners zero-padded to r x r.

Every factorization and cell test takes an r x r matrix or a (..., r, r)
stack, one code path for both (a single matrix is a stack of one), each
member taken alone with its own checks and thresholds.  The checks run in
the order a member alone meets them, each raising the refusal of the first
member that fails it, with that member's own message.  The Bruhat routines
take all members at once: one SVD of every member's corners, one
pseudo-inverse per column group of the elimination, one determinant per
minor order.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .numcore import (
    DEFAULT_TOL,
    NotPositiveDefiniteError,
    NumericalError,
    adjoint,
    as_cstack,
    check_hermitian_pd,
    fro,
)


# relative reconstruction tolerance of cholesky_minors (1e-6 of it times
# ||h||_F^j is the floor of its order-j Gram quantity)
CHOLESKY_MINOR_TOL = 1e-9
# cholesky_differential warns above this condition number of h
CONDITION_WARNING = 1e10
# a corner singular value within this factor of the rank threshold, either
# way, is ambiguous (AmbiguousCellError)
RANK_DEAD_BAND = 50.0


class SingularInputError(NumericalError):
    """Input matrix numerically singular."""


class AmbiguousCellError(NumericalError):
    """A rank decision fell inside the numerical dead band."""


def antidiagonal_permutation(r: int) -> np.ndarray:
    """The exchange matrix Pi0 (ones on the antidiagonal)."""
    return np.fliplr(np.eye(r))


@dataclass(frozen=True)
class SplittingType:
    """Diagonal twist exponents m_1 <= ... <= m_r with multiplicity partition."""

    m: tuple[int, ...]

    def __post_init__(self):
        if any(self.m[i] > self.m[i + 1] for i in range(len(self.m) - 1)):
            raise ValueError("splitting exponents must be non-decreasing")

    @property
    def rank(self) -> int:
        return len(self.m)

    @property
    def partition(self) -> tuple[int, ...]:
        sizes = []
        for _, grp in itertools.groupby(self.m):
            sizes.append(len(list(grp)))
        return tuple(sizes)


@dataclass
class BruhatFactors:
    """Factors g = P Pi L of one matrix, (r, r) each, or of every member of
    a stack, (..., r, r) each."""

    P: np.ndarray
    Pi: np.ndarray
    L: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.P @ self.Pi @ self.L

    @property
    def permutation(self):
        """Row index i maps to column perm[i] (0-based): a tuple for one
        matrix, an (..., r) integer array for a stack."""
        perm = np.argmax(self.Pi, axis=-1)
        return tuple(int(c) for c in perm) if perm.ndim == 1 else perm


@dataclass
class CholeskyFactors:
    b: np.ndarray
    a: np.ndarray
    c: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return adjoint(self.c) @ (self.a[..., None] * self.c)


def _members(g) -> np.ndarray:
    """g coerced to a finite (B, r, r) stack, B = 1 for one matrix."""
    g = as_cstack(g, "g")
    return g.reshape((-1,) + g.shape[-2:])


def _rank_pattern(g, threshold):
    """Ranks of all upper-right corners of g, or of every member of a
    (..., r, r) stack with its own threshold (shape (...)), with a dead-band
    ambiguity check (RANK_DEAD_BAND).

    Corner (i, j) is g[:i, j:], i = 1..r, j = 0..r-1, zero-padded in place
    to r x r; the r^2 padded corners of all members take one stacked SVD,
    and the padding only adds zero singular values.  Returns rho
    (..., r + 1, r + 2) with rho[..., i, j + 1] the rank of corner (i, j).
    A dead-band refusal names the first ambiguous singular value, members
    in order and then corners in (i, j) order.
    """
    g = np.asarray(g)
    lead, r = g.shape[:-2], g.shape[-1]
    threshold = np.broadcast_to(threshold, lead).reshape(-1, 1, 1)
    i, j = np.divmod(np.arange(r * r), r)
    idx = np.arange(r)
    keep = (idx[:, None] <= i[:, None, None]) & (idx >= j[:, None, None])
    sv = np.linalg.svd(np.where(keep, g.reshape(-1, 1, r, r), 0), compute_uv=False)
    inside = (sv > threshold / RANK_DEAD_BAND) & (sv < threshold * RANK_DEAD_BAND)
    if np.any(inside):
        member, corner, k = np.argwhere(inside)[0]
        raise AmbiguousCellError(
            f"singular value {sv[member, corner, k]:.3e} within the dead band "
            f"around threshold {threshold[member, 0, 0]:.3e}"
        )
    rho = np.zeros((len(sv), r + 1, r + 2), dtype=int)
    rho[:, 1:, 1:-1] = np.sum(sv > threshold, axis=-1).reshape(-1, r, r)
    return rho.reshape(lead + (r + 1, r + 2))


def bruhat_permutation(g) -> np.ndarray:
    """Permutation factor of the Bruhat decomposition g = B Pi L, of g or of
    every member of a (..., r, r) stack.

    Determined from the rank pattern of upper-right corner submatrices,
    which is a complete invariant of the double coset B(r) g N(r); a
    singular value counts towards a rank above DEFAULT_TOL * ||g_b|| of its
    own member.  All members' corners take one stacked SVD (_rank_pattern),
    and the jumps of the rank array give Pi.  A member in the dead band
    raises AmbiguousCellError, one whose pattern is no permutation
    SingularInputError, each for the first member that fails it.
    """
    gs = _members(g)
    rho = _rank_pattern(gs, DEFAULT_TOL * np.maximum(fro(gs), 1e-300))
    jump = rho[:, 1:, 1:-1] - rho[:, :-1, 1:-1] - rho[:, 1:, 2:] + rho[:, :-1, 2:]
    Pi = (jump == 1).astype(float)
    if not (np.all(Pi.sum(axis=-2) == 1) and np.all(Pi.sum(axis=-1) == 1)):
        raise SingularInputError("rank pattern is not a permutation; input singular?")
    return Pi.reshape(np.shape(g))


def bruhat_factor(g) -> BruhatFactors:
    """Factor g = P Pi L with lower-triangular P, permutation Pi, lower-unipotent L,
    for g or for every member of a (..., r, r) stack.

    The factorization is the classical one with P in the Borel subgroup
    B(r); since B(r) is contained in every block-lower parabolic P_N, the
    same factors serve every splitting type.  The permutation is the
    rank-pattern one, so the output is deterministic; for a splitting it
    is a representative of the W(i_1) x ... x W(i_s) coset of admissible
    permutations.

    X = L^{-1} is filled column by column: column c of g X must vanish
    above row k = perm^{-1}(c), a minimum-norm least-squares solve on
    g[:k, c+1:].  The members with one k at column c are one stacked
    pseudo-inverse, whose cutoff max(k, r-c-1) eps max(sv) is lstsq's at
    rcond=None; a QR solve would fail on the rank-deficient blocks of the
    small cells (g = I has g[:k, c+1:] = 0).  The determinant, the
    permutation and the reconstruction are checked per member, in that
    order, each raising for the first member that fails it.
    """
    gs = _members(g)
    r = gs.shape[-1]
    scale = np.maximum(fro(gs), 1e-300)
    det = np.abs(np.linalg.det(gs))
    low = det <= 1e-12 * scale**r
    if np.any(low):
        raise SingularInputError(f"|det g| = {det[low][0]:.3e} below threshold")

    Pi = bruhat_permutation(gs)
    inv_perm = np.argmax(Pi, axis=-2)  # column c -> row inv_perm[c]

    X = np.broadcast_to(np.eye(r, dtype=complex), gs.shape).copy()
    for c in range(r - 1):
        for k in set(inv_perm[:, c].tolist()) - {0}:
            rows = inv_perm[:, c] == k
            sol = np.linalg.pinv(gs[rows, :k, c + 1 :], rtol=None) @ -gs[rows, :k, c, None]
            X[rows, c + 1 :, c] = sol[..., 0]
    L = np.linalg.inv(X)
    P = gs @ X @ np.swapaxes(Pi, -1, -2)

    resid = fro(P @ Pi @ L - gs)
    bad = resid > 1e-10 * scale
    if np.any(bad):
        raise NumericalError(f"Bruhat reconstruction residual {resid[bad][0]:.3e}")
    shape = np.shape(g)
    return BruhatFactors(P=P.reshape(shape), Pi=Pi.reshape(shape), L=L.reshape(shape))


def in_large_cell(g):
    """Whether g lies in the large Bruhat cell B(r) Pi0 N(r): a bool for one
    matrix, a bool array (...) for a (..., r, r) stack.

    Tested through the corner minors det g[:k, r-k:], k = 1..r, which for
    this convention are nonzero exactly on the large cell, one stacked
    determinant per order k.  The decision threshold is
    ``DEFAULT_TOL * ||g||^k`` (scale covariance of a k x k minor), with
    ||g|| = ||g||_F / sqrt(r) of each member.
    """
    g = as_cstack(g, "g")
    r = g.shape[-1]
    gnorm = np.maximum(fro(g) / np.sqrt(r), 1e-300)
    inside = np.ones(g.shape[:-2], dtype=bool)
    for k in range(1, r + 1):
        inside &= np.abs(np.linalg.det(g[..., :k, r - k :])) > DEFAULT_TOL * gnorm**k
    return bool(inside) if g.ndim == 2 else inside


def bruhat_large_cell_minors(g) -> BruhatFactors:
    """Large-cell factorization g = B Pi0 L through explicit minor ratios,
    of g or of every member of a (..., r, r) stack.

    Uses the Crout decomposition of g@Pi0 = B U (B lower with diagonal, U
    upper unipotent) written as determinant ratios, then L = Pi0 U Pi0; the
    minors of order k of all members are one stacked determinant.
    Independent of the elimination path in :func:`bruhat_factor`; used to
    cross-check uniqueness on the large cell.  A stack with any member
    outside the cell is refused.
    """
    g = as_cstack(g, "g")
    r = g.shape[-1]
    if not np.all(in_large_cell(g)):
        raise SingularInputError("matrix is not in the large Bruhat cell")
    Pi0 = antidiagonal_permutation(r)
    S = g @ Pi0
    U = np.broadcast_to(np.eye(r, dtype=complex), g.shape).copy()
    B = np.zeros(g.shape, dtype=complex)
    prev = 1.0  # det S[:k-1, :k-1]
    for k in range(1, r + 1):
        # index sets (1..k-1, m) for m = k..r: B-minor rows, then U-minor columns
        idx = np.column_stack([np.tile(np.arange(k - 1), (r - k + 1, 1)), np.arange(k - 1, r)])
        stack = [S[..., idx[:, :, None], np.arange(k)], S[..., np.arange(k)[:, None], idx[1:, None, :]]]
        d = np.linalg.det(np.concatenate(stack, axis=-3))
        B[..., k - 1 :, k - 1] = d[..., : r - k + 1] / prev
        U[..., k - 1, k:] = d[..., r - k + 1 :] / d[..., :1]
        prev = d[..., :1]
    L = Pi0 @ U @ Pi0
    return BruhatFactors(P=B, Pi=np.broadcast_to(Pi0, g.shape).copy(), L=L)


def cholesky_minors(h, M) -> CholeskyFactors:
    """Cholesky data of h = M* M through conjugated-minor sums.

    The Gram-determinant quantities

        Q_jk = sum over row subsets l_1 < ... < l_j of
               conj(det M[l, (1..j-1, j)]) * det M[l, (1..j-1, k)]

    give a_j = Q_jj / Q_{j-1,j-1} and c_jk = Q_jk / Q_jj (with Q_00 = 1),
    essentially the Gram-Schmidt orthogonalization of the columns of M.
    For each order j all C(r, j) row subsets times r - j + 1 column sets
    are indexed at once and their minors taken by one stacked determinant;
    intended for r <= 4.  Q_jj = det h[:j, :j] is homogeneous of degree j
    in h, so its positivity floor is 1e-6 CHOLESKY_MINOR_TOL ||h||_F^j.

    h and M may be (..., r, r) stacks of one shape, each member taken alone:
    every check is the member's own, and a stack raises the refusal of its
    first failing member.
    """
    h = check_hermitian_pd(h)
    M = as_cstack(M, "M")
    if M.shape != h.shape:
        raise ValueError(f"M has shape {M.shape}, h has shape {h.shape}")
    r = h.shape[-1]
    hnorm = np.maximum(fro(h), 1e-300)
    gram = fro(adjoint(M) @ M - h)
    if np.any(gram > 1e-8 * hnorm):
        raise ValueError("M* M does not reproduce h")

    Q = np.zeros(h.shape[:-2] + (r + 1, r + 1), dtype=complex)
    Q[..., 0, 0] = 1.0
    for j in range(1, r + 1):
        rows = np.array(list(itertools.combinations(range(r), j)))
        cols = np.column_stack([np.tile(np.arange(j - 1), (r - j + 1, 1)), np.arange(j - 1, r)])
        d = np.linalg.det(M[..., rows[:, None, :, None], cols[None, :, None, :]])
        Q[..., j, j:] = (np.conj(d[..., None, :, 0]) @ d)[..., 0, :]

    q = np.diagonal(Q, axis1=-2, axis2=-1)
    floor = CHOLESKY_MINOR_TOL * 1e-6 * hnorm[..., None] ** np.arange(1, r + 1)
    good = (q[..., 1:].real > floor) & (np.abs(q[..., 1:].imag) <= 1e-8 * q[..., 1:].real)
    if not np.all(good):
        member, j = np.argwhere(~good.reshape(-1, r))[0]
        raise NotPositiveDefiniteError(
            f"leading Gram quantity Q_{j + 1}{j + 1} = {q.reshape(-1, r + 1)[member, j + 1]:.3e} "
            "not positive"
        )
    a = q[..., 1:].real / q[..., :-1].real
    c = np.triu(Q[..., 1:, 1:] / q[..., 1:, None].real, 1) + np.eye(r)

    factors = CholeskyFactors(b=np.sqrt(a)[..., None] * c, a=a, c=c)
    resid = np.asarray(fro(factors.reconstruct() - h))
    bad = resid > CHOLESKY_MINOR_TOL * hnorm
    if np.any(bad):
        raise NumericalError(f"Cholesky reconstruction residual {resid[bad][0]:.3e}")
    return factors


def cholesky_upper(h) -> np.ndarray:
    """Upper-triangular b with positive real diagonal and h = b* b, for h
    or every member of a (..., r, r) stack."""
    h = np.asarray(h, dtype=complex)
    h = 0.5 * (h + adjoint(h))
    try:
        low = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return adjoint(low)


def cholesky_differential(h, dh) -> np.ndarray:
    """Directional derivative db of the upper Cholesky factor.

    For Hermitian dh, db is the unique upper-triangular matrix with real
    diagonal satisfying db* b + b* db = dh.  With S = b^{-*} dh b^{-1} the
    solution is db = (strict_upper(S) + diag(S)/2) b.  h and dh may be
    (..., r, r) stacks, each member taken alone.  Warns once, for the
    worst member, when the condition number of h exceeds CONDITION_WARNING.
    """
    h = check_hermitian_pd(h)
    dh = np.asarray(dh, dtype=complex)
    if not np.all(np.isfinite(dh)):
        raise NumericalError("dh contains non-finite entries")
    cond = np.max(np.linalg.cond(h))
    if cond > CONDITION_WARNING:
        warnings.warn(f"h condition number {cond:.2e}; db may lose accuracy")
    b = cholesky_upper(h)
    bh = adjoint(b)
    # S = b^{-*} dh b^{-1}, as (b^{-*} (b^{-*} dh)^*)^*
    tmp = np.linalg.solve(bh, dh)
    S = adjoint(np.linalg.solve(bh, adjoint(tmp)))
    diag = np.diagonal(S, axis1=-2, axis2=-1).real
    theta = np.triu(S, 1) + 0.5 * diag[..., None] * np.eye(h.shape[-1])
    return theta @ b
