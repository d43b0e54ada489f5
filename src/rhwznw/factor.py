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
their non-vanishing characterizes ``B(r) Pi0 N(r)``.
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
    as_cmatrix,
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
    P: np.ndarray
    Pi: np.ndarray
    L: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.P @ self.Pi @ self.L

    @property
    def permutation(self) -> tuple[int, ...]:
        """Row index i maps to column perm[i] (0-based)."""
        return tuple(int(np.argmax(self.Pi[i])) for i in range(self.Pi.shape[0]))


@dataclass
class CholeskyFactors:
    b: np.ndarray
    a: np.ndarray
    c: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.c.conj().T @ np.diag(self.a) @ self.c


def _corner_singular_values(g: np.ndarray, i: int, j: int) -> np.ndarray:
    """Singular values of the upper-right corner block rows < i, cols >= j."""
    block = g[:i, j:]
    if block.size == 0:
        return np.zeros(0)
    return np.linalg.svd(block, compute_uv=False)


def _rank_pattern(g: np.ndarray, threshold: float):
    """Ranks of all upper-right corners, with a dead-band ambiguity check
    (RANK_DEAD_BAND)."""
    r = g.shape[0]
    rho = np.zeros((r + 1, r + 2), dtype=int)
    for i in range(1, r + 1):
        for j in range(r):
            sv = _corner_singular_values(g, i, j)
            inside = (sv > threshold / RANK_DEAD_BAND) & (sv < threshold * RANK_DEAD_BAND)
            if np.any(inside):
                raise AmbiguousCellError(
                    f"singular value {sv[inside][0]:.3e} within the dead band "
                    f"around threshold {threshold:.3e}"
                )
            rho[i, j + 1] = int(np.sum(sv > threshold))
    return rho


def bruhat_permutation(g) -> np.ndarray:
    """Permutation factor of the Bruhat decomposition g = B Pi L.

    Determined from the rank pattern of upper-right corner submatrices,
    which is a complete invariant of the double coset B(r) g N(r); a
    singular value counts towards a rank above DEFAULT_TOL * ||g||.
    """
    g = as_cmatrix(g, "g")
    r = g.shape[0]
    threshold = DEFAULT_TOL * max(fro(g), 1e-300)
    rho = _rank_pattern(g, threshold)
    Pi = np.zeros((r, r))
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            jump = rho[i, j] - rho[i - 1, j] - rho[i, j + 1] + rho[i - 1, j + 1]
            if jump == 1:
                Pi[i - 1, j - 1] = 1.0
    if not (np.all(Pi.sum(axis=0) == 1) and np.all(Pi.sum(axis=1) == 1)):
        raise SingularInputError("rank pattern is not a permutation; input singular?")
    return Pi


def bruhat_factor(g) -> BruhatFactors:
    """Factor g = P Pi L with lower-triangular P, permutation Pi, lower-unipotent L.

    The factorization is the classical one with P in the Borel subgroup
    B(r); since B(r) is contained in every block-lower parabolic P_N, the
    same factors serve every splitting type.  The permutation is the
    rank-pattern one, so the output is deterministic; for a splitting it
    is a representative of the W(i_1) x ... x W(i_s) coset of admissible
    permutations.
    """
    g = as_cmatrix(g, "g")
    r = g.shape[0]
    if g.shape[0] != g.shape[1]:
        raise ValueError("g must be square")
    scale = max(fro(g), 1e-300)
    det = np.linalg.det(g)
    if abs(det) <= 1e-12 * scale**r:
        raise SingularInputError(f"|det g| = {abs(det):.3e} below threshold")

    Pi = bruhat_permutation(g)
    perm = [int(np.argmax(Pi[i])) for i in range(r)]   # row i -> column perm[i]
    inv_perm = np.argsort(perm)                        # column c -> row inv_perm[c]

    # Solve for X = L^{-1} (lower unipotent): column pi(k) of g@X must vanish
    # above row k.  The conditions decouple per column of X.
    X = np.eye(r, dtype=complex)
    for c in range(r):
        k = int(inv_perm[c])
        if k == 0 or c == r - 1:
            continue
        rows = slice(0, k)
        Amat = g[rows, c + 1 :]
        rhs = -g[rows, c]
        sol, *_ = np.linalg.lstsq(Amat, rhs, rcond=None)
        X[c + 1 :, c] = sol
    L = np.linalg.inv(X)
    P = g @ X @ Pi.T

    factors = BruhatFactors(P=P, Pi=Pi, L=L)
    resid = fro(factors.reconstruct() - g)
    if resid > 1e-10 * scale:
        raise NumericalError(f"Bruhat reconstruction residual {resid:.3e}")
    return factors


def in_large_cell(g) -> bool:
    """Whether g lies in the large Bruhat cell B(r) Pi0 N(r).

    Tested through the corner minors det g[:k, r-k:], k = 1..r, which for
    this convention are nonzero exactly on the large cell.  The decision
    threshold is ``DEFAULT_TOL * ||g||^k`` (scale covariance of a k x k
    minor), with ||g|| = ||g||_F / sqrt(r).
    """
    g = as_cmatrix(g, "g")
    r = g.shape[0]
    gnorm = max(fro(g) / np.sqrt(r), 1e-300)
    for k in range(1, r + 1):
        minor = np.linalg.det(g[:k, r - k :])
        if abs(minor) <= DEFAULT_TOL * gnorm**k:
            return False
    return True


def bruhat_large_cell_minors(g) -> BruhatFactors:
    """Large-cell factorization g = B Pi0 L through explicit minor ratios.

    Uses the Crout decomposition of g@Pi0 = B U (B lower with diagonal, U
    upper unipotent) written as determinant ratios, then L = Pi0 U Pi0.
    Independent of the elimination path in :func:`bruhat_factor`; used to
    cross-check uniqueness on the large cell.
    """
    g = as_cmatrix(g, "g")
    r = g.shape[0]
    if not in_large_cell(g):
        raise SingularInputError("matrix is not in the large Bruhat cell")
    Pi0 = antidiagonal_permutation(r)
    S = g @ Pi0
    U = np.eye(r, dtype=complex)
    B = np.zeros((r, r), dtype=complex)
    prev = 1.0  # det S[:k-1, :k-1]
    for k in range(1, r + 1):
        # index sets (1..k-1, m) for m = k..r: B-minor rows, then U-minor columns
        idx = np.column_stack([np.tile(np.arange(k - 1), (r - k + 1, 1)), np.arange(k - 1, r)])
        stack = [S[idx[:, :, None], np.arange(k)], S[np.arange(k)[:, None], idx[1:, None, :]]]
        d = np.linalg.det(np.concatenate(stack))
        B[k - 1 :, k - 1] = d[: r - k + 1] / prev
        U[k - 1, k:] = d[r - k + 1 :] / d[0]
        prev = d[0]
    L = Pi0 @ U @ Pi0
    return BruhatFactors(P=B, Pi=Pi0, L=L)


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
    """
    h = check_hermitian_pd(h)
    M = as_cmatrix(M, "M")
    r = h.shape[0]
    if M.shape != (r, r):
        raise ValueError("M must be square of the same size as h")
    hnorm = max(fro(h), 1e-300)
    if fro(M.conj().T @ M - h) > 1e-8 * hnorm:
        raise ValueError("M* M does not reproduce h")

    Q = np.zeros((r + 1, r + 1), dtype=complex)
    Q[0, 0] = 1.0
    for j in range(1, r + 1):
        rows = np.array(list(itertools.combinations(range(r), j)))
        cols = np.column_stack([np.tile(np.arange(j - 1), (r - j + 1, 1)), np.arange(j - 1, r)])
        d = np.linalg.det(M[rows[:, None, :, None], cols[None, :, None, :]])
        Q[j, j:] = np.conj(d[:, 0]) @ d

    a = np.zeros(r)
    c = np.eye(r, dtype=complex)
    for j in range(1, r + 1):
        qjj = Q[j, j]
        if not (qjj.real > CHOLESKY_MINOR_TOL * 1e-6 * hnorm**j and abs(qjj.imag) <= 1e-8 * qjj.real):
            raise NotPositiveDefiniteError(
                f"leading Gram quantity Q_{j}{j} = {qjj:.3e} not positive"
            )
        a[j - 1] = qjj.real / Q[j - 1, j - 1].real
        c[j - 1, j:] = Q[j, j + 1 :] / qjj.real

    b = np.diag(np.sqrt(a)) @ c
    factors = CholeskyFactors(b=b, a=a, c=c)
    resid = fro(factors.reconstruct() - h)
    if resid > CHOLESKY_MINOR_TOL * hnorm:
        raise NumericalError(f"Cholesky reconstruction residual {resid:.3e}")
    return factors


def cholesky_upper(h) -> np.ndarray:
    """Upper-triangular b with positive real diagonal and h = b* b, for h
    or every member of a (..., r, r) stack."""
    h = np.asarray(h, dtype=complex)
    h = 0.5 * (h + np.swapaxes(h.conj(), -1, -2))
    try:
        low = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return np.swapaxes(low.conj(), -1, -2)


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
    bh = np.swapaxes(b.conj(), -1, -2)
    # S = b^{-*} dh b^{-1}, as (b^{-*} (b^{-*} dh)^*)^*
    tmp = np.linalg.solve(bh, dh)
    S = np.swapaxes(np.linalg.solve(bh, np.swapaxes(tmp.conj(), -1, -2)).conj(), -1, -2)
    diag = np.diagonal(S, axis1=-2, axis2=-1).real
    theta = np.triu(S, 1) + 0.5 * diag[..., None] * np.eye(h.shape[-1])
    return theta @ b
