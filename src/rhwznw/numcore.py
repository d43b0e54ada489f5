"""Dense complex small-matrix helpers.

Everything in this package works with explicit dense complex matrices of
small size (ranks of interest are r <= 4).  This module collects the few
helpers shared across modules: input coercion of a matrix or a stack,
the conjugate transpose of a stack, the Frobenius norm, deterministically
ordered eigenvalues, Hermitian positive-definite validation, random
unitary and HPD samples, the batched matrix exponential expm, and the
NumericalError base class.

Tolerances are relative to the Frobenius norm throughout; the master
default is ``DEFAULT_TOL = 1e-10``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
# largest ||m - m*||_F, relative to max(||m||_F, 1), of a Hermitian matrix
HERMITIAN_TOL = 1e-12


class NumericalError(RuntimeError):
    """Raised when a kernel routine cannot meet its accuracy contract."""


class NotPositiveDefiniteError(NumericalError):
    """Hermitian matrix failed a positive-definiteness check."""


def as_cmatrix(m, name: str) -> np.ndarray:
    """Coerce to a finite complex 2d array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def as_cstack(m, name: str) -> np.ndarray:
    """Coerce to a finite complex square matrix or (..., r, r) stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square or a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def adjoint(m) -> np.ndarray:
    """The conjugate transpose of m, or of every member of a (..., r, r) stack."""
    return np.swapaxes(np.conj(m), -1, -2)


def fro(m) -> float:
    return float(np.linalg.norm(m, "fro"))


def is_hermitian(m) -> bool:
    """Whether m, or every member of a (..., r, r) stack, is Hermitian."""
    m = np.asarray(m, dtype=complex)
    skew = np.linalg.norm(m - adjoint(m), axis=(-2, -1))
    return bool(np.all(skew <= HERMITIAN_TOL * np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1.0)))


def check_hermitian_pd(h) -> np.ndarray:
    """Validate that h, or every member of a (..., r, r) stack, is finite and
    Hermitian positive-definite to HERMITIAN_TOL; return a hermitized copy."""
    h = as_cstack(h, "h")
    if not is_hermitian(h):
        raise NotPositiveDefiniteError("matrix is not Hermitian to tolerance")
    h = 0.5 * (h + adjoint(h))
    w = np.linalg.eigvalsh(h)
    if w.min() <= 0.0:
        raise NotPositiveDefiniteError(f"minimal eigenvalue {w.min():.3e} <= 0")
    return h


def sorted_eigvals(m) -> np.ndarray:
    """Eigenvalues only, in the deterministic (real, imag) lexicographic order."""
    lam = np.linalg.eigvals(as_cmatrix(m, "matrix"))
    return lam[np.lexsort((lam.imag, lam.real))]


def random_unitary(rng: np.random.Generator, r: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Ginibre sample."""
    z = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rr = np.linalg.qr(z)
    return q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))


def random_hpd(rng: np.random.Generator, r: int) -> np.ndarray:
    """Random Hermitian positive-definite matrix with moderate conditioning."""
    m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    h = m @ m.conj().T + 1.5 * np.eye(r)
    return 0.5 * (h + h.conj().T)


# Pade-13 numerator coefficients b_0 .. b_13 (Higham 2005, table 10.4) over
# b_0, so that exp(0) solves I x = I exactly, and the largest 1-norm at which
# the degree-13 approximant is accurate to eps
_PADE13_B = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
_PADE13_THETA = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of a (..., r, r) stack by scaling and squaring.

    Every member takes the degree-13 Pade approximant of A / 2^s with its
    own s = max(0, ceil(log2(||A||_1 / theta_13))) and is then squared
    s times (N. J. Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193),
    so that a member of a stack equals the same matrix taken alone, bit for
    bit.  Raises NumericalError on non-finite input or result.
    """
    a = np.asarray(a, dtype=complex)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.all(np.isfinite(norm)):
        raise NumericalError("expm of a matrix with non-finite entries")
    b = _PADE13_B
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.maximum(0.0, np.ceil(np.log2(norm / _PADE13_THETA))).astype(int)
        a = a * (2.0 ** -s)[..., None, None]
        eye = np.eye(a.shape[-1])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye)
        x = np.linalg.solve(v - u, v + u)
        for k in range(int(s.max(initial=0))):
            x = np.where((k < s)[..., None, None], x @ x, x)
    if not np.all(np.isfinite(x)):
        raise NumericalError("expm overflowed: the exponential is not finite")
    return x
