"""Dense complex small-matrix helpers.

Everything in this package works with explicit dense complex matrices of
small size (ranks of interest are r <= 4).  This module collects the few
helpers shared across modules: input coercion, the Frobenius norm,
deterministically ordered eigenvalues, Hermitian positive-definite
validation, random unitary and HPD samples, and the NumericalError base
class.

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


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex 2d array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def fro(m) -> float:
    return float(np.linalg.norm(m, "fro"))


def is_hermitian(m) -> bool:
    m = np.asarray(m, dtype=complex)
    return fro(m - m.conj().T) <= HERMITIAN_TOL * max(fro(m), 1.0)


def check_hermitian_pd(h) -> np.ndarray:
    """Validate that h is Hermitian positive-definite to HERMITIAN_TOL;
    return a hermitized copy."""
    h = as_cmatrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise ValueError("h must be square")
    if not is_hermitian(h):
        raise NotPositiveDefiniteError("matrix is not Hermitian to tolerance")
    h = 0.5 * (h + h.conj().T)
    w = np.linalg.eigvalsh(h)
    if w.min() <= 0.0:
        raise NotPositiveDefiniteError(f"minimal eigenvalue {w.min():.3e} <= 0")
    return h


def sorted_eigvals(m) -> np.ndarray:
    """Eigenvalues only, in the deterministic (real, imag) lexicographic order."""
    lam = np.linalg.eigvals(as_cmatrix(m))
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
