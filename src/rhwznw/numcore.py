"""Dense complex small-matrix helpers.

Everything in this package works with explicit dense complex matrices of
small size (ranks of interest are r <= 4).  This module collects the few
helpers shared across modules: input coercion of a stack of matrices,
read-only copies, the conjugate transpose of a stack, the diagonal
matrices of a stack of rows, the Frobenius norm of a matrix or of every
member of a stack, deterministically ordered eigenvalues, Hermitian positive-definite
validation, random unitary and HPD samples, the batched matrix exponential
expm, and the NumericalError base class.

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


def as_cstack(m, name: str) -> np.ndarray:
    """Coerce to a finite complex square matrix or (..., r, r) stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square or a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def read_only(a) -> np.ndarray:
    """A read-only copy of a: the caller's array stays writable, and a later
    write to it does not reach the copy."""
    out = np.array(a)
    out.flags.writeable = False
    return out


def adjoint(m) -> np.ndarray:
    """The conjugate transpose of m, or of every member of a (..., r, r) stack."""
    return np.swapaxes(np.conj(m), -1, -2)


def fro(m):
    """Frobenius norm of a matrix (a float), or of every member of a
    (..., r, r) stack (an array of shape (...)).

    One arithmetic for both: the dot products of the real and of the
    imaginary parts, as np.linalg.norm takes them of a single matrix, so a
    member's norm equals that of the member taken alone, bit for bit
    (np.linalg.norm(axis=(-2, -1)) differs in the last bit on about a fifth
    of small matrices).  np.vecdot is why the package needs NumPy 2.0.
    """
    x = np.asarray(m, dtype=complex)
    x = x.reshape(*x.shape[:-2], -1)
    out = np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))
    return float(out) if x.ndim == 1 else out


def diag_stack(v) -> np.ndarray:
    """np.diag of every row of an (..., r) array: an (..., r, r) stack, each
    member laid out as np.diag lays out one (zeros, then the diagonal)."""
    v = np.asarray(v)
    r = v.shape[-1]
    out = np.zeros(v.shape + (r,), dtype=v.dtype)
    out[..., np.arange(r), np.arange(r)] = v
    return out


def is_hermitian(m) -> bool:
    """Whether m, or every member of a (..., r, r) stack, is Hermitian."""
    m = np.asarray(m, dtype=complex)
    return bool(np.all(fro(m - adjoint(m)) <= HERMITIAN_TOL * np.maximum(fro(m), 1.0)))


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
    """Eigenvalues only, in the deterministic (real, imag) lexicographic
    order: an (r,) array for a matrix, an (..., r) array for a (..., r, r)
    stack, from one batched eigvals.  Non-finite input is refused."""
    lam = np.linalg.eigvals(as_cstack(m, "matrix"))
    return np.take_along_axis(lam, np.lexsort((lam.imag, lam.real)), axis=-1)


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
