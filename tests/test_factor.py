import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhwznw import factor, numcore
from rhwznw.verify import hpd_sqrt, oracle_bruhat_permutation


def random_gl(rng, r):
    while True:
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        if abs(np.linalg.det(g)) > 1e-3:
            return g


def test_bruhat_identity():
    f = factor.bruhat_factor(np.eye(3))
    assert f.permutation == (0, 1, 2)
    assert numcore.fro(f.P - np.eye(3)) < 1e-12
    assert numcore.fro(f.L - np.eye(3)) < 1e-12


def test_bruhat_antidiagonal():
    pi0 = factor.antidiagonal_permutation(2)
    f = factor.bruhat_factor(pi0)
    assert f.permutation == (1, 0)
    assert numcore.fro(f.P - np.eye(2)) < 1e-12
    assert numcore.fro(f.L - np.eye(2)) < 1e-12


def test_bruhat_oracle_agreement():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = random_gl(rng, 3)
        f = factor.bruhat_factor(g)
        assert numcore.fro(f.reconstruct() - g) <= 1e-10 * numcore.fro(g)
        assert f.permutation == oracle_bruhat_permutation(g)


def test_bruhat_structure():
    rng = np.random.default_rng(5)
    for r in (2, 3, 4):
        for _ in range(40):
            g = random_gl(rng, r)
            f = factor.bruhat_factor(g)
            assert numcore.fro(np.triu(f.P, 1)) < 1e-9 * numcore.fro(f.P)
            assert numcore.fro(np.triu(f.L, 1)) < 1e-12
            assert np.allclose(np.diag(f.L), 1.0)


def test_bruhat_singular_rejected():
    g = np.ones((3, 3), dtype=complex)
    with pytest.raises(factor.SingularInputError):
        factor.bruhat_factor(g)


def test_bruhat_ambiguous_cell():
    # upper-right corner entry sits exactly in the numerical dead band
    g = np.array([[1.0, 1e-10], [1.0, 1.0]], dtype=complex)
    with pytest.raises((factor.AmbiguousCellError, factor.SingularInputError)):
        factor.bruhat_factor(g)


def test_permutation_ambiguity_is_block_diagonal():
    # left multiplication by the parabolic subgroup changes the permutation
    # only within the W(i1) x W(i2) coset
    rng = np.random.default_rng(9)
    splitting = factor.SplittingType((-2, -1, -1))
    sizes = splitting.partition
    assert sizes == (1, 2)
    for _ in range(60):
        g = random_gl(rng, 3)
        f1 = factor.bruhat_factor(g)
        p = np.zeros((3, 3), dtype=complex)
        start = 0
        for s in sizes:
            blk = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            p[start : start + s, start : start + s] = blk + 2 * np.eye(s)
            start += s
        p[1:, :1] = rng.standard_normal((2, 1))
        f2 = factor.bruhat_factor(p @ g)
        w = f2.Pi @ f1.Pi.T
        for sl in splitting.block_slices():
            outside = w.copy()
            outside[sl, sl] = 0.0
        assert abs(np.sum(w[0:1, 0:1]) + np.sum(w[1:, 1:]) - 3) < 1e-12


def test_in_large_cell_examples():
    assert factor.in_large_cell(factor.antidiagonal_permutation(3))
    assert not factor.in_large_cell(np.eye(2))
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_gl(rng, 3)
        assert factor.in_large_cell(g) == (
            factor.bruhat_factor(g).permutation == (2, 1, 0)
        )


def test_large_cell_uniqueness_two_paths():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 60:
        g = random_gl(rng, 3)
        if not factor.in_large_cell(g):
            continue
        f1 = factor.bruhat_factor(g)
        f2 = factor.bruhat_large_cell_minors(g)
        assert numcore.fro(f1.P - f2.P) <= 1e-9 * max(numcore.fro(f1.P), 1)
        assert numcore.fro(f1.L - f2.L) <= 1e-9 * max(numcore.fro(f1.L), 1)
        checked += 1


def test_splitting_type():
    s = factor.SplittingType((-1, -1))
    assert s.partition == (2,)
    s2 = factor.SplittingType((-2, -1))
    assert s2.partition == (1, 1)
    with pytest.raises(ValueError):
        factor.SplittingType((0, -1))


def test_cholesky_identity():
    f = factor.cholesky_minors(np.eye(3), np.eye(3))
    assert np.allclose(f.a, 1.0)
    assert numcore.fro(f.c - np.eye(3)) < 1e-12


def test_cholesky_diagonal():
    f = factor.cholesky_minors(np.diag([4.0, 9.0]), np.diag([2.0, 3.0]))
    assert np.allclose(f.a, [4.0, 9.0])
    assert numcore.fro(f.c - np.eye(2)) < 1e-12


def test_cholesky_against_textbook():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = m.conj().T @ m + 0.1 * np.eye(4)
        msq = hpd_sqrt(h)
        f = factor.cholesky_minors(h, msq)
        b_ref = factor.cholesky_upper(h)
        assert numcore.fro(f.b - b_ref) <= 1e-9 * numcore.fro(b_ref)
        assert numcore.fro(f.reconstruct() - h) <= 1e-9 * numcore.fro(h)
        assert numcore.fro(np.diag(np.sqrt(f.a)) @ f.c - f.b) < 1e-10 * numcore.fro(f.b)


def test_cholesky_invariance_under_unitary():
    rng = np.random.default_rng(6)
    done = 0
    while done < 60:
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if abs(np.linalg.det(m)) < 0.3:
            continue
        h = m.conj().T @ m
        u = numcore.random_unitary(rng, 3)
        f1 = factor.cholesky_minors(h, m)
        f2 = factor.cholesky_minors(h, u @ m)
        assert numcore.fro(f1.b - f2.b) <= 1e-9 * numcore.fro(f1.b)
        done += 1


def test_cholesky_rejects_bad_square_root():
    with pytest.raises(ValueError):
        factor.cholesky_minors(np.eye(2), 2 * np.eye(2))


def test_cholesky_differential_trivial():
    assert numcore.fro(factor.cholesky_differential(np.eye(2), np.zeros((2, 2)))) == 0.0
    db = factor.cholesky_differential(np.eye(2), np.diag([2.0, 0.0]))
    assert numcore.fro(db - np.diag([1.0, 0.0])) < 1e-12


def test_cholesky_differential_fd():
    rng = np.random.default_rng(8)
    for r in (2, 3, 4):
        for _ in range(20):
            h = numcore.random_hpd(rng, r)
            dh = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            dh = dh + dh.conj().T
            db = factor.cholesky_differential(h, dh)
            t = 1e-6
            fd = (factor.cholesky_upper(h + t * dh) - factor.cholesky_upper(h - t * dh)) / (
                2 * t
            )
            assert numcore.fro(db - fd) < 1e-5 * (1 + numcore.fro(db))
            assert np.max(np.abs(np.diag(db).imag)) < 1e-12


def test_cholesky_differential_conditioning_warning():
    h = np.diag([1.0, 1e-11])
    with pytest.warns(UserWarning):
        factor.cholesky_differential(h, np.eye(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bruhat_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))
    g = random_gl(rng, r)
    f = factor.bruhat_factor(g)
    assert numcore.fro(f.reconstruct() - g) <= 1e-10 * numcore.fro(g)
    assert np.allclose(f.Pi.sum(axis=0), 1.0) and np.allclose(f.Pi.sum(axis=1), 1.0)
