import itertools
import warnings

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


def _cell_member(rng, perm):
    """g = B Pi L with B lower triangular plus 2I and L lower unipotent."""
    r = len(perm)
    pi = np.zeros((r, r))
    pi[np.arange(r), perm] = 1.0
    b = np.tril(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) + 2 * np.eye(r)
    low = np.tril(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)), -1) + np.eye(r)
    return b @ pi @ low


@pytest.mark.parametrize("r", [2, 3, 4])
def test_oracle_and_bruhat_factor_on_every_cell(r):
    # generic draws almost always land in the large cell; here every one of
    # the r! cells is drawn, so the oracle's column solves are reused across
    # permutations whose rows vanish at different heights
    rng = np.random.default_rng([17, r])
    for perm in itertools.permutations(range(r)):
        for _ in range(5):
            g = _cell_member(rng, perm)
            assert oracle_bruhat_permutation(g) == perm
            assert factor.bruhat_factor(g).permutation == perm


def _rank_pattern_per_corner(g, threshold):
    """The rank pattern by one SVD per upper-right corner g[:i, j:], with
    the dead band checked corner by corner."""
    r = g.shape[0]
    rho = np.zeros((r + 1, r + 2), dtype=int)
    for i in range(1, r + 1):
        for j in range(r):
            sv = np.linalg.svd(g[:i, j:], compute_uv=False)
            inside = (sv > threshold / factor.RANK_DEAD_BAND) & (sv < threshold * factor.RANK_DEAD_BAND)
            if np.any(inside):
                raise factor.AmbiguousCellError(f"singular value {sv[inside][0]:.3e}")
            rho[i, j + 1] = int(np.sum(sv > threshold))
    return rho


def _both_rank_patterns(g):
    threshold = numcore.DEFAULT_TOL * numcore.fro(g)
    return factor._rank_pattern(g, threshold), _rank_pattern_per_corner(g, threshold)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_rank_pattern_equals_per_corner_svds_on_every_cell(r):
    # the one stacked SVD of the zero-padded corners decides every rank as
    # one SVD per corner does, on the cases of the every-cell oracle test
    rng = np.random.default_rng([17, r])
    for perm in itertools.permutations(range(r)):
        for _ in range(5):
            got, want = _both_rank_patterns(_cell_member(rng, perm))
            assert np.array_equal(got, want)


def test_rank_pattern_equals_per_corner_svds_on_seeded_draws():
    rng = np.random.default_rng(41)
    for k in range(400):
        r = 2 + k % 4
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        if k % 2:
            g = _cell_member(rng, tuple(rng.permutation(r)))
        got, want = _both_rank_patterns(g)
        assert np.array_equal(got, want)


def test_rank_pattern_dead_band_names_the_per_corner_value():
    # the corner entry 1e-10 sits inside the dead band of the threshold
    # 1e-10 ||g||: both routes refuse it, naming the same singular value
    g = np.array([[1.0, 1e-10], [1.0, 1.0]], dtype=complex)
    threshold = numcore.DEFAULT_TOL * numcore.fro(g)
    with pytest.raises(factor.AmbiguousCellError) as want:
        _rank_pattern_per_corner(g, threshold)
    with pytest.raises(factor.AmbiguousCellError, match="singular value 1.000e-10 within the dead band") as got:
        factor._rank_pattern(g, threshold)
    assert str(want.value) in str(got.value)


def _gram_reference(M):
    """Q_jk by direct enumeration: one determinant per row subset and column set."""
    r = M.shape[0]
    Q = np.zeros((r + 1, r + 1), dtype=complex)
    Q[0, 0] = 1.0
    for j in range(1, r + 1):
        lead = list(range(j - 1))
        for k in range(j, r + 1):
            for rows in itertools.combinations(range(r), j):
                Q[j, k] += np.conj(np.linalg.det(M[np.ix_(rows, lead + [j - 1])])) * np.linalg.det(
                    M[np.ix_(rows, lead + [k - 1])]
                )
    return Q


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cholesky_minors_match_direct_enumeration(r):
    # Q_jj = a_1 ... a_j and Q_jk = c_jk Q_jj, compared per order j
    rng = np.random.default_rng([23, r])
    for _ in range(20):
        m = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        f = factor.cholesky_minors(m.conj().T @ m, m)
        ref = _gram_reference(m)
        for j in range(1, r + 1):
            qjj = np.prod(f.a[:j])
            got = np.concatenate([[qjj], qjj * f.c[j - 1, j:]])
            assert np.linalg.norm(got - ref[j, j:]) <= 1e-13 * np.linalg.norm(ref[j, j:])


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-3, 1.0, 1e4, 1e8])
def test_cholesky_minors_is_scale_covariant(scale):
    # Q_jj is homogeneous of degree j in h: a scaled well-conditioned h
    # (condition number 59) must factor like h
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = scale * (m.conj().T @ m + 0.1 * np.eye(4))
    f = factor.cholesky_minors(h, hpd_sqrt(h))
    b_ref = factor.cholesky_upper(h)
    assert numcore.fro(f.b - b_ref) <= 1e-12 * numcore.fro(b_ref)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_cholesky_minors_equal_member_calls(r):
    # a (3, 4) stack of metrics and square roots, each member factored alone
    rng = np.random.default_rng([43, r])
    m = rng.standard_normal((3, 4, r, r)) + 1j * rng.standard_normal((3, 4, r, r))
    h = numcore.adjoint(m) @ m + 0.1 * np.eye(r)
    msq = hpd_sqrt(h)
    f = factor.cholesky_minors(h, msq)
    assert f.b.shape == f.c.shape == (3, 4, r, r) and f.a.shape == (3, 4, r)
    for idx in np.ndindex(3, 4):
        one = factor.cholesky_minors(h[idx], msq[idx])
        for got, want in ((f.b[idx], one.b), (f.a[idx], one.a), (f.c[idx], one.c)):
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_stacked_cholesky_minors_refuse_a_bad_member():
    # each refusal of one member alone is the refusal of the stack it is in
    rng = np.random.default_rng(47)
    m = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    h = numcore.adjoint(m) @ m + 0.1 * np.eye(3)
    msq = hpd_sqrt(h)
    factor.cholesky_minors(h, msq)

    def refusals(h, msq, member, kind):
        with pytest.raises(kind) as alone:
            factor.cholesky_minors(h[member], msq[member])
        with pytest.raises(kind) as stacked:
            factor.cholesky_minors(h, msq)
        assert str(stacked.value) == str(alone.value)

    bad = msq.copy()
    bad[4] = 2 * bad[4]  # M* M is not h
    refusals(h, bad, 4, ValueError)
    bad = h.copy()
    bad[1] = -bad[1]  # Hermitian, negative definite
    refusals(bad, msq, 1, numcore.NotPositiveDefiniteError)
    bad = h.copy()
    bad[3, 0, 2] += 1e-3  # not Hermitian
    refusals(bad, msq, 3, numcore.NotPositiveDefiniteError)
    bad = msq.copy()
    bad[5, 1, 1] = np.nan
    refusals(h, bad, 5, numcore.NumericalError)
    # positive definite, but Q_33 = 1e-17 lies below the floor 1e-15 ||h||^3
    bad_h, bad_m = h.copy(), msq.copy()
    bad_h[2], bad_m[2] = np.diag([1.0, 1.0, 1e-17]), np.diag([1.0, 1.0, np.sqrt(1e-17)])
    refusals(bad_h, bad_m, 2, numcore.NotPositiveDefiniteError)
    with pytest.raises(numcore.NotPositiveDefiniteError, match="Q_33"):
        factor.cholesky_minors(bad_h, bad_m)


def _hpd_stack(rng, r, n):
    hs = np.stack([numcore.random_hpd(rng, r) for _ in range(n)])
    dh = rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r))
    return hs, dh + np.swapaxes(dh.conj(), -1, -2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_cholesky_equals_member_calls(r):
    hs, dhs = _hpd_stack(np.random.default_rng([29, r]), r, 12)
    b = factor.cholesky_upper(hs)
    db = factor.cholesky_differential(hs, dhs)
    assert b.shape == db.shape == (12, r, r)
    for i in range(12):
        assert np.array_equal(b[i], factor.cholesky_upper(hs[i]))
        assert np.array_equal(db[i], factor.cholesky_differential(hs[i], dhs[i]))


def test_stacked_cholesky_differential_warns_once_for_the_worst_member():
    hs, dhs = _hpd_stack(np.random.default_rng(31), 2, 12)
    hs[4] = np.diag([1.0, 1e-11])
    hs[7] = np.diag([1.0, 1e-12])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        factor.cholesky_differential(hs, dhs)
    assert len(caught) == 1 and issubclass(caught[0].category, UserWarning)
    assert "1.00e+12" in str(caught[0].message)


def test_stacked_cholesky_refuses_a_bad_member():
    hs, dhs = _hpd_stack(np.random.default_rng(37), 3, 12)
    bad = hs.copy()
    bad[5, 0, 1] += 1e-3  # not Hermitian
    with pytest.raises(numcore.NotPositiveDefiniteError, match="not Hermitian"):
        factor.cholesky_differential(bad, dhs)
    bad = hs.copy()
    bad[9] = -bad[9]  # Hermitian, negative definite
    with pytest.raises(numcore.NotPositiveDefiniteError, match="minimal eigenvalue"):
        factor.cholesky_differential(bad, dhs)
    with pytest.raises(numcore.NotPositiveDefiniteError):
        factor.cholesky_upper(bad)
    bad = hs.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(numcore.NumericalError, match="non-finite"):
        factor.cholesky_differential(bad, dhs)
    nan_dh = dhs.copy()
    nan_dh[11, 0, 0] = np.inf
    with pytest.raises(numcore.NumericalError, match="non-finite"):
        factor.cholesky_differential(hs, nan_dh)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bruhat_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 5))
    g = random_gl(rng, r)
    f = factor.bruhat_factor(g)
    assert numcore.fro(f.reconstruct() - g) <= 1e-10 * numcore.fro(g)
    assert np.allclose(f.Pi.sum(axis=0), 1.0) and np.allclose(f.Pi.sum(axis=1), 1.0)


def _assert_stack_equals_members(g):
    # one bruhat_factor call on a (B, r, r) stack against B member calls
    f = factor.bruhat_factor(g)
    assert f.P.shape == f.Pi.shape == f.L.shape == g.shape
    assert f.permutation.shape == g.shape[:-1]
    for b in range(len(g)):
        one = factor.bruhat_factor(g[b])
        assert tuple(f.permutation[b]) == one.permutation
        assert np.array_equal(f.Pi[b], one.Pi)
        for got, want in ((f.P[b], one.P), (f.L[b], one.L)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_stacked_bruhat_factor_equals_member_calls_on_every_cell(r):
    # every cell of the every-cell oracle test in one stack, so its column
    # solves fall into several row-count groups per column
    rng = np.random.default_rng([17, r])
    g = np.stack([_cell_member(rng, perm) for perm in itertools.permutations(range(r)) for _ in range(5)])
    _assert_stack_equals_members(g)


def test_stacked_bruhat_factor_equals_member_calls_on_seeded_draws():
    # the seeded draws of the rank-pattern test, half of them B Pi L
    # products, as one stack per rank
    rng = np.random.default_rng(41)
    by_rank = {}
    for k in range(400):
        r = 2 + k % 3
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        if k % 2:
            g = _cell_member(rng, tuple(rng.permutation(r)))
        by_rank.setdefault(r, []).append(g)
    for samples in by_rank.values():
        _assert_stack_equals_members(np.stack(samples))


def test_stacked_bruhat_factor_keeps_leading_axes():
    rng = np.random.default_rng(53)
    g = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    f = factor.bruhat_factor(g)
    assert f.P.shape == g.shape and f.permutation.shape == (2, 3, 4)
    assert np.array_equal(factor.bruhat_permutation(g), f.Pi)
    for idx in np.ndindex(2, 3):
        assert tuple(f.permutation[idx]) == factor.bruhat_factor(g[idx]).permutation


@pytest.mark.parametrize("r", [2, 3, 4])
def test_stacked_large_cell_routines_equal_member_calls(r):
    # every cell, so the stack holds members in and out of the large cell
    rng = np.random.default_rng([59, r])
    g = np.stack([_cell_member(rng, perm) for perm in itertools.permutations(range(r)) for _ in range(3)])
    inside = factor.in_large_cell(g)
    assert inside.dtype == bool and inside.shape == (len(g),)
    assert list(inside) == [factor.in_large_cell(m) for m in g]
    assert 0 < np.sum(inside) < len(g)
    f = factor.bruhat_large_cell_minors(g[inside])
    for got_P, got_L, m in zip(f.P, f.L, g[inside]):
        one = factor.bruhat_large_cell_minors(m)
        assert np.linalg.norm(got_P - one.P) <= 1e-13 * np.linalg.norm(one.P)
        assert np.linalg.norm(got_L - one.L) <= 1e-13 * np.linalg.norm(one.L)
    assert np.array_equal(f.Pi, np.broadcast_to(factor.antidiagonal_permutation(r), f.Pi.shape))


def test_stacked_bruhat_routines_refuse_a_bad_member():
    # each refusal of one member alone is the refusal of the stack it is in
    rng = np.random.default_rng(61)
    g = np.stack([random_gl(rng, 2) for _ in range(6)])
    factor.bruhat_factor(g)

    def refusals(call, g, member, kind):
        with pytest.raises(kind) as alone:
            call(g[member])
        with pytest.raises(kind) as stacked:
            call(g)
        assert str(stacked.value) == str(alone.value)

    bad = g.copy()
    bad[4] = np.ones((2, 2))  # singular: the determinant check refuses it
    refusals(factor.bruhat_factor, bad, 4, factor.SingularInputError)
    refusals(factor.bruhat_permutation, bad, 4, factor.SingularInputError)
    # the corner entry 1e-10 sits in the dead band of a threshold 1e-10 ||g||,
    # and the member's own threshold is named
    bad = g.copy()
    bad[2] = [[1.0, 1e-10], [1.0, 1.0]]
    refusals(factor.bruhat_factor, bad, 2, factor.AmbiguousCellError)
    refusals(factor.bruhat_permutation, bad, 2, factor.AmbiguousCellError)
    with pytest.raises(factor.AmbiguousCellError, match="around threshold 1.732e-10"):
        factor.bruhat_permutation(bad)
    bad = g.copy()
    bad[3] = np.eye(2)  # invertible, but in the small cell
    assert not factor.in_large_cell(bad)[3] and np.sum(factor.in_large_cell(bad)) == 5
    refusals(factor.bruhat_large_cell_minors, bad, 3, factor.SingularInputError)
    bad = g.copy()
    bad[5, 0, 1] = np.nan
    refusals(factor.bruhat_factor, bad, 5, numcore.NumericalError)


def _oracle_per_matrix(g):
    """The oracle one matrix at a time: one np.linalg.lstsq per (k, c) column
    solve and one check per candidate permutation."""
    r = g.shape[0]
    accepted = []
    for perm in itertools.permutations(range(r)):
        pi = np.eye(r)[list(perm)]
        x = np.eye(r, dtype=complex)
        for k in range(1, r):
            c = perm[k]
            if c < r - 1:
                x[c + 1 :, c] = np.linalg.lstsq(g[:k, c + 1 :], -g[:k, c], rcond=None)[0]
        p = g @ x @ pi.T
        if (numcore.fro(np.triu(p, 1)) <= 1e-8 * numcore.fro(p)
                and numcore.fro(p @ pi @ np.linalg.inv(x) - g) <= 1e-8 * numcore.fro(g)):
            accepted.append(perm)
    assert len(accepted) == 1
    return accepted[0]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_stacked_oracle_equals_per_matrix_reference(r):
    rng = np.random.default_rng([67, r])
    cells = [_cell_member(rng, perm) for perm in itertools.permutations(range(r)) for _ in range(2)]
    draws = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(10)]
    g = np.stack(cells + draws)
    got = oracle_bruhat_permutation(g)
    assert got.shape == (len(g), r)
    want = [_oracle_per_matrix(m) for m in g]
    assert [tuple(p) for p in got] == want
    assert [oracle_bruhat_permutation(m) for m in g] == want
    assert np.array_equal(got, factor.bruhat_factor(g).permutation)
