import numpy as np
import pytest

from rhwznw import factor, numcore


def test_hermitian_pd_check():
    with pytest.raises(numcore.NotPositiveDefiniteError):
        numcore.check_hermitian_pd(np.diag([1.0, -2.0]))
    with pytest.raises(numcore.NotPositiveDefiniteError):
        numcore.check_hermitian_pd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    h = numcore.check_hermitian_pd(np.diag([1.0, 2.0]))
    assert h.shape == (2, 2)


def test_hermitian_pd_check_takes_stacks():
    rng = np.random.default_rng(3)
    hs = np.stack([numcore.random_hpd(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    out = numcore.check_hermitian_pd(hs)
    assert out.shape == hs.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(out[idx], numcore.check_hermitian_pd(hs[idx]))
    bad = hs.copy()
    bad[1, 2] = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(numcore.NotPositiveDefiniteError, match="minimal eigenvalue"):
        numcore.check_hermitian_pd(bad)
    with pytest.raises(ValueError):
        numcore.check_hermitian_pd(np.ones(3))
    with pytest.raises(ValueError):
        numcore.check_hermitian_pd(np.ones((4, 2, 3)))


def test_as_cstack_takes_a_non_contiguous_last_axis():
    # columns permuted and scaled, as the constant term at infinity is laid out
    b = np.array([[1.0, 2.0 + 1j], [3.0 - 2j, 4.0]])
    g = b[:, [1, 0]] * np.array([2.0, 0.5j])
    assert not g.flags.c_contiguous
    assert np.array_equal(numcore.as_cstack(g, "g"), g)
    assert factor.in_large_cell(g)
    g[1, 0] = np.nan
    with pytest.raises(numcore.NumericalError):
        numcore.as_cstack(g, "g")


# ---------------------------------------------------------------------------
# expm: scaling-and-squaring Pade 13 against scipy's


def _expm_stack(rank, seed=0):
    # members of every scale share one stack, so their squaring counts differ
    rng = np.random.default_rng(seed + rank)
    sigmas = np.repeat([1e-8, 1e-3, 0.1, 0.6, 1.0, 3.0, 10.0], 4)
    z = rng.standard_normal((len(sigmas), rank, rank)) + 1j * rng.standard_normal(
        (len(sigmas), rank, rank)
    )
    return sigmas[:, None, None] * z


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_expm_matches_scipy(rank):
    import scipy.linalg

    a = _expm_stack(rank)
    got = numcore.expm(a)
    want = scipy.linalg.expm(a)
    rel = np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
    assert rel.max() <= 1e-13


def test_expm_of_zero_is_the_identity_exactly():
    got = numcore.expm(np.zeros((5, 3, 3)))
    assert np.array_equal(got, np.broadcast_to(np.eye(3), (5, 3, 3)))


def test_expm_of_a_jordan_block():
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    want = np.exp(2.0) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.linalg.norm(numcore.expm(j) - want) <= 1e-13 * np.linalg.norm(want)


def test_expm_takes_any_stack_shape_and_each_member_equals_its_single_call():
    a = _expm_stack(2, seed=7)
    assert numcore.expm(a[0]).shape == (2, 2)
    stacked = numcore.expm(a)
    assert stacked.shape == a.shape
    for member, single in zip(stacked, a):
        assert np.array_equal(member, numcore.expm(single))
    # a (B, n - 1) stack of conjugators, as the LM's Jacobian stack lays them out
    grid = a.reshape(4, 7, 2, 2)
    assert np.array_equal(numcore.expm(grid), stacked.reshape(4, 7, 2, 2))


def test_expm_overflow_raises_numerical_error_without_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(numcore.NumericalError):
            numcore.expm([[800.0, 0.0], [0.0, 0.0]])
        with pytest.raises(numcore.NumericalError):
            numcore.expm([[np.nan, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_fro_of_a_stack_is_each_members_norm_bit_for_bit(rank):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 5, rank, rank)) + 1j * rng.standard_normal((3, 5, rank, rank))
    stacked = numcore.fro(m)
    assert stacked.shape == (3, 5)
    single = numcore.fro(m[1, 2])
    assert isinstance(single, float)
    for idx in np.ndindex(3, 5):
        # the arithmetic of np.linalg.norm of one matrix, so a member reads as itself
        assert stacked[idx] == numcore.fro(m[idx]) == np.linalg.norm(m[idx])


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_sorted_eigvals_of_a_stack_equals_member_calls(rank):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((6, rank, rank)) + 1j * rng.standard_normal((6, rank, rank))
    # members with a repeated real part, so the imaginary part orders them
    m[0] = np.diag(np.arange(rank) * 1j + 1.0)[::-1, ::-1]
    stacked = numcore.sorted_eigvals(m)
    assert stacked.shape == (6, rank)
    for member, single in zip(stacked, m):
        lam = np.linalg.eigvals(single)
        assert np.array_equal(member, lam[np.lexsort((lam.imag, lam.real))])
    assert np.array_equal(stacked[0], 1.0 + np.arange(rank) * 1j)


def test_sorted_eigvals_refuses_non_finite_and_non_square_input():
    m = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    m[1, 0, 1] = np.inf
    with pytest.raises(numcore.NumericalError):
        numcore.sorted_eigvals(m)
    with pytest.raises(ValueError):
        numcore.sorted_eigvals(np.zeros((2, 3)))
