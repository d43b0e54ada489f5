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


def test_as_cmatrix_takes_a_non_contiguous_last_axis():
    # columns permuted and scaled, as the constant term at infinity is laid out
    b = np.array([[1.0, 2.0 + 1j], [3.0 - 2j, 4.0]])
    g = b[:, [1, 0]] * np.array([2.0, 0.5j])
    assert not g.flags.c_contiguous
    assert np.array_equal(numcore.as_cmatrix(g), g)
    assert factor.in_large_cell(g)
    g[1, 0] = np.nan
    with pytest.raises(numcore.NumericalError):
        numcore.as_cmatrix(g)
