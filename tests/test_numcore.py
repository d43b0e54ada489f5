import numpy as np
import pytest

from rhwznw import numcore


def test_hermitian_pd_check():
    with pytest.raises(numcore.NotPositiveDefiniteError):
        numcore.check_hermitian_pd(np.diag([1.0, -2.0]))
    with pytest.raises(numcore.NotPositiveDefiniteError):
        numcore.check_hermitian_pd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    h = numcore.check_hermitian_pd(np.diag([1.0, 2.0]))
    assert h.shape == (2, 2)
