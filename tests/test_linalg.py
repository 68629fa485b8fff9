import numpy as np
import pytest

from coadjoint._linalg import cholesky_upper, complex_laplacian, udu_factor
from coadjoint.errors import NumericalBreakdown


def _gram_batch(rng, batch, s):
    z = rng.standard_normal((batch, s, s)) + 1j * rng.standard_normal((batch, s, s))
    return z @ np.conj(np.swapaxes(z, -1, -2))


def test_cholesky_diagonal_matches_udu_factor():
    m = _gram_batch(np.random.default_rng(3), 50, 4)
    u, d = cholesky_upper(m)
    n, d_ref = udu_factor(m)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(u / d[..., None, :], n)


@pytest.mark.parametrize("m", [
    # rank one Gram matrix z z*, Cholesky itself breaks down
    np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).astype(complex),
    # Cholesky succeeds but a trailing minor is below MINOR_TOL
    np.diag([1.0, 1e-15]).astype(complex),
], ids=["rank-deficient", "tiny-minor"])
def test_cholesky_upper_breakdown(m):
    with pytest.raises(NumericalBreakdown):
        cholesky_upper(m)
    with pytest.raises(NumericalBreakdown):
        udu_factor(m)


@pytest.mark.parametrize("richardson", [True, False])
def test_vector_laplacian_matches_scalar_columns(richardson):
    rng = np.random.default_rng(5)
    t = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))

    def f(p):
        r2 = np.abs(p) ** 2
        return np.stack([r2, np.log1p(r2), (p ** 3).real], axis=1)

    lap = complex_laplacian(f, t, richardson=richardson)
    assert lap.shape == t.shape + (3,)
    for j in range(3):
        col = complex_laplacian(lambda p: f(p)[:, j], t, richardson=richardson)
        assert col.shape == t.shape
        assert np.array_equal(lap[..., j], col)
