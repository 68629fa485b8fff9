import numpy as np
import pytest

from coadjoint._families import get_family
from coadjoint._linalg import iwasawa_nak, wirtinger_hessian
from coadjoint.errors import NumericalBreakdown
from helpers import cholesky_upper, fd_wirtinger_hessian, udu_factor


def _gram_batch(rng, batch, s):
    z = rng.standard_normal((batch, s, s)) + 1j * rng.standard_normal((batch, s, s))
    return z @ np.conj(np.swapaxes(z, -1, -2))


def test_cholesky_diagonal_matches_udu_factor():
    m = _gram_batch(np.random.default_rng(3), 50, 4)
    u, d = cholesky_upper(m)
    n, d_ref = udu_factor(m)
    assert np.array_equal(d, d_ref)
    assert np.array_equal(u / d[..., None, :], n)


def test_iwasawa_nak_matches_udu_oracle():
    # near |z| ~ 1 the Householder kernel and the Gram/Cholesky oracle agree
    rng = np.random.default_rng(4)
    coords = rng.standard_normal((60, 10)) + 1j * rng.standard_normal((60, 10))
    coords *= 3.0 * rng.uniform(size=(60, 1)) / np.max(np.abs(coords), axis=1,
                                                       keepdims=True)
    z = get_family("su", 5).chart_split(coords)
    n, d, k = iwasawa_nak(z)
    n_ref, d_ref = udu_factor(z @ np.conj(np.swapaxes(z, -1, -2)))
    assert np.max(np.abs(d - d_ref)) < 1e-12
    assert np.max(np.abs(n - n_ref)) < 1e-12
    k_ref = np.linalg.solve(n_ref, z) / d_ref[..., :, None]
    assert np.max(np.abs(k - k_ref)) < 1e-12


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


def test_wirtinger_hessian_matches_fd_log_det():
    # z(t) = z0 + sum t_a a_a with dense random matrices: every trailing
    # minor's log det against the finite-difference oracle
    rng = np.random.default_rng(6)
    s, m = 4, 3

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    z0, a = cplx(s, s), cplx(m, s, s)
    cplx(m, s, s)   # skipped draw: the sample the oracle tolerance was set at

    def z_at(t):
        return z0 + np.tensordot(t, a, 1)

    t0 = 0.3 * cplx(m)
    h = wirtinger_hessian(z_at(t0)[None], a[None])[0]
    for j in range(s):
        def log_det(ts, j=j):
            g = z_at(ts)[:, j:]
            return np.linalg.slogdet(g @ np.conj(np.swapaxes(g, -1, -2)))[1]
        oracle = fd_wirtinger_hessian(log_det, t0)
        assert np.max(np.abs(h[..., j] - oracle)) < 1e-6 * max(
            1.0, np.max(np.abs(oracle)))
