import numpy as np
import pytest

from coadjoint._families import get_family
from coadjoint._linalg import _below_mask, _triangles, cell_miss, \
    complex_laplacian, gauss_legendre, iwasawa_nak, ul_decompose, \
    wirtinger_hessian
from coadjoint.errors import NumericalBreakdown, OutsideCell
from helpers import CHART_GROUPS, cholesky_upper, doolittle_ul, fd_wirtinger_hessian, \
    pair_tensor_hessian, udu_factor, ul_decompose_unpacked


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
    for j, c in enumerate(np.eye(s)):
        h = wirtinger_hessian(z_at(t0)[None], a[None], c)[0]
        def log_det(ts, j=j):
            g = z_at(ts)[:, j:]
            return np.linalg.slogdet(g @ np.conj(np.swapaxes(g, -1, -2)))[1]
        oracle = fd_wirtinger_hessian(log_det, t0)
        assert np.max(np.abs(h - oracle)) < 1e-6 * max(
            1.0, np.max(np.abs(oracle)))


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 5),
                                      ("sp", 2), ("sp", 3), ("so", 3),
                                      ("so", 4)])
def test_complex_laplacian_matches_pair_tensor_oracle(family, n):
    # the pairing integrand, every basis potential at once, against the
    # pair-tensor kernel with the minor weights applied last, over the
    # cycle radii 1e-2 .. 1e2 that the radial rule folds into (0, 1]
    fam = get_family(family, n)
    t = np.logspace(-2, 2, 9) * np.exp(0.4j)
    for i, x in enumerate(fam.cycle_generators()):
        z = fam.cycle_chart(i, t)
        lap = complex_laplacian(z, z @ x, fam.minor_weights.T)
        oracle = pair_tensor_hessian(z, (z @ x)[:, None])[:, 0, 0].real \
            @ fam.minor_weights.T
        assert np.max(np.abs(lap - oracle)) <= 1e-15 * np.max(np.abs(oracle))


# ---------------------------------------------------------------------------
# the stacked Gauss-Bruhat kernel against the per-point Doolittle loop


def _complex_stack(rng, batch, s):
    g = rng.standard_normal((batch, s, s)) + 1j * rng.standard_normal((batch, s, s))
    # magnitudes from 1e-3 to 1e3, row by row
    return g * 10.0 ** rng.integers(-3, 4, size=(batch, 1, 1))


@pytest.mark.parametrize("s", range(2, 11))
def test_ul_decompose_rows_equal_doolittle_loop(s):
    g = _complex_stack(np.random.default_rng(40 + s), 60, s)
    n, d, zeta, in_cell = ul_decompose(g)
    assert n.shape == zeta.shape == g.shape and d.shape == (60, s)
    assert in_cell.all()
    for i in range(len(g)):
        n1, d1, zeta1 = doolittle_ul(g[i])
        assert np.array_equal(n[i], n1)
        assert np.array_equal(d[i], d1)
        assert np.array_equal(zeta[i], zeta1)


@pytest.mark.parametrize("s", [2, 3, 5, 8])
def test_ul_decompose_masks_exactly_the_off_cell_row(s):
    rng = np.random.default_rng(50 + s)
    g = _complex_stack(rng, 7, s)
    g[4] = np.eye(s)[::-1]              # anti-diagonal: its first pivot is 0
    n, d, zeta, in_cell = ul_decompose(g)
    assert in_cell.tolist() == [i != 4 for i in range(7)]
    for i in range(7):
        if i == 4:
            with pytest.raises(OutsideCell) as want:
                doolittle_ul(g[i])
            assert str(cell_miss(g[i])) == str(want.value)
            continue
        n1, d1, zeta1 = doolittle_ul(g[i])
        assert np.array_equal(n[i], n1) and np.array_equal(d[i], d1)
        assert np.array_equal(zeta[i], zeta1)


@pytest.mark.parametrize("s", [3, 5, 8])
def test_ul_decompose_flags_a_later_vanishing_pivot(s):
    # the second pivot of the index-reversed matrix is 6 - 3 * 2 / 1 = 0
    g = _complex_stack(np.random.default_rng(70 + s), 3, s)
    g[1, ::-1, ::-1][:2, :2] = [[1.0, 2.0], [3.0, 6.0]]
    n, d, zeta, in_cell = ul_decompose(g)
    assert in_cell.tolist() == [True, False, True]
    with pytest.raises(OutsideCell, match="Bruhat pivot 1 ") as want:
        doolittle_ul(g[1])
    assert str(cell_miss(g[1])) == str(want.value)


@pytest.mark.parametrize("s", range(1, 9))
def test_ul_decompose_equals_the_unpacked_elimination_bit_for_bit(s):
    # n stays packed in the elimination until ul_decompose unpacks it;
    # every factor, off-cell and non-finite rows included, and its layout
    # are those of unpacking all three at the end
    g = _complex_stack(np.random.default_rng(90 + s), 6, s)
    g[1, -1, -1] = 0.0
    g[2, 0, -1] = np.nan
    g[3, -1, 0] = np.inf
    g[4] = 0.0
    for stack in (g, np.swapaxes(g, -1, -2)):
        for got, ref in zip(ul_decompose(stack), ul_decompose_unpacked(stack)):
            assert got.tobytes() == ref.tobytes() and got.shape == ref.shape
            assert got.flags.c_contiguous


def test_ul_decompose_empty_stack():
    n, d, zeta, in_cell = ul_decompose(np.zeros((0, 4, 4), dtype=complex))
    assert n.shape == zeta.shape == (0, 4, 4)
    assert d.shape == (0, 4) and in_cell.shape == (0,)


def test_ul_decompose_non_finite_rows_as_the_loop():
    # a nan entry is no vanishing pivot, so its row stays in the cell; an
    # infinite entry makes the scale infinite, so a finite pivot fails. The
    # mask and the factors follow the per-point loop, and the finite rows
    # are untouched
    g = _complex_stack(np.random.default_rng(60), 4, 3)
    g[2, 0, 1] = np.nan
    g[3, 2, 2] = np.inf
    n, d, zeta, in_cell = ul_decompose(g)
    assert in_cell.tolist() == [True, True, True, False]
    assert np.isnan(d[2]).any()
    for i in range(3):
        with np.errstate(invalid="ignore"):
            n1, d1, zeta1 = doolittle_ul(g[i])
        assert np.array_equal(n[i], n1, equal_nan=True)
        assert np.array_equal(d[i], d1, equal_nan=True)
        assert np.array_equal(zeta[i], zeta1, equal_nan=True)
    with pytest.raises(OutsideCell):
        doolittle_ul(g[3])


def test_cached_kernel_arrays_are_read_only():
    # each is handed to every later caller in the process: one write would
    # corrupt every later quadrature or elimination
    xs, ws = gauss_legendre(8)
    cached = [xs, ws, *_triangles(3), _below_mask(3)]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_cached_family_tables_are_read_only(family, n):
    # kept on the family for the whole process, like the kernel arrays
    fam = get_family(family, n)
    cached = [fam.simple_root_coefficients, fam.slot_weights,
              fam.dual_weights, fam.potential_weights, fam.minor_weights,
              fam.lowering_generators]
    for a in cached:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
