"""The compiled Sp chart, its Jacobian and its Bruhat read-out against the
stacked products they replaced (``helpers.sp_chart_oracle`` and
``helpers.sp_coords_oracle``), on Sp(2)-Sp(6) at |z| ~ 1, 1e2 and 1e4."""

import numpy as np
import pytest
from helpers import sp_chart_oracle, sp_coords_oracle

from coadjoint import build_group

GROUPS = range(2, 7)
SCALES = (1.0, 1e2, 1e4)


def _coords(fam, scale, rows, seed):
    rng = np.random.default_rng(seed)
    shape = (rows, fam.chart_dim)
    return scale * (rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))


def _row_max(x):
    return np.abs(x).reshape(len(x), -1).max(axis=1)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", GROUPS)
def test_chart_and_jacobian_match_the_oracle(n, scale):
    # every row within 1e-14 of its largest oracle entry, the chart and the
    # Jacobian alike; they differ only in the order of their roundings
    fam = build_group("sp", n).adapter
    c = _coords(fam, scale, 20, n)
    z, a = fam.chart_jacobian(c)
    oracle = sp_chart_oracle(fam, c, jac=True)
    for got, want in ((z, oracle[:, 0]), (a, oracle[:, 1:])):
        assert np.all(_row_max(got - want) <= 1e-14 * _row_max(want))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", GROUPS)
def test_readout_inverts_the_chart(n, scale):
    # exact in exact arithmetic. Reading A off A^-1 = J D^T J cancels
    # entries of size |z|^(n-1) down to |z|, so far out the round trip holds
    # as well as the chart's conditioning lets it. Here each product rounds
    # before it is added, where the oracle's BLAS products fuse it into the
    # sum: the worst of 200 rows stays within 4 times the oracle's worst
    # (1.1-1.3 times in the median over seeds, at most 2.9), and within
    # 1e-14 of max|z| at |z| ~ 1. On the oracle's chart likewise
    fam = build_group("sp", n).adapter
    c = _coords(fam, scale, 200, 10 + n)
    oracle_z = sp_chart_oracle(fam, c)[:, 0]
    oracle = np.abs(sp_coords_oracle(fam, oracle_z) - c).max()
    bound = 4.0 * oracle + 1e-14 * np.abs(c).max()
    assert np.abs(fam.coords_from_zeta_split(fam.chart_split(c)) - c).max() \
        <= bound
    assert np.abs(fam.coords_from_zeta_split(oracle_z) - c).max() <= bound


@pytest.mark.parametrize("n", GROUPS)
def test_rows_do_not_depend_on_the_batch(n):
    # each entry sums its terms in a fixed order, row by row: a row is bit
    # for bit the same in a batch of 1, 2, 33 or 4096 rows. The Jacobian
    # batch is 4096 rows on Sp(2) and Sp(3) and 33 above, where 4096 rows
    # of it take hundreds of MiB
    fam = build_group("sp", n).adapter
    c = _coords(fam, 1e2, 4096, 20 + n)
    z = fam.chart_split(c)
    coords = fam.coords_from_zeta_split(z)
    a = fam.chart_jacobian(c[:4096 if n <= 3 else 33])[1]
    for rows in (1, 2, 33):
        for start in (0, 1000, 4096 - rows):
            part = slice(start, start + rows)
            assert fam.chart_split(c[part]).tobytes() == z[part].tobytes()
            assert fam.coords_from_zeta_split(z[part]).tobytes() \
                == coords[part].tobytes()
            if start + rows <= len(a):
                assert fam.chart_jacobian(c[part])[1].tobytes() \
                    == a[part].tobytes()


@pytest.mark.parametrize("n", GROUPS)
def test_readout_keeps_the_stack_shape(n):
    # one matrix gives one coordinate vector, a stack (..., s, s) a stack
    fam = build_group("sp", n).adapter
    z = fam.chart_split(_coords(fam, 1.0, 6, n)).reshape(
        (2, 3) + (fam.slots,) * 2)
    coords = fam.coords_from_zeta_split(z)
    assert coords.shape == (2, 3, fam.chart_dim)
    assert fam.coords_from_zeta_split(z[1, 2]).tobytes() \
        == coords[1, 2].tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_passes_read_earlier_columns_and_grow_polynomially(n):
    # a pass reads only the inputs and the columns of earlier passes, and
    # the tables hold at most 2 n^3 columns: A^-1 multiplied out would
    # give its corner entry alone 2^(n-2) terms
    fam = build_group("sp", n).adapter
    for p in (fam._chart_tables[2], fam._readout_passes):
        for factors, _, terms, _ in p.passes:
            assert factors.max() < terms.start
        assert p.width <= 2 * n ** 3
