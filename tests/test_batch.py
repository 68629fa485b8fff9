"""Batched Iwasawa, dressing, Gauss-Bruhat and cocycle shifts: rows equal the
one-row calls bit for bit."""

import contextlib
import gc
import io
import json

import numpy as np
import pytest

from coadjoint import (DegeneracyViolation, NumericalBreakdown, OutsideCell,
                       build_group, chart_point, cocycle_shift, dress,
                       gauss_bruhat, initial_point, iwasawa)
from coadjoint.checks import (haar_batch, haar_width, normal_coords,
                              spectral_mismatch)
from coadjoint import cli
from coadjoint.cli import _grid_csv, _grid_points, _parse_grid, main
from coadjoint.decompose import gauss_bruhat_batch, iwasawa_batch
from coadjoint.kahler import cocycle_shift_batch
from coadjoint.orbit import (GELL_MANN, coadjoint_action, dress_batch,
                             gell_mann_coordinates, required_zero_mask)
from helpers import (gell_mann_trace, grid_rows, haar_so, haar_sp, haar_su,
                     per_point_covariance, per_point_verify_residuals,
                     random_chart, row_grid_csv)

GROUPS = [("su", 2), ("su", 3), ("su", 4), ("su", 5), ("sp", 2), ("sp", 3),
          ("so", 3), ("so", 4)]


def _setup(family, n, rows=12):
    spec = build_group(family, n)
    point = initial_point(spec, tuple(float(k + 1) for k in range(spec.rank)))
    rng = np.random.default_rng(21)
    # magnitudes from 1e-2 to 1e2 in one batch
    charts = [random_chart(spec, rng, scale=10.0 ** (k % 5 - 2))
              for k in range(rows)]
    return spec, point, charts, np.array([c.coords for c in charts])


@pytest.mark.parametrize("family,n", GROUPS)
def test_iwasawa_batch_rows_equal_one_row_calls(family, n):
    spec, _, charts, coords = _setup(family, n)
    fac = iwasawa_batch(spec, coords)
    for i, chart in enumerate(charts):
        one = iwasawa(spec, chart)
        for name in ("n", "a", "k"):
            assert np.array_equal(getattr(fac, name)[i], getattr(one, name)), \
                name
        assert np.array_equal(fac.a_parameters[i], np.array(one.a_parameters))
        assert np.array_equal(fac.log_a_split[i], np.array(one.log_a_split))


@pytest.mark.parametrize("family,n", GROUPS)
def test_dress_batch_rows_equal_one_row_calls(family, n):
    spec, point, charts, coords = _setup(family, n)
    mu = dress_batch(spec, point, coords)
    assert mu.shape == (len(charts),) + (spec.adapter.slots,) * 2
    for i, chart in enumerate(charts):
        assert np.array_equal(mu[i], dress(spec, point, chart).mu_matrix)
        assert np.array_equal(mu[i], dress_batch(spec, point, coords[i:i + 1])[0])


def test_gell_mann_coordinates_of_a_stack_equal_each_matrix():
    spec, point, _, coords = _setup("su", 3)
    mu = dress_batch(spec, point, coords)
    stacked = gell_mann_coordinates(mu)
    for i in range(len(mu)):
        assert np.array_equal(stacked[i], gell_mann_coordinates(mu[i]))
    # and each coordinate is the pairing with its own Gell-Mann matrix
    for a, lam in enumerate(GELL_MANN):
        direct = np.array([(-2.0 * np.trace(m @ (-0.5j * lam))).real for m in mu])
        assert np.max(np.abs(stacked[:, a] - direct)) < 1e-14


def _bits(x):
    return np.asarray(x).view(np.int64)


@pytest.mark.parametrize("weights", [(1.0, 2.0), (1.0, 0.0), (0.0, 1.0)])
def test_gell_mann_coordinates_equal_the_trace_bit_for_bit(weights):
    spec = build_group("su", 3)
    point = initial_point(spec, weights)
    rng = np.random.default_rng(17)
    z = np.concatenate([scale * (rng.standard_normal((40, 3))
                                 + 1j * rng.standard_normal((40, 3)))
                        for scale in 10.0 ** np.arange(-8, 6)])
    # exact zeros and signed zeros among the coordinates, whole zero rows
    z[::3, 0] = 0.0
    z[1::4, 1] = complex(-0.0, 0.0)
    z[2::5, 2] = complex(0.0, -0.0)
    z[3::7] = complex(-0.0, -0.0)
    z[:, required_zero_mask(spec, point)] = 0.0
    mu = dress_batch(spec, point, z)
    gm = gell_mann_coordinates(mu)
    assert np.any((gm == 0.0) & np.signbit(gm))       # exact zeros are -0.0
    assert np.array_equal(_bits(gm), _bits(gell_mann_trace(mu)))
    for m in mu[::11]:
        assert np.array_equal(_bits(gell_mann_coordinates(m)),
                              _bits(gell_mann_trace(m)))


def _sweep_lattice(steps, ncoords, const=()):
    axis = f"-1.5:1.5:{steps},-1.5:1.5:{steps}"
    return ";".join([axis] * ncoords + list(const))


@pytest.mark.parametrize("grid", [
    _sweep_lattice(5, 1, ["0.5,-0.25"]) + ";" + _sweep_lattice(5, 1),
    _sweep_lattice(2, 1, ["0.5,-0.25"]) + ";" + _sweep_lattice(2, 1),
    ";".join(["99:101:2,-1:1:2"] * 3),
    ";".join(["99:101:2,0"] * 3),
    _sweep_lattice(3, 3),
])
def test_gell_mann_coordinates_equal_the_trace_on_sweep_lattices(grid):
    # the SU(3) lattices of the chart-sweep benchmark and its far slice
    spec = build_group("su", 3)
    mu = dress_batch(spec, initial_point(spec, (1.0, 2.0)),
                     _grid_points(_parse_grid(grid))[1])
    assert np.array_equal(_bits(gell_mann_coordinates(mu)),
                          _bits(gell_mann_trace(mu)))


@pytest.mark.parametrize("family,n", GROUPS)
def test_empty_batches_keep_their_shape(family, n):
    spec, point, _, _ = _setup(family, n, rows=1)
    empty = np.zeros((0, spec.adapter.chart_dim), dtype=complex)
    s = spec.adapter.slots
    assert dress_batch(spec, point, empty).shape == (0, s, s)
    fac = iwasawa_batch(spec, empty)
    for name in ("n", "a", "k"):
        assert getattr(fac, name).shape == (0, s, s)
    assert fac.a_parameters.shape == (0, spec.rank)
    assert fac.log_a_split.shape[0] == 0


# worst |mu - k* mu0 k| / max|mu0| on SO, whose mu0 acts in the split basis
# (1.04e-15 measured for coadjoint_action, whose k goes there and back)
SO_ACTION_BOUND = 2e-15


def _through_zero(spec, point, rows=30, seed=8):
    """Chart rows at magnitudes 1e-3 to 1e3, the first four at z = 0 with
    each sign of zero in each part."""
    rng = np.random.default_rng(seed)
    dim = spec.adapter.chart_dim
    scale = 10.0 ** rng.integers(-3, 4, (rows, 1))
    z = scale * (rng.standard_normal((rows, dim))
                 + 1j * rng.standard_normal((rows, dim)))
    zeros = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    z[:4] = np.array(zeros)[:, None]
    z[:, required_zero_mask(spec, point)] = 0.0
    return z


def _assert_dense(spec, point, mu, k):
    """mu equals k* mu0 k with mu0 as a dense matrix: to the bit on SU and
    Sp, but for the sign of an exact zero, which the dense product takes from
    how its BLAS kernel sums zeros; within SO_ACTION_BOUND on SO."""
    dense = np.conj(np.swapaxes(k, -1, -2)) @ point.matrix @ k
    if spec.family == "so":
        assert np.max(np.abs(mu - dense)) <= \
            SO_ACTION_BOUND * np.max(np.abs(point.matrix))
    else:
        assert np.array_equal(mu, dense)


@pytest.mark.parametrize("family,n", [("su", n) for n in range(2, 7)]
                         + [("sp", n) for n in range(2, 5)]
                         + [("so", 3), ("so", 4)])
def test_coadjoint_action_equals_the_dense_product(family, n):
    # mu0 acts as the diagonal it is in the split basis, one scaling of the
    # columns of k* instead of a product with mu0
    spec = build_group(family, n)
    walls = (1.0,) + (0.0,) * (spec.rank - 1)
    for weights in (tuple(float(k + 1) for k in range(spec.rank)), walls):
        point = initial_point(spec, weights)
        coords = _through_zero(spec, point)
        k = iwasawa_batch(spec, coords).k
        _assert_dense(spec, point, coadjoint_action(point, k), k)
        _assert_dense(spec, point, dress_batch(spec, point, coords), k)


def test_split_diagonal_is_the_points_own_after_id_reuse():
    # points built and dropped in turn reuse each other's ids; a diagonal
    # cached by id() gave an SO(4) point the diagonal of an SU point
    for _ in range(3):
        for family, n, weights in (("su", 3, (1.0, 2.0)),
                                   ("so", 4, (1.0, 2.0)),
                                   ("sp", 2, (2.0, 1.0))):
            spec = build_group(family, n)
            point = initial_point(spec, weights)
            assert not point.split_diagonal.flags.writeable
            coords = _through_zero(spec, point, rows=6)
            k = iwasawa_batch(spec, coords).k
            _assert_dense(spec, point, dress_batch(spec, point, coords), k)
            del point
            gc.collect()


def test_one_bad_row_fails_the_batch():
    spec = build_group("su", 3)
    degenerate = initial_point(spec, (0.0, 1.0))
    coords = np.array([[0.0, 0.4 - 0.2j, 1.1j], [0.5, 0.3, 0.0],
                       [0.0, 0.1, 0.2]])
    with pytest.raises(DegeneracyViolation, match="e1-e2"):
        dress_batch(spec, degenerate, coords)
    dress_batch(spec, degenerate, coords[[0, 2]])
    generic = initial_point(spec, (1.0, 2.0))
    bad = np.array([[0.1, 0.2, 0.3], [np.inf, 0.0, 0.0], [0.3, 0.2, 0.1]])
    with pytest.raises(NumericalBreakdown):
        iwasawa_batch(spec, bad)
    with pytest.raises(NumericalBreakdown):
        dress_batch(spec, generic, bad)


def test_batches_need_one_row_per_chart_point():
    spec = build_group("su", 3)
    with pytest.raises(ValueError):
        iwasawa_batch(spec, np.zeros(3))
    with pytest.raises(ValueError):
        iwasawa_batch(spec, np.zeros((2, 4)))


def test_sp_batch_accepts_long_coordinates():
    # the long roots 2e_k are chart coordinates like any other: each row with
    # a nonzero long coordinate dresses to the orbit and equals its one-row call
    spec = build_group("sp", 2)
    point = initial_point(spec, (1.0, 2.0))
    coords = np.zeros((3, spec.adapter.chart_dim), dtype=complex)
    coords[1, -1] = 0.5
    coords[2, -2:] = (0.3 - 0.2j, -1.5j)
    mu = dress_batch(spec, point, coords)
    ref = np.sort(spec.adapter.spectrum(point.matrix).imag)
    for i in range(3):
        assert np.max(np.abs(np.sort(np.linalg.eigvals(mu[i]).imag) - ref)) \
            < 1e-12
        assert np.array_equal(mu[i], dress_batch(spec, point,
                                                 coords[i:i + 1])[0])
    assert not np.allclose(mu[1], mu[0])


def _haar_rows(spec, rows, seed=5):
    rng = np.random.default_rng(seed)
    return haar_batch(spec, rng.standard_normal((rows, haar_width(spec))))


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4), ("sp", 5)])
def test_haar_batch_rows_equal_per_point_draws(family, n):
    spec = build_group(family, n)
    g = _haar_rows(spec, 20)
    rng = np.random.default_rng(5)
    one = {"su": lambda: haar_su(n, rng),
           "sp": lambda: haar_sp(n, rng).embed("split"),
           "so": lambda: haar_so(n, rng)}[family]
    s = spec.adapter.slots
    assert g.shape == (20, s, s)
    for i in range(20):
        assert np.array_equal(g[i], one())
    gh = np.conj(np.swapaxes(g, -1, -2))
    assert np.max(np.abs(g @ gh - np.eye(s))) < 1e-13
    if family == "so":
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-13
        assert not np.any(g.imag)
    if family == "sp":
        om = spec.adapter._omega
        assert np.max(np.abs(np.swapaxes(g, -1, -2) @ om @ g - om)) < 1e-13


def _off_cell(spec):
    """The split-basis index reversal in the working realization: its first
    Bruhat pivot is 0."""
    s = spec.adapter.slots
    return spec.adapter.working_from_split(np.eye(s, dtype=complex)[::-1])


@pytest.mark.parametrize("family,n", GROUPS)
def test_gauss_bruhat_batch_rows_equal_one_row_calls(family, n):
    spec, _, _, coords = _setup(family, n)
    m = spec.adapter.chart_working(coords) @ _haar_rows(spec, len(coords))
    bad = 3
    m[bad] = _off_cell(spec)
    fac, in_cell = gauss_bruhat_batch(spec, m)
    assert in_cell.tolist() == [i != bad for i in range(len(m))]
    assert fac.d_split.shape == (len(m), spec.adapter.slots)
    for i in range(len(m)):
        if i == bad:
            with pytest.raises(OutsideCell, match="Bruhat pivot 0 "):
                gauss_bruhat(spec, m[i])
            continue
        one = gauss_bruhat(spec, m[i])
        for name in ("n", "d", "zeta"):
            assert np.array_equal(getattr(fac, name)[i], getattr(one, name)), \
                name
        assert np.array_equal(fac.d_split[i], np.array(one.d_split))


@pytest.mark.parametrize("family,n", GROUPS)
def test_cocycle_shift_batch_rows_equal_one_row_calls(family, n):
    spec, point, charts, coords = _setup(family, n)
    g = _haar_rows(spec, len(coords))
    # the chart origin times the index reversal leaves the cell
    bad = 5
    coords[bad] = 0.0
    g[bad] = _off_cell(spec)
    moved, shift, in_cell = cocycle_shift_batch(spec, point, coords, g)
    assert moved.shape == coords.shape and shift.shape == (len(coords),)
    assert in_cell.tolist() == [i != bad for i in range(len(coords))]
    assert np.all(np.isnan(moved[bad])) and np.isnan(shift[bad])
    for i in range(len(coords)):
        chart = chart_point(spec, coords[i])
        if i == bad:
            with pytest.raises(OutsideCell, match="Bruhat pivot 0 "):
                cocycle_shift(spec, point, chart, g[i])
            continue
        zg, one = cocycle_shift(spec, point, chart, g[i])
        assert np.array_equal(moved[i], zg.array())
        assert shift[i] == one
    # one g for the whole batch equals a stack of copies of it
    same = cocycle_shift_batch(spec, point, coords, g[0])
    tiled = cocycle_shift_batch(spec, point, coords,
                                np.broadcast_to(g[0], g.shape))
    for a, b in zip(same, tiled):
        assert np.array_equal(a, b, equal_nan=a.dtype != bool)


def test_cocycle_shift_batch_of_nothing():
    spec = build_group("sp", 2)
    point = initial_point(spec, (1.0, 2.0))
    empty = np.zeros((0, spec.adapter.chart_dim), dtype=complex)
    moved, shift, in_cell = cocycle_shift_batch(spec, point, empty,
                                                _haar_rows(spec, 0))
    assert moved.shape == empty.shape
    assert shift.shape == in_cell.shape == (0,)


VERIFY_CONFIGS = [("su", 3, "1,2"), ("su", 3, "1,0"), ("sp", 2, "1,1"),
                  ("so", 4, "1,1"), ("su", 4, "1,0,1"), ("sp", 3, "1,0,0")]


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("family,n,weights", VERIFY_CONFIGS)
def test_batched_verify_equals_per_point_oracle(family, n, weights, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--group", family, "--n", str(n), "--weights",
                     weights, "--seed", str(seed), "--points", "40",
                     "--order", "8"])
    assert code == 0
    got = {c["name"]: c["residual"] for c in json.loads(out.getvalue())["results"]}
    spec = build_group(family, n)
    point = initial_point(spec, tuple(float(w) for w in weights.split(",")))
    want = per_point_verify_residuals(spec, point,
                                      np.random.default_rng(seed), 40)
    for name, value in want.items():
        assert got[name] == float(value), name


def test_column_csv_equals_row_writer_on_repeated_special_values():
    # the writer shares one text per bit pattern: 0.0 and -0.0, and each nan
    # (sign and payload from their int64 bits), must keep their own texts
    nan_bits = np.array([0x7FF8000000000000, 0x7FF0000000000001,
                         0x7FF00000DEADBEEF], dtype=np.int64)
    nans = np.concatenate([nan_bits, nan_bits | np.int64(-2 ** 63)]).view(float)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                               2.2250738585072009e-308, 1.0 / 3.0], nans])
    base = np.tile(special, 3)
    cols = {"phi": base, "g_11_re": base[::-1], "g_11_im": np.roll(base, 5),
            "g_12_re": np.full(base.size, 1.0 / 3.0)}
    pts = np.full((base.size, 2), 0.5 - 0.25j)
    assert _grid_csv(pts, cols) == row_grid_csv(pts, cols)
    for name in cols:
        one = {name: cols[name]}
        assert _grid_csv(pts, one) == row_grid_csv(pts, one)


def test_column_csv_equals_row_writer_on_edge_values():
    pts = np.array([[-0.0 + 5e-324j, 1e300 - 1e300j],
                    [2.5e-310 - 0.0j, -1e-300 + 0.1j],
                    [np.nan + 1j * np.inf, -np.inf + 0j]])
    cols = {"phi": np.array([-0.0, 5e-324, 1e300]),
            "g_11_re": np.array([-1e300, 1.0 / 3.0, np.nan]),
            "h_12_im": np.array([0.0, -2.2250738585072014e-308, 123456789.0]),
            # x beside -x, -0.0 beside 0.0, -inf, and a nan with its sign
            # bit set, which prints "nan" as every nan does
            "mu_1": np.array([1.0 / 3.0, -1.0 / 3.0, -0.0]),
            "mu_2": np.array([-np.inf, np.copysign(np.nan, -1.0), 0.0])}
    assert np.signbit(cols["mu_2"][1])
    assert _grid_csv(pts, cols) == row_grid_csv(pts, cols)
    assert _grid_csv(pts[:1], {}) == row_grid_csv(pts[:1], {})


def test_column_csv_equals_row_writer_without_sign_bits():
    # no key has its sign bit set, so no magnitude pass: +0.0, +inf and two
    # nan payloads with the sign bit clear
    nans = np.array([0x7FF8000000000000, 0x7FF0000000000001]).view(float)
    pts = np.array([[0.0 + 0.5j], [1e300 + 0j], [2.0 + 5e-324j]])
    cols = {"phi": np.array([0.0, np.inf, nans[0]]),
            "g_11_re": np.array([nans[1], 1.0 / 3.0, 0.0])}
    assert not np.any(np.signbit(np.concatenate(list(cols.values()))))
    assert np.isnan(nans).all() and nans.view(np.int64)[0] != \
        nans.view(np.int64)[1]
    assert _grid_csv(pts, cols) == row_grid_csv(pts, cols)


# per coordinate: varying, constant and 1-step axes, repeated values
# (1:1:3), signed zeros in axes and constants, magnitudes 1e-310 .. 1e300
LATTICES = ["-0:1:2,-0;0,-0;1:1:3,0.25",
            "1e-310:1e-300:2,-0.5;1e300,-1:1:1;0.5:0.5:1,-0",
            "0.1,0.2;0.3,0.4;-0.5,-0.6",
            "-1:1:3,-1:1:2;-1e300:1e300:2,1e-300;-2:2:5,0",
            "5e-324,-0:0:2;-0:1:2,-0",
            "-1:1:4,-0",
            "-1:1:2,-1:1:3;0.5:1:2,-1:1:2;-1:0:3,0.25:1:2;1:2:2,-1:1:2",
            "0.5:0.5:1,-1:1:3;-1:1:2,0.25:0.75:3"]


@pytest.mark.parametrize("grid", LATTICES)
def test_lattice_csv_equals_row_writer(grid):
    lattice, pts = _grid_points(_parse_grid(grid))
    # bit for bit, signed zeros included
    want = grid_rows(_parse_grid(grid))
    assert np.array_equal(pts.view(np.int64), want.view(np.int64))
    rng = np.random.default_rng(5)
    n = len(pts)
    cols = {"phi": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            "g_11_im": np.where(rng.random(n) < 0.5, -0.0, np.nan)}
    assert _grid_csv(lattice, cols) == row_grid_csv(pts, cols)
    assert _grid_csv(lattice, {}) == row_grid_csv(pts, {})


# chart dimensions: SU(3) 3, Sp(2) 4, SO(4) 2; every grid exits 0 on all
# three commands (the extremes only where the chart factors them)
CLI_GRIDS = [
    ("su", 3, "-0:1:2,-0;0,-0;1:1:3,0.25"),
    ("su", 3, "1e-310:1e-300:2,-0.5;1e3,-1:1:1;0.5:0.5:1,-0"),
    ("su", 3, "1e6,1e-310;-0,0:1:2;0.3,0.2"),
    ("su", 3, "-1:1:3,-1:1:2;0.5,-0.25;-1:1:2,0"),
    ("sp", 2, "-0:1:2,-0;0.5,0.2;-1:1:3,0;0,0"),
    ("sp", 2, "1e150,1e-310;0,-0;0,0;1:1:3,0"),
    ("sp", 2, "1e-310:1:3,1e-310;0,-0;1:1:3,0;0,0"),
    ("sp", 2, "-1e300:1e300:2,1e-300;0,0;0,0;0,0"),
    ("sp", 2, "0.1,0.2;0.3,0.4;0.5,0.6;-0.7,-0.8"),
    ("so", 4, "1e300,0;1e-310:2e-310:2,-0"),
    ("so", 4, "-0:1:2,-0;0,-0"),
    ("so", 4, "-1:1:3,-1:1:1;1:1:3,0.5:0.5:1"),
]
# lattices centred on 0: conjugation and the torus phases map them onto
# themselves and leave phi unchanged, so value columns repeat
SYMMETRIC_GRIDS = [
    ("sp", 2, "-1:1:3,-1:1:3;-1:1:3,-1:1:3;0,0;0,0"),
    ("su", 3, "-1:1:3,-1:1:3;0.5,-0.25;-1:1:3,-1:1:3"),
    ("so", 4, "-1.5:1.5:5,-1.5:1.5:5;-1:1:3,0"),
]


@pytest.mark.parametrize("command", ["potential", "metric", "dress"])
@pytest.mark.parametrize("family,n,grid", CLI_GRIDS + SYMMETRIC_GRIDS)
def test_cli_grid_csv_equals_row_writer(monkeypatch, capsys, command, family,
                                        n, grid):
    # the row writer gets the columns the CLI computed and the grid points
    # built one by one, so any misplaced field or row shows
    seen = []

    def spy(lattice, columns):
        seen.append(columns)
        return _grid_csv(lattice, columns)
    monkeypatch.setattr(cli, "_grid_csv", spy)
    code = main([command, "--group", family, "--n", str(n), "--weights",
                 "1,2", f"--grid={grid}", "--out", "csv"])
    assert code == 0
    want = row_grid_csv(grid_rows(_parse_grid(grid)), seen[0])
    assert capsys.readouterr().out == want
    if (family, n, grid) in SYMMETRIC_GRIDS:
        bits = np.array(list(seen[0].values())).view(np.int64)
        assert len(np.unique(bits)) < bits.size


def test_cli_grid_csv_equals_row_writer_at_benchmark_size(monkeypatch,
                                                          capsys):
    # 15,625 rows in three row chunks, 625 outer prefixes of 25 rows each:
    # the size of the timed SU(3) potential grid
    grid = ";".join(["-1.5:1.5:5,-1.5:1.5:5"] * 3)
    seen = []

    def spy(lattice, columns):
        seen.append(columns)
        return _grid_csv(lattice, columns)
    monkeypatch.setattr(cli, "_grid_csv", spy)
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    code = main(["potential", "--group", "su", "--n", "3", "--weights", "1,2",
                 f"--grid={grid}", "--out", "csv"])
    assert code == 0
    pts = grid_rows(_parse_grid(grid))
    assert len(pts) == 15625 and len(pts) // cli.MIN_ROWS == 3
    assert capsys.readouterr().out == row_grid_csv(pts, seen[0])


def _dress_grid(capsys, *argv):
    code = main(["dress", *argv, "--out", "csv"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("family,n,weights,grid", [
    ("sp", 2, "1,2", "-1:1:3,-1:1:2;0.5,0.2;0,0;0,0"),
    ("sp", 2, "1,2", "0.3,0.1;0.2,-0.4;0.5,0.5;-0.7:0.7:2,0.2"),
    ("so", 4, "1,2", "-1:1:3,0.3;0.5,-1:1:2"),
    ("su", 4, "1,0,1", "-1:1:2,0.2;0,0;0.3,0.1;0.1,0;0.2,-0.1;0,0"),
])
def test_dress_grid_emits_hermitian_upper_triangle(capsys, family, n, weights,
                                                   grid):
    code, out = _dress_grid(capsys, "--group", family, "--n", str(n),
                            "--weights", weights, f"--grid={grid}")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    spec = build_group(family, n)
    s = spec.adapter.slots
    assert header[-1] == "phi"
    assert sum(h.startswith("h_") for h in header) == s * (s + 1)
    point = initial_point(spec, tuple(float(w) for w in weights.split(",")))
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        coords = [complex(row[f"z{k + 1}_re"], row[f"z{k + 1}_im"])
                  for k in range(spec.adapter.chart_dim)]
        h = np.zeros((s, s), dtype=complex)
        for r in range(s):
            for c in range(r, s):
                h[r, c] = complex(row[f"h_{r + 1}{c + 1}_re"],
                                  row[f"h_{r + 1}{c + 1}_im"])
                h[c, r] = np.conj(h[r, c])
        mu = dress(spec, point, chart_point(spec, coords)).mu_matrix
        assert np.max(np.abs(h - 1j * mu)) < 1e-15


def test_sp_dress_grid_with_long_coordinates_exits_0(capsys):
    code, out = _dress_grid(capsys, "--group", "sp", "--n", "2", "--weights",
                            "1,2", "--grid=-1:1:2,0;0.5,0.2;0,0.5:1:2;0,0")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4


COVARIANCE_CONFIGS = [
    ("su", 2, "1"), ("su", 3, "1,2"), ("su", 3, "0,1"), ("su", 4, "1,2,3"),
    ("su", 4, "1,0,1"), ("su", 5, "1,2,3,4"), ("su", 5, "0,1,1,0"),
    ("sp", 2, "1,2"), ("sp", 2, "1,0"), ("sp", 3, "1,2,3"), ("sp", 3, "0,0,1"),
    ("so", 3, "1"), ("so", 4, "1,2"), ("so", 4, "0,1")]


@pytest.mark.parametrize("family,n,weights", COVARIANCE_CONFIGS)
def test_verify_checks_covariance_on_every_family(family, n, weights):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--group", family, "--n", str(n), "--weights",
                     weights, "--seed", "3", "--points", "40", "--order",
                     "8"])
    assert code == 0
    got = {c["name"]: c for c in json.loads(out.getvalue())["results"]}
    cov = got["potential_covariance"]
    assert cov["pass"] and cov["tol"] == 1e-8
    spec = build_group(family, n)
    point = initial_point(spec, tuple(float(w) for w in weights.split(",")))
    want = per_point_covariance(spec, point, np.random.default_rng(3), 40)
    assert cov["residual"] == want
    assert want <= 1e-8


def test_sp_covariance_holds_near_the_cell_boundary():
    # one point of this draw has Gauss-Bruhat pivots 1.9e-3 against 5.2e2,
    # and its rounded zeta is symplectic only to 6e-8; a chart read around
    # the A block of zeta instead of its trailing rows missed Phi by 4.1e-8
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--group", "sp", "--n", "2", "--weights", "1,1",
                     "--seed", "1863061501", "--order", "8"])
    assert code == 0
    got = {c["name"]: c["residual"]
           for c in json.loads(out.getvalue())["results"]}
    assert got["potential_covariance"] < 1e-9


def _dressed(family, n, scale, rows=12):
    spec = build_group(family, n)
    point = initial_point(spec, tuple(float(k + 1) for k in range(spec.rank)))
    coords = scale * normal_coords(
        spec, np.random.default_rng(3).standard_normal(
            (rows, 2 * spec.adapter.chart_dim)))
    return spec, point, dress_batch(spec, point, coords)


@pytest.mark.parametrize("family,n", GROUPS)
def test_spectrum_of_a_stack_equals_one_matrix_calls(family, n):
    # rows from 1e-2 to 1e4 in one stack, mu0 among them
    scale = 10.0 ** (np.arange(14) % 7 - 2)[:, None]
    spec, point, mu = _dressed(family, n, scale, rows=14)
    stack = np.concatenate([mu, np.asarray(point.matrix, dtype=complex)[None]])
    got = spec.adapter.spectrum(stack)
    assert got.shape == stack.shape[:-1]
    for i, m in enumerate(stack):
        assert np.array_equal(got[i].view(np.int64),
                              spec.adapter.spectrum(m).view(np.int64)), i


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("family,n", GROUPS)
def test_spectrum_matches_the_general_eigensolver(family, n, scale):
    spec, point, mu = _dressed(family, n, scale)
    tol = 1e-13 * np.max(np.abs(point.matrix))
    got = spec.adapter.spectrum(mu)
    for i, m in enumerate(mu):
        assert spectral_mismatch(got[i], np.linalg.eigvals(m)) <= tol, i
