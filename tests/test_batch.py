"""Batched Iwasawa and dressing: rows equal the one-row calls bit for bit."""

import contextlib
import io
import json

import numpy as np
import pytest

from coadjoint import (DegeneracyViolation, NumericalBreakdown, build_group,
                       chart_point, dress, initial_point, iwasawa)
from coadjoint.cli import _grid_csv, main
from coadjoint.decompose import iwasawa_batch
from coadjoint.orbit import GELL_MANN, dress_batch, gell_mann_coordinates
from helpers import per_point_verify_residuals, random_chart, row_grid_csv

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


def test_column_csv_equals_row_writer_on_edge_values():
    pts = np.array([[-0.0 + 5e-324j, 1e300 - 1e300j],
                    [2.5e-310 - 0.0j, -1e-300 + 0.1j],
                    [np.nan + 1j * np.inf, -np.inf + 0j]])
    cols = {"phi": np.array([-0.0, 5e-324, 1e300]),
            "g_11_re": np.array([-1e300, 1.0 / 3.0, np.nan]),
            "h_12_im": np.array([0.0, -2.2250738585072014e-308, 123456789.0])}
    assert _grid_csv(pts, cols) == row_grid_csv(pts, cols)
    assert _grid_csv(pts[:1], {}) == row_grid_csv(pts[:1], {})


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
