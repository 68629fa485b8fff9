"""Grid reports evaluated in row chunks on concurrent threads.

A ``--grid`` lattice of at least 2 * MIN_ROWS rows splits into contiguous
row chunks, one per CPU; the caller takes the first and short-lived threads
the others. The reports must be those of a one-chunk run byte for byte,
errors included, and no thread may outlive the request.
"""

import contextlib
import io
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from coadjoint import cli

# 2 * 81 * 55 = 8910 rows each: two chunks of 4455 >= MIN_ROWS
GRIDS = [
    ("su", "3", "-1:1:9,-1:1:9;0.5,-0.25;-1:1:11,-1:1:10"),
    ("sp", "2", "-1:1:9,-1:1:9;0.5,0.2;-1:1:11,0;0.3,-2:2:10"),
    ("so", "4", "-1:1:9,-1:1:9;0.5:1:11,-1:1:10"),
]
ROWS = 8910


class Recorder(threading.Thread):
    """A Thread that keeps a list of every instance started."""

    started = []

    def start(self):
        Recorder.started.append(self)
        super().start()


@pytest.fixture
def threads(monkeypatch):
    """The threads the grid helper starts; none may be left running."""
    Recorder.started = []
    monkeypatch.setattr(cli, "threading",
                        types.SimpleNamespace(Thread=Recorder))
    before = set(threading.enumerate())
    yield Recorder.started
    assert not any(t.is_alive() for t in Recorder.started)
    assert set(threading.enumerate()) == before


def _report(monkeypatch, cpus, argv):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_chart_sweep_sized_grids_are_split():
    assert ROWS // cli.MIN_ROWS >= 2
    # the chart-sweep dress and metric grids (625 and 81 rows) are not
    assert 625 // cli.MIN_ROWS <= 1


@pytest.mark.parametrize("command", ["dress", "potential", "metric"])
@pytest.mark.parametrize("group,n,grid", GRIDS)
def test_chunked_grid_equals_one_chunk(monkeypatch, threads, command, group,
                                       n, grid):
    argv = [command, "--group", group, "--n", n, "--weights", "1,2",
            f"--grid={grid}"]
    for out in (["--out", "csv"], ["--out", "json"]):
        one = _report(monkeypatch, 1, argv + out)
        assert not threads
        assert _report(monkeypatch, 2, argv + out) == one
        assert len(threads) == 1
        threads.clear()
        assert one[0] == 0
    assert one[1].startswith('{"config"') and f'"csv_rows":{ROWS}' in one[1]


@pytest.mark.parametrize("command,group,n,weights,grid", [
    ("dress", "su", "3", "1,2", "-1:1:3,-1:1:3;0.5,-0.25;-0:1:3,0"),
    ("dress", "sp", "2", "1,2", "-1:1:3,-1:1:3;0.5,0.2;0,0;0.3:0.9:3,0"),
    ("potential", "so", "4", "1,2", "-1:1:3,-1:1:3;0.5,-1:1:3"),
    ("metric", "sp", "2", "1,2", "-1:1:3,-1:1:3;0.5,0.2;0,0;0.3:0.9:3,0"),
])
def test_uneven_chunks_equal_one_chunk(monkeypatch, threads, command, group,
                                       n, weights, grid):
    # 27 rows in four chunks of 7, 7, 7 and 6
    monkeypatch.setattr(cli, "MIN_ROWS", 5)
    argv = [command, "--group", group, "--n", n, "--weights", weights,
            f"--grid={grid}", "--out", "csv"]
    one = _report(monkeypatch, 1, argv)
    assert _report(monkeypatch, 4, argv) == one
    assert len(threads) == 3


def test_more_chunks_than_cpus_with_fast_switching(monkeypatch, threads):
    # 16 threads of one or two rows each, switched every microsecond
    monkeypatch.setattr(cli, "MIN_ROWS", 1)
    argv = ["dress", "--group", "so", "--n", "4", "--weights", "1,2",
            "--grid=-1:1:3,-1:1:3;0.5,-1:1:3", "--out", "csv"]
    one = _report(monkeypatch, 1, argv)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = _report(monkeypatch, 16, argv)
    finally:
        sys.setswitchinterval(interval)
    assert many == one
    assert len(threads) == 15


@pytest.mark.parametrize("axis", ["0:1:2,0", "1:0:2,0"],
                         ids=["last-chunk", "first-chunk"])
def test_degeneracy_in_one_chunk_exits_3_as_one_chunk(monkeypatch, threads,
                                                      axis):
    # z1 must vanish on this orbit; it does on one half of the rows only
    argv = ["dress", "--group", "su", "--n", "3", "--weights", "0,1",
            f"--grid={axis};-1:1:9,-1:1:9;-1:1:11,-1:1:5", "--out", "csv"]
    one = _report(monkeypatch, 1, argv)
    assert one[:2] == (3, "")
    assert '"DegeneracyViolation"' in one[2]
    assert _report(monkeypatch, 2, argv) == one
    assert len(threads) == 1


def test_chunk_errors_report_the_whole_lattice(monkeypatch, threads):
    # one row a chunk: z2 is nonzero in chunks 0 and 1, z3 in 1 and 3, so no
    # single chunk names both; the one-chunk message does
    monkeypatch.setattr(cli, "MIN_ROWS", 1)
    argv = ["dress", "--group", "su", "--n", "4", "--weights", "1,0,0",
            "--grid=0,0;1:0:2,0;0:1:2,0;0,0;0,0;0,0", "--out", "csv"]
    one = _report(monkeypatch, 1, argv)
    assert one[0] == 3 and "e2-e3" in one[2] and "e3-e4" in one[2]
    assert _report(monkeypatch, 4, argv) == one
    assert len(threads) == 3


def test_chunks_run_under_the_callers_error_state(monkeypatch, threads):
    monkeypatch.setattr(cli, "_cpus", lambda: 3)
    seen = []

    def columns(pts):
        seen.append((threading.current_thread(), np.geterr(),
                     np.geterrcall()))
        return {"x": pts[:, 0].real}

    def handler(kind, flag):
        pass

    pts = np.arange(3 * cli.MIN_ROWS, dtype=complex)[:, None]
    with np.errstate(over="raise", divide="ignore", under="warn",
                     invalid="call", call=handler):
        state = np.geterr()
        cols = cli._in_chunks(columns, pts)
    assert np.array_equal(cols["x"], pts[:, 0].real)
    assert len(threads) == 2
    assert len({id(t) for t, _, _ in seen}) == 3
    assert all(err == state and call is handler for _, err, call in seen)


def test_chunked_overflow_grid_warns_as_the_caller_asks(monkeypatch, threads):
    # the metric kernel overflows on every row; numpy warns unless told not
    # to, in every chunk
    monkeypatch.setattr(cli, "MIN_ROWS", 2)
    argv = ["metric", "--group", "sp", "--n", "2", "--weights", "1,2",
            "--grid=1e300,0;0,0;0,0;1e-310:1e-300:8,0", "--out", "csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="ignore"):
            quiet = _report(monkeypatch, 4, argv)
        assert not caught
        loud = _report(monkeypatch, 4, argv)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
    assert quiet == loud
    assert quiet[0] == 0 and "nan" in quiet[1]
    assert len(threads) == 6
