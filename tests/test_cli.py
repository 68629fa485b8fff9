import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coadjoint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_generic(capsys):
    code, out = run(capsys, "classify", "--group", "su", "--n", "3",
                    "--weights", "1,1")
    assert code == 0
    rep = json.loads(out)
    res = rep["results"][0]
    assert res["kind"] == "generic"
    assert res["real_dimension"] == 6
    assert res["betti"] == [1, 2, 2, 1]
    assert rep["pass"] is True


def test_classify_degenerate(capsys):
    code, out = run(capsys, "classify", "--group", "su", "--n", "3",
                    "--weights", "0,1")
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["kind"] == "degenerate"
    assert res["betti"] == [1, 1, 1]
    assert res["stabilizer"] == "SU(2)xU(1)"


def test_classify_all_zero_exits_2(capsys):
    assert main(["classify", "--group", "su", "--n", "3",
                 "--weights", "0,0"]) == 2


def test_classify_tiny_uniform_weights_is_generic(capsys):
    # walls are relative to the largest weight: a scaled-down generic point
    # is still generic, not the zero orbit
    code, out = run(capsys, "classify", "--group", "su", "--n", "3",
                    "--weights", "1e-13,1e-13")
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["kind"] == "generic"
    assert res["real_dimension"] == 6
    assert res["stabilizer"] == "U(1)xU(1)"


def test_unsupported_group_exits_2(capsys):
    assert main(["verify", "--group", "so", "--n", "5",
                 "--weights", "1,1"]) == 2


def test_dress_degeneracy_exits_3(capsys):
    assert main(["dress", "--group", "su", "--n", "3", "--weights", "0,1",
                 "--z", "0.5,0;0,0;0,0"]) == 3


def test_dress_reports_residuals(capsys):
    code, out = run(capsys, "dress", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--seed", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["closed_form"]["residual"] < 1e-10
    assert rep["residuals"]["isospectrality"]["pass"]


def test_dress_trivial_point(capsys):
    code, out = run(capsys, "dress", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--z", "0,0;0,0;0,0")
    rep = json.loads(out)
    mu = rep["results"][0]["mu"]
    assert abs(mu[2] - 1.0) < 1e-12
    assert abs(3 ** 0.5 * mu[7] - 5.0) < 1e-12


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "--group", "sp", "--n", "2",
                    "--weights", "1,1", "--z", "0,0;1,0;0,0;0,0")
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["multiply_back"]["pass"]
    assert rep["residuals"]["unitarity"]["pass"]
    # z at 2e2 = 1 (coordinates by height: e1-e2, 2e2, e1+e2, 2e1) has rows
    # (1,0,0,0), (0,1,0,0), (0,1,1,0), (0,0,0,1): a = diag(1, 1/r, r, 1), r^2 = 2
    a1, a2 = rep["results"][0]["a_parameters"]
    assert abs(a1 - 1.0) < 1e-10 and abs(a2 - 0.5 ** 0.5) < 1e-10


def test_decompose_honours_zero_tolerance(capsys):
    # a residual is never below 0, so both checks fail
    code, out = run(capsys, "decompose", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--seed", "7", "--tol", "0")
    rep = json.loads(out)
    assert code == 1
    assert rep["config"]["tol"] == 0.0
    for name in ("multiply_back", "unitarity"):
        assert rep["residuals"][name]["tol"] == 0.0
        assert not rep["residuals"][name]["pass"]


def test_verify_honours_tolerance(capsys):
    code, out = run(capsys, "verify", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--seed", "7", "--points", "5",
                    "--order", "8", "--tol", "1e-30")
    rep = json.loads(out)
    assert code == 1 and rep["pass"] is False
    for check in rep["results"]:
        if check["name"] != "betti_sum":
            assert check["tol"] == 1e-30 and not check["pass"], check


def test_metric_honours_zero_tolerance(capsys):
    code, out = run(capsys, "metric", "--group", "su", "--n", "3",
                    "--weights", "1,1", "--seed", "7", "--tol", "0")
    rep = json.loads(out)
    assert rep["residuals"]["hermitian"]["tol"] == 0.0
    # positivity keeps its fixed bound
    assert rep["residuals"]["positivity"]["tol"] == -1e-9


def test_verify_su3(capsys):
    code, out = run(capsys, "verify", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--seed", "7", "--points", "20")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    names = {c["name"] for c in rep["results"]}
    assert {"iwasawa_multiply_back", "compactness_kk*", "isospectrality",
            "su3_closed_form", "potential_covariance", "betti_sum",
            "pairing_identity"} <= names


def test_verify_sp2(capsys):
    code, out = run(capsys, "verify", "--group", "sp", "--n", "2",
                    "--weights", "1,1", "--seed", "3", "--points", "10")
    assert code == 0
    rep = json.loads(out)
    pairing = [c for c in rep["results"] if c["name"] == "pairing_identity"][0]
    assert pairing["pass"] and pairing["residual"] < 1e-6


def test_verify_deterministic(capsys):
    _, out1 = run(capsys, "verify", "--group", "su", "--n", "3",
                  "--weights", "1,2", "--seed", "7", "--points", "5")
    _, out2 = run(capsys, "verify", "--group", "su", "--n", "3",
                  "--weights", "1,2", "--seed", "7", "--points", "5")
    assert out1 == out2


def test_metric_grid_csv(capsys):
    code, out = run(capsys, "metric", "--group", "su", "--n", "2",
                    "--weights", "1", "--grid=-1:1:3,-1:1:3", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("z1_re,z1_im,g_11_re,g_11_im")
    assert len(lines) == 10
    row = lines[1].split(",")
    g = float(row[2])
    z = complex(float(row[0]), float(row[1]))
    assert abs(g - 1.0 / (1 + abs(z) ** 2) ** 2) < 1e-6


@pytest.mark.parametrize("group,n,weights,m", [
    ("su", "5", "1,2,3,4", 10),
    ("su", "6", "1,2,3,4,5", 15),
    ("sp", "4", "1,2,3,4", 16),
    ("sp", "4", "1,0,1,0", 14),
])
def test_metric_grid_names_every_entry(capsys, group, n, weights, m):
    # g_<a><b> gave (1, 11) and (11, 1) the one name g_111
    dim = {"su": int(n) * (int(n) - 1) // 2, "sp": int(n) ** 2}[group]
    grid = ";".join(["0.1,0.2"] * dim)
    code, out = run(capsys, "metric", "--group", group, "--n", n,
                    "--weights", weights, f"--grid={grid}", "--out", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    names = [h for h in header if h.startswith("g_")]
    assert len(names) == len(set(names)) == 2 * m * m
    if m <= 10:
        assert f"g_1{m}_re" in names and f"g_{m}1_im" in names
    else:
        assert "g_1_11_re" in names and "g_11_1_im" in names


def test_dress_grid_csv(capsys):
    code, out = run(capsys, "dress", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--grid=0:1:2,0:0:1;0,0;0,0",
                    "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[6] == "mu_1"
    # second row is z = (1, 0, 0): mu_3 = xi/r1^2 (1 - |z1|^2) = 0
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert abs(float(row["mu_3"])) < 1e-12
    assert abs(float(row["phi"]) - 0.6931471805599453) < 1e-12


@pytest.mark.parametrize("group,n,weights,grid", [
    ("su", "3", "1,2", "-1.5:1.5:5,-1.5:1.5:5;0.5,-0.25;-1:1:3,-0:1:2"),
    ("su", "3", "1,2", ";".join(["99:101:2,-1:1:2"] * 3)),
    ("su", "4", "1,0,1", "-1:1:3,0.2;0,0;0.3,-0.1;-1:1:2,0;0.5,0.5;-0,1"),
    ("sp", "2", "1,2", "-1:1:3,-1:1:3;0.5,0.2;0,0;0.3:0.9:3,0"),
    ("so", "4", "1,2", "-1:1:3,-1:1:3;0.5,-1:1:3"),
])
def test_dress_grid_phi_equals_potential_grid(capsys, group, n, weights,
                                              grid):
    # the dress grid reads phi off its own factorization
    argv = ["--group", group, "--n", n, "--weights", weights,
            f"--grid={grid}", "--out", "csv"]
    code, dressed = run(capsys, "dress", *argv)
    assert code == 0
    code, potential = run(capsys, "potential", *argv)
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in dressed.splitlines()] == \
        [row.rsplit(",", 1)[1] for row in potential.splitlines()]


@pytest.mark.parametrize("weights,grid,code,error", [
    ("0,1", "0.5,0;0,0;-1:1:3,0", 3, "DegeneracyViolation"),
    ("0,0", "-1:1:3,0;0,0;0,0", 2, "AllWeightsZero"),
])
def test_dress_grid_rejects_off_orbit_rows(capsys, weights, grid, code, error):
    assert main(["dress", "--group", "su", "--n", "3", "--weights", weights,
                 f"--grid={grid}", "--out", "csv"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error


def test_potential_json(capsys):
    code, out = run(capsys, "potential", "--group", "su", "--n", "3",
                    "--weights", "1,2", "--z", "1,0;0,0;0,0")
    rep = json.loads(out)
    assert abs(rep["results"][0]["phi"] - 0.6931471805599453) < 1e-12


def test_pairing_command(capsys):
    code, out = run(capsys, "pairing", "--group", "su", "--n", "2",
                    "--weights", "1", "--order", "64")
    assert code == 0
    rep = json.loads(out)
    assert rep["residuals"]["identity"]["pass"]


def test_betti_command(capsys):
    code, out = run(capsys, "betti", "--group", "su", "--n", "4",
                    "--weights", "1,1,1")
    rep = json.loads(out)
    assert rep["results"][0]["betti"] == [1, 3, 5, 6, 5, 3, 1]
    assert rep["results"][0]["leray_hirsch"]["ok"] is True


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["classify", "--group", "su", "--n", "3", "--weights", "1,1",
                 "--output-file", str(path)])
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["results"][0]["betti_total"] == 6


GRID_REQUESTS = [
    ["potential", "--group", "sp", "--n", "2", "--weights", "1,2",
     "--grid=-0:1:2,-0;0.5,0.2;-1:1:3,0;0,0"],
    ["metric", "--group", "su", "--n", "3", "--weights", "1,2",
     "--grid=-1:1:3,-1:1:2;0.5,-0.25;1:1:3,0"],
    ["dress", "--group", "so", "--n", "4", "--weights", "1,2",
     "--grid=0.1,0.2;-0.3,0.4"],
]


@pytest.mark.parametrize("argv", GRID_REQUESTS)
def test_json_grid_report_counts_lattice_rows(capsys, argv):
    size = 1
    for axis in argv[-1].split("=", 1)[1].replace(";", ",").split(","):
        size *= int(axis.split(":")[2]) if ":" in axis else 1
    code, out = run(capsys, *argv, "--out", "csv")
    assert code == 0
    data_lines = out.count("\n") - 1
    code, out = run(capsys, *argv, "--out", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["csv_rows"] == size == data_lines
    assert rep["results"] == [{"grid_points": size}]


@pytest.mark.parametrize("argv", GRID_REQUESTS)
def test_grid_csv_output_file_equals_stdout(tmp_path, capsys, argv):
    _, out = run(capsys, *argv, "--out", "csv")
    path = tmp_path / "grid.csv"
    code, printed = run(capsys, *argv, "--out", "csv", "--output-file",
                        str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("command,group,n,weights,grid", [
    ("potential", "su", "2", "1", "-1:1:0,0"),
    ("metric", "su", "2", "1", "-1:1:0,0"),
    ("dress", "su", "3", "1,2", "-1:1:0,0;0,0;0,0"),
])
def test_zero_step_grid_exits_2(capsys, command, group, n, weights, grid):
    code = main([command, "--group", group, "--n", n, "--weights", weights,
                 f"--grid={grid}", "--out", "csv"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ValueError"
    assert "-1:1:0,0" in err["message"]


@pytest.mark.parametrize("command", ["potential", "metric", "dress"])
@pytest.mark.parametrize("group,n,grid,message", [
    # SU(3) has 3 chart coordinates, Sp(2) 4
    ("su", "3", "-1:1:2,0",
     "SU(3) chart batches have shape (N, 3), got (2, 1)"),
    ("su", "3", "-1:1:2,0;0,0;0,0;0,0",
     "SU(3) chart batches have shape (N, 3), got (2, 4)"),
    ("sp", "2", "-1:1:2,0;0,0",
     "Sp(2) chart batches have shape (N, 4), got (2, 2)"),
])
def test_grid_with_wrong_coordinate_count_exits_2(capsys, command, group, n,
                                                  grid, message):
    # a short SU(3) potential grid used to exit 0 with Phi at (z1, z1, z1),
    # the metric grid exit 1 with an IndexError traceback
    code = main([command, "--group", group, "--n", n, "--weights", "1,2",
                 f"--grid={grid}", "--out", "csv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": message}


@pytest.mark.parametrize("command", ["potential", "metric", "dress"])
def test_z_with_grid_exits_2(capsys, command):
    # the grid used to win and the point was dropped without a word
    code = main([command, "--group", "su", "--n", "3", "--weights", "1,2",
                 "--z", "0.1,0;0.2,0;0.3,0", "--grid=-1:1:2,0;0,0;0,0",
                 "--out", "csv"])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2
    assert captured.out == ""
    assert err["error"] == "ValueError"
    assert "--z" in err["message"] and "--grid" in err["message"]


@pytest.mark.parametrize("command,flag,value", [
    ("verify", "--points", "-3"),
    ("verify", "--points", "0"),
    ("verify", "--order", "0"),
    ("pairing", "--order", "0"),
])
def test_nonpositive_count_exits_2(capsys, command, flag, value):
    # with no point checked, verify used to pass every residual as 0.0
    code = main([command, "--group", "su", "--n", "3", "--weights", "1,2",
                 flag, value])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2
    assert captured.out == ""
    assert err["error"] == "ValueError"
    assert f"{flag} needs at least 1, got {value}" in err["message"]


@pytest.mark.parametrize("group,n,z", [("so", "4", "1e300,0;1e-310,0"),
                                       ("sp", "2", "1e300,0;0,0;0,0;0,0")])
def test_far_metric_breakdown_exits_3(capsys, group, n, z):
    # the chart Jacobian overflows here: one point is a domain error, with
    # no NaN tokens on stdout, while a grid through it writes a nan row
    argv = ["metric", "--group", group, "--n", n, "--weights", "1,2"]
    code = main(argv + ["--z", z])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NumericalBreakdown"
    code, out = run(capsys, *argv, f"--grid={z}", "--out", "csv")
    assert code == 0
    assert "nan" in out.splitlines()[1]


# one process, many calls: flags of one call must not reach the next
SEQUENCE = [
    ["verify", "--group", "su", "--n", "3", "--weights", "1,2", "--seed", "3",
     "--points", "5", "--order", "8", "--tol", "1e-3"],
    ["classify", "--group", "sp", "--n", "2", "--weights", "1,0"],
    ["dress", "--group", "so", "--n", "4", "--weights", "1,2",
     "--z", "0.3,0.1;-0.2,0.4"],
    ["potential", "--group", "su", "--n", "2", "--weights", "1",
     "--grid=-1:1:3,0", "--out", "csv"],
    ["verify", "--group", "sp", "--n", "2", "--weights", "1,1",
     "--points", "0"],
    ["verify", "--group", "so", "--n", "4", "--weights", "1,1", "--seed", "7",
     "--points", "6", "--order", "8"],
    # these two read the pairing rows an SU(3) report at order 8 kept
    ["pairing", "--group", "su", "--n", "3", "--weights", "1,2", "--order",
     "8"],
    ["verify", "--group", "su", "--n", "3", "--weights", "1,0", "--seed", "5",
     "--points", "5", "--order", "8"],
    ["classify", "--group", "xx", "--n", "3", "--weights", "1,1"],
    ["decompose", "--help"],
    ["metric", "--group", "su", "--n", "3", "--weights", "1,1", "--seed", "7"],
]


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse: --help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_match_fresh_processes(monkeypatch):
    # the parser and the pairing rows are kept per process; each report
    # must still equal the one a fresh process writes, whatever ran before it
    monkeypatch.setenv("COLUMNS", "100")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    procs = [subprocess.Popen([sys.executable, "-m", "coadjoint.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env)
             for argv in SEQUENCE]
    fresh = []
    for proc in procs:
        out, err = proc.communicate()
        fresh.append((proc.returncode, out, err))
    # forwards, then backwards: every call follows a different one
    order = list(range(len(SEQUENCE))) + list(range(len(SEQUENCE)))[::-1]
    for i in order:
        assert _in_process(SEQUENCE[i]) == fresh[i], SEQUENCE[i]
