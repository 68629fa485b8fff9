import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from coadjoint import cli, groups, orbit
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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "-0.5"])
def test_tolerance_must_be_finite_and_not_negative(capsys, tol):
    # --tol nan wrote "tol":NaN, which is not JSON, and --tol -1 failed every
    # check (exit 1): both are usage errors now. The joined form hands the
    # converter every value, -inf included
    code = main(["decompose", "--group", "su", "--n", "3", "--weights", "1,2",
                 "--seed", "7", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError"
    assert err["message"] == ("argument --tol: must be a finite number >= 0, "
                              f"got {tol!r}")


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


@pytest.mark.parametrize("group,n,weights", [
    ("su", 8, "1,2,3,4,5,6,7"), ("su", 8, "1,0,1,0,1,0,1"),
    ("sp", 5, "1,2,3,4,5"), ("sp", 5, "1,0,1,0,1")])
def test_verify_enumerates_no_weyl_group(capsys, group, n, weights):
    # |W| = 8! or 2^5 5! comes from the closed form, not from a closure
    before = groups.weyl_group.cache_info()
    code, out = run(capsys, "verify", "--group", group, "--n", str(n),
                    "--weights", weights)
    assert groups.weyl_group.cache_info() == before
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["results"]}
    assert checks["betti_sum"]["pass"] and checks["betti_sum"]["residual"] == 0


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


def test_pairing_that_misses_its_tolerance_exits_1(capsys):
    # the report is the passing one with the identity check failed: main
    # sets the pass flag and the exit code from the residuals
    argv = ["pairing", "--group", "su", "--n", "3", "--weights", "1,2"]
    code, out = run(capsys, *argv, "--tol", "0")
    assert code == 1
    assert '"pass":false' in out
    ok_code, ok_out = run(capsys, *argv)
    assert ok_code == 0
    want = json.loads(ok_out)
    want["config"]["tol"] = 0.0
    want["residuals"]["identity"].update({"pass": False, "tol": 0.0})
    want["pass"] = False
    assert out == json.dumps(want, sort_keys=True,
                             separators=(",", ":")) + "\n"


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


@pytest.mark.parametrize("out", [[], ["--out", "csv"]])
@pytest.mark.parametrize("command", ["potential", "metric", "dress"])
def test_empty_grid_exits_2(capsys, command, out):
    # an empty --grid= used to read as no grid: a report at a random point
    code = main([command, "--group", "su", "--n", "3", "--weights", "1,2",
                 "--grid=", *out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": "bad grid component ''"}


@pytest.mark.parametrize("command,extra,flag", [
    *[(c, ["--grid=-1:1:2,0;0,0;0,0"], "--grid")
      for c in ("classify", "decompose", "betti", "pairing", "verify")],
    ("verify", ["--grid=-1:1:2,0;0,0;0,0", "--out", "csv"], "--grid"),
    *[(c, ["--out", "csv"], "--out")
      for c in ("classify", "decompose", "dress", "potential", "metric",
                "betti", "pairing", "verify")],
])
def test_unread_flag_exits_2(capsys, command, extra, flag):
    # these commands used to ignore the flag: verify with a grid and --out
    # csv wrote its JSON report and exited 0
    counts = {"pairing": ["--order", "8"],
              "verify": ["--points", "2", "--order", "8"]}
    code = main([command, "--group", "su", "--n", "3", "--weights", "1,2",
                 *counts.get(command, []), *extra])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2
    assert captured.out == ""
    assert err["error"] == "ValueError"
    assert err["message"].startswith(flag)


COMMANDS = ["classify", "decompose", "dress", "potential", "metric", "betti",
            "pairing", "verify"]
# the commands that read each optional flag, and a value every reader takes
READERS = {
    "--z": {"decompose", "dress", "potential", "metric"},
    "--grid": {"dress", "potential", "metric"},
    "--seed": {"decompose", "dress", "potential", "metric", "verify"},
    "--tol": {"decompose", "dress", "metric", "pairing", "verify"},
    "--order": {"pairing", "verify"},
    "--points": {"verify"},
    "--out": {"dress", "potential", "metric"},
}
VALUES = {"--z": "0.1,0;0.2,0;0.3,0", "--grid": "0.1,0;0.2,0;0.3,0",
          "--seed": "3", "--tol": "1", "--order": "8", "--points": "2",
          "--out": "json"}
SU3 = ["--group", "su", "--n", "3", "--weights", "1,2"]


@pytest.mark.parametrize("command,flag", [
    (c, f) for f in READERS for c in COMMANDS if c not in READERS[f]])
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    # each of these used to be parsed, echoed in config and ignored, or
    # rejected by a check of its own
    code = main([command, *SU3, flag, VALUES[flag]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": f"{flag} is not read by {command}"}


@pytest.mark.parametrize("command,flag", [
    (c, f) for f in READERS for c in COMMANDS if c in READERS[f]])
def test_flag_the_command_reads_is_accepted(capsys, command, flag):
    code = main([command, *SU3, flag, VALUES[flag]])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert captured.err == ""
    config = json.loads(captured.out)["config"]
    if flag[2:] in config:
        assert str(config[flag[2:]]) in (VALUES[flag], VALUES[flag] + ".0")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_the_flags_the_command_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out,
                        re.M)
    assert sorted(listed) == sorted(
        ["--help", "--group", "--n", "--weights", "--output-file"]
        + [f for f in READERS if command in READERS[f]])


@pytest.mark.parametrize("argv,flag", [
    # a prefix match read --out as --output-file and wrote a file "csv"
    (["classify", *SU3, "--out", "csv"], "--out"),
    (["verify", *SU3, "--poi", "3"], "--poi"),
])
def test_abbreviated_flag_exits_2(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["message"].startswith(flag)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_default_config_lists_every_key(capsys, command):
    # every report echoes all nine keys, the ones its command ignores too
    _, out = run(capsys, command, *SU3)
    assert json.loads(out)["config"] == {
        "command": command, "group": "su", "n": 3, "weights": "1,2",
        "z": None, "grid": None, "seed": 0, "tol": None, "order": 128}


@pytest.mark.parametrize("argv,message", [
    (["classify", "--group", "xx", "--n", "3", "--weights", "1,1"],
     "argument --group: invalid choice: 'xx'"),
    (["classify", "--n", "3", "--weights", "1,1"],
     "the following arguments are required: --group"),
    (["verify", *SU3, "--points", "x"], "argument --points: invalid int"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_is_json(capsys, argv, message):
    # argparse used to print its usage text and raise SystemExit
    code = main(argv)
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2
    assert captured.out == ""
    assert err["error"] == "ValueError"
    assert err["message"].startswith(message)


@pytest.mark.parametrize("weights,message", [
    ("abc", "could not convert string to float: 'abc'"),
    ("1", "SU(3) needs 2 weights, got 1"),
    ("1,-2", "weights must be nonnegative"),
])
def test_pairing_checks_its_weights(capsys, weights, message):
    # pairing exited 0 with any --weights and echoed them in its config
    code = main(["pairing", "--group", "su", "--n", "3", "--weights", weights,
                 "--order", "8"])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2
    assert captured.out == ""
    assert err["error"] == "ValueError"
    assert err["message"].startswith(message)


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
            for line in block.splitlines() if line.startswith("coadjoint ")]


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_example_exits_0(tmp_path, argv):
    path = tmp_path / "report"
    assert main(argv + ["--output-file", str(path)]) == 0
    assert path.read_text()


def test_readme_has_examples():
    assert len(_readme_examples()) >= 7


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


@pytest.mark.parametrize("group,n,z", [("sp", "2", "1e300,0;0,0;0,0;0,0")])
def test_far_metric_breakdown_exits_3(capsys, group, n, z):
    # the kernel's back substitution overflows here: one point is a domain
    # error, with no NaN tokens on stdout, while a grid through it writes a
    # nan row
    argv = ["metric", "--group", group, "--n", n, "--weights", "1,2"]
    code = main(argv + ["--z", z])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NumericalBreakdown"
    code, out = run(capsys, *argv, f"--grid={z}", "--out", "csv")
    assert code == 0
    assert "nan" in out.splitlines()[1]


@pytest.mark.parametrize("z", ["1e150,-1e150;1e150,-1e150;1e150,-1e150",
                               "1e300,0;1e300,0;1e300,0"])
def test_far_su3_dress_breakdown_exits_3(capsys, z):
    # the closed form's squares overflowed into a traceback (exit 1); the
    # dressed point at 1e300 is nan, and its spectrum raised numpy's
    # LinAlgError, a usage error (exit 2)
    code = main(["dress", "--group", "su", "--n", "3", "--weights", "1,1",
                 f"--z={z}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NumericalBreakdown"


def test_far_su3_dress_grid_breakdown_exits_3(capsys):
    # the first Iwasawa pivot here is subnormal: the grid wrote a row of nan
    # mu and exited 0
    code = main(["dress", "--group", "su", "--n", "3", "--weights", "1,1",
                 "--grid=1e300,0;1e300,0;1e300,0", "--out", "csv"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NumericalBreakdown"


FAR_DRESS = [["su", "3", "--z=1e300,0;1e300,0;1e300,0"],
             ["su", "3", "--grid=1e300,0;1e300,0;1e300,0"],
             ["sp", "2", "--z=1e300,0;1e300,0;1e300,0;1e300,0"]]


def _script(argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "coadjoint.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("group,n,z", FAR_DRESS)
def test_script_breakdown_writes_one_json_line_to_stderr(group, n, z):
    # numpy's overflow warnings printed ahead of the JSON error
    proc = _script(["dress", "--group", group, "--n", n, "--weights", "1,1",
                    z])
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NumericalBreakdown"


def test_script_success_still_prints_warnings():
    # held back while the report runs, printed once it exits 0
    proc = _script(["metric", "--group", "sp", "--n", "2", "--weights", "1,2",
                    "--grid=1e300,0;0,0;0,0;1e-310:1e-300:2,0", "--out",
                    "csv"])
    assert proc.returncode == 0 and "nan" in proc.stdout
    assert "RuntimeWarning" in proc.stderr


def test_far_so4_metric_exits_0(capsys):
    # central differences overflowed here and the report exited 3; the
    # closed-form Jacobian gives diag(0, g_22(0)): g_11 = (1 + |z1|^2)^-2
    # underflows
    argv = ["metric", "--group", "so", "--n", "4", "--weights", "1,2", "--z"]
    code, out = run(capsys, *argv, "1e300,0;1e-310,0")
    assert code == 0
    g = json.loads(out)["results"][0]["g"]
    g0 = json.loads(run(capsys, *argv, "0,0;0,0")[1])["results"][0]["g"]
    assert g[0] == [[0.0, 0.0], [0.0, 0.0]] and g[1][0] == [0.0, 0.0]
    assert g[1][1] == pytest.approx(g0[1][1], rel=1e-15)


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


def _skew_upper_entry(monkeypatch):
    """Every dressed mu gets 1e-6 added to its entry (0, 1). The lower
    triangle of i mu, which is all the spectrum reads, stays as it was."""
    action = orbit._action

    def skewed(point, k):
        mu = action(point, k).copy()
        mu[..., 0, 1] += 1e-6
        return mu

    monkeypatch.setattr(orbit, "_action", skewed)


SKEWED = [("sp", "2", "1,1", "0.3,0.1;-0.7,0.2;1.5,-0.4;0.2,0.9"),
          ("so", "4", "1,1", "0.3,0.1;-0.7,0.2"),
          ("su", "4", "1,0,1", "0.3,0.1;0,0;-0.7,0.2;0,0;1.5,-0.4;0,0")]


@pytest.mark.parametrize("family,n,weights,z", SKEWED)
def test_non_anti_hermitian_points_fail_verify_and_dress(
        monkeypatch, capsys, family, n, weights, z):
    _skew_upper_entry(monkeypatch)
    group = ["--group", family, "--n", n, "--weights", weights]
    code, out = run(capsys, "verify", *group, "--seed", "7",
                    "--points", "10", "--order", "16")
    checks = {c["name"]: c for c in json.loads(out)["results"]}
    assert code == 1
    assert checks["isospectrality"]["pass"]
    assert [name for name, c in checks.items() if not c["pass"]] \
        == ["anti_hermitian"]
    assert checks["anti_hermitian"]["residual"] >= 1e-6

    code, out = run(capsys, "dress", *group, f"--z={z}")
    residuals = json.loads(out)["residuals"]
    assert code == 1
    assert residuals["isospectrality"]["pass"]
    assert [name for name, c in residuals.items() if not c["pass"]] \
        == ["anti_hermitian"]
    # --tol is honoured
    code, out = run(capsys, "dress", *group, f"--z={z}", "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["residuals"]["anti_hermitian"]["tol"] == 1e-5


# weights that share their walls, then other walls of the same groups, then
# each maximally degenerate orbit twice with an all-zero point between them:
# classify and betti read the class, the fibration and the Leray-Hirsch
# result that an earlier report on the same group and walls kept, and must
# still write what a fresh process does
TOPOLOGY_POINTS = [("su", "4", "1,0,1"), ("su", "4", "2,0,3"),
                   ("sp", "3", "1,0,1"), ("sp", "3", "3,0,2"),
                   ("su", "4", "1,2,3"), ("sp", "3", "0,1,1"),
                   ("su", "3", "1,0"), ("sp", "2", "1,0"), ("su", "3", "0,0"),
                   ("so", "3", "1"), ("so", "4", "1,0"),
                   ("su", "3", "1,0"), ("sp", "2", "1,0"), ("so", "3", "1"),
                   ("so", "4", "1,0"), ("so", "4", "1,2")]


def _fresh_runs(argvs, at_once=4):
    """(exit code, stdout, stderr) of ``python -m coadjoint.cli`` per argv,
    at most ``at_once`` processes at a time."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    runs = []
    for start in range(0, len(argvs), at_once):
        procs = [subprocess.Popen(
            [sys.executable, "-m", "coadjoint.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env) for argv in argvs[start:start + at_once]]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            runs.append((proc.returncode, out, err))
    return runs


def test_topology_reports_in_one_process_match_fresh_processes():
    sequence = [[command, "--group", family, "--n", n, "--weights", weights]
                for family, n, weights in TOPOLOGY_POINTS
                for command in ("classify", "betti")]
    distinct = sorted({tuple(argv) for argv in sequence})
    fresh = dict(zip(distinct, _fresh_runs([list(a) for a in distinct])))
    codes = {fresh[a][0] for a in distinct}
    assert codes == {0, 2}
    for argv in sequence:
        assert _in_process(argv) == fresh[tuple(argv)], argv


def _parse_outcome(parse, argv):
    """What a parse gives: the namespace and unread flags, the exit code and
    help text of a SystemExit, or the message of a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, unread = parse(argv)
            result = ("parsed", vars(args), unread)
        except SystemExit as exc:
            result = ("exit", exc.code)
        except ValueError as exc:
            result = ("error", str(exc))
    return result, out.getvalue(), err.getvalue()


DISPATCH_INPUTS = [
    [], ["bogus"], ["bogus", *SU3], ["-h"], ["--help"], ["-h", "classify"],
    ["--group", "su", "classify"], ["--n", "3", "betti", *SU3],
    ["--", "classify", *SU3], ["clas", *SU3], ["classify"], ["verify"],
    *[[c, "-h"] for c in COMMANDS],
    *[[c, *SU3] for c in COMMANDS],
    *[[c, *SU3, "--help"] for c in COMMANDS],
    *[[c, *SU3, "--tol", "nan"] for c in COMMANDS],
    *[[c, *SU3, "--z", "0,0;0,0;0,0", "--grid", "0,0;0,0;0,0"]
      for c in COMMANDS],
    ["verify", *SU3, "--poi", "3"], ["classify", *SU3, "--out", "csv"],
    ["dress", *SU3, "--outp", "x"], ["betti", "--gro", "su", "--n", "3",
                                     "--weights", "1,2"],
    ["pairing", *SU3, "--ord", "8"], ["metric", *SU3, "--seed=3", "--z=0,0"],
    ["decompose", *SU3, "--", "x"], ["potential", "--weights", "1,2"],
    # the flag table's edge cases: every flag a command reads, both forms
    *[[c, *SU3, f, VALUES[f]] for f in READERS for c in sorted(READERS[f])],
    *[[c, *SU3, f"{f}={VALUES[f]}"] for f in READERS
      for c in sorted(READERS[f])],
    *[[c, "--group=su", "--n=3", "--weights=1,2", "--output-file=x.json"]
      for c in COMMANDS],
    *[[c, "--output-file", "x.json", *SU3] for c in COMMANDS],
    ["classify", *SU3, "--n", "4"], ["betti", *SU3, "--group=sp"],
    ["potential", *SU3, "--seed", "1", "--seed=2"],
    ["verify", *SU3, "--seed", "-3"], ["verify", *SU3, "--seed=-3"],
    ["potential", *SU3, "--z", "-1,0;0.5,-0.25;0,0"],
    ["potential", *SU3, "--z=-1,0;0.5,-0.25;0,0"],
    ["potential", *SU3, "--z="], ["potential", *SU3, "--z", ""],
    ["potential", *SU3, "--z=--"], ["potential", *SU3, "--z", "--"],
    ["metric", *SU3, "--z"], ["classify", *SU3, "stray"],
    ["classify", "--group", "su", "--n", "3"], ["betti", "--n", "3"],
    ["classify", "--group", "xx", "--n", "3", "--weights", "1,2"],
    ["betti", "--group", "su", "--n", "x", "--weights", "1,2"],
    ["betti", "--group", "su", "--n", "3.0", "--weights", "1,2"],
    ["verify", *SU3, "--tol=-1"], ["decompose", *SU3, "--tol", "x"],
    ["metric", *SU3, "--out", "xml"], ["dress", *SU3, "--out=csv"],
    ["dress", *SU3, "--z=0,0;0,0;0,0", "--grid=0,0;0,0;0,0"],
    ["classify", "--group", "su", "--n", "3", "--weight=1,2"],
    ["verify", *SU3, "--points=2", "--poi=3"],
]


@pytest.mark.parametrize("argv", DISPATCH_INPUTS, ids=" ".join)
def test_dispatch_matches_the_two_level_parser(monkeypatch, argv):
    # main parses a request that opens with a command with that command's
    # parser alone; a freshly built two-level parser is the oracle for its
    # namespace, unread flags, exit code, help text and usage message
    monkeypatch.setenv("COLUMNS", "100")
    oracle = cli.build_parser().parse_known_args
    got = _parse_outcome(cli._parse, argv)
    assert got == _parse_outcome(oracle, argv)
    # and main reports what the oracle stopped with
    if got[0][0] == "exit":
        assert _in_process(argv)[:2] == (got[0][1], got[1])
    elif got[0][0] == "error":
        assert _in_process(argv) == (2, "", json.dumps(
            {"error": "ValueError", "message": got[0][1]},
            sort_keys=True) + "\n")


def test_non_str_token_fails_as_the_parser_does():
    argv = ["classify", "--group", "su", "--n", 3, "--weights", "1,2"]
    with pytest.raises(TypeError) as want:
        cli.build_parser().parse_known_args(argv)
    with pytest.raises(TypeError) as got:
        cli._parse(argv)
    assert str(got.value) == str(want.value)


def test_well_formed_requests_build_no_parser(tmp_path):
    # a fresh interpreter answers well-formed requests from the flag table
    # alone; the first usage error builds the two-level parser, once
    code = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from coadjoint.cli import main
su3 = ["--group", "su", "--n", "3", "--weights", "1,2"]
requests = [["classify", *su3], ["betti", "--group=sp", "--n=2", "--weights=1,0"],
            ["potential", *su3, "--z=-1,0;0.5,-0.25;0,0"],
            ["metric", *su3, "--grid", "0,0;0,0;0:1:2,0", "--out", "csv"],
            ["verify", *su3, "--points", "2", "--order", "8", "--tol=1e-6"],
            ["pairing", *su3, "--order", "8", "--output-file", sys.argv[1]]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in requests]
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(["verify", *su3, "--poi", "3"]))
    counts.append(len(built))
print(json.dumps([codes, counts]))
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code,
                          str(tmp_path / "pairing.json")],
                         capture_output=True, text=True, env=env, check=True)
    codes, counts = json.loads(out.stdout)
    assert codes == [0, 0, 0, 0, 0, 0, 2, 2]
    # the parser and its subparsers, each an ArgumentParser
    assert counts == [0, 1 + len(COMMANDS), 1 + len(COMMANDS)]


@pytest.mark.parametrize("target", ["missing/report.json", "."])
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, target, command):
    # it raised a traceback and exited 1, the code of a failed check
    counts = {"verify": ["--points", "2", "--order", "8"]}
    code = main([command, *SU3, *counts.get(command, []),
                 "--output-file", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"}
    assert err["error"] in ("FileNotFoundError", "IsADirectoryError")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_parser_gives_the_full_config(command):
    full, _ = cli.build_parser().parse_known_args([command, *SU3])
    alone, unread = cli._parse([command, *SU3])
    assert unread == []
    assert vars(alone) == vars(full)
    assert {"command", "group", "n", "weights", "z", "grid", "seed", "tol",
            "order"} <= set(vars(alone))


@pytest.mark.parametrize("flag", cli.FLAGS)
def test_flag_value_dash_dash_is_a_usage_error(capsys, flag):
    # argparse drops a value '--' and handed the command an empty list: a
    # traceback (exit 1) on most flags, and --seed, --out and --output-file
    # exited 0 with the list as the value (the report went to stdout)
    _, readers = cli.FLAGS[flag]
    command = next(iter(readers))
    given = dict(zip(SU3[::2], SU3[1::2]))
    given[flag] = "--"
    code = main([command, *(f"{f}={v}" for f, v in given.items())])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": f"argument {flag}: expected one argument"}


@pytest.mark.parametrize("argv,code,error", [
    (["classify", "--group", "so", "--n", "3", "--weights", "1e308"], 2,
     "ValueError"),
    (["classify", "--group", "sp", "--n", "2", "--weights",
      "1.7e308,1.7e308"], 2, "ValueError"),
    (["potential", "--group", "su", "--n", "4", "--weights",
      "1e308,1e308,1e308", "--z=0.5,0;0,0;0,0;0,0;0,0;0,0"], 3,
     "NumericalBreakdown"),
])
def test_overflowing_weights_write_no_report(argv, code, error):
    # the reports held Infinity or NaN, which is not JSON, and exited 0
    proc = _script(argv)
    assert proc.returncode == code and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "su", "--n", "4", "--weights", "1e308,1e308,1e308",
     "--points", "2", "--order", "8"],
    ["verify", "--group", "so", "--n", "3", "--weights", "1e308",
     "--points", "2", "--order", "8"],
])
def test_verify_residual_that_is_not_finite_exits_3(argv):
    # the potential overflows: the covariance residual was nan, and the
    # report wrote "residual":NaN, which is not JSON, with exit 1
    proc = _script(argv)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "NumericalBreakdown"
    assert "potential_covariance" in err["message"]
