"""The three workloads: inputs from a seed, the timed calls, output checks.

Each workload is a fixed cycle of operations (a *round*); round ``r`` of
seed ``s`` always has the same inputs. An operation is one user request,
a CLI report through ``coadjoint.cli.main`` or one library call made
through the package attribute (so that a traced pass sees it), and is
timed on its own. Its output is checked afterwards, outside the timing.
A check lists the problems it finds; each failed *unit* of work (a grid
row, a library call, a report) counts once against ``ok_ratio``. Checks
use the tolerances the CLI itself reports: 1e-10 for factor and dress
residuals, 1e-9 for metric hermiticity and positivity, and 1e-8 for
covariance and chart transitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from collections import namedtuple

import numpy as np

import coadjoint
from coadjoint import (build_group, chart_point, cli, initial_point, potential,
                       su3_closed_form)
from coadjoint.orbit import required_zero_mask
from coadjoint.quaternion import QuaternionMatrix

DRESS_TOL = 1e-10
METRIC_TOL = 1e-9
COVARIANCE_TOL = 1e-8
# where a Haar g carries a random chart point out to |z| >= FAR_Z (7 of
# 24800 shifts over 40 seeds), the seed commit's covariance loses digits:
# a miss up to FAR_COVARIANCE there is the known far-covariance defect
FAR_Z = 1e2
FAR_COVARIANCE = 1e-6

# Failures that the seed commit already shows. They count against
# ``ok_ratio`` like any other; a failure outside this list, or one of these
# grown past its Known limit, is unexpected: it counts in ``failed`` and
# makes the run incorrect.
KNOWN_DEFECTS = {
    "sp-metric-indefinite": "Sp(n) metric has negative eigenvalues "
                            "(ROADMAP item 3)",
    "sp-covariance": "Sp(n) potential is not covariant under the cocycle "
                     "(ROADMAP item 3)",
    "far-slice": "Gram/Cholesky Iwasawa and finite-difference metric break "
                 "down at |z| ~ 1e2 (ROADMAP items 2 and 4)",
    "far-covariance": "cocycle covariance misses by more than 1e-8 where a "
                      "chart point reaches |z| ~ 1e2: the tolerance does not "
                      "scale with the input (ROADMAP item 3)",
    "transition-sign": "a transition and its reversed word return the "
                       "start point up to coordinate signs: the Weyl "
                       "representative of w^-1 is not that of w inverted "
                       "(ROADMAP item 5, Weyl elements)",
}


# One problem a check found. ``defect`` names an entry of KNOWN_DEFECTS or
# is None; ``rows`` masks the grid rows it concerns, None for the whole
# request.
Problem = namedtuple("Problem", "text defect rows", defaults=(None,))


class Known:
    """How far a known defect reaches on one fixed grid at the seed commit.

    One check of the grid may fail on at most ``rows`` rows, by at most
    ``size`` (twice the seed commit's worst value, for rounding changes).
    A failure beyond either limit is a new one, not the known defect.
    """

    __slots__ = ("defect", "rows", "size")

    def __init__(self, defect, rows, size):
        self.defect = defect
        self.rows = rows
        self.size = size


def _row_problem(what, bad, worst, known):
    """A check that failed on the rows ``bad``; ``worst`` is its worst value."""
    n = int(np.sum(bad))
    text = f"{what} on {n}/{len(bad)} rows, worst {worst:.3g}"
    if known is None:
        return Problem(text, None, bad)
    if n <= known.rows and abs(worst) <= known.size:
        return Problem(text, known.defect, bad)
    return Problem(f"{text}: beyond known {known.defect} ({known.rows} rows, "
                   f"size {known.size:g})", None, bad)


class Op:
    """One request: ``call()`` is timed, ``check(result)`` lists problems.

    ``check`` returns a list of Problem. ``units`` is the work the request
    does in the unit of its metric (grid rows, points, library calls).
    """

    __slots__ = ("kind", "label", "call", "check", "units", "digest")

    def __init__(self, kind, label, call, check, units, digest):
        self.kind = kind
        self.label = label
        self.call = call
        self.check = check
        self.units = units
        self.digest = digest


def derive_rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind, label, argv, check, units):
    return Op(kind, label, lambda: run_cli(argv), check, units,
              " ".join(argv).encode())


def _exit_problems(result):
    code, _, err = result
    if code != 0:
        return [Problem(f"exit {code}: {err.strip()[:120]}", None)]
    return []


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data.reshape(len(lines) - 1, len(header))


def grid_size(spec):
    """Row count of a ``--grid`` lattice, worked out from the spec."""
    size = 1
    for part in spec.split(";"):
        for axis in part.split(","):
            size *= int(axis.split(":")[2]) if ":" in axis else 1
    return size


def _lattice(steps, ncoords, const=()):
    axis = f"-1.5:1.5:{steps},-1.5:1.5:{steps}"
    return ";".join([axis] * ncoords + list(const))


def random_chart(spec, point, rng):
    fam = spec.adapter
    z = rng.standard_normal(fam.chart_dim) + 1j * rng.standard_normal(fam.chart_dim)
    if fam.family == "sp":
        z[fam.n * (fam.n - 1):] = 0.0     # native quaternionic chart
    z[required_zero_mask(spec, point)] = 0.0
    return chart_point(spec, z)


def generic_weights(rank):
    return tuple(float(k + 1) for k in range(rank))


def wall_weights(rank):
    return tuple(1.0 if k % 2 == 0 else 0.0 for k in range(rank))


def _weights_arg(weights):
    return ",".join(f"{w:g}" for w in weights)


# ---------------------------------------------------------------------------
# verify-mix

VERIFY_MIX = (("su", 3, "1,2"), ("su", 3, "1,0"), ("sp", 2, "1,1"),
              ("so", 4, "1,1"), ("su", 4, "1,0,1"))
# a probe round runs the mix with few points and a coarse quadrature rule
VERIFY_SMALL = ["--points", "10", "--order", "16"]


def _check_verify(result):
    problems = _exit_problems(result)
    if problems:
        return problems
    report = json.loads(result[1])
    bad = [c["name"] for c in report["results"] if not c["pass"]]
    if not report["pass"] or bad:
        return [Problem(f"verify checks failed: {bad}", None)]
    return []


def verify_round(seed, r, small=False):
    ops = []
    for i, (fam, n, weights) in enumerate(VERIFY_MIX):
        vseed = int(derive_rng(seed, 1, r, i).integers(2 ** 31))
        argv = ["verify", "--group", fam, "--n", str(n), "--weights", weights,
                "--seed", str(vseed)] + (VERIFY_SMALL if small else [])
        ops.append(_cli_op("verify", f"verify {fam}{n} {weights}", argv,
                           _check_verify, 1))
    return ops


# ---------------------------------------------------------------------------
# chart-sweep

# lattices for a timed round and, smaller, for a probe round; the far
# slice puts every coordinate at Re z in {99, 101} (and Im z in {-1, 1}).
# "known" gives the reach of each known defect on these fixed grids, as
# the seed commit shows it (worst values in brackets)
GRIDS = {
    False: {
        "dress": _lattice(5, 1) + ";0.5,-0.25;" + _lattice(5, 1),
        "far": ";".join(["99:101:2,-1:1:2"] * 3),
        "potential": (("su", 3, "1,2", _lattice(5, 3)),
                      ("sp", 2, "1,2", _lattice(4, 2) + ";" + _lattice(3, 2)),
                      ("so", 4, "1,2", _lattice(11, 2))),
        "metric": (("su", 3, "1,2", _lattice(3, 2, ["0.5,-0.25"])),
                   ("sp", 2, "1,2", _lattice(3, 2, ["0,0", "0,0"])),
                   ("so", 4, "1,2", _lattice(3, 2))),
        "dress_points": 150,
        "known": {
            "far-casimir": Known("far-slice", 64, 4e-7),      # 64/64 (1.84e-7)
            "far-closed-form": Known("far-slice", 64, 8e-8),  # 64/64 (3.99e-8)
            "far-metric": Known("far-slice", 38, 9.0),        # 38/64 (-4.48)
            "sp-metric": Known("sp-metric-indefinite", 72, 0.9),  # 72/81 (-0.454)
        },
    },
    True: {
        "dress": _lattice(2, 1) + ";0.5,-0.25;" + _lattice(2, 1),
        "far": ";".join(["99:101:2,0"] * 3),
        "potential": (("su", 3, "1,2", _lattice(2, 3)),
                      ("sp", 2, "1,2", _lattice(2, 4)),
                      ("so", 4, "1,2", _lattice(4, 2))),
        "metric": (("su", 3, "1,2", _lattice(2, 1, ["0.5,-0.25", "0.3,0.2"])),
                   ("sp", 2, "1,2", _lattice(2, 1, ["0.3,0.2", "0,0", "0,0"])),
                   ("so", 4, "1,2", _lattice(2, 2))),
        "dress_points": 20,
        "known": {
            "far-casimir": Known("far-slice", 8, 2e-7),       # 8/8 (9.66e-8)
            "far-closed-form": Known("far-slice", 8, 4e-8),   # 8/8 (2.09e-8)
            "far-metric": Known("far-slice", 7, 7.0),         # 7/8 (-3.36)
            "sp-metric": Known("sp-metric-indefinite", 4, 0.05),  # 4/4 (-0.0249)
        },
    },
}
LIBRARY_DRESS = (("sp", 2), ("sp", 3), ("su", 5))

_SU3 = build_group("su", 3)
_SU3_POINT = initial_point(_SU3, (1.0, 2.0))
_SU3_CASIMIR = float(np.sum(su3_closed_form(
    _SU3_POINT, chart_point(_SU3, (0, 0, 0))) ** 2))


def _grid_problems(result, spec):
    problems = _exit_problems(result)
    if problems:
        return problems, None, None
    header, data = parse_csv(result[1])
    if data.shape[0] != grid_size(spec):
        problems.append(Problem(f"{data.shape[0]} rows, lattice has "
                                f"{grid_size(spec)}", None))
    if not np.all(np.isfinite(data)):
        problems.append(Problem("non-finite values", None))
    return problems, header, data


def _check_dress_grid(spec, casimir=None, closed_form=None):
    """Casimir and closed-form checks; ``casimir``/``closed_form`` are Known."""
    def check(result):
        problems, header, data = _grid_problems(result, spec)
        if data is None:
            return problems
        z = data[:, 0:6:2] + 1j * data[:, 1:6:2]
        mu = data[:, [header.index(f"mu_{a}") for a in range(1, 9)]]
        closed = np.array([su3_closed_form(_SU3_POINT, chart_point(_SU3, row))
                           for row in z])
        drift = np.abs(np.sum(mu ** 2, axis=1) - _SU3_CASIMIR)
        miss = np.max(np.abs(mu - closed), axis=1)
        if np.any(drift >= DRESS_TOL):
            problems.append(_row_problem("Casimir drifts", drift >= DRESS_TOL,
                                         drift.max(), casimir))
        if np.any(miss >= DRESS_TOL):
            problems.append(_row_problem("closed form missed",
                                         miss >= DRESS_TOL, miss.max(),
                                         closed_form))
        return problems
    return check


def _check_metric_grid(spec, positivity=None):
    """Hermiticity and positivity checks; ``positivity`` is Known."""
    def check(result):
        problems, header, data = _grid_problems(result, spec)
        if data is None:
            return problems
        m = math.isqrt(sum(1 for h in header if h.startswith("g_")) // 2)
        g = np.empty((data.shape[0], m, m), dtype=complex)
        for a in range(m):
            for b in range(m):
                g[:, a, b] = (data[:, header.index(f"g_{a + 1}{b + 1}_re")]
                              + 1j * data[:, header.index(f"g_{a + 1}{b + 1}_im")])
        gh = np.conj(np.swapaxes(g, 1, 2))
        herm = np.max(np.abs(g - gh), axis=(1, 2))
        low = np.linalg.eigvalsh(0.5 * (g + gh))[:, 0]
        if np.any(herm >= METRIC_TOL):
            problems.append(_row_problem("not hermitian", herm >= METRIC_TOL,
                                         herm.max(), None))
        if np.any(low <= -METRIC_TOL):
            problems.append(_row_problem("not positive", low <= -METRIC_TOL,
                                         low.min(), positivity))
        return problems
    return check


def _check_potential_grid(spec):
    def check(result):
        return _grid_problems(result, spec)[0]
    return check


def _hermitian_spectrum(m):
    """Sorted eigenvalues of i*m for anti-hermitian m (embedded for Sp)."""
    if isinstance(m, QuaternionMatrix):
        m = m.embed()
    m = np.asarray(m, dtype=complex)
    h = 1j * m
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T)), float(
        np.max(np.abs(m + m.conj().T)))


def _check_library_dress(point):
    ref, _ = _hermitian_spectrum(point.matrix_native)

    def check(op_point):
        spec, skew = _hermitian_spectrum(op_point.mu_matrix)
        problems = []
        if skew >= DRESS_TOL:
            problems.append(Problem(f"mu not anti-hermitian: {skew:.2e}", None))
        mismatch = float(np.max(np.abs(spec - ref)))
        if mismatch >= DRESS_TOL:
            problems.append(Problem(f"isospectrality {mismatch:.2e}", None))
        return problems
    return check


def chart_round(seed, r, small=False):
    grids = GRIDS[small]
    known = grids["known"]
    dress_args = ["dress", "--group", "su", "--n", "3", "--weights", "1,2"]
    ops = [_cli_op("dress-grid", "dress su3 grid",
                   dress_args + [f"--grid={grids['dress']}", "--out", "csv"],
                   _check_dress_grid(grids["dress"]),
                   grid_size(grids["dress"])),
           _cli_op("dress-grid", "dress su3 far slice",
                   dress_args + [f"--grid={grids['far']}", "--out", "csv"],
                   _check_dress_grid(grids["far"], known["far-casimir"],
                                     known["far-closed-form"]),
                   grid_size(grids["far"]))]
    for fam, n, weights, grid in grids["potential"]:
        ops.append(_cli_op("potential-grid", f"potential {fam}{n} grid",
                           ["potential", "--group", fam, "--n", str(n),
                            "--weights", weights, f"--grid={grid}", "--out",
                            "csv"],
                           _check_potential_grid(grid), grid_size(grid)))
    for fam, n, weights, grid in grids["metric"] + (("su", 3, "1,2", grids["far"]),):
        far = grid == grids["far"]
        positivity = known["far-metric"] if far else (
            known["sp-metric"] if fam == "sp" else None)
        ops.append(_cli_op("metric-grid",
                           f"metric {fam}{n} {'far slice' if far else 'grid'}",
                           ["metric", "--group", fam, "--n", str(n),
                            "--weights", weights, f"--grid={grid}", "--out",
                            "csv"],
                           _check_metric_grid(grid, positivity), grid_size(grid)))
    for i, (fam, n) in enumerate(LIBRARY_DRESS):
        spec = build_group(fam, n)
        point = initial_point(spec, generic_weights(spec.rank))
        rng = derive_rng(seed, 2, r, i)
        check = _check_library_dress(point)
        for _ in range(grids["dress_points"]):
            chart = random_chart(spec, point, rng)
            ops.append(Op("dress", f"dress {fam}{n}",
                          (lambda s=spec, p=point, c=chart: coadjoint.dress(s, p, c)),
                          check, 1, chart.array().tobytes()))
    return ops


# ---------------------------------------------------------------------------
# topology-charts

LADDER = (("su", 3), ("su", 4), ("su", 5), ("su", 6), ("sp", 2), ("sp", 3),
          ("sp", 4), ("so", 3), ("so", 4))
# a probe round climbs the lowest rung of each family, and SU(5): its betti
# query is the probe's one slow query, so it sets the probe's tail as
# SU(6)'s sets a full round's (without it the tail is whichever of many
# equal queries the host happened to slow)
LADDER_SMALL = (("su", 3), ("su", 5), ("sp", 2), ("so", 3), ("so", 4))


def weyl_order(fam, n):
    return {"su": math.factorial(n), "sp": 2 ** n * math.factorial(n),
            "so": 2 if n == 3 else 4}[fam]


def stabilizer_weyl_order(fam, n, walls):
    """|W_H| of the simple reflections on ``walls``, from the Dynkin diagram.

    Walls split into runs of adjacent nodes: a run of k nodes is A_k,
    order (k+1)!, except that for Sp the run through the last (long) node
    is C_k, order 2^k k!. The two SO(4) nodes are not adjacent.
    """
    if fam == "so":
        return 2 ** len(walls)
    order, run = 1, 0
    last = n - 1 if fam == "sp" else n - 2
    for node in range(last + 1):
        if node in walls:
            run += 1
        if run and (node not in walls or node == last):
            long_run = fam == "sp" and node == last and node in walls
            order *= (2 ** run * math.factorial(run) if long_run
                      else math.factorial(run + 1))
            run = 0
    return order


def _check_topology(command, expected_total, order):
    def check(result):
        problems = _exit_problems(result)
        if problems:
            return problems
        res = json.loads(result[1])["results"][0]
        total = res["betti_total"] if command == "classify" else res["total"]
        if total != expected_total or sum(res["betti"]) != total:
            problems.append(Problem(
                f"betti total {total}, sum {sum(res['betti'])}, "
                f"expected |W|/|W_H| = {expected_total}", None))
        if command == "betti" and res["weyl_order"] != order:
            problems.append(Problem(
                f"|W| = {res['weyl_order']}, expected {order}", None))
        return problems
    return check


def haar(spec, rng):
    """Haar-random element of the compact group in its working realization."""
    n = spec.n
    if spec.family == "sp":
        # QR of the complex image of a quaternionic Gaussian stays in that image
        g = QuaternionMatrix(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q, r = np.linalg.qr(g.embed())
        q = q * np.conj(np.diag(r) / np.abs(np.diag(r)))[None, :]
        return QuaternionMatrix(q[0::2, 0::2], -q[0::2, 1::2])
    if spec.family == "so":
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))[None, :]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q.astype(complex)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return q / np.linalg.det(q) ** (1.0 / n)


def _check_round_trip(start):
    def check(result):
        there, back = result
        z, z0 = back.array(), start.array()
        miss = float(np.max(np.abs(z - z0)))
        if miss < COVARIANCE_TOL and back.chart == ():
            return []
        # the known defect flips whole coordinates: each one returns as +z or -z
        signs_only = back.chart == () and bool(np.all(
            np.minimum(np.abs(z - z0), np.abs(z + z0)) < COVARIANCE_TOL))
        return [Problem(f"round trip by {there.chart} misses by {miss:.2e}, "
                        f"chart {back.chart}",
                        "transition-sign" if signs_only else None)]
    return check


def _check_covariance(spec, point, chart):
    def check(result):
        zg, shift = result
        dev = abs(potential(spec, point, zg) - potential(spec, point, chart)
                  - shift)
        if dev < COVARIANCE_TOL:
            return []
        if not np.isfinite(dev):
            return [Problem(f"Phi(z_g) - Phi(z) - shift = {dev}", None)]
        far = max(np.max(np.abs(zg.array())),
                  np.max(np.abs(chart.array()))) >= FAR_Z
        if spec.family == "sp":
            defect = "sp-covariance"
        elif far and dev < FAR_COVARIANCE:
            defect = "far-covariance"
        else:
            defect = None
        return [Problem(f"Phi(z_g) - Phi(z) - shift = {dev:.2e}", defect)]
    return check


def topology_configs(ladder):
    for fam, n in ladder:
        spec = build_group(fam, n)
        yield spec, generic_weights(spec.rank)
        if spec.rank > 1:
            yield spec, wall_weights(spec.rank)


def topology_round(seed, r, small=False):
    ops = []
    for i, (spec, weights) in enumerate(
            topology_configs(LADDER_SMALL if small else LADDER)):
        fam, n = spec.family, spec.n
        walls = {k for k, w in enumerate(weights) if w == 0}
        order = weyl_order(fam, n)
        expected = order // stabilizer_weyl_order(fam, n, walls)
        for command in ("classify", "betti"):
            argv = [command, "--group", fam, "--n", str(n),
                    "--weights", _weights_arg(weights)]
            ops.append(_cli_op(command, f"{command} {fam}{n} "
                               f"{_weights_arg(weights)}", argv,
                               _check_topology(command, expected, order), 1))
        point = initial_point(spec, weights)
        rng = derive_rng(seed, 3, r, i)
        # letters on the walls fix mu0; their transitions have a pole on this
        # orbit's chart, where those coordinates vanish
        letters = [k for k in range(spec.rank) if k not in walls]
        for length in [k for k in range(1, spec.rank + 1) for _ in range(2)]:
            word = tuple(int(k) for k in rng.choice(letters, size=length))
            start = random_chart(spec, point, rng)

            def round_trip(s=spec, w=word, z=start):
                there = coadjoint.chart_transition(s, w, z)
                return there, coadjoint.chart_transition(s, w[::-1], there)
            ops.append(Op("transition", f"transition {spec.name}", round_trip,
                          _check_round_trip(start), 2,
                          repr(word).encode() + start.array().tobytes()))
        chart = random_chart(spec, point, rng)
        g = haar(spec, rng)
        gbytes = g.embed().tobytes() if isinstance(g, QuaternionMatrix) else g.tobytes()
        ops.append(Op("cocycle", f"cocycle {spec.name}",
                      (lambda s=spec, p=point, c=chart, h=g:
                       coadjoint.cocycle_shift(s, p, c, h)),
                      _check_covariance(spec, point, chart), 1,
                      chart.array().tobytes() + gbytes))
    return ops


# round index of the set-up inputs; timed rounds count up from 0
SETUP_ROUND = 2 ** 20

ROUNDS = {"verify-mix": verify_round, "chart-sweep": chart_round,
          "topology-charts": topology_round}


def digest(ops, h=None):
    h = h or hashlib.sha256()
    for op in ops:
        h.update(op.digest)
    return h


def setup_ops(workload, seed):
    """The first request of each kind: what a user pays for once per process."""
    first = {}
    for op in ROUNDS[workload](seed, SETUP_ROUND):
        first.setdefault(op.kind, op)
    return list(first.values())


def run_op(op):
    """Run one request; returns (seconds, result, problems).

    Any exception is a failed request: the loop keeps going and the
    exception is reported as the problem.
    """
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:      # noqa: BLE001 - counted, then reported
        return (time.perf_counter() - t0, None,
                [Problem(f"{type(exc).__name__}: {exc}", None)])
    return time.perf_counter() - t0, result, None
