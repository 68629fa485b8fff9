"""Command-line interface.

Subcommands: classify, decompose, dress, potential, metric, betti, pairing,
verify. Reports are canonical JSON objects {config, results, residuals,
pass}; grids can be written as CSV. Complex numbers are entered as "re,im"
pairs separated by ';'; grids as "re0:re1:steps,im0:im1:steps" per
coordinate (or a constant "re,im"), also separated by ';'.

``FLAGS`` declares every flag and its readers. A well-formed request is
read from that table alone (``_table``); argparse, built when first needed,
parses the rest (help, abbreviations, unknown or repeated flags, bad
values) for its own usage messages.

Exit codes: 0 ok, 1 verification failure, 2 invalid configuration (an
unwritable --output-file included), 3 domain error while evaluating a
valid request, a JSON report holding NaN or Infinity included; 2 and 3
write a JSON error to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import warnings
from functools import lru_cache, partial
from math import isfinite

import numpy as np

from . import cohomology, decompose, kahler, orbit
from ._linalg import iwasawa_nak
from .checks import (anti_hermitian_residual, haar_batch, haar_width,
                     iwasawa_residuals, normal_coords, random_chart,
                     spectral_mismatch)
from .errors import (AllWeightsZero, DegeneracyViolation,
                     MaximalDegenerate, NumericalBreakdown, OutsideCell,
                     PoleOnChart, QuadratureNotConverged, UnsupportedGroup,
                     ZeroTorusEntry)
from .groups import build_group, classify_initial_point, initial_point, \
    poincare_polynomial, reject_zero_orbit

CONFIG_ERRORS = (UnsupportedGroup, AllWeightsZero, ValueError)
DOMAIN_ERRORS = (DegeneracyViolation, PoleOnChart, OutsideCell, ZeroTorusEntry,
                 NumericalBreakdown, MaximalDegenerate, QuadratureNotConverged)
# rows a --grid chunk has at least. On two x86-64 CPUs, splitting a
# potential grid in two paid from about 6,500 rows and not reliably at
# 4,096 or fewer; a 625-row dress grid ran 23% slower split
MIN_ROWS = 4096


def _parse_grid(text: str):
    """Per-coordinate axis specs: 'a:b:steps,c:d:steps' or constant 're,im'."""
    axes = []
    for part in text.split(";"):
        fields = part.split(",")
        if len(fields) != 2:
            raise ValueError(f"bad grid component {part!r}")
        vals = []
        for f in fields:
            if ":" in f:
                a, b, s = f.split(":")
                if int(s) < 1:
                    raise ValueError(f"grid component {part!r} needs at "
                                     f"least 1 step, got {s}")
                vals.append(np.linspace(float(a), float(b), int(s)))
            else:
                vals.append(np.array([float(f)]))
        axes.append((vals[0], vals[1]))
    return axes


def _grid_points(axes):
    """The grid lattice (*counts, m), coordinate k along axis k, and its
    points as rows (N, m).

    ``counts[k]`` is coordinate k's re steps times its im steps; the rows
    run through the lattice in C order. Each coordinate's values are one
    table ``re + 1j * im``, re outer, computed once and broadcast along the
    other axes: the elementwise expression of a point-by-point build, so
    every bit (signed zeros, nan parts) is the same.
    """
    m = len(axes)
    counts = [re.size * im.size for re, im in axes]
    lattice = np.empty(counts + [m], dtype=complex)
    for k, (re, im) in enumerate(axes):
        table = re[:, None] + 1j * im[None, :]
        lattice[..., k] = table.reshape([1] * k + [-1] + [1] * (m - 1 - k))
    return lattice, lattice.reshape(-1, m)


def _cpus() -> int:
    """The CPUs this process may run on (``taskset`` narrows them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


def _in_chunks(columns, pts) -> dict:
    """``columns(pts)``, a dict of (N,) arrays, evaluated in row chunks.

    The rows split into contiguous chunks in C order, one per CPU and at
    least MIN_ROWS rows each. The caller evaluates the first chunk and
    short-lived threads the others, all under the caller's numpy error
    state (a new thread starts with the default one), and every thread is
    joined before this returns. Every grid row is computed on its own, so
    the concatenated columns are those of one call over all rows, bit for
    bit.
    If a chunk raises, the whole lattice is evaluated in one call, which
    raises what a one-chunk run raises.
    """
    count = min(_cpus(), len(pts) // MIN_ROWS)
    if count <= 1:
        return columns(pts)
    chunks = np.array_split(pts, count)
    out = [None] * count
    state = dict(np.geterr(), call=np.geterrcall())

    def work(i):
        try:
            with np.errstate(**state):
                out[i] = columns(chunks[i])
        except Exception as exc:
            out[i] = exc

    threads = []
    try:
        for i in range(1, count):
            t = threading.Thread(target=work, args=(i,))
            t.start()
            threads.append(t)
        work(0)
    finally:
        for t in threads:
            t.join()
    if any(isinstance(r, Exception) for r in out):
        return columns(pts)
    return {key: np.concatenate([r[key] for r in out]) for key in out[0]}


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m):
    return [[_c(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _check(args, name, value, default):
    """A check against ``--tol`` when given, 0 included, else ``default``.

    Raises NumericalBreakdown, naming the residual, where it is not finite.
    """
    value = float(value)
    if not isfinite(value):
        raise NumericalBreakdown(f"the {name} residual is not finite")
    tol = default if args.tol is None else args.tol
    return {"name": name, "residual": value, "tol": float(tol),
            "pass": value < tol}


def _tolerance(text: str) -> float:
    """The ``--tol`` converter: a finite number, 0 or more."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return value


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"--{flag} needs at least 1, got {value}")
    return value


def _get_point(args, spec):
    return initial_point(spec, [float(x) for x in args.weights.split(",")])


def _get_chart(args, spec, point):
    if args.z is None:
        return random_chart(spec, np.random.default_rng(args.seed),
                            point=point)
    pairs = [pair.split(",") for pair in args.z.split(";")]
    return decompose.chart_point(
        spec, tuple(complex(float(re), float(im)) for re, im in pairs))


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args, spec, point, report):
    cls = classify_initial_point(spec, point)
    bv = cohomology.betti(spec, point)
    res = {
        "kind": cls.kind.value,
        "vanishing_walls": list(cls.vanishing_walls),
        "real_dimension": cls.real_dimension,
        "stabilizer": cls.stabilizer,
        "betti": list(bv.b),
        "betti_total": bv.total,
    }
    flags, ratios = kahler.integrality_check(spec, point)
    res["integrality"] = {"flags": list(flags), "ratios": list(ratios)}
    try:
        fib = orbit.fibration(spec, point)
        res["fibration"] = {"total": [fib.total.label, fib.total.real_dimension],
                            "base": [fib.base.label, fib.base.real_dimension],
                            "fiber": [fib.fiber.label, fib.fiber.real_dimension]}
    except MaximalDegenerate:
        res["fibration"] = "maximal degenerate: none"
    report["results"].append(res)
    return 0


def cmd_decompose(args, spec, point, report):
    chart = _get_chart(args, spec, point)
    fac = decompose.iwasawa(spec, chart)
    res_mb, res_un = iwasawa_residuals(spec, chart.array(), fac)
    report["results"].append({
        "z": [_c(v) for v in chart.coords],
        "a_parameters": [float(x) for x in fac.a_parameters],
        "n": _matrix(fac.n),
        "k": _matrix(fac.k),
    })
    report["residuals"] += [_check(args, "multiply_back", res_mb, 1e-10),
                            _check(args, "unitarity", res_un, 1e-10)]
    return 0


def _dress_columns(spec, point, pts) -> dict:
    # one factorization gives mu (from k) and phi (from the A-diagonal)
    mu, d = orbit._dress(spec, point, pts)
    if (spec.family, spec.n) == ("su", 3):
        gm = orbit.gell_mann_coordinates(mu)
        cols = {f"mu_{a + 1}": gm[:, a] for a in range(8)}
    else:
        # upper triangle of the hermitian i mu in the working basis
        h = 1j * mu
        cols = {}
        for r, c in zip(*np.triu_indices(h.shape[-1])):
            cols[f"h_{r + 1}{c + 1}_re"] = h[:, r, c].real
            cols[f"h_{r + 1}{c + 1}_im"] = h[:, r, c].imag
    cols["phi"] = spec.fold(spec.log_a_from_tail(d), point.weights)
    return cols


def _potential_columns(spec, point, pts) -> dict:
    return {"phi": kahler.potential_batch(spec, point, pts)}


def _metric_columns(spec, point, pts) -> dict:
    gs = kahler.metric_batch(spec, point, pts)
    m = gs.shape[1]
    # g_<a><b> is unambiguous up to m = 10; beyond, g_111 could be (1, 11)
    # or (11, 1)
    sep = "_" if m > 10 else ""
    cols = {}
    for a in range(m):
        for b in range(m):
            cols[f"g_{a + 1}{sep}{b + 1}_re"] = gs[:, a, b].real
            cols[f"g_{a + 1}{sep}{b + 1}_im"] = gs[:, a, b].imag
    return cols


# the commands that write a --grid, and the columns each writes per row
GRID_COLUMNS = {"dress": _dress_columns, "potential": _potential_columns,
                "metric": _metric_columns}


def _grid(args, spec, point, report) -> int:
    """A ``--grid`` report: the command's columns, in ``_in_chunks``."""
    columns = partial(GRID_COLUMNS[args.command], spec, point)
    lattice, pts = _grid_points(_parse_grid(args.grid))
    report["grid"] = (lattice, _in_chunks(columns, pts))
    report["results"].append({"grid_points": int(pts.shape[0])})
    return 0


def cmd_dress(args, spec, point, report):
    chart = _get_chart(args, spec, point)
    op = orbit.dress(spec, point, chart)
    if not np.isfinite(op.mu_matrix).all():
        raise NumericalBreakdown("the dressed point is not finite")
    spectrum = spectral_mismatch(op.spectrum(), point.split_diagonal)
    res = {"z": [_c(v) for v in chart.coords],
           "mu_matrix": _matrix(op.mu_matrix)}
    if op.coords:
        res["mu"] = [float(x) for x in op.coords]
        closed = orbit.su3_closed_form(point, chart)
        report["residuals"].append(_check(
            args, "closed_form", np.max(np.abs(np.array(op.coords) - closed)),
            1e-10))
    report["residuals"] += [
        _check(args, "isospectrality", spectrum, 1e-10),
        _check(args, "anti_hermitian", anti_hermitian_residual(op.mu_matrix),
               1e-10)]
    report["results"].append(res)
    return 0


def cmd_potential(args, spec, point, report):
    chart = _get_chart(args, spec, point)
    val = kahler.potential(spec, point, chart)
    report["results"].append({"z": [_c(v) for v in chart.coords],
                              "phi": float(val)})
    return 0


def cmd_metric(args, spec, point, report):
    chart = _get_chart(args, spec, point)
    kt = kahler.metric(spec, point, chart)
    herm = float(np.max(np.abs(kt.g - kt.g.conj().T)))
    eig = kt.eigenvalues()
    report["results"].append({
        "z": [_c(v) for v in chart.coords],
        "active_coordinates": list(kt.active_labels),
        "g": _matrix(kt.g),
        "eigenvalues": [float(x) for x in eig],
    })
    report["residuals"] += [
        _check(args, "hermitian", herm, 1e-9),
        {"name": "positivity", "residual": float(eig.min()), "tol": -1e-9,
         "pass": bool(eig.min() > -1e-9)}]
    return 0


def cmd_betti(args, spec, point, report):
    bv = cohomology.betti(spec, point)
    lh = cohomology.leray_hirsch(spec, point)
    report["results"].append({
        "betti": list(bv.b),
        "total": bv.total,
        "weyl_order": spec.weyl_order,
        "leray_hirsch": {"ok": lh.ok, "total": list(lh.total),
                         "base": list(lh.base), "fiber": list(lh.fiber),
                         "note": lh.note},
    })
    if not lh.ok:
        report["pass"] = False
        return 1
    return 0


def cmd_pairing(args, spec, point, report):
    order = _at_least_one("order", args.order)
    m = cohomology.pairing_matrix(spec, order=order)
    dev = float(np.max(np.abs(m - np.eye(m.shape[0]))))
    report["results"].append({
        "matrix": [[float(x) for x in row] for row in m],
        "order": order,
        "normalization": "omega_j = (i/2pi) ddbar Phi_j",
    })
    report["residuals"].append(_check(args, "identity", dev, 1e-6))
    return 0


def cmd_verify(args, spec, point, report):
    npts = _at_least_one("points", args.points)
    order = _at_least_one("order", args.order)
    reject_zero_orbit(point)
    rng = np.random.default_rng(args.seed)
    checks = []
    dim2 = 2 * spec.chart_dim

    def check(name, residuals, default):
        checks.append(_check(args, name, np.max(residuals, initial=0.0),
                             default))

    coords = normal_coords(spec, rng.standard_normal((npts, dim2)), point)
    # one factorization serves the residuals and the dressed points, which
    # take the split-basis k as dress does
    n, d, k = iwasawa_nak(spec.chart_split(coords))
    res_mb, res_un = iwasawa_residuals(
        spec, coords, decompose._working_factors(spec, n, d, k))
    mu = orbit._action(point, k)
    check("iwasawa_multiply_back", res_mb, 1e-10)
    check("compactness_kk*", res_un, 1e-10)
    check("isospectrality",
          spectral_mismatch(spec.spectrum(mu), point.split_diagonal), 1e-10)
    # the spectrum reads the lower triangle of each mu; this reads the rest
    check("anti_hermitian", anti_hermitian_residual(mu), 1e-10)

    # one row per point, the chart and then g: the stream of per-point draws
    draws = rng.standard_normal((npts, dim2 + haar_width(spec)))
    coords = normal_coords(spec, draws[:, :dim2], point)
    if (spec.family, spec.n) == ("su", 3):
        gm = orbit.gell_mann_coordinates(orbit.dress_batch(spec, point, coords))
        check("su3_closed_form",
              np.abs(gm - orbit.su3_closed_form_batch(point, coords)), 1e-10)
    moved, shift, in_cell = kahler.cocycle_shift_batch(
        spec, point, coords, haar_batch(spec, draws[:, dim2:]))
    # rows do not depend on their batch: one call for both ends
    phi_g, phi = np.split(kahler.potential_batch(
        spec, point, np.concatenate([moved[in_cell], coords[in_cell]])), 2)
    check("potential_covariance", np.abs(phi_g - phi - shift[in_cell]), 1e-8)

    bv = cohomology.betti(spec, point)
    # the Betti total from Kostant's degrees against |W| / |W_J|, |W| closed
    expected = spec.weyl_order // sum(poincare_polynomial(spec, point.walls))
    checks.append({"name": "betti_sum", "residual": abs(bv.total - expected),
                   "tol": 0, "pass": bv.total == expected})

    m = cohomology.pairing_matrix(spec, order=order)
    check("pairing_identity", np.abs(m - np.eye(m.shape[0])), 1e-6)

    report["results"] = checks
    report["pass"] = all(c["pass"] for c in checks)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------


def _grid_csv(lattice, columns: dict) -> str:
    """CSV of the grid points and one column per entry, rows in C order.

    ``lattice`` has shape (*counts, m): coordinate k varies along lattice
    axis k only, except that the last axis carries every remaining
    coordinate (so a flat (N, m) array is a one-axis lattice). Every field
    of a row is a token of one text table, and the body is that table
    gathered by one (N, tokens per row) index matrix and joined once:

    - one outer prefix per step of the outer axes (all but the last): the
      coordinates they carry, after the row's newline;
    - one text per step of the last axis: its coordinates, after a comma
      (or the newline of a one-axis lattice) and, when there are value
      columns, before the comma that opens the first value;
    - one text per distinct value, shared by every entry that holds it:
      "-" (never on a nan) before the repr of its magnitude;
    - one comma, between each two values of a row.

    So the header ends without a newline, and a grid without value columns
    ends no row with a comma. Each distinct coordinate is formatted once,
    from its value in the lattice (so a signed zero prints as stored), and
    so is each distinct magnitude; no text is built per row. The bytes are
    those of a row-by-row repr writer.
    """
    m = lattice.shape[-1]
    depth = lattice.ndim - 1
    header = [f"z{k + 1}_{part}" for k in range(m) for part in ("re", "im")]
    parts = lattice.view(float)     # coordinate k: re, im at 2k, 2k + 1

    def texts(axis, sep, end=""):
        # the coordinates this axis carries, one text per lattice step
        at = (0,) * axis + (slice(None),) + (0,) * (depth - 1 - axis)
        stop = axis + 1 if axis < depth - 1 else m
        coords = parts[at + (slice(2 * axis, 2 * stop),)].tolist()
        return [sep + ",".join(map(repr, v)) + end for v in coords]

    prefixes = [""]
    for axis in range(depth - 1):
        steps = texts(axis, "," if axis else "\n")
        prefixes = [p + t for p in prefixes for t in steps]
    last = texts(depth - 1, "," if depth > 1 else "\n",
                 "," if columns else "")
    block = np.array(list(columns.values()), dtype=float)
    keys, inverse = np.unique(block.view(np.int64).ravel(),
                              return_inverse=True)
    # repr(-x) is "-" + repr(x) for every float but nan: one repr a
    # magnitude once a key has its sign bit set (the int64 keys sort first)
    values, back = keys.view(float), slice(None)
    if keys.size and keys[0] < 0:
        values, back = np.unique(np.abs(values), return_inverse=True)
    texts = np.array(list(map(repr, values.tolist())), dtype=object)[back]
    minus = (keys < 0) & ~np.isnan(keys.view(float))
    texts[minus] = "-" + texts[minus]
    # the values first, so a value's token index is its inverse entry; a
    # comma token between values costs less than a comma on every distinct
    # value, which is a second string per value
    table = np.array(texts.tolist() + prefixes + last + [","], dtype=object)
    outer, inner = len(prefixes), len(last)
    first, comma = len(keys), len(table) - 1
    # per row: prefix, last-axis text, then value, comma, ..., value
    index = np.empty((outer, inner, 2 + max(2 * len(columns) - 1, 0)),
                     dtype=np.intp)
    index[..., 0] = np.arange(first, first + outer)[:, None]
    index[..., 1] = np.arange(first + outer, comma)
    index[..., 2::2] = inverse.reshape(len(columns), outer,
                                       inner).transpose(1, 2, 0)
    index[..., 3::2] = comma
    return (",".join(header + list(columns))
            + "".join(table[index].ravel().tolist()) + "\n")


COMMANDS = {
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "dress": cmd_dress,
    "potential": cmd_potential,
    "metric": cmd_metric,
    "betti": cmd_betti,
    "pairing": cmd_pairing,
    "verify": cmd_verify,
}


# each flag: its argparse keywords and the commands that read it, in help's
# order; ``_table`` and argparse both read these declarations
FLAGS = {
    "--group": (dict(required=True, choices=["su", "sp", "so"]), COMMANDS),
    "--n": (dict(required=True, type=int), COMMANDS),
    "--weights": (dict(required=True,
                       help="comma-separated chamber weights, e.g. 1,1"),
                  COMMANDS),
    "--z": (dict(help="chart coordinates as re,im pairs joined by ';'"),
            ("decompose", *GRID_COLUMNS)),
    "--grid": (dict(help="per-coordinate grid re0:re1:steps,im0:im1:steps "
                         "joined by ';'"), tuple(GRID_COLUMNS)),
    "--seed": (dict(type=int, default=0),
               ("decompose", *GRID_COLUMNS, "verify")),
    "--tol": (dict(type=_tolerance),
              ("decompose", "dress", "metric", "pairing", "verify")),
    "--order": (dict(type=int, default=128,
                     help="quadrature rule size for pairing integrals"),
                ("pairing", "verify")),
    "--points": (dict(type=int, default=100,
                      help="number of random points in verify"), ("verify",)),
    "--out": (dict(choices=["json", "csv"], default="json"),
              tuple(GRID_COLUMNS)),
    "--output-file": (dict(default=None), COMMANDS),
}
REQUIRED = {flag for flag, (kw, _) in FLAGS.items() if kw.get("required")}
# a grid command takes one point or one lattice
POINT_FLAGS = {"--z", "--grid"}
# every config key, read by the command or not, and its default
DEFAULTS = {flag[2:].replace("-", "_"): kw.get("default")
            for flag, (kw, _) in FLAGS.items()}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError: main reports them as JSON, exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """The two-level parser: per command, its flags and every default."""
    p = _Parser(
        prog="coadjoint",
        description="Coadjoint orbits of compact classical groups: "
                    "decompositions, dressing, Kahler data, cohomology.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # no prefix match: --out must not read as --output-file
        q = sub.add_parser(name, allow_abbrev=False)
        q.set_defaults(command=name, **DEFAULTS)
        point = q.add_mutually_exclusive_group() if name in GRID_COLUMNS else q
        for flag, (kw, readers) in FLAGS.items():
            if name in readers:
                (point if flag in POINT_FLAGS else q).add_argument(flag, **kw)
    return p


def _table(argv):
    """The namespace argparse gives a well-formed request, or None. Well
    formed: a command, then each flag it reads at most once, as ``--flag
    value`` (value not opening with '-') or ``--flag=value``, no value '--'
    (argparse drops it); the required flags, not both ``POINT_FLAGS``, and
    every value converted by its ``type`` and among its ``choices``."""
    if not (argv and all(isinstance(a, str) for a in argv)
            and argv[0] in COMMANDS):
        return None
    command, given = argv[0], set()
    args = dict(DEFAULTS, command=command)
    tokens = iter(argv[1:])
    for token in tokens:
        flag, joined, text = token.partition("=")
        if not joined:
            text = next(tokens, "-")
        kw, readers = FLAGS.get(flag, (None, ()))
        if (command not in readers or flag in given or text == "--"
                or not joined and text.startswith("-")):
            return None
        try:
            value = kw.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in kw.get("choices", [value]):
            return None
        given.add(flag)
        args[flag[2:].replace("-", "_")] = value
    if not REQUIRED <= given or POINT_FLAGS <= given:
        return None
    namespace = argparse.Namespace()
    vars(namespace).update(args)
    return namespace


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, once per process: parsing leaves it unchanged."""
    return build_parser()


def _parse(argv) -> tuple:
    """The two-level parser's ``parse_known_args``: ``_table``'s namespace
    for a well-formed request, else the parser's, built when first needed."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _table(argv)
    if args is not None:
        return args, []
    return _parser().parse_known_args(argv)


def _error(exc, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                     sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one request, ``argv`` or the process's arguments; return its
    exit code. ``_parse`` reads it, from the flag table when it is well
    formed. The parser is kept per process; the tables of walls and
    polynomials a report reads are kept on its group and freed with it
    (README, *Command line*)."""
    try:
        args, unread = _parse(argv)
        # argparse drops a value '--' and hands the command a list
        listed = [k for k, v in vars(args).items() if isinstance(v, list)]
        if listed:
            raise ValueError(f"argument --{listed[0].replace('_', '-')}: "
                             "expected one argument")
        if unread:
            raise ValueError(f"{unread[0].split('=', 1)[0]} is not read by "
                             f"{args.command}")
        config = ("command", "group", "n", "weights", "z", "grid", "seed",
                  "tol", "order")
        report = {"config": {key: getattr(args, key) for key in config},
                  "results": [], "residuals": [], "pass": True}
        spec = build_group(args.group, args.n)
        if args.out == "csv" and args.grid is None:
            raise ValueError("--out csv writes a grid: it needs --grid")
        point = _get_point(args, spec)
        code = (COMMANDS[args.command] if args.grid is None
                else _grid)(args, spec, point, report)
    except CONFIG_ERRORS + DOMAIN_ERRORS as exc:
        return _error(exc, 2 if isinstance(exc, CONFIG_ERRORS) else 3)
    checks = report["residuals"]
    report["residuals"] = {c["name"]: c for c in checks}
    report["pass"] = report["pass"] and all(c["pass"] for c in checks)
    if not report["pass"] and code == 0:
        code = 1
    grid = report.pop("grid", None)
    if args.out == "csv":               # a grid: main checked it is given
        payload = _grid_csv(*grid)
    else:
        if grid is not None:
            report["csv_rows"] = grid[0].size // grid[0].shape[-1]
        try:                                # NaN and Infinity are not JSON
            payload = json.dumps(report, sort_keys=True, allow_nan=False,
                                 separators=(",", ":")) + "\n"
        except ValueError:
            return _error(NumericalBreakdown("a report value is not finite"),
                          3)
    if not args.output_file:
        sys.stdout.write(payload)
        return code
    try:
        with open(args.output_file, "w") as fh:
            fh.write(payload)
    except (OSError, ValueError) as exc:    # a file that cannot be written
        return _error(exc, 2)
    return code


def script() -> int:
    """``main`` as a script: warnings print after an exit of 0 or 1 only,
    so that an exit of 2 or 3 writes its one JSON line alone to stderr."""
    with warnings.catch_warnings(record=True) as held:
        code = main()
    for w in held if code < 2 else ():
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return code


if __name__ == "__main__":
    sys.exit(script())
