"""Command-line interface.

Subcommands: classify, decompose, dress, potential, metric, betti, pairing,
verify. Reports are canonical JSON objects {config, results, residuals,
pass}; grids can be written as CSV. Complex numbers are entered as "re,im"
pairs separated by ';'; grids as "re0:re1:steps,im0:im1:steps" per
coordinate (or a constant "re,im"), also separated by ';'.

Exit codes: 0 ok, 1 verification failure, 2 invalid configuration,
3 domain error while evaluating a valid request.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cohomology, decompose, kahler, orbit
from .checks import haar_su, iwasawa_residuals, random_chart, spectral_mismatch
from .errors import (AllWeightsZero, DegeneracyViolation,
                     MaximalDegenerate, NumericalBreakdown, OutsideCell,
                     PoleOnChart, QuadratureNotConverged, UnsupportedGroup,
                     ZeroTorusEntry)
from .groups import build_group, classify_initial_point, initial_point, \
    poincare_polynomial, weyl_group

CONFIG_ERRORS = (UnsupportedGroup, AllWeightsZero, ValueError)
DOMAIN_ERRORS = (DegeneracyViolation, PoleOnChart, OutsideCell, ZeroTorusEntry,
                 NumericalBreakdown, MaximalDegenerate, QuadratureNotConverged)


def _parse_weights(text: str):
    return tuple(float(x) for x in text.split(","))


def _parse_z(text: str):
    out = []
    for pair in text.split(";"):
        re_s, im_s = pair.split(",")
        out.append(complex(float(re_s), float(im_s)))
    return tuple(out)


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
    mesh = np.meshgrid(*[v for ax in axes for v in ax], indexing="ij")
    flat = [m.ravel() for m in mesh]
    pts = np.empty((flat[0].size, len(axes)), dtype=complex)
    for k in range(len(axes)):
        pts[:, k] = flat[2 * k] + 1j * flat[2 * k + 1]
    return pts


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m):
    return [[_c(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _check(name, value, tol):
    return {"name": name, "residual": float(value), "tol": float(tol),
            "pass": bool(value < tol)}


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"--{flag} needs at least 1, got {value}")
    return value


def _get_point(args, spec):
    return initial_point(spec, _parse_weights(args.weights))


def _get_chart(args, spec, point, rng):
    if args.z is not None:
        return decompose.chart_point(spec, _parse_z(args.z))
    return random_chart(spec, rng, point=point)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args, spec, report):
    point = _get_point(args, spec)
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


def cmd_decompose(args, spec, report):
    point = _get_point(args, spec)
    rng = np.random.default_rng(args.seed)
    chart = _get_chart(args, spec, point, rng)
    fac = decompose.iwasawa(spec, chart)
    res_mb, res_un = iwasawa_residuals(spec, chart.array(), fac)
    report["results"].append({
        "z": [_c(v) for v in chart.coords],
        "a_parameters": [float(x) for x in fac.a_parameters],
        "n": _matrix(fac.n),
        "k": _matrix(fac.k),
    })
    report["residuals"]["multiply_back"] = _check("multiply_back", res_mb,
                                                  args.tol or 1e-10)
    report["residuals"]["unitarity"] = _check("unitarity", res_un,
                                              args.tol or 1e-10)
    return 0


def cmd_dress(args, spec, report):
    point = _get_point(args, spec)
    if args.grid:
        pts = _grid_points(_parse_grid(args.grid))
        mu = orbit.dress_batch(spec, point, pts)
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
        cols["phi"] = kahler.potential_batch(spec, point, pts)
        report["results"].append({"grid_points": int(pts.shape[0])})
        report["csv"] = _grid_csv(pts, cols)
        return 0
    rng = np.random.default_rng(args.seed)
    chart = _get_chart(args, spec, point, rng)
    op = orbit.dress(spec, point, chart)
    spectrum = spectral_mismatch(op.spectrum(),
                                 spec.adapter.spectrum(point.matrix))
    res = {"z": [_c(v) for v in chart.coords],
           "mu_matrix": _matrix(op.mu_matrix)}
    if op.coords:
        res["mu"] = [float(x) for x in op.coords]
        closed = orbit.su3_closed_form(point, chart)
        report["residuals"]["closed_form"] = _check(
            "closed_form", float(np.max(np.abs(np.array(op.coords) - closed))),
            args.tol or 1e-10)
    report["residuals"]["isospectrality"] = _check("isospectrality", spectrum,
                                                   args.tol or 1e-10)
    report["results"].append(res)
    return 0


def cmd_potential(args, spec, report):
    point = _get_point(args, spec)
    if args.grid:
        pts = _grid_points(_parse_grid(args.grid))
        vals = kahler.potential_batch(spec, point, pts)
        report["results"].append({"grid_points": int(len(vals))})
        report["csv"] = _grid_csv(pts, {"phi": vals})
        return 0
    rng = np.random.default_rng(args.seed)
    chart = _get_chart(args, spec, point, rng)
    val = kahler.potential(spec, point, chart)
    report["results"].append({"z": [_c(v) for v in chart.coords],
                              "phi": float(val)})
    return 0


def cmd_metric(args, spec, report):
    point = _get_point(args, spec)
    if args.grid:
        pts = _grid_points(_parse_grid(args.grid))
        gs = kahler.metric_batch(spec, point, pts)
        rows = {}
        m = gs.shape[1]
        for a in range(m):
            for b in range(m):
                rows[f"g_{a + 1}{b + 1}_re"] = gs[:, a, b].real
                rows[f"g_{a + 1}{b + 1}_im"] = gs[:, a, b].imag
        report["results"].append({"grid_points": len(gs)})
        report["csv"] = _grid_csv(pts, rows)
        return 0
    rng = np.random.default_rng(args.seed)
    chart = _get_chart(args, spec, point, rng)
    kt = kahler.metric(spec, point, chart)
    herm = float(np.max(np.abs(kt.g - kt.g.conj().T)))
    eig = kt.eigenvalues()
    report["results"].append({
        "z": [_c(v) for v in chart.coords],
        "active_coordinates": list(kt.active_labels),
        "g": _matrix(kt.g),
        "eigenvalues": [float(x) for x in eig],
    })
    report["residuals"]["hermitian"] = _check("hermitian", herm, 1e-9)
    report["residuals"]["positivity"] = {
        "name": "positivity", "residual": float(eig.min()), "tol": -1e-9,
        "pass": bool(eig.min() > -1e-9)}
    return 0


def cmd_betti(args, spec, report):
    point = _get_point(args, spec)
    bv = cohomology.betti(spec, point)
    lh = cohomology.leray_hirsch(spec, point)
    report["results"].append({
        "betti": list(bv.b),
        "total": bv.total,
        "weyl_order": sum(poincare_polynomial(spec)),
        "leray_hirsch": {"ok": lh.ok, "total": list(lh.total),
                         "base": list(lh.base), "fiber": list(lh.fiber),
                         "note": lh.note},
    })
    if not lh.ok:
        report["pass"] = False
        return 1
    return 0


def cmd_pairing(args, spec, report):
    order = _at_least_one("order", args.order)
    m = cohomology.pairing_matrix(spec, order=order)
    dev = float(np.max(np.abs(m - np.eye(m.shape[0]))))
    report["results"].append({
        "matrix": [[float(x) for x in row] for row in m],
        "order": order,
        "normalization": "omega_j = (i/2pi) ddbar Phi_j",
    })
    report["residuals"]["identity"] = _check("identity", dev,
                                             args.tol or 1e-6)
    if not report["residuals"]["identity"]["pass"]:
        report["pass"] = False
        return 1
    return 0


def cmd_verify(args, spec, report):
    npts = _at_least_one("points", args.points)
    order = _at_least_one("order", args.order)
    point = _get_point(args, spec)
    rng = np.random.default_rng(args.seed)
    checks = []
    ref = spec.adapter.spectrum(point.matrix)

    def draw():
        return random_chart(spec, rng, point=point)

    def stack(charts):
        return np.array([c.coords for c in charts], dtype=complex).reshape(
            len(charts), spec.adapter.chart_dim)

    def worst(residuals):
        return float(np.max(residuals, initial=0.0))

    coords = stack([draw() for _ in range(npts)])
    res_mb, res_un = iwasawa_residuals(spec, coords,
                                       decompose.iwasawa_batch(spec, coords))
    mu = orbit.dress_batch(spec, point, coords)
    checks.append(_check("iwasawa_multiply_back", worst(res_mb), 1e-10))
    checks.append(_check("compactness_kk*", worst(res_un), 1e-10))
    checks.append(_check("isospectrality",
                         spectral_mismatch(np.linalg.eigvals(mu), ref), 1e-10))

    if (spec.family, spec.n) == ("su", 3):
        # draw in the per-point order (chart, g), then check as batches
        charts, rows, moved, shifts = [], [], [], []
        for i in range(npts):
            chart = draw()
            charts.append(chart)
            g = haar_su(3, rng)
            try:
                zg, shift = kahler.cocycle_shift(spec, point, chart, g)
            except OutsideCell:
                continue
            rows.append(i)
            moved.append(zg)
            shifts.append(shift)
        coords = stack(charts)
        gm = orbit.gell_mann_coordinates(orbit.dress_batch(spec, point, coords))
        closed = np.array([orbit.su3_closed_form(point, c) for c in charts])
        worst_cf = worst(np.abs(gm - closed.reshape(gm.shape)))
        lhs = kahler.potential_batch(spec, point, stack(moved)) \
            - kahler.potential_batch(spec, point, coords[rows])
        worst_cov = worst(np.abs(lhs - np.array(shifts)))
        checks.append(_check("su3_closed_form", worst_cf, 1e-10))
        checks.append(_check("potential_covariance", worst_cov, 1e-8))

    bv = cohomology.betti(spec, point)
    # ties the polynomial to the group that chart transitions enumerate
    expected = (weyl_group(spec).order
                // sum(poincare_polynomial(spec, point.walls)))
    checks.append({"name": "betti_sum", "residual": abs(bv.total - expected),
                   "tol": 0, "pass": bv.total == expected})

    m = cohomology.pairing_matrix(spec, order=order)
    dev = float(np.max(np.abs(m - np.eye(m.shape[0]))))
    checks.append(_check("pairing_identity", dev, 1e-6))

    report["results"] = checks
    report["pass"] = all(c["pass"] for c in checks)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------


def _grid_csv(pts, columns: dict) -> str:
    """CSV of the grid points and one column per entry, written by column."""
    header, fields = [], []
    for k in range(pts.shape[1]):
        header += [f"z{k + 1}_re", f"z{k + 1}_im"]
        fields += [pts[:, k].real, pts[:, k].imag]
    header += list(columns)
    fields += [np.asarray(v, dtype=float) for v in columns.values()]
    text = [map(repr, f.tolist()) for f in fields]
    lines = [",".join(header)] + [",".join(row) for row in zip(*text)]
    return "\n".join(lines) + "\n"


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coadjoint",
        description="Coadjoint orbits of compact classical groups: "
                    "decompositions, dressing, Kahler data, cohomology.")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        q = sub.add_parser(name)
        q.add_argument("--group", required=True, choices=["su", "sp", "so"])
        q.add_argument("--n", required=True, type=int)
        q.add_argument("--weights", required=True,
                       help="comma-separated chamber weights, e.g. 1,1")
        q.add_argument("--z", default=None,
                       help="chart coordinates as re,im pairs joined by ';'")
        q.add_argument("--grid", default=None,
                       help="per-coordinate grid re0:re1:steps,im0:im1:steps "
                            "joined by ';' (potential/metric)")
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--tol", type=float, default=None)
        q.add_argument("--order", type=int, default=128,
                       help="quadrature rule size for pairing integrals")
        q.add_argument("--points", type=int, default=100,
                       help="number of random points in verify")
        q.add_argument("--out", choices=["json", "csv"], default="json")
        q.add_argument("--output-file", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {
        "config": {
            "command": args.command, "group": args.group, "n": args.n,
            "weights": args.weights, "z": args.z, "grid": args.grid,
            "seed": args.seed, "tol": args.tol, "order": args.order,
        },
        "results": [],
        "residuals": {},
        "pass": True,
    }
    try:
        spec = build_group(args.group, args.n)
        code = COMMANDS[args.command](args, spec, report)
    except CONFIG_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 3
    if report["residuals"]:
        report["pass"] = report["pass"] and all(
            c["pass"] for c in report["residuals"].values())
        if not report["pass"] and code == 0:
            code = 1
    csv_text = report.pop("csv", None)
    if args.out == "csv" and csv_text is not None:
        payload = csv_text
    else:
        if csv_text is not None:
            report["csv_rows"] = csv_text.count("\n") - 1
        payload = json.dumps(report, sort_keys=True,
                             separators=(",", ":")) + "\n"
    if args.output_file:
        with open(args.output_file, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
