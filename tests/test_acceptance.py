"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.
"""

import time

import numpy as np

from coadjoint import (build_group, chart_matrix, chart_point,
                       chart_transition, cocycle_shift, dress, initial_point,
                       iwasawa, leray_hirsch, metric, pairing_matrix,
                       potential, su3_closed_form, su3_transition_closed,
                       betti)
from coadjoint.errors import OutsideCell, PoleOnChart
from helpers import haar_su, identity_like, mat_max, random_chart, \
    spectral_mismatch

SU2 = build_group("su", 2)
SU3 = build_group("su", 3)
SU4 = build_group("su", 4)
SP2 = build_group("sp", 2)
SP3 = build_group("sp", 3)
SO3 = build_group("so", 3)
SO4 = build_group("so", 4)


def report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name} failed: {detail}"


def test_a1_su3_stereographic_projection():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    worst_spec = 0.0
    for _ in range(1000):
        xi, eta = 10.0 * (1.0 - rng.random(2))       # in (0, 10]
        ip = initial_point(SU3, (xi, eta))
        pt = random_chart(SU3, rng)
        op = dress(SU3, ip, pt)
        closed = su3_closed_form(ip, pt)
        worst = max(worst, float(np.max(np.abs(np.array(op.coords) - closed))))
        worst_spec = max(worst_spec, spectral_mismatch(
            op.spectrum(), np.linalg.eigvals(ip.matrix)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 5.0
    report("A1", ok, f"1000 points, max residual {worst:.3e} (tol 1e-10), "
                     f"runtime {dt:.2f}s (< 5s); spectra {worst_spec:.3e}")
    assert worst_spec < 1e-10   # feeds A3


def test_a2_iwasawa_correctness():
    rng = np.random.default_rng(7)
    specs = [SU2, SU3, SU4, SP2, SP3, SO3, SO4]
    worst_mb = worst_un = 0.0
    for spec in specs:
        for _ in range(500):
            pt = random_chart(spec, rng)
            fac = iwasawa(spec, pt)
            z = chart_matrix(spec, pt)
            worst_mb = max(worst_mb, mat_max(fac.multiply_back() - z))
            un = fac.k @ np.conj(fac.k.T)
            worst_un = max(worst_un, mat_max(un - identity_like(spec, un)))
    # closed-form agreement, SU(3)
    worst_cf = 0.0
    for _ in range(200):
        z1, z2, z3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        fac = iwasawa(SU3, chart_point(SU3, (z1, z2, z3)))
        r1sq = 1 + abs(z1) ** 2 + abs(z3 - z1 * z2) ** 2
        r2sq = 1 + abs(z2) ** 2 + abs(z3) ** 2
        n1 = (np.conj(z1) * (1 + abs(z2) ** 2) - z2 * np.conj(z3)) / r1sq
        n2 = (np.conj(z2) + z1 * np.conj(z3)) / r2sq
        n3 = np.conj(z3) / r2sq
        worst_cf = max(worst_cf,
                       abs(fac.a_parameters[0] ** 2 - r1sq) / r1sq,
                       abs(fac.a_parameters[1] ** 2 - r2sq) / r2sq,
                       abs(fac.n[0, 1] - n1), abs(fac.n[1, 2] - n2),
                       abs(fac.n[0, 2] - n3))
    # closed-form agreement, SO(3)
    for _ in range(200):
        z = complex(*rng.standard_normal(2))
        fac = iwasawa(SO3, chart_point(SO3, (z,)))
        s = 1 + abs(z) ** 2
        worst_cf = max(worst_cf, abs(np.exp(fac.a_parameters[0]) - s) / s,
                       abs(fac.n[0, 2] - np.conj(z) / s))
    ok = worst_mb < 1e-10 and worst_un < 1e-10 and worst_cf < 1e-10
    report("A2", ok, f"multiply-back {worst_mb:.3e}, kk*-I {worst_un:.3e}, "
                     f"closed forms {worst_cf:.3e} (tol 1e-10, 500 pts x 7 groups)")


def test_a3_isospectrality():
    rng = np.random.default_rng(11)
    worst = 0.0
    for spec in (SU2, SU3, SU4, SP2, SP3, SO3, SO4):
        w = tuple(rng.uniform(0.2, 3.0, spec.rank))
        ip = initial_point(spec, w)
        ref_spectrum = spec.adapter.spectrum(ip.matrix)
        for _ in range(100):
            op = dress(spec, ip, random_chart(spec, rng))
            worst = max(worst, spectral_mismatch(op.spectrum(), ref_spectrum))
    report("A3", worst < 1e-10,
           f"max spectral multiset distance {worst:.3e} (tol 1e-10)")


def test_a4_kahler_covariance():
    rng = np.random.default_rng(5)
    ip = initial_point(SU3, (1.3, 0.8))
    worst = 0.0
    done = 0
    while done < 200:
        pt = random_chart(SU3, rng)
        g = haar_su(3, rng)
        try:
            zg, shift = cocycle_shift(SU3, ip, pt, g)
        except OutsideCell:
            continue
        lhs = potential(SU3, ip, zg) - potential(SU3, ip, pt)
        worst = max(worst, abs(lhs - shift))
        done += 1
    report("A4", worst < 1e-8,
           f"Phi(z_g) - Phi(z) = ln|chi(d)|^2 over 200 pairs, "
           f"max deviation {worst:.3e} (tol 1e-8)")


def test_a5_cohomology_pairing():
    t0 = time.perf_counter()
    worst = 0.0
    for spec in (SU2, SU3, SP2):
        m = pairing_matrix(spec, order=128)
        worst = max(worst, float(np.max(np.abs(m - np.eye(m.shape[0])))))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 30.0
    report("A5", ok,
           "pairing matrices vs identity for SU(2), SU(3), Sp(2): "
           f"max deviation {worst:.3e} (tol 1e-6), runtime {dt:.2f}s (< 30s); "
           "normalization omega_j = (i/2pi) ddbar Phi_j")


def test_a6_betti_and_leray_hirsch():
    b_su2 = betti(SU2, initial_point(SU2, (1,))).b
    b_gen = betti(SU3, initial_point(SU3, (1, 1))).b
    b_deg = betti(SU3, initial_point(SU3, (0, 1))).b
    lh3 = leray_hirsch(SU3, initial_point(SU3, (1, 1)))
    lh4 = leray_hirsch(SU4, initial_point(SU4, (1, 1, 1)))
    ok = (b_su2 == (1, 1) and b_gen == (1, 2, 2, 1) and sum(b_gen) == 6
          and b_deg == (1, 1, 1) and sum(b_deg) == 3 and lh3.ok and lh4.ok)
    report("A6", ok,
           f"SU(2) {b_su2}, SU(3) generic {b_gen}, degenerate {b_deg}; "
           f"Leray-Hirsch SU(3) {lh3.ok}, SU(4) {lh4.ok} (exact)")


def test_a7_metric_sanity():
    xi = 1.0
    ip2 = initial_point(SU2, (xi,))
    worst = 0.0
    for x in np.linspace(-1.0, 1.0, 21):
        for y in np.linspace(-1.0, 1.0, 21):
            z = complex(x, y)
            g = metric(SU2, ip2, chart_point(SU2, (z,))).g[0, 0].real
            worst = max(worst, abs(g - xi / (1 + abs(z) ** 2) ** 2))
    eta = 1.0
    ipd = initial_point(SU3, (0.0, eta))
    kt = metric(SU3, ipd, chart_point(SU3, (0, 0, 0)))
    origin = float(np.max(np.abs(kt.g - eta * np.eye(2))))
    ok = worst < 1e-6 and origin < 1e-7
    report("A7", ok, f"SU(2) fiber metric on 21x21 grid: max {worst:.3e} "
                     f"(tol 1e-6); CP^2 metric(0) vs eta*I: {origin:.3e} "
                     f"(tol 1e-7)")


def test_a8_chart_transitions():
    rng = np.random.default_rng(77)
    worst = 0.0
    done = 0
    while done < 100:
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if min(abs(z[0]), abs(z[1])) < 0.2:
            continue                       # stay away from the poles
        pt = chart_point(SU3, z)
        for word in [(0,), (1,), (0, 1), (1, 0)]:
            try:
                closed = np.array(su3_transition_closed(word, z))
                numeric = chart_transition(SU3, word, pt).array()
            except PoleOnChart:
                continue
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
        done += 1
    # w1^2 = identity on its domain
    worst_inv = 0.0
    for _ in range(20):
        pt = random_chart(SU3, rng)
        if abs(pt.coords[0]) < 1e-3:
            continue
        pt1 = chart_transition(SU3, (0,), pt)
        back = chart_transition(SU3, (0,), pt1)
        worst_inv = max(worst_inv,
                        float(np.max(np.abs(back.array() - pt.array()))))
    ok = worst < 1e-8 and worst_inv < 1e-8
    report("A8", ok, f"closed-form vs numeric transitions on 100 points: "
                     f"max {worst:.3e} (tol 1e-8); w1^2 = id: {worst_inv:.3e}")
