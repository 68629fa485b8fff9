"""Property tests across the chart: every group at |z| from 1 to 1e6.

The Householder RQ kernel is backward stable, so the Iwasawa factors, the
dressing, the potential and the metric keep their tolerances far from the
origin, where the Gram matrix z z* is numerically singular. The potential,
the torus parameters and the cocycle shift read only the trailing ``rank``
entries of the A-diagonal (or of the Gauss-Bruhat d), which hold to
rounding there.
"""

import numpy as np
import pytest

from coadjoint import (NumericalBreakdown, build_group, chart_matrix,
                       chart_point, dress, dress_batch, initial_point, iwasawa,
                       iwasawa_batch, metric, potential, potential_batch)
from coadjoint._linalg import _rq, iwasawa_nak
from coadjoint.checks import haar_batch, haar_width, iwasawa_residuals
from coadjoint.kahler import cocycle_shift_batch
from helpers import mat_max, random_chart, spectral_mismatch

GROUPS = [("su", 2), ("su", 3), ("su", 4), ("su", 5), ("sp", 2), ("sp", 3),
          ("so", 3), ("so", 4)]
SCALES = (1.0, 1e2, 1e4, 1e6)
# at |z| = 1e6 an SU(5) chart has cond(z) > 1/eps: an R diagonal can vanish
CASES = [(f, n, s) for f, n in GROUPS for s in SCALES
         if (f, n, s) != ("su", 5, 1e6)]


@pytest.mark.parametrize("family,n,scale", CASES)
def test_factors_dressing_and_metric_far_out(family, n, scale):
    spec = build_group(family, n)
    ip = initial_point(spec, tuple(range(1, spec.rank + 1)))
    ref = spec.adapter.spectrum(ip.matrix)
    rng = np.random.default_rng(12)
    for _ in range(10):
        chart = random_chart(spec, rng, scale=scale)
        back, unitarity = iwasawa_residuals(spec, chart.array(),
                                           iwasawa(spec, chart))
        assert back <= 1e-12 * max(1.0, mat_max(chart_matrix(spec, chart)))
        assert unitarity <= 1e-10
        mu = dress(spec, ip, chart).spectrum()
        assert spectral_mismatch(mu, ref) <= 1e-10
        ev = metric(spec, ip, chart).eigenvalues()
        assert ev.min() >= -1e-12 * ev.max()


@pytest.mark.parametrize("family,n,scale", CASES)
def test_dressed_mu_stays_anti_hermitian_far_out(family, n, scale):
    spec = build_group(family, n)
    ip = initial_point(spec, tuple(range(1, spec.rank + 1)))
    rng = np.random.default_rng(13)
    coords = np.array([random_chart(spec, rng, scale=scale).array()
                       for _ in range(20)])
    mu = dress_batch(spec, ip, coords)
    skew = np.max(np.abs(mu + np.conj(np.swapaxes(mu, -1, -2))))
    assert skew <= 1e-15 * np.max(np.abs(ip.matrix))


def test_su3_potential_closed_form_far_out():
    xi, eta = 0.9, 2.3
    su3 = build_group("su", 3)
    ip = initial_point(su3, (xi, eta))
    rng = np.random.default_rng(0)
    for scale in SCALES:
        for _ in range(30):
            z1, z2, z3 = scale * (rng.standard_normal(3)
                                  + 1j * rng.standard_normal(3))
            val = potential(su3, ip, chart_point(su3, (z1, z2, z3)))
            r1sq = 1 + abs(z1) ** 2 + abs(z3 - z1 * z2) ** 2
            r2sq = 1 + abs(z2) ** 2 + abs(z3) ** 2
            exact = xi * np.log(r1sq) + eta * np.log(r2sq)
            assert abs(val - exact) <= 1e-10 * abs(exact)


@pytest.mark.parametrize("family,n", GROUPS)
def test_log_a_reads_the_trailing_rows(family, n):
    # the trailing entries are the full QR's bit for bit, in both modes (the
    # dress grid reads them off iwasawa_nak), and the leading ones follow
    # from them by the torus identity exactly
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(5)
    for scale in SCALES[:3]:
        coords = np.array([random_chart(spec, rng, scale=scale).array()
                           for _ in range(20)])
        z = fam.chart_split(coords)
        log_a = fam.log_a(z)
        tail = log_a[:, -fam.rank:]
        assert np.array_equal(tail, np.log(_rq(z, r_only=True))[:, -fam.rank:])
        assert np.array_equal(tail, np.log(iwasawa_nak(z)[1])[:, -fam.rank:])
        if family == "su":
            assert np.array_equal(log_a[:, 0], -tail.sum(axis=1))
        else:
            mid = fam.slots - 2 * fam.rank
            assert np.array_equal(log_a[:, :fam.rank], -tail[:, ::-1])
            assert np.array_equal(log_a[:, fam.rank:fam.rank + mid],
                                  np.zeros((len(z), mid)))


@pytest.mark.parametrize("family,n", GROUPS)
def test_iwasawa_log_a_split_is_log_a(family, n):
    # the leading entries of the full QR's diagonal lose digits far out
    # (8e-6 relative on SU(5) at 1e4); log_a_split fills them in from the
    # trailing ones, as the potential does
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(6)
    for scale in SCALES[:3]:
        coords = np.array([random_chart(spec, rng, scale=scale).array()
                           for _ in range(20)])
        fac = iwasawa_batch(spec, coords)
        assert np.array_equal(fac.log_a_split,
                              fam.log_a(fam.chart_split(coords)))


def _su3_far_points(rng):
    """SU(3) chart points at |z| from 1 to 1e6, half of them near the corner
    z3 = z1 z2, with r1^2 and r2^2 in closed form."""
    for scale in SCALES:
        for corner in (False, True):
            for _ in range(30):
                z1, z2, z3 = scale * (rng.standard_normal(3)
                                      + 1j * rng.standard_normal(3))
                if corner:
                    z3 = z1 * z2 * (1 + 1e-3j)
                r1sq = 1 + abs(z1) ** 2 + abs(z3 - z1 * z2) ** 2
                r2sq = 1 + abs(z2) ** 2 + abs(z3) ** 2
                yield (z1, z2, z3), r1sq, r2sq


def test_su3_potential_closed_form_to_rounding_far_out():
    xi, eta = 0.9, 2.3
    su3 = build_group("su", 3)
    ip = initial_point(su3, (xi, eta))
    for z, r1sq, r2sq in _su3_far_points(np.random.default_rng(0)):
        val = potential(su3, ip, chart_point(su3, z))
        exact = xi * np.log(r1sq) + eta * np.log(r2sq)
        assert abs(val - exact) <= 1e-13 * abs(exact)


def test_su3_a_parameters_closed_form_far_out():
    su3 = build_group("su", 3)
    for z, r1sq, r2sq in _su3_far_points(np.random.default_rng(1)):
        r = np.array(iwasawa(su3, chart_point(su3, z)).a_parameters) ** 2
        assert np.all(np.abs(r - [r1sq, r2sq]) <= 1e-11 * np.array([r1sq, r2sq]))


def test_su5_potential_finite_where_iwasawa_breaks_down():
    # the full QR of this chart has an exactly zero leading diagonal entry,
    # so iwasawa still raises; the QR of the trailing rows does not
    spec = build_group("su", 5)
    ip = initial_point(spec, (1, 2, 3, 4))
    corner = 1e6 * np.array([1, 2, 3, 4, 1, 2, 3, 1, 2, 1], dtype=complex)
    with pytest.raises(NumericalBreakdown):
        iwasawa(spec, chart_point(spec, corner))
    rng = np.random.default_rng(12)
    coords = np.array([corner] + [random_chart(spec, rng, scale=1e6).array()
                                  for _ in range(10)])
    assert np.all(np.isfinite(potential_batch(spec, ip, coords)))


@pytest.mark.parametrize("family,n", [("su", 3), ("su", 5), ("sp", 2),
                                      ("sp", 3), ("so", 3), ("so", 4)])
def test_cocycle_covariance_far_out(family, n):
    # Phi(z_g) = Phi(z) + shift at |z| ~ 1e2 for Haar g, on the rows that stay
    # in the cell
    spec = build_group(family, n)
    ip = initial_point(spec, tuple(range(1, spec.rank + 1)))
    rng = np.random.default_rng(11)
    coords = np.array([random_chart(spec, rng, scale=1e2).array()
                       for _ in range(40)])
    g = haar_batch(spec, rng.standard_normal((40, haar_width(spec))))
    coords_g, shift, in_cell = cocycle_shift_batch(spec, ip, coords, g)
    assert in_cell.sum() >= 30
    res = potential_batch(spec, ip, coords_g[in_cell]) \
        - potential_batch(spec, ip, coords[in_cell]) - shift[in_cell]
    assert np.max(np.abs(res)) <= 1e-10
