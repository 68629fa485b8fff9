"""Residual checks and seeded random inputs shared by the CLI and the tests.

The residuals take one point or a whole batch: ``iwasawa_residuals`` gives
one value per row of an ``iwasawa_batch``, ``spectral_mismatch`` the worst
row of a stack of spectra.
"""

from __future__ import annotations

import numpy as np

from .decompose import chart_point
from .orbit import required_zero_mask


def spectral_mismatch(a, b) -> float:
    """Max multiset distance of two spectra (sorted by imaginary part).

    ``a`` may be a stack (N, s) of spectra, each compared with ``b``; the
    worst row counts (0 for an empty stack).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a = np.take_along_axis(a, np.lexsort((a.real, a.imag), axis=-1), axis=-1)
    b = b[np.lexsort((b.real, b.imag))]
    return float(np.max(np.abs(a - b), initial=0.0))


def haar_su(n, rng):
    """Haar-ish random SU(n) element via QR of a complex Gaussian."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
    return q / np.linalg.det(q) ** (1.0 / n)


def random_chart(spec, rng, scale=1.0, point=None):
    """Random chart point; respects degeneracy of ``point`` when given."""
    fam = spec.adapter
    z = scale * (rng.standard_normal(fam.chart_dim)
                 + 1j * rng.standard_normal(fam.chart_dim))
    if point is not None:
        z[required_zero_mask(spec, point)] = 0.0
    return chart_point(spec, z)


def iwasawa_residuals(spec, coords, fac) -> tuple:
    """(multiply-back, unitarity) max-entry residuals of z = n a k.

    ``coords`` is one chart point (chart_dim,) with ``fac`` from
    ``iwasawa``, or a batch (N, chart_dim) with ``fac`` from
    ``iwasawa_batch``; a batch gets one residual per row.
    """
    z = spec.adapter.chart_working(coords)
    kk = fac.k @ np.conj(np.swapaxes(fac.k, -1, -2))
    return (np.max(np.abs(fac.multiply_back() - z), axis=(-2, -1)),
            np.max(np.abs(kk - np.eye(kk.shape[-1])), axis=(-2, -1)))
