"""Residual checks and seeded random inputs shared by the CLI and the tests."""

from __future__ import annotations

import numpy as np

from .decompose import chart_matrix, chart_point
from .orbit import required_zero_mask
from .quaternion import QuaternionMatrix


def spectral_mismatch(a, b) -> float:
    """Max multiset distance of two spectra (sorted by imaginary part)."""
    a = np.asarray(a)
    b = np.asarray(b)
    a = a[np.lexsort((a.real, a.imag))]
    b = b[np.lexsort((b.real, b.imag))]
    return float(np.max(np.abs(a - b)))


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
    if fam.family == "sp":
        z[fam.n * (fam.n - 1):] = 0.0     # quaternionic chart: no long coords
    if point is not None:
        z[required_zero_mask(spec, point)] = 0.0
    return chart_point(spec, z)


def iwasawa_residuals(spec, chart, fac) -> tuple:
    """(multiply-back, unitarity) max-entry residuals of z = n a k."""
    z = chart_matrix(spec, chart)
    back = fac.multiply_back()
    if isinstance(z, QuaternionMatrix):
        return ((back - z).norm_max(),
                (fac.k @ fac.k.h - QuaternionMatrix.eye(spec.n)).norm_max())
    kk = fac.k @ np.conj(fac.k.T)
    return (float(np.max(np.abs(back - z))),
            float(np.max(np.abs(kk - np.eye(kk.shape[0])))))
