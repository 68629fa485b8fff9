"""Residual checks and seeded random inputs shared by the CLI and the tests.

The residuals take one point or a whole batch: ``iwasawa_residuals`` gives
one value per row of an ``iwasawa_batch``, ``anti_hermitian_residual`` one
per matrix of a stack, ``spectral_mismatch`` the worst row of a stack of
spectra. Random inputs come one at a time from a generator
(``random_chart``, ``haar_su``) or as batches read off a block of standard
normals (``normal_coords``, ``haar_batch``), which is the same stream drawn
in bulk.
"""

from __future__ import annotations

import numpy as np

from .decompose import chart_point
from .orbit import required_zero_mask


def spectral_mismatch(a, b) -> float:
    """Max multiset distance of two spectra (sorted by imaginary part).

    ``a`` may be a stack (N, s) of spectra, each compared with ``b``; the
    worst row counts (0 for an empty stack). Reports pass mu0's split
    diagonal as ``b``; ``Family.spectrum`` reads each lower triangle only,
    so a report pairs this with ``anti_hermitian_residual``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a = np.take_along_axis(a, np.lexsort((a.real, a.imag), axis=-1), axis=-1)
    b = b[np.lexsort((b.real, b.imag))]
    return float(np.max(np.abs(a - b), initial=0.0))


def anti_hermitian_residual(m) -> np.ndarray:
    """max |m + m*| of one matrix, or one value per matrix of a stack."""
    m = np.asarray(m)
    return np.max(np.abs(m + np.conj(np.swapaxes(m, -1, -2))), axis=(-2, -1))


def haar_width(spec) -> int:
    """Standard normals ``haar_batch`` reads per group element."""
    # Sp: two complex n x n blocks, (2n)^2 normals
    return (2 if spec.family == "su" else 1) * spec.slots ** 2


def haar_batch(spec, normals) -> np.ndarray:
    """Haar-ish random compact group elements from standard normals.

    ``normals`` is (N, ``haar_width``); returns the (N, s, s) complex stack in
    the working realization, one element per row. SU(n): QR of a complex
    Gaussian, the phases of R moved into Q and det Q divided out (as
    ``haar_su``). Sp(n): QR of the interleaved image of a quaternionic
    Gaussian, which stays in that image, read back in the split basis.
    SO(n): QR of a real Gaussian with det Q = +1.
    """
    m = spec.slots // 2 if spec.family == "sp" else spec.slots
    g = np.asarray(normals, dtype=float).reshape(
        len(normals), haar_width(spec) // m ** 2, m, m)
    if spec.family == "su":
        return _haar_su(g[:, 0] + 1j * g[:, 1])
    if spec.family == "sp":
        q, r = np.linalg.qr(_quaternionic(g[:, 0] + 1j * g[:, 1],
                                          g[:, 2] + 1j * g[:, 3]))
        dr = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * np.conj(dr / np.abs(dr))[:, None, :]
        # rebuilt from its even rows, in the split basis (a_1..a_n, b_n..b_1)
        split = np.r_[0:2 * m:2, 2 * m - 1:0:-2]
        return _quaternionic(q[:, 0::2, 0::2],
                             -q[:, 0::2, 1::2])[:, split[:, None], split]
    q, r = np.linalg.qr(g[:, 0])
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q.astype(complex)


def _quaternionic(z1, z2):
    """The complex image of the quaternionic matrix z1 + z2 j: each entry
    becomes the block [[z1, -z2], [conj z2, conj z1]], slots (a_k, b_k)."""
    n = z1.shape[-1]
    out = np.empty(z1.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2], out[..., 0::2, 1::2] = z1, -z2
    out[..., 1::2, 0::2], out[..., 1::2, 1::2] = z2.conj(), z1.conj()
    return out


def _haar_su(m):
    """SU(n) elements from a stack of complex Gaussians."""
    q, r = np.linalg.qr(m)
    q = q * np.exp(-1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))[
        ..., None, :]
    # np.power: the ** operator takes a square root for n = 2, which rounds
    # differently from the scalar power
    return q / np.power(np.linalg.det(q), 1.0 / m.shape[-1])[..., None, None]


def haar_su(n, rng):
    """Haar-ish random SU(n) element via QR of a complex Gaussian."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _haar_su(m)


def normal_coords(spec, normals, point=None, scale=1.0) -> np.ndarray:
    """Chart coordinates scale (x + i y) from standard normals (..., 2 dim).

    The real parts x come first, then the imaginary parts y, as
    ``random_chart`` draws them. With ``point`` given, the coordinates
    that vanish on its orbit are set to 0.
    """
    dim = spec.chart_dim
    normals = np.asarray(normals, dtype=float)
    z = scale * (normals[..., :dim] + 1j * normals[..., dim:])
    if point is not None:
        z[..., required_zero_mask(spec, point)] = 0.0
    return z


def random_chart(spec, rng, scale=1.0, point=None):
    """Random chart point; respects degeneracy of ``point`` when given."""
    normals = rng.standard_normal(2 * spec.chart_dim)
    return chart_point(spec, normal_coords(spec, normals, point, scale))


def iwasawa_residuals(spec, coords, fac) -> tuple:
    """(multiply-back, unitarity) max-entry residuals of z = n a k.

    ``coords`` is one chart point (chart_dim,) with ``fac`` from
    ``iwasawa``, or a batch (N, chart_dim) with ``fac`` from
    ``iwasawa_batch``; a batch gets one residual per row.
    """
    z = spec.chart_working(coords)
    kk = fac.k @ np.conj(np.swapaxes(fac.k, -1, -2))
    return (np.max(np.abs(fac.multiply_back() - z), axis=(-2, -1)),
            np.max(np.abs(kk - np.eye(kk.shape[-1])), axis=(-2, -1)))
