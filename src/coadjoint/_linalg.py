"""Numerical kernels: triangular factorizations and log-det derivatives.

Everything here works on plain complex ndarrays, batched where useful. The
factorizations are the two workhorses of the library, shared by every
family:

* ``_rq``: z = u k with u upper triangular and k unitary, from one
  Householder QR of the index-reversed transpose of z. No Gram matrix z z*
  is formed, so the condition number is not squared. ``iwasawa_nak`` reads
  the Iwasawa N, A and K factors from it; ``iwasawa_ak`` reads A and K
  alone, all that dressing needs, so only ``iwasawa_nak`` forms n.
  ``Family.log_a`` needs only the trailing ``rank`` entries of the
  A-diagonal, which the R factor of the trailing ``rank`` rows of z alone
  gives.
* ``ul_decompose``: g = n d zeta (n, zeta unit upper, lower triangular, d
  diagonal: Gauss-Bruhat on the open cell) of a stack, with its cell mask.
  ``_doolittle`` leaves n packed, for the reads that need only d and zeta.

``wirtinger_hessian`` differentiates a weighted sum of log det of the
trailing minors of z z* twice in closed form, from the same factor u, the
weights folded in first: the Kahler metric, and along one coordinate
(``complex_laplacian``) the pairing integrand.

``quaternion_iwasawa`` and ``quaternion_ul`` factor QuaternionMatrix input;
no library path calls them, they are the quaternionic oracles the tests
compare the split Sp(2n, C) path with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalBreakdown, OutsideCell
from .quaternion import Quaternion, QuaternionMatrix

CELL_TOL = 1e-12


def _rq(z, r_only: bool = False):
    """``z = u @ k`` for a stack of square ``z``: u upper triangular, k unitary.

    One Householder QR of (J z)^T, J the index reversal: (J z)^T = q r gives
    z = (J r^T J)(J q^T), so u = J r^T J and k = J q^T. The diagonal of u
    may carry phases. With ``r_only`` only R is computed and the moduli
    |u_ii| are returned; ``z`` may then be the (..., m, s) block of the
    trailing m rows of an s x s stack, whose (s, m) QR gives the trailing m
    moduli, bit for bit those of the full QR (Householder QR works column
    by column, and these columns come first). Raises NumericalBreakdown
    when a returned diagonal entry of u is exactly zero (z singular to
    working precision) or not finite.
    """
    zt = np.asarray(z, dtype=complex)[..., ::-1, :].swapaxes(-1, -2)
    # mode "raw" returns R transposed, with the same diagonal
    out = np.linalg.qr(zt, mode="raw" if r_only else "reduced")
    diag = out[0 if r_only else 1].diagonal(0, -2, -1)[..., ::-1]
    # ndarray.all without its Python layer
    if not np.logical_and.reduce(np.isfinite(diag) & (diag != 0), None):
        raise NumericalBreakdown("z is singular to working precision or not "
                                 "finite")
    if r_only:
        return np.abs(diag)
    return (out[1].swapaxes(-1, -2)[..., ::-1, ::-1],
            out[0].swapaxes(-1, -2)[..., ::-1, :])


def iwasawa_nak(z: np.ndarray):
    """NAK factors of invertible ``z`` (stacked ok) w.r.t. the upper Borel.

    Returns ``(n, d, k)`` with ``z = n @ diag(d) @ k``, ``n`` unit upper
    triangular, ``d > 0`` and ``k`` unitary: the phases of the diagonal of
    ``_rq``'s u move into k. Raises NumericalBreakdown where ``_rq`` does.
    """
    u, k = _rq(z)
    delta = u.diagonal(0, -2, -1)
    return (u / delta[..., None, :],) + _unphased(delta, k)


def iwasawa_ak(z: np.ndarray):
    """``(d, k)`` of ``iwasawa_nak``, bit for bit, without forming n.

    What dressing reads: k for mu = k* mu0 k and d for the potential.
    """
    u, k = _rq(z)
    return _unphased(u.diagonal(0, -2, -1), k)


def _unphased(delta, k) -> tuple:
    """(|delta|, k with the phases of delta, the diagonal of u, moved in)."""
    d = np.abs(delta)
    return d, (delta / d)[..., :, None] * k


def ul_decompose(g):
    """Gauss factorization ``g = n @ diag(d) @ zeta`` of a stack on the open cell.

    ``g`` is (N, s, s); returns ``(n, d, zeta, in_cell)`` with ``n`` unit
    upper triangular, ``zeta`` unit lower triangular, ``d`` (N, s) and the
    (N,) mask ``in_cell``: ``_doolittle`` with n unpacked. A row is outside
    the cell when a pivot (a ratio of trailing principal minors) has
    |pivot| < CELL_TOL * max|g|; its factors are then meaningless. A nan entry
    does not flag its row, an infinite one makes every finite pivot fail.
    ``cell_miss`` names the failing pivot of one row.
    """
    w, d, zeta, in_cell = _doolittle(g)
    _, upper, eye = _triangles(w.shape[-1])
    return np.where(upper, w[:, ::-1, ::-1], eye), d, zeta, in_cell


def _doolittle(g) -> tuple:
    """``(w, d, zeta, in_cell)`` of ``ul_decompose``, n left packed in w:
    Doolittle without pivoting on the index-reversed matrices, one step per
    column for the whole stack, in place, the multipliers in the column."""
    a = np.asarray(g, dtype=complex)
    nb, s = a.shape[0], a.shape[-1]
    w = a[:, ::-1, ::-1].copy()
    flat = w.reshape(nb, s * s)
    scale = np.maximum(np.abs(flat).max(axis=1), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(s - 1):
            col = w[:, k + 1:, k]
            col /= w[:, k, k, None]
            w[:, k + 1:, k + 1:] -= col[:, :, None] * w[:, k, None, k + 1:]
        # steps after k leave row k and column k alone: the diagonal holds
        # the pivots, the strict upper triangle the unscaled rows of U
        dd = flat[:, ::s + 1]
        lower, _, eye = _triangles(s)
        zeta = np.where(lower, (w / dd[:, :, None])[:, ::-1, ::-1], eye)
    in_cell = ~(np.abs(dd) < CELL_TOL * scale[:, None]).any(axis=1)
    # contiguous, as np.where's output is: numpy's elementwise loops for
    # strided input may round differently (np.log of a reversed view does)
    return w, np.ascontiguousarray(dd[:, ::-1]), zeta, in_cell


@lru_cache(maxsize=16)
def _triangles(s: int):
    """Strict lower and strict upper masks and the identity of size s,
    cached and read-only."""
    lower = np.tri(s, k=-1, dtype=bool)
    return _read_only(lower, lower.T, np.eye(s, dtype=complex))


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: a cache hands them to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def cell_miss(g) -> OutsideCell:
    """The OutsideCell error of one matrix ``g`` off the open cell.

    Names the first pivot of ``ul_decompose`` below tolerance.
    """
    g = np.asarray(g, dtype=complex)
    piv = _doolittle(g[None])[1][0, ::-1]
    k = int(np.argmax(np.abs(piv)
                      < CELL_TOL * max(float(np.max(np.abs(g))), 1e-300)))
    return OutsideCell(f"Bruhat pivot {k} has magnitude {abs(piv[k]):.3e}; "
                       "the element misses this cell")


def quaternion_iwasawa(z: QuaternionMatrix):
    """Quaternionic NAK: ``z = n a k`` with a real positive diagonal, k unitary.

    ``iwasawa_nak`` of the interleaved embedding, read back: in that basis a
    quaternionic unit upper triangular matrix is complex unit upper
    triangular and Sp(n) is unitary, so by uniqueness of NAK the complex
    factors are the embedded quaternionic ones. ``z`` may be a stack. A test
    oracle.
    """
    n, d, k = iwasawa_nak(z.embed())
    back = QuaternionMatrix.from_embedded
    return back(n), d[..., 0::2], back(k)


def quaternion_ul(g: QuaternionMatrix):
    """Quaternionic Gauss factorization ``g = n diag(d) zeta``; a test oracle."""
    nn = g.shape[0]
    scale = max(g.norm_max(), 1e-300)
    # work on the index-reversed matrix, Doolittle without pivoting
    w = QuaternionMatrix(g.z1[::-1, ::-1].copy(), g.z2[::-1, ::-1].copy())
    lo = QuaternionMatrix.eye(nn)
    up = QuaternionMatrix.eye(nn)
    dd = [Quaternion(0.0)] * nn
    for k in range(nn):
        piv = w[k, k]
        if abs(piv) < CELL_TOL * scale:
            raise OutsideCell(f"quaternionic Bruhat pivot {k} vanished")
        dd[k] = piv
        pinv = piv.inverse()
        for i in range(k + 1, nn):
            lo[i, k] = w[i, k] * pinv
        for j in range(k + 1, nn):
            up[k, j] = pinv * w[k, j]
        for i in range(k + 1, nn):
            for j in range(k + 1, nn):
                w[i, j] = w[i, j] - lo[i, k] * piv * up[k, j]
    n = QuaternionMatrix(lo.z1[::-1, ::-1].copy(), lo.z2[::-1, ::-1].copy())
    zeta = QuaternionMatrix(up.z1[::-1, ::-1].copy(), up.z2[::-1, ::-1].copy())
    d = list(reversed(dd))
    return n, d, zeta


# ---------------------------------------------------------------------------
# second derivatives of log det of the trailing minors of z z*


@lru_cache(maxsize=16)
def _below_mask(s: int):
    """(s*s, s) indicator of the block {i >= j > k} of (i, k) per j, cached
    and read-only."""
    i, k = np.indices((s, s)).reshape(2, s * s, 1)
    j = np.arange(s)
    return _read_only(((i >= j) & (k < j)).astype(float))[0]


def _folded(z, a, c) -> tuple:
    """(p_W, W) of ``wirtinger_hessian``: (N, m, K) and W's K nonzero rows."""
    nb, m, s = a.shape[:3]
    u, k = _rq(z)
    # rows (i, a) of a_a k*; u p = y for all m blocks by back substitution
    p = (a.transpose(0, 2, 1, 3).reshape(nb, s * m, s)
         @ np.conj(np.swapaxes(k, -1, -2))).reshape(nb, s, m * s)
    for r in range(s - 1, -1, -1):
        p[:, r] /= u[:, r, r, None]
        p[:, :r] -= u[:, :r, r, None] * p[:, r, None]
    w = _below_mask(s) @ c
    i, kk = divmod(np.flatnonzero(np.any(w.reshape(s * s, -1), axis=1)), s)
    at = i * (m * s) + kk + s * np.arange(m)[:, None]
    return np.take(p.reshape(nb, s * m * s), at, axis=1), w[i * s + kk]


def wirtinger_hessian(z, a, c) -> np.ndarray:
    """sum_j c_j d_a dbar_b log det G[j:, j:] of G = z z*, as (N, m, m).

    ``z`` (N, s, s) is invertible and holomorphic in m coordinates, ``a``
    (N, m, s, s) holds dz/dz_a and ``c`` (s,) the minor weights. With
    z = u k from ``_rq`` (G = u u*, neither G nor G^-1 formed) and
    p_a = u^-1 a_a k*, block j is sum_{i >= j > k} p_a[i,k] conj(p_b[i,k]).
    Folding c into W_ik = sum_{k < j <= i} c_j leaves one product
    (p_W W) p_W^H over the entries with W_ik != 0, free of cancellation;
    its upper triangle is mirrored and its diagonal made real, so g is
    exactly hermitian. Every step is per row: no row depends on its batch.
    Raises NumericalBreakdown where ``_rq`` does.
    """
    nb, m = a.shape[:2]
    p, w = _folded(z, a, c)
    g = (p * w) @ np.conj(np.swapaxes(p, -1, -2))
    g = np.where(_triangles(m)[0], np.conj(np.swapaxes(g, -1, -2)), g)
    g.reshape(nb, m * m)[:, ::m + 1].imag = 0.0
    return g


def complex_laplacian(z, dz, c) -> np.ndarray:
    """d dbar sum_j c_j log det G[j:, j:] along t (dz/dt = ``dz``) for each
    column of ``c`` (s, l), (N, l): one-coordinate ``wirtinger_hessian``."""
    p, w = _folded(z, dz[:, None], c)
    return (p.real ** 2 + p.imag ** 2)[:, 0] @ w


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached and read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(n))
