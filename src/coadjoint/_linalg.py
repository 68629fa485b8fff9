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
  ``_doolittle`` skips the steps whose column is zero throughout the stack
  and divides out only the entries of zeta its caller reads.

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
_TINY = np.finfo(float).tiny


def _rq(z, r_only: bool = False):
    """``z = u @ k`` for a stack of square ``z``: u upper triangular, k unitary.

    One Householder QR of (J z)^T, J the index reversal: (J z)^T = q r gives
    z = (J r^T J)(J q^T), so u = J r^T J and k = J q^T. The diagonal of u
    may carry phases. With ``r_only`` only R is computed and the moduli
    |u_ii| are returned; ``z`` may then be the (..., m, s) block of the
    trailing m rows of an s x s stack, whose (s, m) QR gives the trailing m
    moduli, bit for bit those of the full QR (Householder QR works column
    by column, and these columns come first). Raises NumericalBreakdown
    when a returned diagonal entry of u is not finite or, in modulus, below
    the smallest normal float, whose phase overflows (z is singular).
    """
    zt = np.asarray(z, dtype=complex)[..., ::-1, :].swapaxes(-1, -2)
    # mode "raw" returns R transposed, with the same diagonal
    out = np.linalg.qr(zt, mode="raw" if r_only else "reduced")
    diag = out[0 if r_only else 1].diagonal(0, -2, -1)[..., ::-1]
    # ndarray.all without its Python layer
    if not np.logical_and.reduce(np.isfinite(diag) & (abs(diag) >= _TINY),
                                 None):
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
    (N,) mask ``in_cell``: ``_doolittle`` read in full. A row is outside
    the cell when a pivot (a ratio of trailing principal minors) has
    |pivot| < CELL_TOL * max|g|; its factors are then meaningless. A nan entry
    does not flag its row, an infinite one makes every finite pivot fail.
    ``cell_miss`` names the failing pivot of one row.
    """
    s = np.shape(g)[-1]
    lower, upper, eye = _triangles(s)
    at = np.arange(s * s)
    w, d, zeta, in_cell = _doolittle(g, at, at // s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = np.where(upper, w / d[:, None, :], eye)
    return n, d, np.where(lower, zeta.reshape(w.shape), eye), in_cell


def _doolittle(g, at, rows) -> tuple:
    """``(w, d, zeta, in_cell)``: Doolittle without pivoting from the last
    pivot up, on a copy of the stack. w ends with n d above its diagonal, d
    on it and d zeta below it; ``zeta`` is zeta at the flat indices ``at``,
    in rows ``rows``. A step whose column is zero in every row would change
    only signs of zeros and is skipped; where 0 / pivot or 0 * row would be
    nan instead, the stack is eliminated again without skips."""
    a = np.asarray(g, dtype=complex)
    nb, s = a.shape[0], a.shape[-1]
    tol = CELL_TOL * np.maximum.reduce(np.abs(a.reshape(nb, s * s)), axis=1,
                                       initial=1e-300)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for skip in (True, False):
            w, lo = a.copy(), s         # lo: the last step skipped
            for k in range(s - 1, 0, -1):
                col = w[:, :k, k]
                if skip and not np.count_nonzero(col):
                    lo = k
                    continue
                w[:, :k, :k] -= ((col / w[:, k, k, None])[:, :, None]
                                 * w[:, k, None, :k])
            # contiguous: numpy's elementwise loops for strided input may
            # round differently (np.log of a reversed view does)
            flat = w.reshape(nb, s * s)
            d = flat[:, ::s + 1].copy()
            # a skip was exact unless its pivot is 0 or nan or its row is not
            # finite; a zero pivot at a step not skipped leaves every later
            # column non-finite, so no later step is skipped: rows lo on tell
            if lo == s or (np.count_nonzero(d[:, lo:]) == nb * (s - lo) and
                           np.logical_and.reduce(np.isfinite(w[:, lo:]), None)):
                break
        zeta = np.take(flat, at, axis=1) / np.take(d, rows, axis=1)
    # a nan pivot flags no row: fmin passes over it
    return w, d, zeta, ~(np.fmin.reduce(np.abs(d), axis=1) < tol)


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
    piv = _doolittle(g[None], (), ())[1][0, ::-1]
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
