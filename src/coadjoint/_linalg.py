"""Numerical kernels: triangular factorizations and log-det derivatives.

Everything here works on plain complex ndarrays, batched where useful. The
factorizations are the two workhorses of the library, shared by every
family:

* ``_rq``: z = u k with u upper triangular and k unitary, from one
  Householder QR of the index-reversed transpose of z. No Gram matrix z z*
  is formed, so the condition number is not squared. ``iwasawa_nak`` reads
  the Iwasawa N, A and K factors from it, ``Family.log_a`` the A-diagonal
  from its R factor alone.
* ``ul_decompose``: g = n d zeta with n unit upper triangular, d diagonal,
  zeta unit lower triangular (Gauss-Bruhat on the open cell), for a whole
  stack at once, with a mask of the rows on the cell.

``wirtinger_hessian`` differentiates log det of every trailing minor of
z z* twice in closed form, from the same factor u (z z* = u u*); the Kahler
metric and the pairing integrand are combinations of these.

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
    |u_ii| are returned. Raises NumericalBreakdown when a diagonal entry of
    u is exactly zero (z singular to working precision) or not finite.
    """
    zt = np.swapaxes(np.asarray(z, dtype=complex)[..., ::-1, :], -1, -2)
    # mode "raw" returns R transposed, with the same diagonal
    out = np.linalg.qr(zt, mode="raw" if r_only else "reduced")
    diag = np.diagonal(out[0 if r_only else 1], axis1=-2, axis2=-1)[..., ::-1]
    if not np.all(np.isfinite(diag) & (diag != 0)):
        raise NumericalBreakdown("z is singular to working precision or not "
                                 "finite")
    if r_only:
        return np.abs(diag)
    return (np.swapaxes(out[1], -1, -2)[..., ::-1, ::-1],
            np.swapaxes(out[0], -1, -2)[..., ::-1, :])


def iwasawa_nak(z: np.ndarray):
    """NAK factors of invertible ``z`` (stacked ok) w.r.t. the upper Borel.

    Returns ``(n, d, k)`` with ``z = n @ diag(d) @ k``, ``n`` unit upper
    triangular, ``d > 0`` and ``k`` unitary: the phases of the diagonal of
    ``_rq``'s u move into k. Raises NumericalBreakdown where ``_rq`` does.
    """
    u, k = _rq(z)
    delta = np.diagonal(u, axis1=-2, axis2=-1)
    d = np.abs(delta)
    return u / delta[..., None, :], d, (delta / d)[..., :, None] * k


def ul_decompose(g):
    """Gauss factorization ``g = n @ diag(d) @ zeta`` of a stack on the open cell.

    ``g`` is (N, s, s); returns ``(n, d, zeta, in_cell)`` with ``n`` unit
    upper triangular, ``zeta`` unit lower triangular, ``d`` (N, s) and the
    (N,) mask ``in_cell``. Doolittle without pivoting on the index-reversed
    matrices, one step per column for the whole stack, in place: the
    multipliers overwrite the eliminated column. A row is outside the cell
    when a pivot (a ratio of trailing principal minors) has
    |pivot| < CELL_TOL * max|g|; its factors are then meaningless. A nan entry
    does not flag its row, an infinite one makes every finite pivot fail.
    ``cell_miss`` names the failing pivot of one row.
    """
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
        lower, upper, eye = _triangles(s)
        lo = np.where(lower, w, eye)
        up = np.where(upper, w / dd[:, :, None], eye)
    in_cell = ~(np.abs(dd) < CELL_TOL * scale[:, None]).any(axis=1)
    # contiguous: numpy's elementwise loops for strided input may round
    # differently (np.log of a reversed view does)
    return (np.ascontiguousarray(lo[:, ::-1, ::-1]),
            np.ascontiguousarray(dd[:, ::-1]),
            np.ascontiguousarray(up[:, ::-1, ::-1]), in_cell)


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
    piv = ul_decompose(g[None])[1][0, ::-1]
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


def wirtinger_hessian(z, a) -> np.ndarray:
    """d_a dbar_b log det G[j:, j:] of G = z z*, for every trailing size j.

    ``z`` is a stack (N, s, s) of invertible matrices, holomorphic in the m
    coordinates, and ``a`` (N, m, s, s) holds dz/dz_a. Returns the hermitian
    (N, m, m, s), j last: the closed form tr(G^-1 a_a a_b*) -
    tr(G^-1 a_a z* G^-1 z a_b*) on each trailing block.

    One factorization z = u k of ``_rq`` (so G = u u*) and one triangular
    solve for the direction blocks serve every j: put p_a = u^-1 a_a k*. As
    u is upper triangular, G[j:, j:]^-1 = u[j:, j:]^-* u[j:, j:]^-1 reads
    rows j: of it, and the closed form becomes

        sum_{i >= j > k} p_a[i,k] conj(p_b[i,k]),

    free of cancellation and positive semidefinite. Neither G nor G^-1 is
    formed. Raises NumericalBreakdown where ``_rq`` does.
    """
    nb, m, s = a.shape[:3]
    u, k = _rq(z)
    rhs = a.transpose(0, 2, 1, 3).reshape(nb, s, m * s)
    kh = np.conj(np.swapaxes(k, -1, -2))
    p = np.linalg.solve(u, rhs).reshape(nb, s, m, s) \
        .transpose(0, 2, 1, 3) @ kh[:, None]
    below = _below_mask(s)
    # p_a[i, k] conj(p_b[i, k]), flattened over (i, k)
    pair = (p[:, :, None] * np.conj(p[:, None])).reshape(nb, m, m, s * s)
    return pair @ below


def complex_laplacian(z, dz) -> np.ndarray:
    """d dbar log det G[j:, j:] along one holomorphic coordinate t.

    ``z`` (N, s, s) is holomorphic in t with dz/dt = ``dz``; returns the real
    (N, s), j last. The one-coordinate case of ``wirtinger_hessian``.
    """
    return wirtinger_hessian(z, dz[:, None])[:, 0, 0].real


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached and read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(n))
