"""Numerical kernels: triangular factorizations and log-det derivatives.

Everything here works on plain complex ndarrays (batched where useful) or on
QuaternionMatrix. The factorizations are the two workhorses of the library:

* ``udu_factor``: z z* = n diag(d^2) n* with n unit upper triangular and
  d > 0, computed through a Cholesky factorization of the index-reversed
  matrix. This is the Iwasawa A/N data of a chart representative.
* ``ul_decompose``: g = n d zeta with n unit upper triangular, d diagonal,
  zeta unit lower triangular (Gauss-Bruhat on the open cell).

``wirtinger_hessian`` differentiates log det of every trailing minor of
z z* twice in closed form, from the Cholesky factor of ``cholesky_upper``;
the Kahler metric and the pairing integrand are combinations of these.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalBreakdown, OutsideCell
from .quaternion import Quaternion, QuaternionMatrix

MINOR_TOL = 1e-14
CELL_TOL = 1e-12


def cholesky_upper(m: np.ndarray):
    """Upper factor ``u`` of ``m = u u*`` (stacked ok) and its diagonal ``d``.

    ``u`` is the index reversal of the Cholesky factor of the index-reversed
    ``m``; ``d`` is its real positive diagonal. Raises NumericalBreakdown when
    ``m`` is not numerically positive definite or a trailing principal minor
    falls below tolerance. Callers that need only ``d`` (the Iwasawa A-part)
    take it from here and skip forming ``n``.
    """
    m = np.asarray(m, dtype=complex)
    rev = m[..., ::-1, ::-1]
    try:
        c = np.linalg.cholesky(rev)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown("z z* is not numerically positive definite") from exc
    u = c[..., ::-1, ::-1]
    d = np.diagonal(u, axis1=-2, axis2=-1).real.copy()
    if np.min(d) ** 2 < MINOR_TOL:
        raise NumericalBreakdown("principal minor below tolerance")
    return u, d


def udu_factor(m: np.ndarray):
    """Factor hermitian positive definite ``m`` (stacked ok) as n D n*.

    Returns ``(n, d)`` with ``n`` unit upper triangular and ``d > 0`` such
    that ``m = n @ diag(d**2) @ n*``. Raises NumericalBreakdown when a
    trailing principal minor falls below tolerance.
    """
    u, d = cholesky_upper(m)
    n = u / d[..., None, :]
    return n, d


def iwasawa_nak(z: np.ndarray):
    """NAK factors of invertible ``z`` (stacked ok) w.r.t. the upper Borel.

    Returns ``(n, d, k)`` with ``z = n @ diag(d) @ k``, ``n`` unit upper
    triangular, ``d > 0`` and ``k`` unitary. Only z z* enters the N and A
    factors, so right-multiplying ``z`` by a unitary changes only ``k``.
    """
    z = np.asarray(z, dtype=complex)
    n, d = udu_factor(z @ np.conj(np.swapaxes(z, -1, -2)))
    k = np.linalg.solve(n, z) / d[..., :, None]
    return n, d, k


def ul_decompose(g: np.ndarray, tol: float = CELL_TOL):
    """Gauss factorization ``g = n @ diag(d) @ zeta`` on the open Bruhat cell.

    ``n`` is unit upper triangular, ``zeta`` unit lower triangular. Raises
    OutsideCell when a required trailing principal minor (pivot, relative to
    the matrix norm) is below ``tol``.
    """
    a = np.asarray(g, dtype=complex)
    nn = a.shape[0]
    scale = max(float(np.max(np.abs(a))), 1e-300)
    w = a[::-1, ::-1].copy()
    lo = np.eye(nn, dtype=complex)
    up = np.eye(nn, dtype=complex)
    dd = np.zeros(nn, dtype=complex)
    for k in range(nn):
        piv = w[k, k]
        if abs(piv) < tol * scale:
            raise OutsideCell(
                f"Bruhat pivot {k} has magnitude {abs(piv):.3e}; "
                "the element misses this cell")
        dd[k] = piv
        if k + 1 < nn:
            lo[k + 1:, k] = w[k + 1:, k] / piv
            up[k, k + 1:] = w[k, k + 1:] / piv
            w[k + 1:, k + 1:] -= np.outer(lo[k + 1:, k], w[k, k + 1:])
    n = lo[::-1, ::-1].copy()
    zeta = up[::-1, ::-1].copy()
    d = dd[::-1].copy()
    return n, d, zeta


def quaternion_udu(m: QuaternionMatrix):
    """Quaternionic ``m = n diag(d) n*`` for hermitian positive definite m.

    Returns ``(n, d)`` with n unit upper triangular (quaternionic) and d a
    real positive vector. Recursion on trailing minors; entries are combined
    in the order u_ik * d_k * conj(u_jk), which is scalar-safe because the
    pivots are real.
    """
    nn = m.shape[0]
    w = m.copy()
    u = QuaternionMatrix.eye(nn)
    d = np.zeros(nn)
    for k in range(nn - 1, -1, -1):
        piv = w[k, k].z1.real
        if piv < MINOR_TOL:
            raise NumericalBreakdown("quaternionic principal minor below tolerance")
        d[k] = piv
        for i in range(k):
            u[i, k] = w[i, k] * (1.0 / piv)
        for i in range(k):
            for j in range(k):
                w[i, j] = w[i, j] - u[i, k] * d[k] * u[j, k].conjugate()
    return u, d


def quaternion_iwasawa(z: QuaternionMatrix):
    """Quaternionic NAK: ``z = n a k`` with a real positive diagonal, k unitary."""
    n, d = quaternion_udu(z @ z.h)
    a = np.sqrt(d)
    # k = a^-1 n^-1 z by forward substitution on the unit upper triangular n
    nn = z.shape[0]
    x = z.copy()
    for i in range(nn - 1, -1, -1):
        for j in range(i + 1, nn):
            nij = n[i, j]
            for c in range(nn):
                x[i, c] = x[i, c] - nij * x[j, c]
    k = x.copy()
    for i in range(nn):
        for c in range(nn):
            k[i, c] = (1.0 / a[i]) * k[i, c]
    return n, a, k


def quaternion_ul(g: QuaternionMatrix, tol: float = CELL_TOL):
    """Quaternionic Gauss factorization ``g = n diag(d) zeta``."""
    nn = g.shape[0]
    scale = max(g.norm_max(), 1e-300)
    # work on the index-reversed matrix, Doolittle without pivoting
    w = QuaternionMatrix(g.z1[::-1, ::-1].copy(), g.z2[::-1, ::-1].copy())
    lo = QuaternionMatrix.eye(nn)
    up = QuaternionMatrix.eye(nn)
    dd = [Quaternion(0.0)] * nn
    for k in range(nn):
        piv = w[k, k]
        if abs(piv) < tol * scale:
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
def _trailing_masks(s: int):
    """(s*s, s) indicators of the blocks {i >= j > k} and {i, k >= j} per j."""
    i, k = np.indices((s, s)).reshape(2, s * s, 1)
    j = np.arange(s)
    below = (i >= j) & (k < j)
    return below.astype(float), ((i >= j) & (k >= j)).astype(float)


def wirtinger_hessian(z, a, b=None) -> np.ndarray:
    """d_a dbar_b log det G[j:, j:] of G = z z*, for every trailing size j.

    ``z`` is a stack (N, s, s) of invertible matrices and ``a``, ``b``
    (N, m, s, s) hold dz/dz_a and dz/dzbar_a (``b`` None when z is
    holomorphic); z must have no mixed second derivatives d_a dbar_b z.
    Returns the hermitian (N, m, m, s), j last: the closed form
    tr(G^-1 (a_a a_b* + b_b b_a*)) - tr(G^-1 d_aG G^-1 dbar_bG) on each
    trailing block, with d_aG = a_a z* + z b_a*.

    One Cholesky factor G = u u* and one triangular solve serve every j:
    with the unitary k = u^-1 z, put p_a = u^-1 a_a k* and q_a = u^-1 b_a k*.
    As u is upper triangular, G[j:, j:]^-1 = u[j:, j:]^-* u[j:, j:]^-1 reads
    rows j: of them, and the closed form becomes

        sum_{i >= j > k} p_a[i,k] conj(p_b[i,k]) + q_b[i,k] conj(q_a[i,k])
        - sum_{i, k >= j} p_a[i,k] q_b[k,i] + conj(q_a[k,i] p_b[i,k]),

    free of cancellation (and positive semidefinite) for holomorphic z.
    G^-1 is never formed. Raises NumericalBreakdown where ``cholesky_upper``
    does.
    """
    nb, m, s = a.shape[:3]
    u, _ = cholesky_upper(z @ np.conj(np.swapaxes(z, -1, -2)))
    dirs = [a] if b is None else [a, b]
    rhs = np.concatenate([z] + [d.transpose(0, 2, 1, 3).reshape(nb, s, m * s)
                                for d in dirs], axis=-1)
    x = np.linalg.solve(u, rhs)
    kh = np.conj(np.swapaxes(x[..., :s], -1, -2))
    pq = x[..., s:].reshape(nb, s, len(dirs) * m, s).transpose(0, 2, 1, 3) \
        @ kh[:, None]
    below, trail = _trailing_masks(s)

    def pair(v, w):
        # v_a[i, k] conj(w_b[i, k]), flattened over (i, k)
        return (v[:, :, None] * np.conj(w[:, None])).reshape(nb, m, m, s * s)

    p = pq[:, :m]
    h = pair(p, p) @ below
    if b is not None:
        q = pq[:, m:]
        cross = pair(p, np.conj(np.swapaxes(q, -1, -2))) @ trail
        h = (h + np.swapaxes(pair(q, q), 1, 2) @ below
             - cross - np.conj(np.swapaxes(cross, 1, 2)))
    return h


def complex_laplacian(z, dz) -> np.ndarray:
    """d dbar log det G[j:, j:] along one holomorphic coordinate t.

    ``z`` (N, s, s) is holomorphic in t with dz/dt = ``dz``; returns the real
    (N, s), j last. The one-coordinate case of ``wirtinger_hessian``.
    """
    return wirtinger_hessian(z, dz[:, None])[:, 0, 0].real


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(n)
