"""Numerical kernels: triangular factorizations and finite differencing.

Everything here works on plain complex ndarrays (batched where useful) or on
QuaternionMatrix. The factorizations are the two workhorses of the library:

* ``udu_factor``: z z* = n diag(d^2) n* with n unit upper triangular and
  d > 0, computed through a Cholesky factorization of the index-reversed
  matrix. This is the Iwasawa A/N data of a chart representative.
* ``ul_decompose``: g = n d zeta with n unit upper triangular, d diagonal,
  zeta unit lower triangular (Gauss-Bruhat on the open cell).
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
# finite differencing


def wirtinger_hessian(f, z0, h: float = 1e-4, richardson: bool = True):
    """Hermitian matrix of mixed second derivatives d^2 f / dz_a dzbar_b.

    ``f`` maps an (N, m) complex batch to an (N,) real batch; ``z0`` is a
    length-m complex point. Central differences with step ``h`` on the real
    coordinates (Re z_1..Re z_m, Im z_1..Im z_m); one Richardson step
    (base h against 2h) removes the leading h^2 error.
    """
    z0 = np.asarray(z0, dtype=complex).ravel()
    m = z0.size
    nreal = 2 * m
    steps = (1, 2) if richardson else (1,)

    offsets = {}

    def register(vec):
        key = tuple(vec)
        if key not in offsets:
            offsets[key] = len(offsets)
        return offsets[key]

    def unit(u):
        v = [0] * nreal
        v[u] = 1
        return np.array(v)

    register([0] * nreal)
    needed = []
    for u in range(nreal):
        for v in range(u, nreal):
            for s in steps:
                if u == v:
                    pts = [register(s * unit(u)), register(-s * unit(u))]
                else:
                    eu, ev = unit(u), unit(v)
                    pts = [register(s * (eu + ev)), register(s * (eu - ev)),
                           register(s * (-eu + ev)), register(s * (-eu - ev))]
                needed.append((u, v, s, pts))

    grid = np.zeros((len(offsets), m), dtype=complex)
    for key, idx in offsets.items():
        vec = np.asarray(key, dtype=float) * h
        grid[idx] = z0 + vec[:m] + 1j * vec[m:]
    vals = np.asarray(f(grid), dtype=float)
    f0 = vals[0]

    raw = {}
    for u, v, s, pts in needed:
        hs = s * h
        if u == v:
            raw[(u, v, s)] = (vals[pts[0]] - 2.0 * f0 + vals[pts[1]]) / hs ** 2
        else:
            raw[(u, v, s)] = (vals[pts[0]] - vals[pts[1]]
                              - vals[pts[2]] + vals[pts[3]]) / (4.0 * hs ** 2)

    def d2(u, v):
        if u > v:
            u, v = v, u
        if richardson:
            return (4.0 * raw[(u, v, 1)] - raw[(u, v, 2)]) / 3.0
        return raw[(u, v, 1)]

    g = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            xx = d2(a, b)
            yy = d2(m + a, m + b)
            xy = d2(a, m + b)
            yx = d2(m + a, b)
            g[a, b] = 0.25 * ((xx + yy) + 1j * (xy - yx))
    return 0.5 * (g + g.conj().T)


def complex_laplacian(f, t, h: float = 1e-4, richardson: bool = True):
    """Quarter Laplacian d^2 f / dt dtbar for a batch of complex points.

    ``f`` maps a flat complex array of M points to a real ndarray of shape
    (M,), one scalar function, or (M, k), k functions side by side; ``t`` is
    any-shaped complex input. The result has shape ``t.shape`` or
    ``t.shape + (k,)``. The stencil is vectorized into a single call to
    ``f``, and each column goes through the same arithmetic as a scalar
    ``f`` returning that column alone.
    """
    t = np.asarray(t, dtype=complex)
    flat = t.ravel()
    steps = [h, 2 * h] if richardson else [h]
    shifts = [0.0]
    for s in steps:
        shifts.extend([s, -s, 1j * s, -1j * s])
    pts = (flat[None, :] + np.asarray(shifts, dtype=complex)[:, None]).ravel()
    vals = f(pts).astype(float, copy=False)
    cols = vals.shape[1:]
    vals = vals.reshape((len(shifts), flat.size) + cols)
    f0 = vals[0]

    def lap(base):
        # rows base..base+3 hold +s, -s, +is, -is
        s = steps[(base - 1) // 4]
        return (vals[base] + vals[base + 1] + vals[base + 2] + vals[base + 3]
                - 4.0 * f0) / s ** 2
    if richardson:
        full = (4.0 * lap(1) - lap(5)) / 3.0
    else:
        full = lap(1)
    return (0.25 * full).reshape(t.shape + cols)


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(n)
