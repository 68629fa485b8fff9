"""Shared test utilities."""

import csv
import io
import itertools
from collections import Counter
from numbers import Integral

import numpy as np

from coadjoint import decompose, kahler, orbit
from coadjoint._families import _dual
from coadjoint._linalg import (CELL_TOL, _below_mask, _rq, complex_laplacian,
                               gauss_legendre)
from coadjoint.checks import (haar_su, iwasawa_residuals, random_chart,  # noqa: F401
                              spectral_mismatch)
from coadjoint.cohomology import basis_cycles
from coadjoint.errors import NumericalBreakdown, OutsideCell
from coadjoint.groups import _action_key, _poly_divide, weyl_group
from coadjoint.kahler import potential_batch
from coadjoint.orbit import DUAL_PAIRING_SCALE, GELL_MANN, required_zero_mask
from coadjoint.quaternion import QuaternionMatrix


def mat_max(x):
    """Max entry magnitude."""
    return float(np.max(np.abs(np.asarray(x))))


def haar_sp(n, rng) -> QuaternionMatrix:
    """Haar-random Sp(n) element in quaternionic form.

    The QR of the complex image of a quaternionic Gaussian stays in that
    image; the phases of R are moved into Q.
    """
    def cplx():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(QuaternionMatrix(cplx(), cplx()).embed())
    q = q * np.conj(np.diag(r) / np.abs(np.diag(r)))[None, :]
    return QuaternionMatrix.from_embedded(q)


def haar_so(n, rng) -> np.ndarray:
    """Haar-random SO(n) element: QR of a real Gaussian with det Q = +1."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q.astype(complex)


def identity_like(spec, x):
    return np.eye(np.asarray(x).shape[0], dtype=complex)


# ---------------------------------------------------------------------------
# Weyl-group enumeration: the oracle for the Poincare-polynomial topology


def _parabolic_actions(wg, gen_indices):
    """Closure (as actions) of the subgroup generated by given reflections."""
    dim = wg.generators[0].action.shape[0] if wg.generators else 1
    ident = np.eye(dim)
    actions = {_action_key(ident): ident}
    frontier = [ident]
    gens = [wg.generators[k].action for k in gen_indices]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = g @ a
                key = _action_key(b)
                if key not in actions:
                    actions[key] = b
                    nxt.append(b)
        frontier = nxt
    return actions


def _coset_length_counts(wg, sub_gens, within_gens=None) -> tuple:
    """Length distribution of minimal coset representatives in H\\W (or H\\W_K)."""
    sub = _parabolic_actions(wg, sub_gens)
    within = None
    if within_gens is not None:
        within = set(_parabolic_actions(wg, within_gens).keys())
    length_of = {el.action_key(): el.length for el in wg.elements}
    counts = Counter()
    done = set()
    for el in wg.elements:
        key = el.action_key()
        if key in done or (within is not None and key not in within):
            continue
        coset = {_action_key(el.action @ h) for h in sub.values()}
        done |= coset
        counts[min(length_of[k] for k in coset)] += 1
    top = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(top + 1))


def macdonald_polynomial(spec, gens=None) -> tuple:
    """P_{W_J} by Macdonald's product, formed afresh on every call.

    Each positive root whose simple-root support lies in J (every root when
    ``gens`` is None) contributes [h + 1]_t / [h]_t, h its height; the two
    integer products are divided once with ``_poly_divide``. The products
    are formed in python integers: on Sp(6) their coefficients pass 2^63.
    """
    inside = set(range(spec.rank)) if gens is None else set(gens)
    num = den = np.ones(1, dtype=object)
    for row in spec.adapter.simple_root_coefficients:
        if set(np.flatnonzero(row).tolist()) <= inside:
            h = int(row.sum())
            num = np.convolve(num, np.ones(h + 1, dtype=object))
            den = np.convolve(den, np.ones(h, dtype=object))
    return _poly_divide(tuple(num.tolist()), tuple(den.tolist()))


# ---------------------------------------------------------------------------
# Float root pairings: the oracle for the wall-derived degeneracy data


def _equal_blocks(values, tol: float = 1e-12):
    """Multiplicities of equal consecutive entries of a sorted-ish vector."""
    vals = list(np.asarray(values, dtype=float))
    if not vals:
        return []
    vals = sorted(vals, reverse=True)
    blocks = [1]
    for prev, cur in zip(vals, vals[1:]):
        if abs(prev - cur) < tol:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return blocks


def _float_stabilizer_description(fam, coords):
    """Stabilizer name from equal and vanishing weight coordinates."""
    if fam.family == "su":
        blocks = _equal_blocks(coords)
        if all(b == 1 for b in blocks):
            return "x".join(["U(1)"] * fam.rank)
        big = [b for b in blocks if b > 1]
        if len(big) == 1:
            parts = [f"SU({big[0]})"] + ["U(1)"] * (len(blocks) - 1)
            return "x".join(parts)
        return "S(" + "x".join(f"U({b})" for b in blocks) + ")"
    if fam.family == "sp":
        c = np.asarray(coords, dtype=float)
        zero = int(np.sum(np.abs(c) < 1e-12))
        blocks = _equal_blocks(c[np.abs(c) >= 1e-12])
        parts = [f"U({b})" if b > 1 else "U(1)" for b in blocks]
        if zero:
            parts.append(f"Sp({zero})")
        return "x".join(parts) if parts else "Sp(0)"
    if fam.n == 3:
        return "SO(2)"
    c = np.asarray(coords, dtype=float)
    if abs(abs(c[0]) - abs(c[1])) < 1e-12:
        return "U(2)"
    return "SO(2)xSO(2)"


def float_degeneracy(spec, point):
    """(required-zero mask, real dimension, stabilizer) from float pairings."""
    fam = spec.adapter
    c = np.asarray(point.coords)
    mask = np.array([abs(float(c @ info.as_array())) < 1e-12
                     for info in fam.positive_roots])
    nonzero = sum(1 for info in fam.positive_roots
                  if abs(float(c @ info.as_array())) >= 1e-12)
    return mask, 2 * nonzero, _float_stabilizer_description(fam, c)


def integrality_per_root(spec, point):
    """(flags, ratios) of 2<c, alpha_k>/<alpha_k, alpha_k>, one simple root
    at a time: the oracle for ``kahler.integrality_check``."""
    c = np.asarray(point.coords)
    ratios, flags = [], []
    for info in spec.simple_roots:
        a = info.as_array()
        ratio = 2.0 * float(c @ a) / float(a @ a)
        ratios.append(ratio)
        flags.append(bool(abs(ratio - round(ratio)) < 1e-9))
    return tuple(flags), tuple(ratios)


def linear_find(wg, action):
    """Weyl element with the given action, by scanning every element."""
    key = _action_key(action)
    for el in wg.elements:
        if el.action_key() == key:
            return el
    raise KeyError("action is not a Weyl element")


def composed_element(wg, word):
    """Element of a word by composing the integer actions letter by letter
    and keying the product: the oracle for ``groups.weyl_element`` and
    ``WeylGroup.element_by_word``."""
    act = wg.elements[0].action
    for k in word:
        if not isinstance(k, Integral) or k not in range(wg.spec.rank):
            raise ValueError(f"{wg.spec.name} has no simple reflection "
                             f"{k!r}, only 0..{wg.spec.rank - 1}")
        act = wg.generators[k].action @ act
    return wg.find(act)


# ---------------------------------------------------------------------------
# Full Gauss-Bruhat read-out: the oracle for transitions and cocycle shifts


def ul_decompose_unpacked(g):
    """``ul_decompose`` as one function: the stacked elimination with n, d
    and zeta unpacked at the end, each made contiguous."""
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
        dd = flat[:, ::s + 1]
        lower = np.tri(s, k=-1, dtype=bool)
        eye = np.eye(s, dtype=complex)
        lo = np.where(lower, w, eye)
        up = np.where(lower.T, w / dd[:, :, None], eye)
    in_cell = ~(np.abs(dd) < CELL_TOL * scale[:, None]).any(axis=1)
    return (np.ascontiguousarray(lo[:, ::-1, ::-1]),
            np.ascontiguousarray(dd[:, ::-1]),
            np.ascontiguousarray(up[:, ::-1, ::-1]), in_cell)


def bruhat_chart_full(spec, g) -> tuple:
    """``decompose.bruhat_chart`` through ``ul_decompose_unpacked``: n, d
    and zeta unpacked, off-cell rows of all three set to nan, coordinates
    read off zeta."""
    fam = spec.adapter
    n, d, zeta, in_cell = ul_decompose_unpacked(fam.split_from_working(g))
    for x in (n, d, zeta):
        x[~in_cell] = np.nan
    return fam.coords_from_zeta_split(zeta), d, in_cell


def composed_weyl_element(spec, word):
    """``groups.weyl_element`` on the enumerated group: the (word, lift) of
    the element that ``composed_element`` keys."""
    el = composed_element(weyl_group(spec), word)
    return el.word, el.matrix


def full_readout(monkeypatch):
    """Route transitions and cocycle shifts through ``bruhat_chart_full``
    and words through ``composed_weyl_element`` while the patch holds."""
    monkeypatch.setattr(orbit, "bruhat_chart", bruhat_chart_full)
    monkeypatch.setattr(kahler, "bruhat_chart", bruhat_chart_full)
    monkeypatch.setattr(orbit, "weyl_element", composed_weyl_element)


# ---------------------------------------------------------------------------
# Finite differences: the oracle for the closed-form metric and Laplacian


def fd_wirtinger_hessian(f, z0, h: float = 1e-4, richardson: bool = True):
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


def fd_complex_laplacian(f, t, h: float = 1e-4, richardson: bool = True):
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


def fd_chart_jacobian(fam, coords):
    """``Family.chart_jacobian`` by central differences, over 2 dim + 1
    chart builds per row.

    Every chart entry is a holomorphic polynomial of degree at most 2 in
    each single coordinate (SO(3) has z^2; the SO(4) and Sp entries are
    affine in each coordinate, as a product down a triangular matrix uses
    each entry at most once), so a central difference along a coordinate is
    the exact derivative for any step, whatever the total degree (n - 1 for
    Sp(n)). The step is the power of two at or above the point's largest
    coordinate (at least 1), which keeps the rounding of the difference
    relative to the chart entries at the shifted points.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=complex))
    nb, dim = coords.shape
    e = np.eye(dim)
    h = np.exp2(np.ceil(np.log2(np.maximum(
        1.0, np.max(np.abs(coords), axis=1)))))[:, None, None]
    pts = coords[:, None] + h * np.concatenate([e, -e])
    z = fam.chart_split(np.concatenate([coords, pts.reshape(-1, dim)]))
    d = z[nb:].reshape((nb, 2, dim) + z.shape[1:]) \
        / (2.0 * h[..., None, None])
    return z[:nb], d[:, 0] - d[:, 1]


def sp_chart_oracle(fam, coords, jac=False):
    """``SpFamily._chart`` as stacked products: [[A], [J U]] written into
    the identity, J U A by ``_small_matmul`` less the J S corner, and A^-1
    by Horner; the oracle of the compiled passes, (N, 1 + dim, s, s) with
    ``jac``, else (N, 1, s, s)."""
    c = np.atleast_2d(np.asarray(coords, dtype=complex))[:, None]
    if jac:
        e = np.eye(c.shape[-1])
        c = np.concatenate([c, np.broadcast_to(e, (len(c),) + e.shape)], 1)
    z = np.zeros(c.shape[:2] + (fam.slots,) * 2, dtype=complex)
    z[:, 0] = np.eye(fam.slots)
    _sp_fill_chart(fam, z, c)
    return z


def _sp_fill_chart(fam, z, c):
    n, s = fam.n, fam.slots
    # U[c, r] = U[r, c]: the entries of J U below its anti-diagonal
    mirror = [(k, s - 1 - c, s - 1 - r)
              for k, (r, c) in enumerate(zip(fam._rows, fam._cols))
              if r >= n and r + c < s - 1]
    midx, mrows, mcols = np.array(mirror).T
    one = np.zeros((z.shape[1], n, n), dtype=complex)
    one[0] = np.eye(n)
    z[..., fam._rows, fam._cols] = c                # [[A], [J U]]
    z[..., mrows, mcols] = c[..., midx]
    low, ju = z[..., :n, :n] - one, z[..., n:, :n]
    # J S of the Sp(2) corner: S = x [[U10, U11/2], [U11/2, 0]]
    x = low[..., 1, 0]
    js = (_dual(np.multiply, x, ju[..., n - 2, 0]),
          _dual(np.multiply, 0.5 * x, ju[..., n - 2, 1]))
    ju += _dual(_small_matmul, ju, low)
    ju[..., -1, 0] -= js[0]
    ju[..., -1, 1] -= js[1]
    ju[..., -2, 0] -= js[1]
    # A^-1 = sum_k (-L)^k, L = A - I nilpotent of order n, by Horner
    inv = one - low
    for _ in range(n - 2):
        inv = one - _dual(_small_matmul, low, inv)
    z[..., n:, n:] = np.swapaxes(inv, -1, -2)[..., ::-1, ::-1]


def _small_matmul(x, y):
    """x @ y for stacks of small matrices, one broadcast product per inner
    index: np.matmul makes one call per matrix, which costs several times as
    much at these sizes."""
    out = x[..., :, :1] * y[..., :1, :]
    for k in range(1, x.shape[-1]):
        out += x[..., :, k:k + 1] * y[..., k:k + 1, :]
    return out


def sp_coords_oracle(fam, zeta):
    """``SpFamily.coords_from_zeta_split`` by a row-by-row inverse and
    stacked products; the oracle of the compiled read-out."""
    # zeta = [[A, 0], [C, D]] with A^-1 = J D^T J, so J P = C A^-1;
    # U = P + S A^-1 on the Sp(2) corner. A and A^-1 are both read from
    # D: a rounded zeta is not exactly symplectic, and the trailing rows
    # [C, D] carry the potential, so a chart rebuilt around the A block
    # instead misses them (Phi by up to 1e-7 near the cell boundary)
    n = fam.n
    zeta = np.asarray(zeta)
    a_inv = np.swapaxes(zeta[..., n:, n:], -1, -2)[..., ::-1, ::-1]
    # A from A^-1 A = I, row by row: A[i, :i] = -A^-1[i, :i] A[:i, :i]
    a = a_inv.copy()
    for i in range(1, n):
        a[..., i, :i] = -(a_inv[..., i:i + 1, :i]
                          @ a[..., :i, :i])[..., 0, :]
    jp = zeta[..., n:, :n] @ a_inv
    x = a[..., 1, 0]
    h = 0.5 * x * jp[..., n - 2, 1]
    u10 = jp[..., n - 1, 1] + h
    jp[..., n - 1, 0] += x * (u10 - h)
    jp[..., n - 1, 1] = jp[..., n - 2, 0] = u10
    return np.concatenate([a, jp], axis=-2)[..., fam._rows, fam._cols]


def fd_metric(spec, point, chart, step=1e-4):
    """Metric on the active coordinates by Richardson central differences."""
    mask = required_zero_mask(spec, point)
    active = tuple(int(i) for i in np.nonzero(~mask)[0])
    z0 = chart.array()

    def f(batch):
        full = np.tile(z0, (len(batch), 1))
        full[:, list(active)] = batch
        return potential_batch(spec, point, full)

    return fd_wirtinger_hessian(f, z0[list(active)], h=step)


# ---------------------------------------------------------------------------
# Product rule in (theta, phi): the oracle for the radial pairing quadrature


def _product_rule_row(spec, i, order):
    """Row int_{gamma_i} omega_j, j = 1..rank, from one pass over the cycle."""
    fam = spec.adapter
    xs, ws = gauss_legendre(order)
    theta = (xs + 1.0) * (np.pi / 2.0)
    wth = ws * (np.pi / 2.0)
    phi = (xs + 1.0) * np.pi
    wph = ws * np.pi
    # r = tan(theta/2); past theta = pi/2 switch to the flipped chart, where
    # the radial coordinate is 1/r and the potential function is unchanged
    rho = np.where(theta <= np.pi / 2.0,
                   np.tan(theta / 2.0), np.tan((np.pi - theta) / 2.0))
    t = rho[:, None] * np.exp(1j * phi[None, :])
    z = fam.cycle_chart(i, t.ravel())
    # the cycle chart is exp(t x_i), so dz/dt = z x_i
    lap = complex_laplacian(z, z @ fam.cycle_generators()[i],
                            fam.minor_weights.T).reshape(t.shape + (-1,))
    jac = rho * (1.0 + rho ** 2) / 2.0
    return np.array([wth @ (lap[..., j] * jac[:, None]) @ wph / np.pi
                     for j in range(lap.shape[-1])])


def product_rule_pairing(spec, order):
    """Pairing matrix from the order x order Gauss-Legendre rule in (theta, phi).

    Integrates the phi axis numerically, where the library takes it as
    exactly 2 pi; the two agree when the integrand is torus invariant.
    """
    return np.array([_product_rule_row(spec, cyc.index, order)
                     for cyc in basis_cycles(spec)])


# ---------------------------------------------------------------------------
# Root spaces by slot weights and cycle charts by the exponential series: the
# oracles for the root vectors, cycle generators and cycle charts that the
# library reads off the chart


CHART_GROUPS = ([("su", n) for n in range(2, 7)]
                + [("sp", n) for n in range(2, 6)] + [("so", 3), ("so", 4)])


def slot_weights(fam) -> np.ndarray:
    """Weights (slots, rankdim) of the split-basis slots of a family.

    SU(n): e_1..e_n. The others: (e_1..e_r, [0,] -e_r..-e_1), r the rank.
    """
    if fam.family == "su":
        return np.eye(fam.n)
    half = np.eye(fam.rank)
    mid = np.zeros((fam.slots - 2 * fam.rank, fam.rank))
    return np.concatenate([half, mid, -half[::-1]])


def root_vector_minus(fam, beta) -> np.ndarray:
    """Split-basis lowering generator of root ``beta`` by a slot-weight search.

    The root space lies in the span of the matrix units (p, q) with slot
    weights w_p - w_q = -beta. The first of them (row-major) gets coefficient
    1. A second one, its mirror, gets the coefficient that keeps x in the Lie
    algebra, x^T Q + Q x = 0 for the invariant form Q of the split basis:
    Omega for Sp, the index reversal for SO.
    """
    w, s = slot_weights(fam), fam.slots
    positions = [(p, q) for p in range(s) for q in range(s)
                 if p != q and np.allclose(w[p] - w[q], -np.asarray(beta))]
    x = np.zeros((s, s), dtype=complex)
    x[positions[0]] = 1.0
    if len(positions) > 1:
        form = fam._omega if fam.family == "sp" else np.eye(s)[::-1]
        m = np.zeros_like(x)
        m[positions[1]] = 1.0
        c0, c1 = x.T @ form + form @ x, m.T @ form + form @ m
        x[positions[1]] = -np.sum(c0 * c1) / np.sum(c1 * c1)
    return x


def cycle_generator(fam, k) -> np.ndarray:
    """x_k of simple root k: its root vector in the chart's normalization.

    The SO(3) chart coordinate is the root coordinate over sqrt 2.
    """
    x = root_vector_minus(fam, fam.positive_roots[k].as_array())
    return np.sqrt(2.0) * x if (fam.family, fam.n) == ("so", 3) else x


def exp_series(x, t) -> np.ndarray:
    """exp(t x) for a nilpotent x by its terminating power series, t any shape."""
    s = x.shape[0]
    t = np.asarray(t, dtype=complex)
    out = np.broadcast_to(np.eye(s, dtype=complex), t.shape + (s, s)).copy()
    term = np.eye(s, dtype=complex)
    tk = np.ones_like(t)
    for p in range(1, s):
        term = term @ x / p
        if not term.any():
            break
        tk = tk * t
        out += tk[..., None, None] * term
    return out


# ---------------------------------------------------------------------------
# The pair-tensor Wirtinger kernel: the oracle for the folded one. It forms
# the (N, m, m, s^2) products p_a[i,k] conj(p_b[i,k]) and contracts them with
# the block mask per trailing size j, before any weights.


def pair_tensor_hessian(z, a) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Gram/Cholesky factorizations of z z*: the oracle for the Householder RQ
# kernel. They square the condition number of z, so they agree with it only
# near |z| ~ 1.

MINOR_TOL = 1e-14


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


# ---------------------------------------------------------------------------
# Per-point Doolittle elimination: the oracle for the stacked Gauss-Bruhat
# kernel


def doolittle_ul(g, tol: float = CELL_TOL):
    """Gauss factorization ``g = n @ diag(d) @ zeta`` of one matrix.

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


# ---------------------------------------------------------------------------
# Test-only conventions


# ratio of the KKS pairing on root-direction generators to the metric value
# at the origin, calibrated once on SU(2) and frozen; it absorbs the scale
# mismatch between kahler.KKS_FORM_SCALE's trace form and the dual-space
# pairing
KKS_METRIC_RATIO = 2.0


def root_pairing(rd, a, b) -> float:
    """Chamber bilinear form of a RootDatum on dual-Cartan matrices."""
    return float(rd.bilinear_form_scale
                 * np.trace(np.asarray(a) @ np.asarray(b)).real)


def quaternion_eigenvalues(m: QuaternionMatrix) -> np.ndarray:
    """Eigenvalues of the complex embedding (each quaternionic one twice)."""
    return np.linalg.eigvals(m.embed())


# ---------------------------------------------------------------------------
# Per-point CLI loops: the oracles for the batched verify checks, the
# covariance check on every family and the column-wise grid CSV writer


# ---------------------------------------------------------------------------
# SU(3) Gell-Mann coordinates by matmul and trace: the oracle for the read-out


def gell_mann_trace(mu) -> np.ndarray:
    """mu_a = -2 Tr(mu Y_a) with Y_a = -(i/2) lambda_a, one product per a.

    ``mu`` is one 3 x 3 matrix or a stack; ``orbit.gell_mann_coordinates``
    must equal it bit for bit on dressed points.
    """
    prods = np.asarray(mu)[..., None, :, :] @ (-0.5j * np.array(GELL_MANN))
    return (DUAL_PAIRING_SCALE * np.trace(prods, axis1=-2, axis2=-1)).real


# ---------------------------------------------------------------------------
# SU(3) closed form on complex scalars: the oracle for the stacked one


def su3_closed_form_scalar(point, chart) -> np.ndarray:
    """The eight closed forms of the SU(3) stereographic projection.

    Python and numpy complex scalars, one point; ``orbit.su3_closed_form``
    and ``su3_closed_form_batch`` must equal it bit for bit.
    """
    spec = point.spec
    if (spec.family, spec.n) != ("su", 3):
        raise ValueError("closed forms are available only for SU(3)")
    xi, eta = point.weights
    z1, z2, z3 = chart.coords
    w = z3 - z1 * z2
    r1sq = 1.0 + abs(z1) ** 2 + abs(w) ** 2
    r2sq = 1.0 + abs(z2) ** 2 + abs(z3) ** 2
    ce, cx = eta / r2sq, xi / r1sq
    zb1, zb2, zb3 = np.conj(z1), np.conj(z2), np.conj(z3)
    wb = np.conj(w)
    mu = np.empty(8)
    mu[0] = (-ce * (zb2 * z3 + z2 * zb3) - cx * (z1 + zb1)).real
    mu[1] = (1j * ce * (zb2 * z3 - z2 * zb3) + 1j * cx * (z1 - zb1)).real
    mu[2] = ce * (abs(z2) ** 2 - abs(z3) ** 2) + cx * (1.0 - abs(z1) ** 2)
    mu[3] = (-ce * (z3 + zb3) - cx * (w + wb)).real
    mu[4] = (1j * ce * (z3 - zb3) + 1j * cx * (w - wb)).real
    mu[5] = (-ce * (z2 + zb2) + cx * (zb1 * w + z1 * wb)).real
    mu[6] = (1j * ce * (z2 - zb2) - 1j * cx * (zb1 * w - z1 * wb)).real
    mu[7] = (ce * (2.0 - abs(z2) ** 2 - abs(z3) ** 2)
             + cx * (1.0 + abs(z1) ** 2 - 2.0 * abs(w) ** 2)) / np.sqrt(3.0)
    return mu


def per_point_verify_residuals(spec, point, rng, npts) -> dict:
    """Worst residuals of the ``verify`` point checks, one point at a time.

    The loops of ``cmd_verify`` before it checked whole batches, with the
    same draws from ``rng``; only the call of ``iwasawa_residuals`` passes
    the chart's coordinate array.
    """
    out = {}
    worst_mb = worst_un = worst_spec = 0.0
    for _ in range(npts):
        chart = random_chart(spec, rng, point=point)
        res_mb, res_un = iwasawa_residuals(spec, chart.array(),
                                           decompose.iwasawa(spec, chart))
        worst_mb = max(worst_mb, res_mb)
        worst_un = max(worst_un, res_un)
        op = orbit.dress(spec, point, chart)
        worst_spec = max(worst_spec, spectral_mismatch(
            op.spectrum(), spec.adapter.spectrum(point.matrix)))
    out["iwasawa_multiply_back"] = worst_mb
    out["compactness_kk*"] = worst_un
    out["isospectrality"] = worst_spec

    if (spec.family, spec.n) == ("su", 3):
        worst_cf = 0.0
        worst_cov = 0.0
        for _ in range(npts):
            chart = random_chart(spec, rng, point=point)
            op = orbit.dress(spec, point, chart)
            closed = orbit.su3_closed_form(point, chart)
            worst_cf = max(worst_cf,
                           float(np.max(np.abs(np.array(op.coords) - closed))))
            g = haar_su(3, rng)
            try:
                zg, shift = kahler.cocycle_shift(spec, point, chart, g)
            except OutsideCell:
                continue
            lhs = kahler.potential(spec, point, zg) \
                - kahler.potential(spec, point, chart)
            worst_cov = max(worst_cov, abs(lhs - shift))
        out["su3_closed_form"] = worst_cf
        out["potential_covariance"] = worst_cov
    return out


def per_point_covariance(spec, point, rng, npts) -> float:
    """Worst |Phi(z_g) - Phi(z) - shift| of ``verify``, z_g one point at a time.

    Draws as ``verify`` does: ``npts`` chart points for the other point
    checks, then per point a chart point and a Haar element g of the family
    (``haar_su``; ``haar_sp`` in the split basis; ``haar_so``). Points whose
    product z g leaves the cell are skipped.
    """
    haar = {"su": lambda: haar_su(spec.n, rng),
            "sp": lambda: haar_sp(spec.n, rng).embed("split"),
            "so": lambda: haar_so(spec.n, rng)}[spec.family]
    for _ in range(npts):
        random_chart(spec, rng, point=point)
    worst = 0.0
    for _ in range(npts):
        chart = random_chart(spec, rng, point=point)
        g = haar()
        try:
            zg, shift = kahler.cocycle_shift(spec, point, chart, g)
        except OutsideCell:
            continue
        lhs = kahler.potential(spec, point, zg) \
            - kahler.potential(spec, point, chart)
        worst = max(worst, abs(lhs - shift))
    return worst


def grid_rows(axes) -> np.ndarray:
    """The points of parsed ``--grid`` axes, built one by one in C order.

    Each coordinate takes re + 1j*im over its (re, im) axis pair, re outer;
    the rows run through every combination, the last coordinate fastest.
    """
    coords = [[re + 1j * im for re in re_axis for im in im_axis]
              for re_axis, im_axis in axes]
    return np.array(list(itertools.product(*coords)), dtype=complex)


def row_grid_csv(pts, columns: dict) -> str:
    """The grid CSV written row by row through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    m = pts.shape[1]
    header = []
    for k in range(m):
        header += [f"z{k + 1}_re", f"z{k + 1}_im"]
    header += list(columns.keys())
    writer.writerow(header)
    for idx in range(pts.shape[0]):
        row = []
        for k in range(m):
            row += [repr(float(pts[idx, k].real)), repr(float(pts[idx, k].imag))]
        row += [repr(float(columns[name][idx])) for name in columns]
        writer.writerow(row)
    return buf.getvalue()
