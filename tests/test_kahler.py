import itertools
import tracemalloc

import numpy as np
import pytest

from coadjoint import (NumericalBreakdown, OutsideCell, basis_two_forms, build_group, chart_point,
                       cocycle_shift, dress, initial_point, integrality_check,
                       kks_pairing, metric, metric_batch, potential,
                       potential_batch, weyl_group)
from coadjoint._linalg import complex_laplacian, wirtinger_hessian
from coadjoint.checks import normal_coords
from coadjoint.orbit import required_zero_mask
from helpers import (CHART_GROUPS, KKS_METRIC_RATIO, fd_chart_jacobian,
                     fd_metric, fd_wirtinger_hessian, haar_sp, haar_su,
                     pair_tensor_hessian, random_chart)

SU3 = build_group("su", 3)
SU2 = build_group("su", 2)


def test_potential_values():
    ip = initial_point(SU3, (1.0, 2.0))
    assert abs(potential(SU3, ip, chart_point(SU3, (0, 0, 0)))) < 1e-14
    # (xi,eta) = (1,2), z = (1,0,0): r1^2 = 2, r2^2 = 1 -> Phi = ln 2
    assert abs(potential(SU3, ip, chart_point(SU3, (1, 0, 0)))
               - np.log(2.0)) < 1e-12


def test_potential_closed_form_su3():
    rng = np.random.default_rng(0)
    xi, eta = 0.9, 2.3
    ip = initial_point(SU3, (xi, eta))
    for _ in range(30):
        z1, z2, z3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        val = potential(SU3, ip, chart_point(SU3, (z1, z2, z3)))
        r1sq = 1 + abs(z1) ** 2 + abs(z3 - z1 * z2) ** 2
        r2sq = 1 + abs(z2) ** 2 + abs(z3) ** 2
        assert abs(val - (xi * np.log(r1sq) + eta * np.log(r2sq))) < 1e-12


def test_potential_su2_rank_one():
    xi = 1.7
    ip = initial_point(SU2, (xi,))
    z = 0.3 - 1.2j
    val = potential(SU2, ip, chart_point(SU2, (z,)))
    assert abs(val - xi * np.log(1 + abs(z) ** 2)) < 1e-12
    at1 = potential(SU2, ip, chart_point(SU2, (1.0,)))
    assert abs(at1 - xi * np.log(2.0)) < 1e-12


def test_metric_su2_analytic():
    for xi in (1.0, 2.3):
        ip = initial_point(SU2, (xi,))
        for z in (0.0, 0.5 + 0.5j, 1.0 - 1.0j):
            g = metric(SU2, ip, chart_point(SU2, (z,))).g[0, 0].real
            exact = xi / (1 + abs(z) ** 2) ** 2
            assert abs(g - exact) < 1e-6


def test_metric_cp2_origin():
    eta = 1.0
    ip = initial_point(SU3, (0.0, eta))
    kt = metric(SU3, ip, chart_point(SU3, (0, 0, 0)))
    assert kt.active_labels == ("e2-e3", "e1-e3")
    assert np.max(np.abs(kt.g - eta * np.eye(2))) < 1e-7


def test_metric_hermitian_and_positive():
    rng = np.random.default_rng(1)
    ip = initial_point(SU3, (0.8, 1.4))
    for _ in range(200):
        kt = metric(SU3, ip, random_chart(SU3, rng))
        assert np.max(np.abs(kt.g - kt.g.conj().T)) < 1e-9
        assert kt.eigenvalues().min() > -1e-9


@pytest.mark.parametrize("family,n", [("su", 2), ("so", 3)])
def test_potential_and_metric_closed_form_far_out(family, n):
    # far past where z z* is numerically singular, the RQ kernel keeps the
    # rank-one potential w ln(1 + |z|^2) and its metric to working precision
    spec = build_group(family, n)
    w = 1.7
    ip = initial_point(spec, (w,))
    for r in (1e3, 1e9):
        z = r * np.exp(0.3j)
        chart = chart_point(spec, (z,))
        phi = w * np.log1p(abs(z) ** 2)
        g = w / (1 + abs(z) ** 2) ** 2
        assert abs(potential(spec, ip, chart) - phi) < 1e-12 * phi
        assert abs(metric(spec, ip, chart).g[0, 0] - g) < 1e-12 * g


GROUPS = [("su", 2), ("su", 3), ("su", 4), ("su", 5), ("sp", 2), ("sp", 3),
          ("so", 3), ("so", 4)]


@pytest.mark.parametrize("family,n", GROUPS)
def test_metric_batch_equals_stacked_metric(family, n):
    # one batched kernel call gives bitwise the per-point tensors, on every
    # wall pattern and out to |z| ~ 10
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(5)
    for pattern in itertools.product((0, 1), repeat=fam.rank):
        if not any(pattern):
            continue
        ip = initial_point(spec, np.multiply(pattern, range(1, fam.rank + 1)))
        coords = np.array([random_chart(spec, rng, scale=s, point=ip).array()
                           for s in (0.1, 1.0, 3.0, 10.0)])
        rows = np.array([metric(spec, ip, chart_point(spec, c)).g
                         for c in coords])
        assert np.array_equal(metric_batch(spec, ip, coords), rows)


def _weight_patterns(spec):
    """Weights 1..rank on every wall pattern: generic, then with walls."""
    rank = spec.adapter.rank
    for pattern in itertools.product((1, 0), repeat=rank):
        if any(pattern):
            yield initial_point(spec, np.multiply(pattern, range(1, rank + 1)))


@pytest.mark.parametrize("family,n", GROUPS)
def test_metric_matches_pair_tensor_oracle(family, n):
    # the folded kernel against the pair-tensor one with the weights applied
    # last, over rows at |z| from 1 to 1e4. Far rows lose digits to the
    # conditioning of z in both kernels alike, and the two take u^-1 a k*
    # in different orders, so the miss is scaled by the largest entry of
    # all rows
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(21)
    for ip in _weight_patterns(spec):
        coords = np.array([random_chart(spec, rng, scale=s, point=ip).array()
                           for s in (1.0, 10.0, 1e2, 1e3, 1e4)])
        active = np.flatnonzero(~required_zero_mask(spec, ip))
        z, a = fam.chart_jacobian(coords)
        oracle = pair_tensor_hessian(z, a[:, active]) \
            @ (np.asarray(ip.weights) @ fam.minor_weights)
        g = metric_batch(spec, ip, coords)
        assert np.max(np.abs(g - oracle)) <= 1e-15 * np.max(np.abs(oracle))


@pytest.mark.parametrize("family,n", GROUPS)
def test_metric_is_exactly_hermitian(family, n):
    spec = build_group(family, n)
    rng = np.random.default_rng(22)
    for ip in _weight_patterns(spec):
        coords = np.array([random_chart(spec, rng, scale=s, point=ip).array()
                           for s in (1.0, 1e2, 1e4)])
        g = metric_batch(spec, ip, coords)
        assert np.array_equal(g, np.conj(np.swapaxes(g, 1, 2)))
        assert np.all(np.diagonal(g, axis1=1, axis2=2).imag == 0)


# chart points where the Sp(2) metric overflows in the kernel (the back
# substitution of ``_linalg._folded``) while the potential stays finite
OVERFLOW_POINTS = [("sp", 2, (1, 2), (1e300, 0, 0, 0))]


@pytest.mark.parametrize("family,n,weights,z", OVERFLOW_POINTS)
def test_metric_raises_where_it_overflows(family, n, weights, z):
    spec = build_group(family, n)
    ip = initial_point(spec, weights)
    assert np.isfinite(potential(spec, ip, chart_point(spec, z)))
    with pytest.raises(NumericalBreakdown):
        metric(spec, ip, chart_point(spec, z))
    # the batch keeps its nan row there and finite rows elsewhere
    near = np.full(len(z), 0.3 - 0.2j)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        alone = metric_batch(spec, ip, np.array([z], dtype=complex))
        mixed = metric_batch(spec, ip, np.array([near, z]))
    assert np.isnan(alone).any()
    assert np.array_equal(mixed[1], alone[0], equal_nan=True)
    assert np.array_equal(mixed[0], metric(spec, ip,
                                           chart_point(spec, near)).g)


def test_so4_metric_is_finite_far_out():
    # central differences overflowed here (a step near 1e300 times z1); the
    # closed-form Jacobian does not: g_11 = (1 + |z1|^2)^-2 underflows to 0
    # and g_22 is its value at the origin
    spec = build_group("so", 4)
    ip = initial_point(spec, (1, 2))
    g = metric(spec, ip, chart_point(spec, (1e300, 1e-310))).g
    g0 = metric(spec, ip, chart_point(spec, (0, 0))).g
    assert g[0, 0] == g[0, 1] == g[1, 0] == 0
    assert abs(g[1, 1] - g0[1, 1]) <= 4 * np.finfo(float).eps * g0[1, 1].real
    near = np.full(2, 0.3 - 0.2j)
    mixed = metric_batch(spec, ip, np.array([near, (1e300, 1e-310)]))
    assert np.array_equal(mixed[1], g)


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4)])
def test_chart_jacobian_matches_fd_oracle(family, n):
    # 20 rows per scale, |z| from 1e-8 to 1e6. The chart is chart_split bit
    # for bit; SU's dz/dz_k = E is read exactly by both. Elsewhere the
    # difference quotients round relative to the chart entries at the
    # shifted points, so the miss is scaled by the largest derivative
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(23)
    for scale in 10.0 ** np.arange(-8, 7):
        coords = normal_coords(
            spec, rng.standard_normal((20, 2 * fam.chart_dim)), scale=scale)
        z, a = fam.chart_jacobian(coords)
        oracle = fd_chart_jacobian(fam, coords)[1]
        assert z.tobytes() == fam.chart_split(coords).tobytes()
        if family == "su":
            assert np.array_equal(a, oracle)
        else:
            assert np.max(np.abs(a - oracle)) \
                <= 4 * np.finfo(float).eps * np.max(np.abs(a))


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4)])
def test_lowering_generators_are_the_fd_oracle_at_the_origin(family, n):
    # central differences at the origin are exact (steps of 1), so these
    # are the generators the oracle Jacobian gave: bit for bit on SU and Sp,
    # and on SO up to the sign of some zeros
    fam = build_group(family, n).adapter
    oracle = fd_chart_jacobian(fam, np.zeros(fam.chart_dim))[1][0]
    assert np.array_equal(fam.lowering_generators, oracle)
    if family != "so":
        assert fam.lowering_generators.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4)])
def test_metric_on_fd_jacobian(family, n):
    # the kernel on the oracle's Jacobian, on every wall pattern: at |z| <= 2
    # within 2e-15 of each row's largest entry, and SU bit for bit at every
    # scale. Far-out Sp rows differ by more, from the kernel's conditioning
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(24)
    scales = (1.0, 1e2, 1e4, 1e6) if family == "su" else (1.0,)
    for ip in _weight_patterns(spec):
        active = np.flatnonzero(~required_zero_mask(spec, ip))
        c = np.asarray(ip.weights) @ fam.minor_weights
        for scale in scales:
            coords = normal_coords(
                spec, rng.standard_normal((20, 2 * fam.chart_dim)), ip)
            coords *= scale * rng.uniform(0.0, 2.0, (20, 1)) \
                / np.linalg.norm(coords, axis=1, keepdims=True)
            z, a = fd_chart_jacobian(fam, coords)
            oracle = wirtinger_hessian(z, a[:, active], c)
            g = metric_batch(spec, ip, coords)
            if family == "su":
                assert np.array_equal(g, oracle)
            else:
                assert np.all(np.max(np.abs(g - oracle), axis=(1, 2))
                              <= 2e-15 * np.max(np.abs(oracle), axis=(1, 2)))


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4)])
def test_metric_matches_fd_oracle(family, n):
    # weights 1..rank on every wall pattern, at random |z| <= 2; for Sp the
    # long-root coordinates are drawn too
    spec = build_group(family, n)
    fam = spec.adapter
    rng = np.random.default_rng(8)
    for pattern in itertools.product((0, 1), repeat=fam.rank):
        if not any(pattern):
            continue
        ip = initial_point(spec, np.multiply(pattern, range(1, fam.rank + 1)))
        z = rng.standard_normal(fam.chart_dim) \
            + 1j * rng.standard_normal(fam.chart_dim)
        z[required_zero_mask(spec, ip)] = 0.0
        z *= 2.0 * rng.uniform() / np.linalg.norm(z)
        pt = chart_point(spec, z)
        g = metric(spec, ip, pt).g
        oracle = fd_metric(spec, ip, pt)
        assert np.max(np.abs(g - oracle)) <= 5e-6 * np.max(np.abs(oracle))


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4)])
def test_metric_positive_definite_at_random_points(family, n):
    # 1000 seeded Gaussian charts per group, Sp long-root coordinates drawn
    spec = build_group(family, n)
    ip = initial_point(spec, range(1, spec.rank + 1))
    rng = np.random.default_rng(15)
    coords = np.array([random_chart(spec, rng).array() for _ in range(1000)])
    assert np.all(coords != 0)
    ev = np.linalg.eigvalsh(metric_batch(spec, ip, coords))
    assert ev.min() > 0


def test_metric_positive_far_from_origin():
    # far out on the chart, where a finite-difference metric loses every digit
    ip = initial_point(SU3, (1.0, 2.0))
    kt = metric(SU3, ip, chart_point(SU3, (100 + 1j, 99 - 1j, 101 + 1j)))
    assert kt.eigenvalues().min() > -1e-9


@pytest.mark.parametrize("family,n", GROUPS + [("sp", 4)])
def test_holomorphic_flag_matches_chart(family, n):
    # every chart is holomorphic, Sp included, so chart_jacobian returns only
    # dz/dz: the difference quotients give dz/dzbar = 0 and dz/dz equal to it
    fam = build_group(family, n).adapter
    rng = np.random.default_rng(10)
    dim = fam.chart_dim
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    e = np.eye(dim)
    f = fam.chart_split(c + np.concatenate([e, -e, 1j * e, -1j * e]))
    dx, dy = f[:dim] - f[dim:2 * dim], f[2 * dim:3 * dim] - f[3 * dim:]
    assert np.max(np.abs(0.25 * (dx + 1j * dy))) < 1e-13
    z, dz = fam.chart_jacobian(c)
    assert np.max(np.abs(dz[0] - 0.25 * (dx - 1j * dy))) < 1e-13 * np.max(
        np.abs(z))


@pytest.mark.parametrize("family,n", GROUPS)
def test_chart_split_degree_at_most_two(family, n):
    # on these groups every chart entry has total degree <= 2 (from Sp(4) on
    # the entries of J A^-T J have degree n - 1; fd_chart_jacobian needs only
    # the degree in each single coordinate, see the Sp closed-form test); the
    # closed-form metric also needs the mixed derivatives d dbar z to vanish
    fam = build_group(family, n).adapter
    rng = np.random.default_rng(9)
    dim = fam.chart_dim
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for _ in range(5):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        f = fam.chart_split(c + np.arange(-2, 2)[:, None] * v)
        third = f[3] - 3.0 * f[2] + 3.0 * f[1] - f[0]
        assert np.max(np.abs(third)) < 1e-12 * np.max(np.abs(f))

    def d2(u, v):
        # exact second derivative of a quadratic along real directions u, v
        f = fam.chart_split(c + np.array([u + v, u - v, v - u, -u - v]))
        return 0.25 * (f[0] - f[1] - f[2] + f[3])

    e = np.eye(dim)
    for a in range(dim):
        for b in range(dim):
            mixed = 0.25 * (d2(e[a], e[b]) + d2(1j * e[a], 1j * e[b])
                            + 1j * (d2(e[a], 1j * e[b]) - d2(1j * e[a], e[b])))
            assert np.max(np.abs(mixed)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sp_chart_jacobian_matches_closed_form(n):
    # the product rule along chart_split's steps against closed forms, with
    # z = [[A, 0], [J (U A - S), J A^-T J]] and S = x K(U) on the Sp(2)
    # corner, K(U) = [[U10, U11/2], [U11/2, 0]]: d(J A^-T J) =
    # -J A^-T dA^T A^-T J and d(U A - S) = dU A + U dA - dx K(U) - x K(dU)
    fam = build_group("sp", n).adapter
    dim = fam.chart_dim
    rng = np.random.default_rng(14)
    units = fam.chart_split(np.eye(dim))
    da = units[:, :n, :n] - np.eye(n)
    du = units[:, n:, :n][:, ::-1]

    def corner(u):
        k = np.zeros_like(u)
        k[..., 0, 0] = u[..., 1, 0]
        k[..., 0, 1] = k[..., 1, 0] = u[..., 1, 1] / 2
        return k
    for scale in (1.0, 1e3):
        c = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        z, dz = fam.chart_jacobian(c)
        z, dz = z[0], dz[0]
        a = z[:n, :n]
        a_inv = z[n:, n:].T[::-1, ::-1]
        u = np.tensordot(c, du, 1)     # U is linear in the coordinates
        dq = du @ a + u @ da - da[:, 1, 0, None, None] * corner(u) \
            - a[1, 0] * corner(du)
        want = np.zeros_like(dz)
        want[:, :n, :n] = da
        want[:, n:, :n] = dq[:, ::-1]
        want[:, n:, n:] = -np.swapaxes(a_inv @ da @ a_inv, 1, 2)[:, ::-1, ::-1]
        assert np.max(np.abs(dz - want)) < 1e-12 * np.max(np.abs(want))


def test_closedness_of_omega():
    # d omega = 0 <=> d_c g_{a bbar} = d_a g_{c bbar} (holomorphic indices);
    # outer derivatives Richardson-extrapolated to keep the FD noise small
    rng = np.random.default_rng(2)
    ip = initial_point(SU3, (1.0, 0.6))
    z0 = 0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))

    def g_at(z):
        return metric(SU3, ip, chart_point(SU3, z)).g

    def dg(direction, h):
        e = np.zeros(3)
        e[direction] = 1.0
        dx = (g_at(z0 + h * e) - g_at(z0 - h * e)) / (2 * h)
        dy = (g_at(z0 + 1j * h * e) - g_at(z0 - 1j * h * e)) / (2 * h)
        return 0.5 * (dx - 1j * dy)

    def dg_r(direction, h=1e-2):
        return (4.0 * dg(direction, h) - dg(direction, 2 * h)) / 3.0

    d0 = dg_r(0)
    d1 = dg_r(1)
    d2 = dg_r(2)
    grads = [d0, d1, d2]
    for a in range(3):
        for c in range(a + 1, 3):
            for b in range(3):
                assert abs(grads[c][a, b] - grads[a][c, b]) < 1e-6


def test_kks_pairing_basics():
    ip = initial_point(SU3, (1.0, 2.0))
    op = dress(SU3, ip, chart_point(SU3, (0.2, 0.1j, 0.0)))
    x = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    y = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    assert kks_pairing(op, x, x) == 0.0
    assert abs(kks_pairing(op, x, y) + kks_pairing(op, y, x)) < 1e-12


def test_kks_matches_metric_with_frozen_scale():
    # SU(2), mu0 = -(i/2) xi diag(1,-1), root-direction generators at z = 0
    xi = 1.7
    ip = initial_point(SU2, (xi,))
    assert np.max(np.abs(ip.matrix + 0.5j * xi * np.diag([1, -1]))) < 1e-14
    op = dress(SU2, ip, chart_point(SU2, (0.0,)))
    x = np.array([[0, 1], [-1, 0]], dtype=complex)
    y = np.array([[0, 1j], [1j, 0]], dtype=complex)
    val = kks_pairing(op, x, y)
    g0 = metric(SU2, ip, chart_point(SU2, (0.0,))).g[0, 0].real
    assert abs(val - KKS_METRIC_RATIO * g0) < 1e-6


def test_cocycle_identity():
    ip = initial_point(SU3, (1.0, 1.0))
    pt = chart_point(SU3, (0.4, -0.2j, 1.0))
    zg, shift = cocycle_shift(SU3, ip, pt, np.eye(3, dtype=complex))
    assert np.max(np.abs(zg.array() - pt.array())) < 1e-12
    assert abs(shift) < 1e-12


def test_cocycle_covariance():
    rng = np.random.default_rng(3)
    ip = initial_point(SU3, (1.1, 0.4))
    worst = 0.0
    for _ in range(200):
        pt = random_chart(SU3, rng)
        g = haar_su(3, rng)
        try:
            zg, shift = cocycle_shift(SU3, ip, pt, g)
        except OutsideCell:
            continue
        lhs = potential(SU3, ip, zg) - potential(SU3, ip, pt)
        worst = max(worst, abs(lhs - shift))
    assert worst < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sp_cocycle_covariance(n):
    # Phi(z_g) = Phi(z) + shift with g Haar in Sp(n), given once in
    # quaternionic form and once as its split complex matrix
    spec = build_group("sp", n)
    ip = initial_point(spec, range(1, n + 1))
    rng = np.random.default_rng(16)
    for _ in range(50):
        pt = random_chart(spec, rng)
        g = haar_sp(n, rng)
        zg, shift = cocycle_shift(spec, ip, pt, g)
        zs, split_shift = cocycle_shift(spec, ip, pt, g.embed("split"))
        assert np.array_equal(zg.array(), zs.array()) and shift == split_shift
        lhs = potential(spec, ip, zg) - potential(spec, ip, pt)
        assert abs(lhs - shift) < 1e-8


def test_cocycle_weyl_element():
    # g = w1 at generic z is either outside the cell or satisfies covariance
    rng = np.random.default_rng(4)
    ip = initial_point(SU3, (1.0, 2.0))
    w1 = weyl_group(SU3).generators[0].matrix
    hit = miss = 0
    for _ in range(10):
        pt = random_chart(SU3, rng)
        try:
            zg, shift = cocycle_shift(SU3, ip, pt, w1)
        except OutsideCell:
            miss += 1
            continue
        hit += 1
        lhs = potential(SU3, ip, zg) - potential(SU3, ip, pt)
        assert abs(lhs - shift) < 1e-8
    assert hit > 0
    # at z1 = 0 the w1-cell is missed
    with pytest.raises(OutsideCell):
        cocycle_shift(SU3, ip, chart_point(SU3, (0.0, 1.0, 1.0)), w1)


def test_metric_invariance_under_cocycle_action():
    # pullback of ds^2 under z -> z_g equals ds^2: g(z) = J^T g(z_g) conj(J)
    rng = np.random.default_rng(5)
    ip = initial_point(SU3, (1.0, 0.7))
    done = 0
    while done < 5:
        pt = random_chart(SU3, rng, scale=0.7)
        g = haar_su(3, rng)
        try:
            zg, _ = cocycle_shift(SU3, ip, pt, g)
        except OutsideCell:
            continue
        # numerical holomorphic Jacobian of z -> z_g
        h = 1e-5
        jac = np.zeros((3, 3), dtype=complex)
        ok = True
        for a in range(3):
            e = np.zeros(3)
            e[a] = 1.0
            try:
                zp = cocycle_shift(SU3, ip,
                                   chart_point(SU3, pt.array() + h * e), g)[0]
                zm = cocycle_shift(SU3, ip,
                                   chart_point(SU3, pt.array() - h * e), g)[0]
            except OutsideCell:
                ok = False
                break
            jac[:, a] = (zp.array() - zm.array()) / (2 * h)
        if not ok:
            continue
        g_here = metric(SU3, ip, pt).g
        g_there = metric(SU3, ip, zg).g
        pulled = jac.T @ g_there @ np.conj(jac)
        assert np.max(np.abs(pulled - g_here)) < 1e-6
        done += 1


def test_integrality_examples():
    flags, ratios = integrality_check(SU2, initial_point(SU2, (3.0,)))
    assert flags == (True,) and abs(ratios[0] - 3.0) < 1e-12
    flags, ratios = integrality_check(SU2, initial_point(SU2, (2.5,)))
    assert flags == (False,)
    flags, _ = integrality_check(SU3, initial_point(SU3, (1.0, 2.0)))
    assert flags == (True, True)
    flags, _ = integrality_check(SU3, initial_point(SU3, (0.5, 1.0)))
    assert flags == (False, True)


def test_so4_potential_pair_crosscheck():
    # the classical potentials Phi_1 = ln(1+|z1|^2) - ln(1+|z2|^2) and
    # Phi_2 = ln(1+|z1|^2) + ln(1+|z2|^2) span the same space as the basis
    # potentials, and the metric of Phi = xi1 L1 + xi2 L2 is diagonal and
    # positive exactly on the open chamber
    so4 = build_group("so", 4)
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    l1 = np.log(1 + np.abs(pts[:, 0]) ** 2)
    l2 = np.log(1 + np.abs(pts[:, 1]) ** 2)
    forms = basis_two_forms(so4)
    phi1 = forms[0].potential(pts)
    phi2 = forms[1].potential(pts)
    assert np.max(np.abs(phi1 - l1)) < 1e-10
    assert np.max(np.abs(phi2 - l2)) < 1e-10
    # that pair = (Phi_1 - Phi_2, Phi_1 + Phi_2) of the basis potentials
    disp1, disp2 = phi1 - phi2, phi1 + phi2
    assert np.max(np.abs(disp1 - (l1 - l2))) < 1e-10
    assert np.max(np.abs(disp2 - (l1 + l2))) < 1e-10

    def hessian(weights, z0):
        ip = initial_point(so4, weights)
        return fd_wirtinger_hessian(
            lambda b: potential_batch(so4, ip, b), z0)

    z0 = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    for weights, positive in [((1.0, 0.5), True), ((0.5, 1.0), True),
                              ((0.0, 1.0), False), ((1.0, 0.0), False)]:
        g = hessian(weights, z0)
        assert abs(g[0, 1]) < 1e-8          # diagonal
        eig = np.linalg.eigvalsh(g)
        if positive:
            assert eig.min() > 1e-3
        else:
            assert abs(eig.min()) < 1e-6    # null direction on the wall


def test_potential_batch_matches_scalar():
    ip = initial_point(SU3, (1.0, 2.0))
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    vals = potential_batch(SU3, ip, pts)
    for row, v in zip(pts, vals):
        assert abs(potential(SU3, ip, chart_point(SU3, row)) - v) < 1e-12


@pytest.mark.parametrize("family,n", [("su", 3), ("su", 5), ("sp", 3),
                                      ("so", 4)])
def test_potential_batch_rows_equal_one_point_bitwise(family, n):
    # a row's Phi does not depend on the batch around it
    spec = build_group(family, n)
    ip = initial_point(spec, tuple(float(k + 1) for k in range(spec.rank)))
    rng = np.random.default_rng(0)
    dim = spec.adapter.chart_dim
    pts = rng.standard_normal((200, dim)) + 1j * rng.standard_normal((200, dim))
    vals = potential_batch(spec, ip, pts)
    one = np.array([potential(spec, ip, chart_point(spec, row)) for row in pts])
    assert np.array_equal(vals.view(np.int64), one.view(np.int64))
    assert np.array_equal(potential_batch(spec, ip, pts[::7]).view(np.int64),
                          one[::7].view(np.int64))


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_chart_potentials_rows_equal_one_row_bitwise(family, n):
    # log a @ potential_weights.T rounded with the batch size (a gemm)
    spec = build_group(family, n)
    rng = np.random.default_rng(0)
    pts = normal_coords(spec, rng.standard_normal((500, 2 * spec.chart_dim)),
                        scale=3.0)
    one = np.concatenate([spec.chart_potentials(row[None]) for row in pts])
    assert one.shape == (500, spec.rank)
    bits = one.view(np.int64)
    assert np.array_equal(spec.chart_potentials(pts).view(np.int64), bits)
    for start in range(0, 500, 37):
        part = spec.chart_potentials(pts[start:start + 37])
        assert np.array_equal(part.view(np.int64), bits[start:start + 37])


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
@pytest.mark.parametrize("kernel", [potential_batch, metric_batch])
def test_batch_kernels_reject_wrong_coordinate_count(family, n, kernel):
    # chart_split broadcast an (N, 1) batch into every coordinate, so a
    # short batch gave Phi at (z1, z1, z1) instead of failing
    spec = build_group(family, n)
    ip = initial_point(spec, (1.0, 2.0))
    dim = spec.adapter.chart_dim
    for width in (dim - 1, dim + 1):
        with pytest.raises(ValueError, match=rf"shape \(N, {dim}\), "
                                             rf"got \(2, {width}\)"):
            kernel(spec, ip, np.full((2, width), 0.5 + 0.1j))


# The closed-form potential weights: exact rows on Sp and SO, and on SU
# -2 times the fundamental weights, with no rounding from a fit


def _exact_potential_rows(family, n):
    """W_k: -1 on the first k + 1 Sp slots and +1 on their mirrors (the long
    root's row too); the SO rows are half-integers."""
    if family == "so":
        return {3: [[-0.5, 0.0, 0.5]],
                4: [[-0.5, 0.5, -0.5, 0.5], [-0.5, -0.5, 0.5, 0.5]]}[n]
    rows = np.zeros((n, 2 * n))
    for k in range(n):
        rows[k, :k + 1] = -1.0
        rows[k, 2 * n - 1 - k:] = 1.0
    return rows


@pytest.mark.parametrize("family,n", [("sp", 2), ("sp", 3), ("sp", 4),
                                      ("sp", 5), ("so", 3), ("so", 4)])
def test_potential_weights_are_the_exact_rows(family, n):
    fam = build_group(family, n).adapter
    assert np.array_equal(fam.potential_weights,
                          _exact_potential_rows(family, n))


@pytest.mark.parametrize("n", range(2, 7))
def test_su_potential_weights_are_minus_twice_the_dual_weights(n):
    fam = build_group("su", n).adapter
    assert np.array_equal(fam.potential_weights, -2.0 * fam.dual_weights)


def test_su60_potential_stays_small_in_memory():
    # the chart Jacobian's unit table, cut from an n^2 x n^2 identity, and a
    # 1 + dim deep identity stack took 300 MiB at SU(60); a one-row
    # potential needs neither
    tracemalloc.start()
    try:
        spec = build_group("su", 60)
        point = initial_point(spec, range(1, 60))
        phi = potential_batch(spec, point, np.ones((1, spec.adapter.chart_dim)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(phi).all()
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("wall", [False, True])
@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_metric_kernels_of_an_empty_batch(family, n, wall):
    # both raised numpy's "cannot reshape array of size 0" on 0 rows
    spec = build_group(family, n)
    weights = [0.0 if wall and k % 2 else k + 1.0 for k in range(spec.rank)]
    point = initial_point(spec, weights)
    m = int(np.count_nonzero(~required_zero_mask(spec, point)))
    g = metric_batch(spec, point, np.zeros((0, spec.chart_dim)))
    assert g.shape == (0, m, m)
    z = np.zeros((0, spec.slots, spec.slots), dtype=complex)
    lap = complex_laplacian(z, z, spec.minor_weights.T * weights)
    assert lap.shape == (0, spec.rank)
