import re

import numpy as np
import pytest

from coadjoint import (OutsideCell, ZeroTorusEntry, build_group, chart_matrix,
                       chart_point, cocycle_shift, cocycle_shift_batch, dress,
                       dressing_matrix, gauss_bruhat, gauss_bruhat_batch,
                       initial_point, iwasawa, torus_character, weyl_group)
from coadjoint._linalg import quaternion_iwasawa, quaternion_ul
from coadjoint.decompose import bruhat_chart, torus_coordinates
from coadjoint.quaternion import QuaternionMatrix
from helpers import (CHART_GROUPS, haar_su, identity_like, mat_max,
                     random_chart)

SU3 = build_group("su", 3)


def test_chart_matrix_su3_entries():
    z = chart_matrix(SU3, chart_point(SU3, (1 + 2j, 3j, -0.5)))
    expect = np.array([[1, 0, 0], [1 + 2j, 1, 0], [-0.5, 3j, 1]])
    assert np.max(np.abs(z - expect)) < 1e-15


def test_chart_matrix_identity_at_zero():
    for family, n in [("su", 3), ("su", 4), ("so", 3), ("so", 4), ("sp", 2)]:
        spec = build_group(family, n)
        z = chart_matrix(spec, chart_point(spec, [0] * spec.adapter.chart_dim))
        assert mat_max(z - identity_like(spec, z)) < 1e-15


def test_chart_matrix_so3_entries():
    so3 = build_group("so", 3)
    z = 0.7 - 0.3j
    m = chart_matrix(so3, chart_point(so3, (z,)))
    assert abs(m[2, 0] - z) < 1e-14
    assert abs(m[0, 2] + z) < 1e-14
    assert abs(m[0, 0] - (1 - z ** 2 / 2)) < 1e-14
    assert abs(m[1, 0] + 1j * z ** 2 / 2) < 1e-14
    assert abs(m[2, 1] - 1j * z) < 1e-14
    # complex orthogonal
    assert np.max(np.abs(m @ m.T - np.eye(3))) < 1e-13


def test_iwasawa_su3_closed_forms():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z1, z2, z3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pt = chart_point(SU3, (z1, z2, z3))
        fac = iwasawa(SU3, pt)
        r1sq = 1 + abs(z1) ** 2 + abs(z3 - z1 * z2) ** 2
        r2sq = 1 + abs(z2) ** 2 + abs(z3) ** 2
        r1, r2 = fac.a_parameters
        assert abs(r1 ** 2 - r1sq) < 1e-10 * r1sq
        assert abs(r2 ** 2 - r2sq) < 1e-10 * r2sq
        n1 = (np.conj(z1) * (1 + abs(z2) ** 2) - z2 * np.conj(z3)) / r1sq
        n2 = (np.conj(z2) + z1 * np.conj(z3)) / r2sq
        n3 = np.conj(z3) / r2sq
        assert abs(fac.n[0, 1] - n1) < 1e-10
        assert abs(fac.n[1, 2] - n2) < 1e-10
        assert abs(fac.n[0, 2] - n3) < 1e-10


def test_iwasawa_su3_spec_example():
    # z = (1, 0, 0): r1^2 = 2, r2^2 = 1, n = (1/2, 0, 0)
    fac = iwasawa(SU3, chart_point(SU3, (1.0, 0.0, 0.0)))
    r1, r2 = fac.a_parameters
    assert abs(r1 ** 2 - 2.0) < 1e-12
    assert abs(r2 ** 2 - 1.0) < 1e-12
    assert abs(fac.n[0, 1] - 0.5) < 1e-12
    assert abs(fac.n[1, 2]) < 1e-12 and abs(fac.n[0, 2]) < 1e-12


def test_iwasawa_identity_at_zero():
    for family, n in [("su", 3), ("sp", 2), ("so", 4)]:
        spec = build_group(family, n)
        fac = iwasawa(spec, chart_point(spec, [0] * spec.adapter.chart_dim))
        for part in (fac.n, fac.a, fac.k):
            assert mat_max(part - identity_like(spec, part)) < 1e-12


def test_dressing_matrix_su3_closed_form():
    rng = np.random.default_rng(1)
    z1, z2, z3 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = dressing_matrix(SU3, chart_point(SU3, (z1, z2, z3)))
    r1 = np.sqrt(1 + abs(z1) ** 2 + abs(z3 - z1 * z2) ** 2)
    r2 = np.sqrt(1 + abs(z2) ** 2 + abs(z3) ** 2)
    zb1, zb2, zb3 = np.conj([z1, z2, z3])
    expect = np.array([
        [1 / r1, -zb1 / r1, -(zb3 - zb1 * zb2) / r1],
        [(z1 * (1 + abs(z2) ** 2) - z3 * zb2) / (r1 * r2),
         (1 + abs(z3) ** 2 - z1 * z2 * zb3) / (r1 * r2),
         -(zb2 + z1 * zb3) / (r1 * r2)],
        [z3 / r2, z2 / r2, 1 / r2],
    ])
    assert np.max(np.abs(u - expect)) < 1e-10


def test_dressing_matrix_so3_closed_form():
    so3 = build_group("so", 3)
    rng = np.random.default_rng(2)
    z = complex(*rng.standard_normal(2))
    o = dressing_matrix(so3, chart_point(so3, (z,)))
    s = 1 + abs(z) ** 2
    zb = np.conj(z)
    expect = np.array([
        [(2 - z ** 2 - zb ** 2) / (2 * s), 1j * (zb ** 2 - z ** 2) / (2 * s),
         -(z + zb) / s],
        [1j * (zb ** 2 - z ** 2) / (2 * s), (2 + z ** 2 + zb ** 2) / (2 * s),
         -1j * (z - zb) / s],
        [(z + zb) / s, 1j * (z - zb) / s, (1 - z * zb) / s],
    ])
    assert np.max(np.abs(o - expect)) < 1e-10


def test_iwasawa_so3_closed_forms():
    so3 = build_group("so", 3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = complex(*rng.standard_normal(2))
        fac = iwasawa(so3, chart_point(so3, (z,)))
        assert abs(np.exp(fac.a_parameters[0]) - (1 + abs(z) ** 2)) < 1e-10
        assert abs(fac.n[0, 2] - np.conj(z) / (1 + abs(z) ** 2)) < 1e-10


def _is_symplectic(spec, m, tol=1e-12):
    om = spec.adapter._omega
    return np.max(np.abs(m.T @ om @ m - om)) < tol


def test_iwasawa_sp2_spec_example():
    # z at e1+e2 = 1 has rows (1,0,0,0), (0,1,0,0), (1,0,1,0), (0,1,0,1):
    # a = diag(1/r, 1/r, r, r) with r^2 = 2, n = I + (E_13 + E_24)/2
    sp2 = build_group("sp", 2)
    fac = iwasawa(sp2, chart_point(sp2, (0.0, 0.0, 1.0, 0.0)))
    assert np.max(np.abs(np.array(fac.a_parameters) - 0.5 ** 0.5)) < 1e-12
    n = np.eye(4)
    n[0, 2] = n[1, 3] = 0.5
    assert np.max(np.abs(fac.n - n)) < 1e-12
    assert np.max(np.abs(fac.k @ fac.k.conj().T - np.eye(4))) < 1e-12
    assert _is_symplectic(sp2, fac.k)


def test_iwasawa_sp2_closed_forms():
    # coordinates (x, l2, y, l1) of (e1-e2, 2e2, e1+e2, 2e1): the last two
    # rows of z are r2 = (y + x l2/2, l2, 1, 0) and r3 = (l1, y - x l2/2, -x, 1),
    # so 1/a_1^2 = |r3|^2, 1/(a_1 a_2)^2 = |r2|^2 |r3|^2 - |<r2, r3>|^2 and
    # n[2, 3] = <r2, r3> / |r3|^2
    sp2 = build_group("sp", 2)
    rng = np.random.default_rng(4)
    for _ in range(25):
        x, l2, y, l1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        fac = iwasawa(sp2, chart_point(sp2, (x, l2, y, l1)))
        r2 = np.array([y + x * l2 / 2, l2, 1.0, 0.0])
        r3 = np.array([l1, y - x * l2 / 2, -x, 1.0])
        rsq = np.vdot(r3, r3).real
        gram = rsq * np.vdot(r2, r2).real - abs(np.vdot(r3, r2)) ** 2
        a1, a2 = fac.a_parameters
        assert abs(a1 ** -2 - rsq) < 1e-10 * rsq
        assert abs((a1 * a2) ** -2 - gram) < 1e-10 * gram
        assert abs(fac.n[2, 3] - np.vdot(r3, r2) / rsq) < 1e-10
        assert _is_symplectic(sp2, fac.k)


def test_iwasawa_multiply_back_all_families():
    rng = np.random.default_rng(5)
    for family, n in [("su", 2), ("su", 3), ("su", 4), ("sp", 2), ("sp", 3),
                      ("so", 3), ("so", 4)]:
        spec = build_group(family, n)
        for _ in range(20):
            pt = random_chart(spec, rng)
            fac = iwasawa(spec, pt)
            z = chart_matrix(spec, pt)
            assert mat_max(fac.multiply_back() - z) < 1e-10
            un = fac.k @ np.conj(fac.k.T)
            assert mat_max(un - identity_like(spec, un)) < 1e-10
            if family in ("su", "sp"):   # positive branch of A
                assert min(fac.a_parameters) > 0
            if family == "sp":
                assert _is_symplectic(spec, fac.k)


def _quaternion_chart(n, shorts):
    """Quaternionic unit lower triangular chart: q = z1 + z2 j in level order."""
    z1 = np.eye(n, dtype=complex)
    z2 = np.zeros((n, n), dtype=complex)
    pos = [(i + lvl, i) for lvl in range(1, n) for i in range(n - lvl)]
    for (r, c), a, b in zip(pos, shorts[0::2], shorts[1::2]):
        z1[r, c], z2[r, c] = a, b
    return QuaternionMatrix(z1, z2)


def test_iwasawa_oracle_quaternionic_vs_embedded():
    # the quaternionic NAK of a long-free quaternion chart gives k in Sp(n);
    # its split embedding lies on the open cell, the chart coordinates of its
    # Gauss-Bruhat factor zeta dress to k* mu0 k (zeta = d^-1 n^-1 k differs
    # from k by an upper triangular factor, and mu0 commutes with the torus)
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        _check_quaternionic_oracle(build_group("sp", n), rng)


def _check_quaternionic_oracle(spec, rng):
    fam, n = spec.adapter, spec.n
    ip = initial_point(spec, range(1, n + 1))
    mu0 = QuaternionMatrix(1j * np.diag(np.asarray(ip.coords)))
    for _ in range(10):
        shorts = rng.standard_normal(n * (n - 1)) \
            + 1j * rng.standard_normal(n * (n - 1))
        k = quaternion_iwasawa(_quaternion_chart(n, shorts))[2]
        ke = k.embed("split")
        assert _is_symplectic(spec, ke)
        zeta = gauss_bruhat(spec, ke).zeta
        coords = fam.coords_from_zeta_split(zeta)
        assert np.max(np.abs(fam.chart_split(coords)[0] - zeta)) < 1e-10
        mu = dress(spec, ip, chart_point(spec, coords)).mu_matrix
        assert np.max(np.abs(mu - (k.h @ mu0 @ k).embed("split"))) < 1e-10


def test_gauss_bruhat_identity():
    fac = gauss_bruhat(SU3, np.eye(3, dtype=complex))
    assert np.max(np.abs(fac.n - np.eye(3))) < 1e-14
    assert np.max(np.abs(fac.d - np.eye(3))) < 1e-14
    assert np.max(np.abs(fac.zeta - np.eye(3))) < 1e-14


def test_gauss_bruhat_multiply_back():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = chart_matrix(SU3, random_chart(SU3, rng))
        g = haar_su(3, rng)
        m = z @ g
        fac = gauss_bruhat(SU3, m)
        assert np.max(np.abs(fac.multiply_back() - m)) < 1e-10
        assert np.max(np.abs(np.tril(fac.n, -1))) == 0
        assert np.max(np.abs(np.triu(fac.zeta, 1))) == 0


def test_gauss_bruhat_outside_cell():
    anti = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    assert abs(np.linalg.det(anti) - 1) < 1e-14
    with pytest.raises(OutsideCell):
        gauss_bruhat(SU3, anti)


def test_gauss_bruhat_consistency_with_iwasawa():
    # the compact factor of z_g matches k(z) g up to a torus phase, i.e.
    # k(z) g k(z_g)* is diagonal (the identity chain behind the cocycle)
    rng = np.random.default_rng(8)
    for _ in range(20):
        pt = random_chart(SU3, rng)
        g = haar_su(3, rng)
        z = chart_matrix(SU3, pt)
        coords, _, in_cell = bruhat_chart(SU3, (z @ g)[None])
        assert in_cell[0]
        zg = chart_point(SU3, coords[0])
        k1 = dressing_matrix(SU3, pt)
        k2 = dressing_matrix(SU3, zg)
        t = k1 @ g @ k2.conj().T
        off = t - np.diag(np.diagonal(t))
        assert np.max(np.abs(off)) < 1e-9
        # and iwasawa of zeta reproduces dressing_matrix at the new point
        assert np.max(np.abs(iwasawa(SU3, zg).k - k2)) < 1e-12


def test_gauss_bruhat_so4():
    so4 = build_group("so", 4)
    rng = np.random.default_rng(9)
    pt = random_chart(so4, rng)
    z = chart_matrix(so4, pt)
    w = weyl_group(so4).generators[0].matrix
    m = z @ w
    fac = gauss_bruhat(so4, m)
    assert np.max(np.abs(fac.multiply_back() - m)) < 1e-10
    # d block-diagonal in the vector basis: vanishing off 2x2 blocks
    d = np.asarray(fac.d)
    assert np.max(np.abs(d[0:2, 2:4])) < 1e-10
    assert np.max(np.abs(d[2:4, 0:2])) < 1e-10


def test_torus_character_examples():
    # identity -> 1
    assert abs(torus_character(SU3, np.eye(3), (1.0, 1.0)) - 1.0) < 1e-14
    # SU(3), (r1, r2) = (2, 3), xi = (1, 1) -> 6
    a = np.diag([1 / 2.0, 2 / 3.0, 3.0]).astype(complex)
    assert abs(torus_character(SU3, a, (1.0, 1.0)) - 6.0) < 1e-12
    # SO(3), a = ln 2, xi = (1,) -> 2
    so3 = build_group("so", 3)
    aa = np.log(2.0)
    block = np.array([[np.cosh(aa), -1j * np.sinh(aa), 0],
                      [1j * np.sinh(aa), np.cosh(aa), 0],
                      [0, 0, 1.0]])
    assert abs(torus_character(so3, block, (1.0,)) - 2.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_torus_character_sp(n):
    # Sp(n): d = diag(d_1..d_n, 1/d_n..1/d_1) has coordinates (d_1..d_n)
    spec = build_group("sp", n)
    d = np.arange(2.0, n + 2)
    xi = np.arange(1.0, n + 1)
    a = np.diag(np.concatenate([d, 1 / d[::-1]])).astype(complex)
    assert abs(torus_character(spec, a, xi) / np.prod(d ** xi) - 1) < 1e-13


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_torus_character_of_a_split_diagonal_equals_the_matrix_form(family, n):
    spec = build_group(family, n)
    eps = spec.slot_weights
    a = np.random.default_rng(n).standard_normal(eps.shape[1])
    log_d = eps @ a
    if family == "su":
        log_d -= log_d.mean()                   # det 1
    d = np.exp(log_d)
    xi = np.arange(1.0, spec.rank + 1)
    vec = torus_character(spec, d, xi)
    mat = torus_character(spec, spec.working_from_split(np.diag(d)), xi)
    assert abs(vec / mat - 1) < 1e-12


def test_torus_character_rejects_a_matrix_off_the_torus():
    a = np.eye(3, dtype=complex)
    a[2, 0] = 0.5
    with pytest.raises(ValueError, match="not in the .*torus"):
        torus_character(SU3, a, (1.0, 1.0))


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 1.0, 1.0)])
def test_torus_character_needs_one_weight_per_coordinate(weights):
    with pytest.raises(ValueError, match="one weight per torus coordinate"):
        torus_character(SU3, np.eye(3), weights)


def test_torus_character_zero_entry():
    with pytest.raises(ZeroTorusEntry):
        torus_character(SU3, np.diag([0.0, 1.0, 1.0]).astype(complex),
                        (1.0, 1.0))


def test_numerical_breakdown_guard():
    # chart representatives are invertible, so this should not occur in
    # practice; the kernel still guards exactly singular input
    from coadjoint.errors import NumericalBreakdown
    from coadjoint._linalg import iwasawa_nak
    bad = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NumericalBreakdown):
        iwasawa_nak(bad)
    with pytest.raises(NumericalBreakdown):
        quaternion_iwasawa(QuaternionMatrix(bad))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quaternion_ul_multiply_back(n):
    # the quaternionic Gauss factorization that stays as an oracle:
    # g = n diag(d) zeta with n unit upper and zeta unit lower triangular
    rng = np.random.default_rng(12)

    def cplx():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for _ in range(5):
        g = QuaternionMatrix(cplx(), cplx())
        up, d, zeta = quaternion_ul(g)
        dm = QuaternionMatrix.zeros(n)
        for i, q in enumerate(d):
            dm[i, i] = q
        assert (up @ dm @ zeta - g).norm_max() < 1e-12 * g.norm_max()
        ones = np.ones((n, n), dtype=bool)
        for m, off in ((up, np.tril(ones, -1)), (zeta, np.triu(ones, 1))):
            assert not np.any(m.z1[off]) and not np.any(m.z2[off])
            assert np.array_equal(np.diagonal(m.z1), np.ones(n))
            assert not np.any(np.diagonal(m.z2))
    with pytest.raises(OutsideCell):
        quaternion_ul(QuaternionMatrix(np.eye(n)[::-1]))


def _shape_error(spec, shape):
    """pytest.raises for a ValueError naming the group and ``shape``."""
    want = re.escape(f"{spec.name} elements have shape {shape}, got")
    return pytest.raises(ValueError, match=want)


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
def test_gauss_bruhat_inputs_are_checked_against_the_group(family, n):
    # an SU(3) call factored a 4 x 4 matrix as SU(3) factors, the batch
    # raised IndexError on one matrix and the cocycle shift a reshape error
    spec = build_group(family, n)
    s, rows = spec.slots, 3
    eye = np.eye(s, dtype=complex)
    point = initial_point(spec, tuple(float(k + 1) for k in range(spec.rank)))
    coords = np.zeros((rows, spec.chart_dim), dtype=complex)
    chart = chart_point(spec, coords[0])
    with _shape_error(spec, f"({s}, {s})"):
        gauss_bruhat(spec, np.eye(s + 1))
    with _shape_error(spec, f"({s}, {s})"):
        gauss_bruhat(spec, eye[None])
    for bad in (eye, np.eye(s + 1)[None], eye[None, None]):
        with _shape_error(spec, f"(N, {s}, {s})"):
            gauss_bruhat_batch(spec, bad)
    for bad in (eye[:, :-1], np.stack([eye] * 2), eye[None, None]):
        with _shape_error(spec, f"({s}, {s}) or (1, {s}, {s})"):
            cocycle_shift(spec, point, chart, bad)
    for bad in (eye[:, :-1], np.stack([eye] * (rows + 1)), eye[None]):
        with _shape_error(spec, f"({s}, {s}) or ({rows}, {s}, {s})"):
            cocycle_shift_batch(spec, point, coords, bad)
    # the shapes each call takes
    assert np.allclose(gauss_bruhat(spec, eye).d_split, 1.0)
    assert gauss_bruhat_batch(spec, np.stack([eye] * rows))[1].all()
    assert cocycle_shift(spec, point, chart, eye[None]) == \
        cocycle_shift(spec, point, chart, eye)
    for g in (eye, np.stack([eye] * rows)):
        assert cocycle_shift_batch(spec, point, coords, g)[2].all()


@pytest.mark.parametrize("family,n,d", [
    ("su", 3, [2.0, 3.0]), ("sp", 2, [2.0, 3.0]),
    ("sp", 2, [2.0, 3.0, 1.0, 0.5, 1.0]), ("so", 4, [2.0, 3.0]),
    ("su", 3, np.eye(2)), ("sp", 2, np.eye(3)), ("so", 4, np.eye(3))])
def test_torus_coordinates_need_the_groups_shape(family, n, d):
    # a split diagonal has one entry per slot and a matrix is slots x slots:
    # SU(3) read [2, 3] as a character of 1/12, Sp(2) two or five entries as
    # 6, and SU(3) a 2 x 2 identity as 1
    spec = build_group(family, n)
    name = re.escape(spec.name)
    with pytest.raises(ValueError, match=name):
        torus_coordinates(spec, d)
    with pytest.raises(ValueError, match=name):
        torus_character(spec, d, np.ones(spec.rank))
