import numpy as np
import pytest

from coadjoint import (OutsideCell, ZeroTorusEntry, build_group, chart_matrix,
                       chart_point, dressing_matrix, gauss_bruhat, iwasawa,
                       torus_character, weyl_group)
from coadjoint.quaternion import Quaternion, QuaternionMatrix
from helpers import haar_su, identity_like, mat_max, random_chart

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


def test_iwasawa_sp2_spec_example():
    # q = j: r^2 = 2, v = -j/2, k quaternion-unitary
    sp2 = build_group("sp", 2)
    fac = iwasawa(sp2, chart_point(sp2, (0.0, 1.0, 0.0, 0.0)))
    assert abs(fac.a_parameters[1] ** 2 - 2.0) < 1e-12
    v = fac.n[0, 1]
    assert abs(v - Quaternion(0.0, -0.5)) < 1e-12
    kk = fac.k @ fac.k.h
    assert (kk - QuaternionMatrix.eye(2)).norm_max() < 1e-12


def test_iwasawa_sp2_closed_forms():
    # r^2 = 1 + |q|^2 and v = conj(q)/r^2
    sp2 = build_group("sp", 2)
    rng = np.random.default_rng(4)
    for _ in range(25):
        z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        fac = iwasawa(sp2, chart_point(sp2, (z1, z2, 0.0, 0.0)))
        q = Quaternion(z1, z2)
        rsq = 1 + abs(q) ** 2
        assert abs(fac.a_parameters[1] ** 2 - rsq) < 1e-10 * rsq
        v = fac.n[0, 1]
        qbar = q.conjugate()
        assert abs(v - qbar * (1.0 / rsq)) < 1e-10


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
            if isinstance(fac.k, QuaternionMatrix):
                un = fac.k @ fac.k.h
            else:
                un = fac.k @ np.conj(fac.k.T)
            assert mat_max(un - identity_like(spec, un)) < 1e-10
            if family in ("su", "sp"):   # positive branch of A
                assert min(fac.a_parameters) > 0


def test_iwasawa_oracle_quaternionic_vs_embedded():
    # the native quaternionic factors embed to a valid complex factorization
    sp3 = build_group("sp", 3)
    rng = np.random.default_rng(6)
    pt = random_chart(sp3, rng)
    fac = iwasawa(sp3, pt)
    z = chart_matrix(sp3, pt)
    lhs = (fac.n @ fac.a @ fac.k).embed("split")
    assert np.max(np.abs(lhs - z.embed("split"))) < 1e-12
    ke = fac.k.embed("split")
    assert np.max(np.abs(ke @ ke.conj().T - np.eye(6))) < 1e-12


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
    from coadjoint.orbit import _zeta_coords
    for _ in range(20):
        pt = random_chart(SU3, rng)
        g = haar_su(3, rng)
        z = chart_matrix(SU3, pt)
        fac = gauss_bruhat(SU3, z @ g)
        zg = chart_point(SU3, _zeta_coords(SU3, fac.zeta))
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


def test_torus_character_zero_entry():
    with pytest.raises(ZeroTorusEntry):
        torus_character(SU3, np.diag([0.0, 1.0, 1.0]).astype(complex),
                        (1.0, 1.0))


def test_numerical_breakdown_guard():
    # chart representatives are invertible, so this should not occur in
    # practice; the kernel still guards exactly singular input
    from coadjoint.errors import NumericalBreakdown
    from coadjoint._linalg import iwasawa_nak, quaternion_iwasawa
    bad = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(NumericalBreakdown):
        iwasawa_nak(bad)
    with pytest.raises(NumericalBreakdown):
        quaternion_iwasawa(QuaternionMatrix(bad))
