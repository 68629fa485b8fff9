import dataclasses
import itertools

import numpy as np
import pytest

from coadjoint import (QuadratureNotConverged, basis_cycles, basis_two_forms,
                       betti, build_group, fibration, initial_point,
                       leray_hirsch, leray_hirsch_check, pairing_integral,
                       pairing_matrix, weyl_group)
from coadjoint import AllWeightsZero, MaximalDegenerate, poincare_polynomial
from coadjoint import cohomology
from coadjoint._linalg import complex_laplacian, gauss_legendre
from coadjoint.groups import _poly_divide, poincare_quotient
from helpers import (CHART_GROUPS, fd_complex_laplacian, macdonald_polynomial,
                     product_rule_pairing)

SU2 = build_group("su", 2)
SU3 = build_group("su", 3)
SU4 = build_group("su", 4)
SP2 = build_group("sp", 2)


def test_betti_known_values():
    assert betti(SU3, initial_point(SU3, (1, 1))).b == (1, 2, 2, 1)
    assert betti(SU3, initial_point(SU3, (0, 1))).b == (1, 1, 1)
    assert betti(SU3, initial_point(SU3, (1, 0))).b == (1, 1, 1)
    assert betti(SU2, initial_point(SU2, (1,))).b == (1, 1)


def test_betti_sum_equals_weyl_ratio():
    from helpers import _parabolic_actions
    cases = [("su", 3, (1, 1)), ("su", 3, (0, 1)), ("su", 4, (1, 1, 1)),
             ("su", 4, (1, 0, 1)), ("sp", 2, (1, 1)), ("sp", 2, (1, 0)),
             ("sp", 3, (1, 1, 1)), ("so", 4, (1, 1)), ("so", 3, (1,))]
    for family, n, w in cases:
        spec = build_group(family, n)
        point = initial_point(spec, w)
        bv = betti(spec, point)
        wg = weyl_group(spec)
        walls = [i for i, x in enumerate(w) if x == 0]
        stab_order = len(_parabolic_actions(wg, walls))
        assert bv.total * stab_order == wg.order


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("su", 5), ("sp", 2), ("sp", 3),
                                      ("sp", 4), ("so", 3), ("so", 4)])
def test_poincare_polynomials_match_weyl_enumeration(family, n):
    from helpers import _coset_length_counts
    spec = build_group(family, n)
    wg = weyl_group(spec)
    assert sum(poincare_polynomial(spec)) == wg.order
    for w in itertools.product((0, 1), repeat=spec.rank):
        if not any(w):
            continue
        point = initial_point(spec, w)
        walls = [i for i, x in enumerate(w) if x == 0]
        assert betti(spec, point).b == _coset_length_counts(wg, walls)
        try:
            fib = fibration(spec, point)
        except MaximalDegenerate:
            continue
        stab = list(fib.stabilizer_generators)
        kg = list(fib.intermediate_generators)
        lh = leray_hirsch(spec, point)
        assert lh.ok
        assert lh.total == _coset_length_counts(wg, stab)
        assert lh.base == _coset_length_counts(wg, kg)
        assert lh.fiber == _coset_length_counts(wg, stab, within_gens=kg)


TOPOLOGY_GROUPS = ([("su", n) for n in range(2, 7)]
                   + [("sp", n) for n in range(2, 5)] + [("so", 3), ("so", 4)])


@pytest.mark.parametrize("family,n", TOPOLOGY_GROUPS + [("su", 8), ("sp", 6)])
def test_cached_poincare_data_equal_fresh_macdonald_products(family, n):
    # every wall set J and every K inside it, asked twice: the first call
    # may form the product, the second reads what was kept
    spec = build_group(family, n)
    fresh = {j: macdonald_polynomial(spec, j)
             for k in range(spec.rank + 1)
             for j in itertools.combinations(range(spec.rank), k)}
    p_w = macdonald_polynomial(spec)
    for _ in range(2):
        assert poincare_polynomial(spec) == p_w
        for j, p_j in fresh.items():
            assert poincare_polynomial(spec, j) == p_j
            assert poincare_quotient(spec, None, j) == _poly_divide(p_w, p_j)
            for k, p_k in fresh.items():
                if set(k) <= set(j):
                    assert poincare_quotient(spec, j, k) == \
                        _poly_divide(p_j, p_k)


@pytest.mark.parametrize("family,n", [("su", 4), ("su", 6), ("sp", 3),
                                      ("so", 4)])
def test_poincare_wall_set_forms_share_one_entry(family, n):
    spec = build_group(family, n)
    rank = spec.rank
    j = (0, rank - 1)
    forms = [[rank - 1, 0], frozenset(j), (rank - 1, 0, rank - 1, 0),
             np.array([rank - 1, 0])]
    p_j = poincare_polynomial(spec, j)
    q_j = poincare_quotient(spec, None, j)
    for form in forms:
        assert poincare_polynomial(spec, form) is p_j
        assert poincare_quotient(spec, None, form) is q_j
    # None and the full generator set both name W
    p_w = poincare_polynomial(spec)
    for full in (tuple(range(rank)), list(range(rank))[::-1],
                 frozenset(range(rank))):
        assert poincare_polynomial(spec, full) is p_w
        assert poincare_quotient(spec, full, j) is q_j
    assert poincare_quotient(spec, None, ()) is poincare_quotient(
        spec, range(rank), [])
    for value in (p_w, p_j, q_j):
        assert type(value) is tuple
        assert all(type(c) is int for c in value)


def test_poincare_quotient_raises_when_not_exact():
    with pytest.raises(ValueError):
        poincare_quotient(SU3, (0,), None)


def test_betti_rejects_the_zero_orbit():
    with pytest.raises(AllWeightsZero):
        betti(SU3, initial_point(SU3, (0, 0)))


def test_poly_divide_is_exact():
    assert _poly_divide((1, 2, 2, 1), (1, 1)) == (1, 1, 1)
    with pytest.raises(ValueError):
        _poly_divide((1, 2, 2), (1, 1))
    with pytest.raises(ValueError):
        _poly_divide((1, 1), (1, 1, 1))


def test_betti_palindrome():
    for family, n, w in [("su", 3, (1, 1)), ("su", 4, (1, 1, 1)),
                         ("sp", 2, (1, 1)), ("so", 4, (1, 1)),
                         ("su", 3, (0, 1))]:
        spec = build_group(family, n)
        b = betti(spec, initial_point(spec, w)).b
        assert b == tuple(reversed(b))
        assert b[0] == 1


def test_betti_matches_orbit_dimension():
    from coadjoint import classify_initial_point
    for family, n, w in [("su", 3, (1, 1)), ("su", 3, (0, 1)),
                         ("sp", 2, (1, 1)), ("so", 4, (1, 1))]:
        spec = build_group(family, n)
        point = initial_point(spec, w)
        b = betti(spec, point).b
        dim = classify_initial_point(spec, point).real_dimension
        assert 2 * (len(b) - 1) == dim


def test_leray_hirsch_su3():
    lh = leray_hirsch(SU3, initial_point(SU3, (1, 1)))
    assert lh.ok
    assert lh.base == (1, 1, 1) and lh.fiber == (1, 1)
    assert lh.total == (1, 2, 2, 1)


def test_leray_hirsch_su4():
    lh = leray_hirsch(SU4, initial_point(SU4, (1, 1, 1)))
    assert lh.ok
    assert sum(lh.total) == 24
    assert lh.base == (1, 1, 1, 1)       # CP^3
    assert lh.fiber == (1, 2, 2, 1)      # generic SU(3) orbit


def test_leray_hirsch_su2_vacuous():
    lh = leray_hirsch(SU2, initial_point(SU2, (1,)))
    assert lh.ok
    assert "vacuous" in lh.note


def test_leray_hirsch_explicit_fibration():
    fib = fibration(SP2, initial_point(SP2, (1, 1)))
    lh = leray_hirsch_check(fib)
    assert lh.ok
    assert lh.total == (1, 2, 2, 2, 1)


def test_leray_hirsch_check_detects_wrong_stabilizer():
    # a stabilizer one reflection too large gives a total of the wrong
    # degree for the 12-dimensional generic SU(4) orbit
    fib = fibration(SU4, initial_point(SU4, (1, 1, 1)))
    assert leray_hirsch_check(fib).ok
    bad = dataclasses.replace(fib, stabilizer_generators=(0,))
    lh = leray_hirsch_check(bad)
    assert not lh.ok
    assert 2 * (len(lh.total) - 1) == 10


def test_basis_cycles_su3():
    cycles = basis_cycles(SU3)
    assert [c.root_label for c in cycles] == ["e1-e2", "e2-e3"]
    assert [c.coord_index for c in cycles] == [0, 1]
    pt = cycles[0].embedding(0.5 + 0.5j)
    assert pt.coords == (0.5 + 0.5j, 0, 0)


def test_basis_cycles_su2_and_sp2():
    assert len(basis_cycles(SU2)) == 1
    cycles = basis_cycles(SP2)
    assert [c.root_label for c in cycles] == ["e1-e2", "2e2"]
    # coordinates run by root height, so the two simple roots come first
    assert cycles[0].coord_index == 0
    assert cycles[1].coord_index == 1


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_basis_cycles_follow_simple_root_coordinates(family, n):
    # coordinates run by root height, so the simple roots are the first
    # rank of them and cycle k lies along coordinate k
    spec = build_group(family, n)
    fam = spec.adapter
    simple = [(i.vec, i.label) for i in fam.simple_roots]
    assert simple == [(i.vec, i.label) for i in fam.positive_roots[:fam.rank]]
    assert np.array_equal(fam.simple_root_coefficients[:fam.rank],
                          np.eye(fam.rank, dtype=int))
    cycles = basis_cycles(spec)
    assert [c.root_label for c in cycles] == [label for _, label in simple]
    assert [c.coord_index for c in cycles] == list(range(fam.rank))
    for k, c in enumerate(cycles):
        coords = np.zeros(fam.chart_dim, dtype=complex)
        coords[k] = 0.5 + 0.5j
        assert c.embedding(0.5 + 0.5j).coords == tuple(coords)


def test_pairing_su3_entries():
    forms = basis_two_forms(SU3)
    cycles = basis_cycles(SU3)
    assert abs(pairing_integral(forms[0], cycles[0]) - 1.0) < 1e-6
    assert abs(pairing_integral(forms[1], cycles[0])) < 1e-6


def test_pairing_su2_standard_integral():
    # (1/pi) int d^2 z / (1+|z|^2)^2 = 1
    forms = basis_two_forms(SU2)
    cycles = basis_cycles(SU2)
    assert abs(pairing_integral(forms[0], cycles[0]) - 1.0) < 1e-6


@pytest.mark.parametrize("spec", [SU2, SU3, SP2], ids=lambda s: s.name)
def test_pairing_matrix_identity(spec):
    m = pairing_matrix(spec, order=128)
    assert np.max(np.abs(m - np.eye(m.shape[0]))) < 1e-6


def test_pairing_matrix_higher_rank():
    # not part of the acceptance set, but the cycle/form duality should hold
    # for every implemented family and rank
    for spec, order in [(build_group("sp", 3), 64), (SU4, 64)]:
        m = pairing_matrix(spec, order=order)
        assert np.max(np.abs(m - np.eye(m.shape[0]))) < 1e-6


def test_betti_degenerate_sp2():
    # both degenerate Sp(2) orbits (CP^3 and Sp(2)/U(2)) have b = (1,1,1,1)
    assert betti(SP2, initial_point(SP2, (1, 0))).b == (1, 1, 1, 1)
    assert betti(SP2, initial_point(SP2, (0, 1))).b == (1, 1, 1, 1)


def test_leray_hirsch_sp3():
    sp3 = build_group("sp", 3)
    lh = leray_hirsch(sp3, initial_point(sp3, (1, 1, 1)))
    assert lh.ok
    assert sum(lh.total) == 48


def test_pairing_quadrature_stability():
    forms = basis_two_forms(SU3)
    cycles = basis_cycles(SU3)
    v128 = pairing_integral(forms[0], cycles[0], order=128)
    v256 = pairing_integral(forms[0], cycles[0], order=256,
                            check_convergence=False)
    assert abs(v128 - v256) < 1e-8


def test_pairing_convergence_guard():
    forms = basis_two_forms(SU3)
    cycles = basis_cycles(SU3)
    with pytest.raises(QuadratureNotConverged, match="rules 8 and 4 differ"):
        pairing_integral(forms[0], cycles[0], order=4)


@pytest.mark.parametrize("order,reference", [(8, 16), (15, 30), (16, 8),
                                             (128, 64)])
def test_pairing_guard_never_compares_a_rule_with_itself(monkeypatch, order,
                                                         reference):
    used = []
    quadrature = cohomology._pairing_quadrature

    def spy(spec, i, n):
        used.append(n)
        return quadrature(spec, i, n)

    monkeypatch.setattr(cohomology, "_pairing_quadrature", spy)
    pairing_matrix(SU2, order=order, check_convergence=True)
    assert used == [order, reference]


def _oracle_pairing_entry(spec, j, i, order):
    """One (cycle i, form j) quadrature with a scalar integrand reading column j."""
    fam = spec.adapter
    xs, ws = gauss_legendre(order)
    theta = (xs + 1.0) * (np.pi / 2.0)
    wth = ws * (np.pi / 2.0)
    phi = (xs + 1.0) * np.pi
    wph = ws * np.pi
    rho = np.where(theta <= np.pi / 2.0,
                   np.tan(theta / 2.0), np.tan((np.pi - theta) / 2.0))
    t = rho[:, None] * np.exp(1j * phi[None, :])

    def f(tflat):
        return fam.potentials(fam.cycle_chart(i, tflat))[:, j]

    lap = fd_complex_laplacian(f, t)
    jac = rho * (1.0 + rho ** 2) / 2.0
    return float(wth @ (lap * jac[:, None]) @ wph / np.pi)


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("sp", 2), ("sp", 3), ("so", 3),
                                      ("so", 4)])
def test_pairing_matrix_matches_per_entry_oracle(family, n):
    # the exact integrand makes the order-16 rule exact to rounding; the
    # finite-difference oracle, one column at a time, is off by up to 1.7e-8
    spec = build_group(family, n)
    rank = spec.adapter.rank
    oracle = np.array([[_oracle_pairing_entry(spec, j, i, 16)
                        for j in range(rank)] for i in range(rank)])
    m = pairing_matrix(spec, order=16)
    assert np.max(np.abs(m - np.eye(rank))) < 1e-12
    assert np.max(np.abs(m - oracle)) < 1e-7


def test_pairing_matrix_convergence_guard():
    with pytest.raises(QuadratureNotConverged):
        pairing_matrix(SU3, order=4, check_convergence=True)
    m = pairing_matrix(SU3, order=8, check_convergence=True)
    assert np.max(np.abs(m - np.eye(2))) < 1e-12
    m = pairing_matrix(SU3, order=128, check_convergence=True)
    assert np.max(np.abs(m - np.eye(2))) < 1e-6


def test_form_cycle_group_mismatch():
    with pytest.raises(ValueError):
        pairing_integral(basis_two_forms(SU3)[0], basis_cycles(SU2)[0])


PAIRING_GROUPS = [("su", 2), ("su", 3), ("su", 4), ("su", 5), ("sp", 2),
                  ("sp", 3), ("so", 3), ("so", 4)]


@pytest.mark.parametrize("family,n", PAIRING_GROUPS)
def test_radial_rule_matches_product_rule(family, n):
    # the product rule integrates the phi axis that the radial rule takes
    # as exactly 2 pi; on the same theta nodes the two agree to rounding
    spec = build_group(family, n)
    for order in (8, 16, 64):
        m = pairing_matrix(spec, order=order)
        assert np.max(np.abs(m - product_rule_pairing(spec, order))) < 1e-13


@pytest.mark.parametrize("family,n", PAIRING_GROUPS)
def test_cycle_integrand_is_torus_invariant(family, n):
    # conjugating exp(t x_i) by a unitary diagonal rotates t and leaves the
    # trailing minors of z z* unchanged; cycle radii r > 1 are evaluated as
    # the quadrature folds them, on the flipped chart at 1/r
    fam = build_group(family, n).adapter
    r = np.logspace(-3, 3, 13)
    rho = np.minimum(r, 1.0 / r)
    phi = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
    t = (rho[:, None] * np.exp(1j * phi[None, :])).ravel()
    for i, x in enumerate(fam.cycle_generators()):
        z = fam.cycle_chart(i, t)
        lap = complex_laplacian(z, z @ x, fam.minor_weights.T) \
            .reshape(len(rho), len(phi), -1)
        spread = np.max(np.abs(lap - lap[:, :1]), axis=(1, 2))
        assert np.all(spread <= 1e-13 * np.max(np.abs(lap[:, 0]), axis=1))


@pytest.mark.parametrize("family,n", PAIRING_GROUPS)
def test_cycle_integrand_is_torus_invariant_past_the_fold(family, n):
    # the same invariance on the cycle chart itself, unfolded, out to
    # |t| = 1e4 where z z* is numerically singular. The spread is measured
    # against the row scale: the largest integrand jac * lap that the radial
    # rule sums into the pairing row, jac = r (1 + r^2) / 2 on the ray
    fam = build_group(family, n).adapter
    r = np.logspace(-3, 4, 15)
    jac = r * (1.0 + r ** 2) / 2.0
    phi = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
    t = (r[:, None] * np.exp(1j * phi[None, :])).ravel()
    for i, x in enumerate(fam.cycle_generators()):
        z = fam.cycle_chart(i, t)
        lap = complex_laplacian(z, z @ x, fam.minor_weights.T) \
            .reshape(len(r), len(phi), -1) * jac[:, None, None]
        assert np.max(np.abs(lap - lap[:, :1])) <= 1e-12 * np.max(np.abs(lap))


@pytest.mark.parametrize("family,n", TOPOLOGY_GROUPS)
def test_kept_pairing_rows_equal_a_fresh_quadrature(family, n):
    # the rows are kept per process and handed to every caller: they must
    # be the uncached quadrature's bits and must refuse writes
    spec = build_group(family, n)
    fresh_quadrature = cohomology._pairing_quadrature.__wrapped__
    for order in (8, 16, 128):
        for i in range(spec.rank):
            row = cohomology._pairing_quadrature(spec, i, order)
            fresh = fresh_quadrature(spec, i, order)
            assert np.array_equal(row.view(np.int64), fresh.view(np.int64))
            assert cohomology._pairing_quadrature(spec, i, order) is row
            with pytest.raises(ValueError):
                row[0] = 0.0


@pytest.mark.parametrize("family,n", TOPOLOGY_GROUPS)
def test_pairing_matrix_is_a_fresh_array_of_the_kept_rows(family, n):
    spec = build_group(family, n)
    forms, cycles = basis_two_forms(spec), basis_cycles(spec)
    for order in (8, 16, 128):
        m = pairing_matrix(spec, order=order)
        expected = m.copy()
        assert m.flags.writeable
        m[...] = np.nan
        again = pairing_matrix(spec, order=order)
        assert np.array_equal(again, expected)
        for cyc in cycles:
            for form in forms:
                assert pairing_integral(form, cyc, order=order,
                                        check_convergence=False) \
                    == again[cyc.index, form.index]


def test_unconverged_pairing_raises_on_every_call():
    # the rows are kept, the verdict is not: a warm process still refuses
    for _ in range(3):
        with pytest.raises(QuadratureNotConverged):
            pairing_matrix(SU3, order=4, check_convergence=True)
        with pytest.raises(QuadratureNotConverged):
            pairing_integral(basis_two_forms(SU3)[0], basis_cycles(SU3)[0],
                             order=4)
