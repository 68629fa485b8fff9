import itertools
import re

import numpy as np
import pytest

from coadjoint import (AllWeightsZero, DegeneracyViolation, MaximalDegenerate,
                       NumericalBreakdown, OutsideCell, PoleOnChart,
                       build_group, chart_point,
                       chart_transition, cocycle_shift, cocycle_shift_batch,
                       dress, dress_batch, fibration, initial_point, metric,
                       metric_batch, potential, potential_batch,
                       su3_closed_form, su3_closed_form_batch,
                       su3_transition_closed, weyl_group)
from coadjoint._families import get_family
from helpers import (full_readout, haar_so, haar_sp, haar_su, random_chart,
                     spectral_mismatch, su3_closed_form_scalar)

SU3 = build_group("su", 3)


def test_dress_identity_chart():
    xi, eta = 1.0, 2.0
    op = dress(SU3, initial_point(SU3, (xi, eta)), chart_point(SU3, (0, 0, 0)))
    mu = np.array(op.coords)
    assert abs(mu[2] - xi) < 1e-14                       # mu_3 = xi
    assert abs(np.sqrt(3) * mu[7] - (2 * eta + xi)) < 1e-13
    others = np.delete(mu, [2, 7])
    assert np.max(np.abs(others)) < 1e-14


def test_su3_closed_form_hand_values():
    # z = 0, (xi,eta) = (1,0): mu_3 = 1, sqrt(3) mu_8 = 1, rest 0
    mu = su3_closed_form(initial_point(SU3, (1.0, 0.0)),
                         chart_point(SU3, (0.0, 0.0, 0.0)))
    assert abs(mu[2] - 1.0) < 1e-14
    assert abs(np.sqrt(3) * mu[7] - 1.0) < 1e-14
    assert np.max(np.abs(np.delete(mu, [2, 7]))) < 1e-14
    # z = (1,0,0), (xi,eta) = (1,0): mu_1 = -1, mu_2 = mu_3 = 0
    mu = su3_closed_form(initial_point(SU3, (1.0, 0.0)),
                         chart_point(SU3, (1.0, 0.0, 0.0)))
    assert abs(mu[0] + 1.0) < 1e-14
    assert abs(mu[1]) < 1e-14
    assert abs(mu[2]) < 1e-14


@pytest.mark.parametrize("weights", [(1.0, 2.0), (1.0, 0.0), (0.0, 1.0),
                                     (0.3, 1e-3)])
def test_su3_closed_form_equals_complex_scalar_oracle_bit_for_bit(weights):
    # numpy's complex-array products, np.abs and the square x * x each
    # round differently from the complex scalars on some of these rows;
    # the real-part formula must not. Every coordinate part is drawn at a
    # scale from 1e-8 to 1e6, and a third of the parts are set to 0.0 or
    # -0.0, so many rows hold exact and signed zeros
    rng = np.random.default_rng(20)
    n = 2600
    parts = rng.standard_normal((n, 6)) * 10.0 ** rng.uniform(-8, 6, (n, 6))
    zeros = rng.random((n, 6)) < 1 / 3
    parts[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    coords = parts.view(complex)
    point = initial_point(SU3, weights)
    charts = [chart_point(SU3, z) for z in coords]
    oracle = np.array([su3_closed_form_scalar(point, c) for c in charts])
    one_row = np.array([su3_closed_form(point, c) for c in charts])
    stacked = su3_closed_form_batch(point, coords)
    assert stacked.shape == (n, 8)
    assert np.array_equal(one_row.view(np.int64), oracle.view(np.int64))
    assert np.array_equal(stacked.view(np.int64), oracle.view(np.int64))


def test_su3_closed_form_batch_rejects_other_groups_and_shapes():
    with pytest.raises(ValueError, match="only for SU"):
        su3_closed_form_batch(initial_point(build_group("su", 4), (1, 1, 1)),
                              np.zeros((2, 6), dtype=complex))
    with pytest.raises(ValueError, match=r"shape \(N, 3\)"):
        su3_closed_form_batch(initial_point(SU3, (1, 2)),
                              np.zeros(3, dtype=complex))


def test_dress_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        xi, eta = rng.uniform(0.1, 10.0, size=2)
        ip = initial_point(SU3, (xi, eta))
        pt = random_chart(SU3, rng)
        op = dress(SU3, ip, pt)
        mu = su3_closed_form(ip, pt)
        assert np.max(np.abs(np.array(op.coords) - mu)) < 1e-10


def test_degeneracy_violation():
    ip = initial_point(SU3, (0.0, 1.0))
    with pytest.raises(DegeneracyViolation):
        dress(SU3, ip, chart_point(SU3, (0.5, 0.0, 0.0)))
    # and the degenerate chart itself works, matching the closed form
    pt = chart_point(SU3, (0.0, 0.4 - 0.2j, 1.1j))
    op = dress(SU3, ip, pt)
    assert np.max(np.abs(np.array(op.coords) - su3_closed_form(ip, pt))) < 1e-12


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
def test_dress_rejects_zero_orbit(family, n):
    spec = build_group(family, n)
    ip = initial_point(spec, (0.0,) * spec.rank)
    with pytest.raises(AllWeightsZero):
        dress(spec, ip, chart_point(spec, (0.0,) * spec.adapter.chart_dim))


def test_isospectrality():
    rng = np.random.default_rng(1)
    for family, n in [("su", 3), ("su", 4), ("sp", 2), ("so", 3), ("so", 4)]:
        spec = build_group(family, n)
        ip = initial_point(spec, tuple(rng.uniform(0.2, 3.0, spec.rank)))
        ref_spec = spec.adapter.spectrum(ip.matrix)
        for _ in range(20):
            op = dress(spec, ip, random_chart(spec, rng))
            assert spectral_mismatch(op.spectrum(), ref_spec) < 1e-10


def test_casimir_constant():
    rng = np.random.default_rng(2)
    xi, eta = 1.3, 0.7
    ip = initial_point(SU3, (xi, eta))
    c0 = xi ** 2 + (xi + 2 * eta) ** 2 / 3.0   # value at z = 0
    for _ in range(50):
        op = dress(SU3, ip, random_chart(SU3, rng, scale=1.5))
        assert abs(np.sum(np.array(op.coords) ** 2) - c0) < 1e-9


def test_dress_sp2_native():
    # Sp dresses in its working basis, the split basis of C^4: mu lies in
    # sp(2) = sp(4, C) n u(4), long-root coordinates included
    sp2 = build_group("sp", 2)
    ip = initial_point(sp2, (1.0, 2.0))
    rng = np.random.default_rng(3)
    chart = random_chart(sp2, rng)
    assert np.all(chart.array() != 0)
    op = dress(sp2, ip, chart)
    mu, om = op.mu_matrix, sp2.adapter._omega
    assert mu.shape == (4, 4)
    assert np.max(np.abs(mu + mu.conj().T)) < 1e-12
    assert np.max(np.abs(mu.T @ om + om @ mu)) < 1e-12
    assert op.coords == ()   # group coordinates only exposed for SU(3)
    assert spectral_mismatch(op.spectrum(),
                             sp2.adapter.spectrum(ip.matrix)) < 1e-10


# ---------------------------------------------------------------------------
# chart transitions


def test_transition_closed_form_examples():
    z = su3_transition_closed((0,), (2.0, 3.0, 5.0))
    assert np.allclose(z, (0.5, -5.0, -3.0))
    z = su3_transition_closed((1,), (2.0, 3.0, 5.0))
    assert np.allclose(z, (1.0, 1.0 / 3.0, -5.0 / 3.0))


def test_transition_pole():
    with pytest.raises(PoleOnChart):
        su3_transition_closed((0,), (0.0, 1.0, 1.0))
    with pytest.raises(PoleOnChart):
        chart_transition(SU3, (0,), chart_point(SU3, (0.0, 1.0, 1.0)))


def test_closed_transition_w2_pole_and_unknown_letter():
    with pytest.raises(PoleOnChart, match="w2"):
        su3_transition_closed((1,), (1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="two simple reflections"):
        su3_transition_closed((2,), (1.0, 1.0, 1.0))


def test_transition_numeric_matches_closed():
    rng = np.random.default_rng(4)
    words = [(0,), (1,), (0, 1), (1, 0), (0, 1, 0)]
    for _ in range(20):
        pt = random_chart(SU3, rng)
        for word in words:
            try:
                closed = su3_transition_closed(word, pt.coords)
            except PoleOnChart:
                continue
            new = chart_transition(SU3, word, pt)
            assert np.max(np.abs(new.array() - np.array(closed))) < 1e-8


def test_transition_involution():
    rng = np.random.default_rng(5)
    pt = random_chart(SU3, rng)
    back = chart_transition(SU3, (0,), chart_transition(SU3, (0,), pt))
    assert np.max(np.abs(back.array() - pt.array())) < 1e-10
    assert back.chart == ()


def test_transition_chart_labels_compose():
    rng = np.random.default_rng(6)
    pt = random_chart(SU3, rng)
    a = chart_transition(SU3, (0,), pt)
    b = chart_transition(SU3, (1,), a)
    wg = weyl_group(SU3)
    assert b.chart == wg.element_by_word((0, 1)).word


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
def test_transition_rejects_letters_outside_the_rank(family, n):
    spec = build_group(family, n)
    pt = chart_point(spec, np.full(spec.adapter.chart_dim, 0.3 + 0.1j))
    for bad in (-1, spec.rank):
        with pytest.raises(ValueError):
            chart_transition(spec, (bad,), pt)


def test_transition_rejects_float_letters():
    pt = chart_point(SU3, (0.3 + 0.1j, 0.2, -0.5j))
    with pytest.raises(ValueError):
        chart_transition(SU3, (1.0,), pt)
    assert chart_transition(SU3, (np.int64(1),), pt) == \
        chart_transition(SU3, (1,), pt)


def test_transition_rejects_weyl_elements_of_another_group():
    # an SO(3) element on SU(3) gave sign-flipped coordinates on chart
    # (0,), an Sp(2) element on SU(4) a point tagged (0, 1)
    for spec, other, word in ((SU3, build_group("so", 3), (0,)),
                              (build_group("su", 4), build_group("sp", 2),
                               (0, 1))):
        pt = chart_point(spec, np.full(spec.adapter.chart_dim, 0.3 + 0.1j))
        with pytest.raises(ValueError):
            chart_transition(spec, weyl_group(other).element_by_word(word), pt)


# every entry point that takes a group with an initial point or a chart
# point, called as (spec, point, chart); the batches take the chart's row
ENTRY_POINTS = {
    "dress": dress,
    "dress_batch": lambda s, p, c: dress_batch(s, p, c.array()[None]),
    "potential": potential,
    "potential_batch": lambda s, p, c: potential_batch(s, p, c.array()[None]),
    "metric": metric,
    "metric_batch": lambda s, p, c: metric_batch(s, p, c.array()[None]),
    "cocycle_shift": lambda s, p, c: cocycle_shift(
        s, p, c, np.eye(s.adapter.slots)),
    "cocycle_shift_batch": lambda s, p, c: cocycle_shift_batch(
        s, p, c.array()[None], np.eye(s.adapter.slots)),
    "chart_transition": lambda s, p, c: chart_transition(s, (0,), c),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects_a_point_or_chart_of_another_group(entry):
    # an SO(3) point dressed on SU(3) gave a mu on no orbit, an Sp(2) point
    # gave SU(3) potentials and metrics, and SO(3) calls read an SU(2) chart
    # (both have one coordinate) as their own
    call = ENTRY_POINTS[entry]
    so3 = build_group("so", 3)
    own = chart_point(SU3, (0.3 + 0.1j, 0.2, -0.5j))
    call(SU3, initial_point(SU3, (1.0, 2.0)), own)
    if entry != "chart_transition":
        for other in (initial_point(so3, (1.0,)),
                      initial_point(build_group("sp", 2), (1.0, 2.0))):
            name = re.escape(other.spec.name)
            with pytest.raises(ValueError, match=rf"{name}.*SU\(3\)"):
                call(SU3, other, own)
    if not entry.endswith("_batch"):
        su2_chart = chart_point(build_group("su", 2), (0.3 + 0.1j,))
        with pytest.raises(ValueError, match=r"SU\(2\).*SO\(3\)"):
            call(so3, initial_point(so3, (1.0,)), su2_chart)


def test_groups_of_one_family_and_n_are_equal_however_built():
    earlier = build_group("su", 3)
    point = initial_point(earlier, (1.0, 2.0))
    chart = chart_point(earlier, (0.3 + 0.1j, 0.2, -0.5j))
    # 40 other groups turn over the cache of family objects
    for n in range(4, 36):
        build_group("su", n)
    for n in range(2, 10):
        build_group("sp", n)
    fresh = build_group("su", 3)
    assert fresh is get_family("su", 3) and fresh is not earlier
    assert fresh == earlier and hash(fresh) == hash(earlier)
    for call in ENTRY_POINTS.values():
        call(fresh, point, chart)
    assert np.array_equal(dress(fresh, point, chart).mu_matrix,
                          dress(earlier, point, chart).mu_matrix)
    # another family or another n is another group
    sp3, su4 = build_group("sp", 3), build_group("su", 4)
    assert fresh != sp3 and fresh != su4 and sp3 != build_group("sp", 2)
    for other in (initial_point(sp3, (1.0, 2.0, 3.0)),
                  initial_point(su4, (1.0, 2.0, 3.0))):
        name = re.escape(other.spec.name)
        with pytest.raises(ValueError, match=rf"InitialPoint of {name} "
                                             r"given to a SU\(3\)"):
            dress(fresh, other, chart)


def test_transition_takes_its_own_weyl_elements():
    pt = chart_point(SU3, (0.3 + 0.1j, 0.2, -0.5j))
    el = weyl_group(SU3).element_by_word((0, 1))
    assert chart_transition(SU3, el, pt) == chart_transition(SU3, (0, 1), pt)
    # an element of an earlier build of the group, dropped from the cache
    weyl_group.cache_clear()
    assert weyl_group(SU3).element_by_word((0, 1)) is not el
    assert chart_transition(SU3, el, pt) == chart_transition(SU3, (0, 1), pt)


TRANSITION_GROUPS = ([("su", n) for n in range(3, 7)]
                     + [("sp", n) for n in range(2, 5)] + [("so", 3), ("so", 4)])


def _outcome(call):
    try:
        return call()
    except (PoleOnChart, OutsideCell) as exc:
        return f"{type(exc).__name__}: {exc}"


def _same_bits(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, tuple):                    # (chart point, shift)
        return _same_bits(a[0], b[0]) and \
            np.float64(a[1]).tobytes() == np.float64(b[1]).tobytes()
    return a.chart == b.chart and \
        np.array(a.coords).tobytes() == np.array(b.coords).tobytes()


@pytest.mark.parametrize("family,n", TRANSITION_GROUPS)
def test_transitions_and_shifts_equal_the_full_readout(family, n,
                                                        monkeypatch):
    # bit for bit against ul_decompose with n unpacked and words composed
    # on the actions; seeded points at |z| ~ 1 .. 1e4 on tagged charts,
    # words up to 2 * rank, -0.0, nan and int coordinates, and a pole
    spec = build_group(family, n)
    dim, rank = spec.adapter.chart_dim, spec.rank
    rng = np.random.default_rng(2400 + 10 * rank + dim)
    point = initial_point(spec, range(1, rank + 1))
    g = {"su": haar_su, "sp": haar_sp, "so": haar_so}[family](n, rng)
    cases = []
    for scale in (1.0, 1e1, 1e2, 1e3, 1e4):
        for _ in range(4):
            z = scale * (rng.standard_normal(dim)
                         + 1j * rng.standard_normal(dim))
            tag = rng.integers(0, rank, rng.integers(0, 3))
            word = rng.integers(0, rank, rng.integers(1, 2 * rank + 1))
            cases.append((chart_point(spec, z, tag.tolist()), word.tolist()))
    special = [[-0.0] * dim, [1 + k % 3 for k in range(dim)],
               [np.nan] + [0.5] * (dim - 1), [-0.0, 2] * dim]
    cases += [(chart_point(spec, z[:dim]), [0]) for z in special]
    pole = np.full(dim, 0.5 + 0.5j)
    pole[0] = 0.0                      # s_0 inverts the first coordinate
    cases.append((chart_point(spec, pole), [0]))

    def run():
        return [(_outcome(lambda: chart_transition(spec, word, pt)),
                 _outcome(lambda: cocycle_shift(spec, point, pt, g)))
                for pt, word in cases]

    with monkeypatch.context() as patch:
        full_readout(patch)
        expected = run()
    got = run()
    assert expected[-1][0].startswith("PoleOnChart: transition by word (0,)")
    for (a, b), (c, d) in zip(got, expected):
        assert _same_bits(a, c) and _same_bits(b, d)


@pytest.mark.parametrize("family,n", [("su", 3), ("su", 5), ("sp", 2),
                                      ("sp", 3), ("so", 3), ("so", 4)])
def test_cocycle_batch_rows_equal_one_row_shifts_where_columns_vanish(family,
                                                                      n):
    # alone, a row whose z g has zero columns skips their elimination
    # steps; in a stack with dense rows it does not. Each row of the batch
    # is the one-row shift bit for bit, off-cell rows as OutsideCell
    spec = build_group(family, n)
    dim, rank = spec.chart_dim, spec.rank
    rng = np.random.default_rng(3100 + 10 * rank + dim)
    point = initial_point(spec, range(1, rank + 1))
    lifts = [el.matrix for el in weyl_group(spec).elements][:12]
    haar = {"su": haar_su, "sp": lambda k, r: haar_sp(k, r).embed("split"),
            "so": haar_so}[family]
    coords, g = [], []
    for k, lift in enumerate(lifts):
        sparse = np.zeros(dim, dtype=complex)
        sparse[k % dim] = 0.7 - 0.2j
        dense = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        coords += [np.zeros(dim), sparse, dense, dense]
        g += [lift, lift, lift, haar(n, rng)]
    coords, g = np.array(coords), np.array(g)
    coords_g, shift, in_cell = cocycle_shift_batch(spec, point, coords, g)
    assert in_cell.any() and not in_cell.all()
    for i in range(len(coords)):
        chart = chart_point(spec, coords[i])
        if not in_cell[i]:
            with pytest.raises(OutsideCell):
                cocycle_shift(spec, point, chart, g[i])
            continue
        one, one_shift = cocycle_shift(spec, point, chart, g[i])
        assert np.array(one.coords).tobytes() == coords_g[i].tobytes()
        assert np.float64(one_shift).tobytes() == shift[i].tobytes()


@pytest.mark.parametrize("call", ["dress", "dress_batch"])
def test_far_su3_dress_raises_on_a_subnormal_pivot(call):
    # the first Iwasawa pivot at |z| = 1e300 is 8.3e-317: subnormal, so its
    # phase delta / |delta| overflowed into a nan mu that no check caught
    point = initial_point(SU3, (1, 1))
    coords = np.full(3, 1e300 + 0j)
    with pytest.raises(NumericalBreakdown):
        if call == "dress":
            dress(SU3, point, chart_point(SU3, coords))
        else:
            dress_batch(SU3, point, np.array([np.zeros(3), coords]))


@pytest.mark.parametrize("coords", [(1, 2, 3), (-0.0, 0.0, -0.0j),
                                    (np.nan, np.inf, -np.inf),
                                    (complex(np.nan, -0.0), 1j, True),
                                    (np.float32(0.1), np.int64(2**53 + 1), 3)])
def test_chart_point_converts_each_coordinate_as_complex_does(coords):
    expected = np.array([complex(z) for z in coords])
    for given in (coords, list(coords), np.array(coords),
                  np.array(coords, dtype=object), (z for z in coords)):
        got = chart_point(SU3, given).coords
        assert all(type(z) is complex for z in got)
        assert np.array(got).tobytes() == expected.tobytes()


def test_chart_point_rejects_what_complex_rejects():
    for bad in (np.ones((3, 1)), np.ones((1, 3)), (None, 1, 2), ([1], 2, 3),
                ("x", 1, 2), 1.0, np.array(1.0)):
        with pytest.raises((TypeError, ValueError)) as info:
            chart_point(SU3, bad)
        assert "charts have" not in str(info.value)
    with pytest.raises(TypeError):
        chart_point(SU3, np.ones((3, 1)))
    with pytest.raises(ValueError, match="charts have 3 coordinates"):
        chart_point(SU3, np.ones(2))


def test_chart_compatibility_dressing():
    # dressing at z then conjugating by w equals dressing at the transformed
    # point (the torus phase emitted by the factorization commutes with the
    # diagonal initial point)
    rng = np.random.default_rng(7)
    wg = weyl_group(SU3)
    ip = initial_point(SU3, (1.2, 0.8))
    for word in [(0,), (1,)]:
        el = wg.element_by_word(word)
        for _ in range(10):
            pt = random_chart(SU3, rng)
            try:
                pt2 = chart_transition(SU3, word, pt)
            except PoleOnChart:
                continue
            mu1 = dress(SU3, ip, pt).mu_matrix
            mu2 = dress(SU3, ip, pt2).mu_matrix
            w = el.matrix
            moved = w.conj().T @ mu1 @ w
            assert spectral_mismatch(np.linalg.eigvals(moved),
                                     np.linalg.eigvals(mu2)) < 1e-10
            assert np.max(np.abs(moved - mu2)) < 1e-8


def test_transition_sp2_quaternionic():
    sp2 = build_group("sp", 2)
    rng = np.random.default_rng(8)
    pt = random_chart(sp2, rng)
    # the short simple reflection, the quaternionic SU(2) flip, is in the
    # split basis the swap e1 <-> e2 on the a and b slots; it squares to one
    new = chart_transition(sp2, (0,), pt)
    back = chart_transition(sp2, (0,), new)
    assert np.max(np.abs(back.array() - pt.array())) < 1e-10


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("sp", 2), ("sp", 3), ("sp", 4),
                                      ("so", 3), ("so", 4)])
def test_transition_round_trip_up_to_signs(family, n):
    # to chart w and back by the reversed word: the representative of the
    # reversed word is w^-1 up to a torus element of order two, so the start
    # returns exactly or with some coordinates negated, never otherwise
    spec = build_group(family, n)
    rng = np.random.default_rng(13)
    for _ in range(20):
        start = random_chart(spec, rng)
        word = tuple(int(k) for k in rng.integers(
            0, spec.rank, size=rng.integers(1, spec.rank + 1)))
        there = chart_transition(spec, word, start)
        back = chart_transition(spec, word[::-1], there)
        z, z0 = back.array(), start.array()
        assert back.chart == ()
        assert np.max(np.minimum(np.abs(z - z0), np.abs(z + z0))) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sp_transitions_defined_where_the_highest_coordinates_vanish(n):
    # with the n coordinates of the highest roots at zero (no simple root
    # among them), every word of length <= n has a transition and a round
    # trip; on Sp(2) this needs the S term of the chart, without which the
    # word (1, 0) has its pole on this slice
    spec = build_group("sp", n)
    rng = np.random.default_rng(17)
    for length in range(1, n + 1):
        for word in itertools.product(range(n), repeat=length):
            z0 = random_chart(spec, rng).array()
            z0[-n:] = 0.0
            start = chart_point(spec, z0)
            back = chart_transition(spec, word[::-1],
                                    chart_transition(spec, word, start))
            z = back.array()
            assert np.max(np.minimum(np.abs(z - z0), np.abs(z + z0))) < 1e-8


# ---------------------------------------------------------------------------
# fibrations


def test_fibration_su3():
    fib = fibration(SU3, initial_point(SU3, (1.0, 1.0)))
    assert fib.base.label == "CP^2" and fib.base.real_dimension == 4
    assert fib.fiber.label == "CP^1" and fib.fiber.real_dimension == 2
    assert fib.total.real_dimension == 6


def test_fibration_su4():
    su4 = build_group("su", 4)
    fib = fibration(su4, initial_point(su4, (1.0, 1.0, 1.0)))
    assert fib.base.label == "CP^3"
    assert fib.fiber.label == "O^SU(3)"
    assert fib.total.real_dimension == \
        fib.base.real_dimension + fib.fiber.real_dimension == 12


def test_fibration_maximal_degenerate():
    su2 = build_group("su", 2)
    with pytest.raises(MaximalDegenerate):
        fibration(su2, initial_point(su2, (1.0,)))
    with pytest.raises(MaximalDegenerate):
        fibration(SU3, initial_point(SU3, (0.0, 1.0)))


def test_fibration_dimension_additivity():
    for family, n, w in [("su", 4, (1.0, 0.0, 1.0)), ("sp", 2, (1.0, 1.0)),
                         ("sp", 3, (1.0, 1.0, 1.0)), ("so", 4, (1.0, 1.0))]:
        spec = build_group(family, n)
        fib = fibration(spec, initial_point(spec, w))
        assert fib.total.real_dimension == \
            fib.base.real_dimension + fib.fiber.real_dimension


def _round_trip(spec, seed):
    # the reversed word returns to chart (); each coordinate comes back as z
    # or -z, the known transition-sign defect
    rng = np.random.default_rng(seed)
    dim = spec.adapter.chart_dim
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    word = rng.integers(0, spec.rank, 2 * spec.rank).tolist()
    there = chart_transition(spec, word, chart_point(spec, z))
    back = chart_transition(spec, word[::-1], there)
    assert back.chart == ()
    assert np.max(np.abs(np.abs(back.array()) - np.abs(z))) < 1e-9


def test_transitions_enumerate_no_weyl_group():
    before = weyl_group.cache_info()
    for spec in (build_group("su", 4), build_group("sp", 3)):
        _round_trip(spec, 35)
    assert weyl_group.cache_info() == before
    # |W| = 9! and 2^6 6!: the closure took 33 s and 1.5 GB on SU(9)
    for spec in (build_group("su", 9), build_group("sp", 6)):
        _round_trip(spec, 35)
    assert weyl_group.cache_info() == before
