import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coadjoint
from coadjoint import (AllWeightsZero, OrbitKind, UnsupportedGroup,
                       build_group, classify_initial_point, initial_point,
                       poincare_polynomial, root_datum, weyl_group)
from coadjoint._families import Family, get_family
from coadjoint.groups import WALL_TOL, InitialPoint, weyl_element
from coadjoint.orbit import required_zero_mask
from coadjoint.quaternion import QuaternionMatrix
from helpers import (CHART_GROUPS, composed_element, cycle_generator,
                     exp_series, root_pairing, root_vector_minus, slot_weights)


def test_build_group_ranks():
    assert build_group("su", 3).rank == 2
    assert build_group("sp", 2).rank == 2
    assert build_group("su", 2).rank == 1
    assert build_group("so", 3).rank == 1
    assert build_group("so", 4).rank == 2


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_a_group_is_its_family_object(family, n):
    spec = build_group(family, n)
    assert spec is get_family(family, n)
    assert spec.adapter is spec
    assert isinstance(spec, coadjoint.GroupSpec)


def test_group_spec_is_the_family_type():
    assert coadjoint.GroupSpec is Family


@pytest.mark.parametrize("family,n", [("so", 5), ("so", 2), ("su", 1), ("sp", 1),
                                      ("g", 2)])
def test_build_group_rejects(family, n):
    with pytest.raises(UnsupportedGroup):
        build_group(family, n)


def test_su3_simple_roots_verbatim():
    rd = root_datum(build_group("su", 3))
    a1, a2 = rd.simple_roots
    assert np.allclose(a1, np.diag([1j, -1j, 0]))
    assert np.allclose(a2, np.diag([0, 1j, -1j]))


def test_su2_simple_root():
    rd = root_datum(build_group("su", 2))
    assert np.allclose(rd.simple_roots[0], np.diag([1j, -1j]))


def test_su3_positive_root_count_against_ad_oracle():
    # independent oracle: grade the matrix units E_ij by a regular dominant
    # diagonal h and count the positive eigenvalues of ad(h)
    h = np.diag([2.0, 1.0, -3.0])
    count = 0
    for i in range(3):
        for j in range(3):
            if i != j and (h[i, i] - h[j, j]) > 0:
                count += 1
    rd = root_datum(build_group("su", 3))
    assert len(rd.positive_roots) == count == 3


def test_positive_root_counts_match_chart_dimension():
    for family, n in [("su", 2), ("su", 3), ("su", 4), ("sp", 2), ("sp", 3),
                      ("so", 3), ("so", 4)]:
        spec = build_group(family, n)
        rd = root_datum(spec)
        assert len(rd.positive_roots) == spec.adapter.chart_dim


def test_sp_root_system_is_c_type():
    rd = root_datum(build_group("sp", 2))
    labels = set(rd.positive_root_labels)
    assert labels == {"e1-e2", "e1+e2", "2e1", "2e2"}


def test_root_vectors_land_in_compact_form():
    for family, n in [("su", 3), ("su", 4), ("so", 3), ("so", 4), ("sp", 2)]:
        spec = build_group(family, n)
        rd = root_datum(spec)
        for xp, xm in zip(rd.root_vectors_plus, rd.root_vectors_minus):
            u = xp - xm
            v = 1j * (xp + xm)
            for y in (u, v):
                assert np.max(np.abs(y + y.conj().T)) < 1e-12  # anti-hermitian
                if family == "so":
                    assert np.max(np.abs(y.imag)) < 1e-12       # real form


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_chart_root_data_match_oracles(family, n):
    # root vectors, cycle generators and cycle charts are read off the chart;
    # the oracles are the slot-weight search and exp(t x_k) by its series.
    # On SO(3) the series rounds sqrt 2 * sqrt 2 / 2 to 1 + 2^-52 where the
    # chart has the exact -t^2, and dz/dt is read off by a central difference
    spec = build_group(family, n)
    fam = spec.adapter
    for info, xm in zip(fam.positive_roots, root_datum(spec).root_vectors_minus):
        oracle = root_vector_minus(fam, info.as_array())
        assert np.array_equal(xm, fam.working_from_split(oracle))
    t = np.concatenate([np.logspace(-3, 3, 7) * np.exp(1j * np.arange(7)),
                        [0.0, 1.0, -1e3, 1e3j]])
    tol = 1e-15 if (family, n) == ("so", 3) else 0.0
    for k, x in enumerate(fam.cycle_generators()):
        assert np.array_equal(x, cycle_generator(fam, k))
        z = fam.cycle_chart(k, t)
        series = exp_series(cycle_generator(fam, k), t)
        assert np.all(np.max(np.abs(z - series), axis=(1, 2))
                      <= tol * np.max(np.abs(series), axis=(1, 2)))
        # dz/dt = z x_k, which the pairing quadrature differentiates by
        coords = np.zeros((t.size, fam.chart_dim), dtype=complex)
        coords[:, k] = t
        dz = fam.chart_jacobian(coords)[1][:, k]
        scale = np.maximum(1.0, np.max(np.abs(z @ x), axis=(1, 2)))
        assert np.all(np.max(np.abs(dz - z @ x), axis=(1, 2)) <= tol * scale)


def test_cartan_vectors_are_diagonal_in_split():
    spec = build_group("su", 3)
    rd = root_datum(spec)
    for h in rd.cartan_vectors:
        assert np.max(np.abs(h - np.diag(np.diagonal(h)))) < 1e-12


# ---------------------------------------------------------------------------
# Weyl groups


def test_weyl_orders():
    assert weyl_group(build_group("su", 2)).order == 2
    assert weyl_group(build_group("su", 3)).order == 6
    assert weyl_group(build_group("su", 4)).order == math.factorial(4)
    assert weyl_group(build_group("sp", 2)).order == 8
    assert weyl_group(build_group("sp", 3)).order == 48
    assert weyl_group(build_group("so", 3)).order == 2
    assert weyl_group(build_group("so", 4)).order == 4


@pytest.mark.parametrize("family,n", [("su", n) for n in range(2, 8)]
                         + [("sp", n) for n in range(2, 6)]
                         + [("so", 3), ("so", 4)])
def test_closed_weyl_order_equals_the_closure_and_kostants_product(family, n):
    # the closure is the oracle: |W| three ways
    spec = build_group(family, n)
    assert spec.weyl_order == weyl_group(spec).order \
        == sum(poincare_polynomial(spec))


def test_su3_weyl_element_words():
    wg = weyl_group(build_group("su", 3))
    words = {el.word for el in wg.elements}
    assert words == {(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)}


def test_su3_weyl_matrices_verbatim_and_closed():
    wg = weyl_group(build_group("su", 3))
    w1 = wg.generators[0].matrix
    w2 = wg.generators[1].matrix
    assert np.allclose(w1, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
    assert np.allclose(w2, [[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    # the six stored representatives close strictly under matrix products
    mats = [el.matrix for el in wg.elements]
    for a in mats:
        for b in mats:
            prod = a @ b
            assert min(np.max(np.abs(prod - m)) for m in mats) < 1e-9


def test_weyl_closure_up_to_torus():
    # the product of two representatives is a representative times a torus
    # element (diagonal); exact matrix closure only holds when involutive
    # braid-exact generators exist (SU(3), SO)
    for family, n in [("su", 4), ("sp", 2), ("so", 4)]:
        spec = build_group(family, n)
        wg = weyl_group(spec)
        for a in wg.elements:
            for b in wg.elements:
                action = b.action @ a.action
                c = wg.find(action)
                t = c.matrix.conj().T @ a.matrix @ b.matrix
                assert np.max(np.abs(t - np.diag(np.diagonal(t)))) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sp_weyl_generators_embed_the_quaternionic_ones(n):
    # the SU(2) flips of adjacent quaternionic slots and the quaternion j on
    # the last one, embedded in the split basis: real signed permutations
    # that preserve the symplectic form
    fam = build_group("sp", n).adapter
    quaternionic = []
    for k in range(n - 1):
        w = QuaternionMatrix.eye(n)
        w.z1[k, k] = w.z1[k + 1, k + 1] = 0.0
        w.z1[k, k + 1] = w.z1[k + 1, k] = 1.0
        quaternionic.append(w)
    w = QuaternionMatrix.eye(n)
    w.z1[n - 1, n - 1] = 0.0
    w.z2[n - 1, n - 1] = 1.0
    quaternionic.append(w)
    for g, q in zip(fam.weyl_generators(), quaternionic, strict=True):
        assert np.array_equal(g, q.embed("split"))
        assert np.array_equal(g.T @ fam._omega @ g, fam._omega)


def test_weyl_normalizes_torus():
    for family, n in [("su", 3), ("sp", 2), ("so", 4)]:
        spec = build_group(family, n)
        fam = spec.adapter
        wg = weyl_group(spec)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(fam.rankdim)
        m = fam.weight_matrix(c)
        for el in wg.elements:
            w = el.matrix
            out = w.conj().T @ m @ w
            c2 = fam.weight_coords(out)
            # conjugation maps the dual Cartan to itself ...
            assert np.max(np.abs(out - fam.weight_matrix(c2))) < 1e-9
            # ... by the recorded coordinate action
            assert np.max(np.abs(c2 - el.action @ c)) < 1e-9


def test_reflection_formula_matches_conjugation():
    rng = np.random.default_rng(3)
    for family, n in [("su", 3), ("su", 4), ("sp", 2), ("so", 4), ("so", 3)]:
        spec = build_group(family, n)
        fam = spec.adapter
        rd = root_datum(spec)
        wg = weyl_group(spec)
        for k, info in enumerate(fam.simple_roots):
            alpha = rd.simple_roots[k]
            aa = root_pairing(rd, alpha, alpha)
            for _ in range(5):
                c = rng.standard_normal(fam.rankdim)
                mu = fam.weight_matrix(c)
                ma = root_pairing(rd, mu, alpha)
                reflected = mu - 2.0 * (ma / aa) * alpha
                w = wg.generators[k].matrix
                conj = w.conj().T @ mu @ w
                assert np.max(np.abs(conj - reflected)) < 1e-12


def test_chamber_covering():
    rng = np.random.default_rng(11)
    for family, n in [("su", 3), ("sp", 2), ("so", 4)]:
        spec = build_group(family, n)
        fam = spec.adapter
        wg = weyl_group(spec)
        simple = [i.as_array() for i in fam.simple_roots]
        for _ in range(25):
            c = rng.standard_normal(fam.rankdim)
            if fam.family == "su":
                c -= c.mean()
            hits = 0
            for el in wg.elements:
                img = el.action @ c
                if all(float(img @ a) >= -1e-9 for a in simple):
                    hits += 1
            assert hits == 1


# ---------------------------------------------------------------------------
# classification


def test_classify_su3_generic():
    spec = build_group("su", 3)
    oc = classify_initial_point(spec, initial_point(spec, (1.0, 1.0)))
    assert oc.kind is OrbitKind.GENERIC
    assert oc.real_dimension == 6
    assert oc.stabilizer == "U(1)xU(1)"
    assert oc.vanishing_walls == ()


def test_classify_su3_degenerate():
    spec = build_group("su", 3)
    oc = classify_initial_point(spec, initial_point(spec, (0.0, 1.0)))
    assert oc.kind is OrbitKind.DEGENERATE
    assert oc.real_dimension == 4
    assert oc.stabilizer == "SU(2)xU(1)"
    assert oc.vanishing_walls == ("e1-e2",)


def test_classify_su2():
    spec = build_group("su", 2)
    oc = classify_initial_point(spec, initial_point(spec, (1.0,)))
    assert oc.kind is OrbitKind.GENERIC
    assert oc.real_dimension == 2


def test_classify_rejects_zero():
    spec = build_group("su", 3)
    with pytest.raises(AllWeightsZero):
        classify_initial_point(spec, initial_point(spec, (0.0, 0.0)))


def test_initial_point_chamber_membership():
    # <mu0, alpha> >= 0 for all positive roots
    for family, n in [("su", 3), ("su", 4), ("sp", 2), ("so", 4)]:
        spec = build_group(family, n)
        rd = root_datum(spec)
        ip = initial_point(spec, tuple([1.0] * spec.rank))
        for alpha in rd.positive_roots:
            assert root_pairing(rd, ip.matrix, alpha) > 0
    with pytest.raises(ValueError):
        initial_point(build_group("su", 3), (-1.0, 1.0))


def test_initial_point_matrix_form():
    # mu0 = -(i/3) xi diag(2,-1,-1) - (i/3) eta diag(1,1,-2)
    spec = build_group("su", 3)
    xi, eta = 0.8, 2.5
    ip = initial_point(spec, (xi, eta))
    expected = (-1j / 3.0) * (xi * np.diag([2.0, -1.0, -1.0])
                              + eta * np.diag([1.0, 1.0, -2.0]))
    assert np.max(np.abs(ip.matrix - expected)) < 1e-14
    assert np.max(np.abs(np.trace(ip.matrix))) < 1e-14


def test_classify_su4_stabilizer_table():
    su4 = build_group("su", 4)
    cases = [((1.0, 1.0, 1.0), "U(1)xU(1)xU(1)"),
             ((1.0, 0.0, 1.0), "SU(2)xU(1)xU(1)"),
             ((0.0, 1.0, 0.0), "S(U(2)xU(2))"),
             ((0.0, 0.0, 1.0), "SU(3)xU(1)")]
    for w, stab in cases:
        oc = classify_initial_point(su4, initial_point(su4, w))
        assert oc.stabilizer == stab


def test_classify_sp2_walls():
    spec = build_group("sp", 2)
    oc = classify_initial_point(spec, initial_point(spec, (1.0, 0.0)))
    assert oc.kind is OrbitKind.DEGENERATE
    assert oc.vanishing_walls == ("2e2",)
    assert oc.real_dimension == 6
    assert oc.stabilizer == "U(1)xSp(1)"
    oc2 = classify_initial_point(spec, initial_point(spec, (0.0, 1.0)))
    assert oc2.stabilizer == "U(2)"
    assert oc2.real_dimension == 6


# ---------------------------------------------------------------------------
# walls: decided once, everything else from the integer root table

WALL_GROUPS = [("su", n) for n in range(2, 8)] + \
    [("sp", n) for n in range(2, 6)] + [("so", 3), ("so", 4)]


def _wall_weights(rank, seed):
    """Every nonzero 0/1 pattern, then seeded random weights with zeros."""
    out = [w for w in itertools.product((0.0, 1.0), repeat=rank) if any(w)]
    rng = np.random.default_rng(seed)
    while len(out) < 2 ** rank - 1 + 200:
        w = rng.uniform(0.01, 5.0, rank) * (rng.random(rank) < 0.6)
        if w.any():
            out.append(tuple(w))
    return out


@pytest.mark.parametrize("family,n", WALL_GROUPS)
def test_wall_derivation_matches_float_oracle(family, n):
    from helpers import float_degeneracy
    spec = build_group(family, n)
    n_pos = len(poincare_polynomial(spec)) - 1
    for w in _wall_weights(spec.rank, seed=100 * n + len(family)):
        point = initial_point(spec, w)
        assert point.walls == tuple(k for k, x in enumerate(w) if x == 0)
        oc = classify_initial_point(spec, point)
        mask, dim, stab = float_degeneracy(spec, point)
        assert np.array_equal(required_zero_mask(spec, point), mask)
        assert oc.real_dimension == dim
        assert oc.stabilizer == stab
        n_walls = len(poincare_polynomial(spec, point.walls)) - 1
        assert oc.real_dimension == 2 * (n_pos - n_walls)


def test_walls_are_relative_to_the_largest_weight():
    su3 = build_group("su", 3)
    assert initial_point(su3, (1e-13, 1e-13)).walls == ()
    assert initial_point(su3, (1e-13, 1.0)).walls == (0,)
    assert initial_point(su3, (5e-12, 10.0)).walls == (0,)
    assert initial_point(su3, (0.0, 1e-300)).walls == (0,)
    assert initial_point(su3, (0.0, 0.0)).walls == (0, 1)
    oc = classify_initial_point(su3, initial_point(su3, (1e-13, 2e-13)))
    assert oc == classify_initial_point(su3, initial_point(su3, (1.0, 2.0)))
    # an infinite weight would put every finite one on a wall
    for bad in ((math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            initial_point(su3, bad)


def test_near_wall_generic_point_has_torus_stabilizer():
    # a weight just above the threshold is no wall: the orbit is generic, so
    # its stabilizer is the maximal torus, not U(1)xSp(1)
    sp2 = build_group("sp", 2)
    oc = classify_initial_point(sp2, initial_point(sp2, (1.0, 1.5e-12)))
    assert oc.kind is OrbitKind.GENERIC
    assert oc.real_dimension == 8
    assert oc.stabilizer == "U(1)xU(1)"


def test_near_wall_point_matches_its_wall():
    # weights below the threshold sit on the walls, so every degeneracy
    # fact equals that of the point exactly on them
    sp3 = build_group("sp", 3)
    near = initial_point(sp3, (1.0, 6e-13, 6e-13))
    on = initial_point(sp3, (1.0, 0.0, 0.0))
    assert classify_initial_point(sp3, near).real_dimension == 10
    assert classify_initial_point(sp3, near) == classify_initial_point(sp3, on)
    assert np.array_equal(required_zero_mask(sp3, near),
                          required_zero_mask(sp3, on))
    assert near.walls == on.walls == (1, 2)


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("su", 5), ("su", 6), ("sp", 2),
                                      ("sp", 3), ("sp", 4), ("so", 3),
                                      ("so", 4)])
def test_find_matches_linear_scan(family, n):
    from helpers import linear_find
    wg = weyl_group(build_group(family, n))
    for el in wg.elements:
        assert wg.find(el.action) is linear_find(wg, el.action)
    with pytest.raises(KeyError):
        wg.find(2.0 * wg.elements[0].action)


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
@pytest.mark.parametrize("letter", ["below", "rank"])
def test_element_by_word_rejects_letters_outside_the_rank(family, n, letter):
    spec = build_group(family, n)
    bad = -1 if letter == "below" else spec.rank
    with pytest.raises(ValueError):
        weyl_group(spec).element_by_word((0, bad))


def test_element_by_word_takes_integer_letters_only():
    wg = weyl_group(build_group("su", 3))
    for bad in (1.0, 0.0, "1", None):
        with pytest.raises(ValueError):
            wg.element_by_word((bad,))
    assert wg.element_by_word((np.int64(1), 0)) is wg.element_by_word((1, 0))


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("su", 5), ("sp", 2), ("sp", 3),
                                      ("so", 3), ("so", 4)])
def test_word_table_resolves_every_short_word(family, n):
    # every word up to length 2 * rank, against composing the actions
    spec = build_group(family, n)
    wg = weyl_group(spec)
    for length in range(2 * spec.rank + 1):
        for word in itertools.product(range(spec.rank), repeat=length):
            assert wg.element_by_word(word) is composed_element(wg, word)


@pytest.mark.parametrize("family,n", [("su", 6), ("sp", 4)])
def test_word_table_resolves_long_seeded_words(family, n):
    spec = build_group(family, n)
    wg = weyl_group(spec)
    rng = np.random.default_rng(24)
    for _ in range(200):
        word = rng.integers(0, spec.rank, rng.integers(0, 13))
        assert wg.element_by_word(word.tolist()) is composed_element(wg, word)
        assert wg.element_by_word(tuple(word)) is composed_element(wg, word)


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_actions_are_exact_integer_reflections(family, n):
    spec = build_group(family, n)
    wg = weyl_group(spec)
    for g, info in zip(wg.generators, spec.adapter.simple_roots, strict=True):
        a = info.as_array()
        assert g.action.dtype.kind == "i"
        assert np.array_equal(g.action,
                              np.eye(len(a)) - 2.0 * np.outer(a, a) / (a @ a))
    # an element acts as its word's generators, the first letter first
    for el in wg.elements:
        act = np.eye(spec.adapter.rankdim, dtype=int)
        for k in el.word:
            act = wg.generators[k].action @ act
        assert np.array_equal(el.action, act)


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_lifts_satisfy_the_braid_relations(family, n):
    # so a word's product of lifts depends only on its element; each stored
    # matrix is that product along the stored word
    spec = build_group(family, n)
    wg = weyl_group(spec)
    lifts = [g.matrix for g in wg.generators]
    roots = [info.as_array() for info in spec.adapter.simple_roots]
    for i, j in itertools.combinations(range(spec.rank), 2):
        a, b = roots[i], roots[j]
        cos2 = round(4 * (a @ b) ** 2 / ((a @ a) * (b @ b)))
        m = {0: 2, 1: 3, 2: 4, 3: 6}[cos2]
        left = np.linalg.multi_dot([lifts[(i, j)[t % 2]] for t in range(m)])
        right = np.linalg.multi_dot([lifts[(j, i)[t % 2]] for t in range(m)])
        assert np.array_equal(left, right)
    for el in wg.elements:
        mat = np.eye(spec.adapter.slots, dtype=complex)
        for k in el.word:
            mat = mat @ lifts[k]
        assert np.array_equal(el.matrix, mat)


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("sp", 2), ("sp", 3), ("so", 3),
                                      ("so", 4)])
def test_words_are_the_first_reduced_words(family, n):
    spec = build_group(family, n)
    wg = weyl_group(spec)
    gens = [g.action for g in wg.generators]
    # every word of each length, in lexicographic order
    level = [((), np.eye(spec.adapter.rankdim, dtype=int))]
    first = {}
    for _ in range(max(el.length for el in wg.elements) + 1):
        for word, act in level:
            first.setdefault(tuple(act.ravel().tolist()), word)
        level = [(word + (k,), g @ act) for word, act in level
                 for k, g in enumerate(gens)]
    for el in wg.elements:
        assert el.word == first[tuple(el.action.ravel().tolist())]
        assert el.length == len(el.word)


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
def test_find_needs_the_exact_action(family, n):
    wg = weyl_group(build_group(family, n))
    for el in wg.elements:
        with pytest.raises(KeyError):
            wg.find(el.action + 1e-9)
    with pytest.raises(KeyError):
        wg.find(1.5 * wg.elements[0].action)


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_slot_weights_match_the_oracle(family, n):
    fam = build_group(family, n).adapter
    assert np.array_equal(fam.slot_weights, slot_weights(fam))


# mu0: its split diagonal is its one definition, and its exact spectrum


def _generic_and_wall_points(spec):
    rng = np.random.default_rng(7 * spec.slots + len(spec.family))
    generic = rng.uniform(0.5, 3.0, spec.rank)
    wall = generic.copy()
    wall[1::2] = 0.0
    return [initial_point(spec, w) for w in (generic, wall)]


def _rotation_blocks(c, n):
    # the SO(n) weight matrix: one rotation block per coordinate
    m = np.zeros((n, n), dtype=complex)
    for k, x in enumerate(c):
        m[2 * k, 2 * k + 1], m[2 * k + 1, 2 * k] = x, -x
    return m


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_weight_matrix_is_the_split_diagonal_in_the_working_basis(family, n):
    spec = build_group(family, n)
    for point in _generic_and_wall_points(spec):
        c = np.array(point.coords)
        m = spec.weight_matrix(c)
        assert np.array_equal(m, point.matrix)
        if family == "su":
            expected = -1j * np.diag(c)
        elif family == "sp":
            expected = np.diag(spec.split_diagonal(c))
        else:
            expected = _rotation_blocks(c, n)
        assert np.array_equal(m, expected)
        # the diagonal to the bit, signed zeros included
        assert np.array_equal(np.diagonal(m).copy().view(np.int64),
                              np.diagonal(expected).copy().view(np.int64))
        back = spec.weight_coords(m)
        if family == "so":
            assert np.max(np.abs(back - c)) <= 1e-15 * np.max(np.abs(c))
        else:
            assert np.array_equal(back, c)


@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_root_matrix_on_every_positive_root(family, n):
    spec = build_group(family, n)
    for info in spec.positive_roots:
        a = info.as_array()
        expected = (1j * np.diag(a) if family == "su"
                    else spec.weight_matrix(a))
        assert np.array_equal(spec.root_matrix(a), expected)


@pytest.mark.parametrize("scale", [1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50,
                                   1e100, 1e140])
@pytest.mark.parametrize("family,n", CHART_GROUPS)
def test_mu0_spectrum_is_its_split_diagonal(family, n, scale):
    # reports compare dressed spectra with the split diagonal; in this
    # range of weights the eigensolver returns it exactly, so a report
    # reads what it read when it eigensolved mu0
    spec = build_group(family, n)
    for point in _generic_and_wall_points(spec):
        point = initial_point(spec, np.array(point.weights) * scale)
        got = spec.spectrum(point.matrix)
        want = point.split_diagonal
        assert not want.real.any()
        assert np.array_equal(np.sort(got.imag), np.sort(want.imag))


# the seven groups of the paper's examples, and SU(5)
PIN_GROUPS = [("su", 2), ("su", 3), ("su", 4), ("su", 5), ("sp", 2),
              ("sp", 3), ("so", 3), ("so", 4)]


def _numpy_point(spec, weights):
    """InitialPoint's checks and wall decision as numpy array operations:
    the oracle for the Python ones. Returns (walls, coords) or raises."""
    if len(weights) != spec.rank:
        raise ValueError(f"{spec.name} needs {spec.rank} weights, "
                         f"got {len(weights)}")
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative "
                         "(closed positive Weyl chamber)")
    walls = np.nonzero((w == 0) | (w < WALL_TOL * w.max()))[0]
    return (tuple(int(k) for k in walls),
            tuple(spec.initial_coords(weights)))


def _pin_weights(rank):
    values = [0, 1, 2, -0.0, 5e-324, 1e-310, np.float64(0.5),
              np.float32(1e-12), np.float64(1e-12), math.nan, math.inf,
              -math.inf, -1.0, -5e-324, None]
    out = []
    for top in (1.0, 3.0, 2.5e-300):
        cut = WALL_TOL * top
        edge = [cut, math.nextafter(cut, 0.0), math.nextafter(cut, math.inf)]
        for v in values + edge:
            out.append((v,) * rank)
            for k in range(rank):
                w = [top] * rank
                w[k] = v
                out.append(tuple(w))
            if rank > 1:
                out.append((v, edge[1]) + (top,) * (rank - 2))
    return out + [(1.0,) * (rank - 1), (1.0,) * (rank + 1), ()]


def _outcome(make):
    try:
        walls, coords = make()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return walls, tuple(float(x).hex() for x in coords)


@pytest.mark.parametrize("family,n", PIN_GROUPS)
def test_initial_point_checks_match_the_numpy_decision(family, n):
    def point(w):
        p = InitialPoint(spec, w)
        return p.walls, p.coords

    spec = build_group(family, n)
    cases = _pin_weights(spec.rank)
    outcomes = [_outcome(lambda: _numpy_point(spec, w)) for w in cases]
    for w, want in zip(cases, outcomes):
        assert _outcome(lambda: point(w)) == want, w
    errors = {o[1] for o in outcomes if o[0] is ValueError}
    assert {"weights must be finite", "weights must be nonnegative "
            "(closed positive Weyl chamber)"} < errors
    # the boundary: WALL_TOL times the largest weight is no wall, the float
    # below it is
    rest = (1.0,) * (spec.rank - 1)
    assert point((WALL_TOL,) + rest)[0] == ()
    assert point((math.nextafter(WALL_TOL, 0.0),) + rest)[0] == (
        (0,) if rest else ())


# words resolved letter by letter, against the enumerated group


def _same_as_the_closure(wg, word):
    got, lift = weyl_element(wg.spec, word)
    el = composed_element(wg, word)
    assert got == el.word and lift.tobytes() == el.matrix.tobytes()
    assert wg.element_by_word(word) is el
    assert not lift.flags.writeable         # the table hands it to every call


@pytest.mark.parametrize("family,n", [("su", 2), ("su", 3), ("su", 4),
                                      ("su", 5), ("sp", 2), ("sp", 3),
                                      ("so", 3), ("so", 4)])
def test_weyl_element_equals_the_closure_on_every_short_word(family, n):
    wg = weyl_group(build_group(family, n))
    for length in range(2 * wg.spec.rank + 1):
        for word in itertools.product(range(wg.spec.rank), repeat=length):
            _same_as_the_closure(wg, word)


@pytest.mark.parametrize("family,n", [("su", 6), ("su", 7), ("sp", 4),
                                      ("sp", 5)])
def test_weyl_element_equals_the_closure_on_long_seeded_words(family, n):
    wg = weyl_group(build_group(family, n))
    rng = np.random.default_rng(35 + n)
    for _ in range(200):
        word = rng.integers(0, wg.spec.rank, rng.integers(0, 14))
        _same_as_the_closure(wg, word.tolist())
        _same_as_the_closure(wg, tuple(word))


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2), ("so", 4)])
def test_weyl_element_takes_integer_letters_within_the_rank(family, n):
    spec = build_group(family, n)
    for bad in (-1, spec.rank, 1.0, "1", None):
        with pytest.raises(ValueError, match="no simple reflection"):
            weyl_element(spec, (0, bad))
    word, lift = weyl_element(spec, (np.int64(spec.rank - 1), 0))
    assert word == weyl_element(spec, (spec.rank - 1, 0))[0]
    assert all(type(k) is int for k in word)
    assert lift.tobytes() == weyl_element(spec, (spec.rank - 1, 0))[1].tobytes()


@pytest.mark.parametrize("family,n,weights", [
    ("sp", 2, (1.7e308, 1.7e308)), ("su", 4, (1e308, 1e308, 1.7e308)),
    ("sp", 3, (1e308, 1e308, 1e308))])
def test_initial_point_rejects_overflowing_weight_coordinates(family, n,
                                                              weights):
    # finite weights whose coordinates overflow gave an initial point of
    # inf coordinates, and reports of inf or nan
    spec = build_group(family, n)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(spec.initial_coords(weights)).all()
        with pytest.raises(ValueError, match="weight coordinates overflow"):
            initial_point(spec, weights)


def test_initial_point_takes_no_coordinates():
    # a caller's coords were accepted and silently overwritten
    spec = build_group("su", 3)
    with pytest.raises(TypeError):
        InitialPoint(spec, (1.0, 2.0), (5.0, 5.0, 5.0))
    assert InitialPoint(spec, (1.0, 2.0)).coords == tuple(
        spec.initial_coords((1.0, 2.0)))


EVICTED_GROUP_PROBE = """
import contextlib, gc, io, sys, weakref
import numpy as np
from coadjoint import (build_group, chart_point, chart_transition,
                       cocycle_shift, fibration, initial_point)
from coadjoint.cli import main
family, n = sys.argv[1], int(sys.argv[2])
spec = build_group(family, n)
alive = weakref.ref(spec)
weights = [str(k + 1) for k in range(spec.rank)]
group = ["--group", family, "--n", str(n)]
with contextlib.redirect_stdout(io.StringIO()):
    for walls in (weights, ["0"] + weights[1:]):
        for command in ("classify", "betti"):
            assert main([command, *group, "--weights", ",".join(walls)]) == 0
    assert main(["verify", *group, "--weights", ",".join(weights),
                 "--points", "2", "--order", "8"]) == 0
point = initial_point(spec, [float(w) for w in weights])
fibration(spec, point)
chart = chart_point(spec, np.linspace(0.1, 0.9, spec.chart_dim) + 0.2j)
chart_transition(spec, tuple(range(spec.rank)), chart)
cocycle_shift(spec, point, chart, np.eye(spec.slots))
del spec, point, chart
others = [("su", k) for k in range(8, 38)] + [("sp", k) for k in range(4, 14)]
assert (family, n) not in others and len(others) == 40
for other in others:
    build_group(*other)
gc.collect()
print(alive() is None)
"""


@pytest.mark.parametrize("family,n", [("su", 7), ("sp", 3)])
def test_an_evicted_group_is_freed(family, n):
    # the tables of orbit classes, fibrations, polynomials and pairing rows
    # were module caches keyed by the group: they kept it alive after
    # build_group's cache of 32 groups had dropped it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", EVICTED_GROUP_PROBE, family,
                          str(n)], capture_output=True, text=True, env=env,
                         check=True)
    assert out.stdout == "True\n"
