"""Groups, root data, Weyl groups, Poincare polynomials, orbit classification.

A group is its ``Family`` (``build_group``), exported as ``GroupSpec``.
Weyl words resolve letter by letter (``weyl_element``), with no closure.

Walls. The simple roots on which mu0 sits are decided once, in
``InitialPoint``: weight k is a wall when it is zero or below ``WALL_TOL``
times the largest weight. A positive root vanishes on mu0 exactly when its
simple-root support lies in the walls, so the required-zero chart
coordinates, the orbit dimension and the stabilizer follow exactly.

Conventions. Points of the dual Cartan are written in weight coordinates
(vectors c of length n for SU(n)/Sp(n), m for SO(2m)/SO(2m+1)); the chamber
pairing of a weight against a root is the euclidean dot product of their
coordinate vectors. On matrices this equals ``scale * Re Tr(A B)`` with the
per-family scale stored on the RootDatum (for SU the initial-point map and
the root map carry opposite signs, which is what makes the simple-root
matrices diag(i,-i,0), diag(0,i,-i) pair positively against dominant
initial points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import isfinite
from numbers import Integral

import numpy as np

from ._families import Family as GroupSpec, get_family
from ._linalg import _read_only
from .errors import AllWeightsZero

WALL_TOL = 1e-12


def same_group(spec: GroupSpec, *parts) -> None:
    """Raise ValueError naming both groups unless each part (an initial or
    chart point) belongs to ``spec``; identity is checked first."""
    for part in parts:
        if part.spec is not spec and part.spec != spec:
            raise ValueError(f"{type(part).__name__} of {part.spec.name} "
                             f"given to a {spec.name} call")


def build_group(family: str, n: int) -> GroupSpec:
    """Validate (family, n) and return the group: its cached ``Family``.

    The group's cached tables live as long as something holds it, where a
    separate handle's could be dropped after 32 other groups and rebuilt.
    Raises UnsupportedGroup for SO(n) outside {3, 4} or any n < 2.
    """
    return get_family(family, int(n))


@dataclass(frozen=True)
class RootDatum:
    """Simple/positive roots, root vectors and Cartan vectors of a group.

    Root matrices live in the dual Cartan of the working realization
    (anti-hermitian diagonals for SU, real antisymmetric blocks for SO,
    split-basis diagonals for Sp). Root vectors are given in the working
    realization too (the defining basis for SU, the vector basis for SO,
    the split basis of C^2n for Sp).
    """

    spec: GroupSpec
    simple_roots: tuple
    simple_root_labels: tuple
    positive_roots: tuple
    positive_root_labels: tuple
    simple_root_vectors: tuple      # coordinate vectors, one per simple root
    positive_root_vectors: tuple
    root_vectors_plus: tuple        # X_alpha per positive root
    root_vectors_minus: tuple       # X_{-alpha}
    cartan_vectors: tuple           # H_alpha = [X_alpha, X_{-alpha}]
    bilinear_form_scale: float


def root_datum(spec: GroupSpec) -> RootDatum:
    """Root system data for the group: matrices, vectors, Cartan elements.

    The lowering vector X_{-beta} is the chart's generator dz/dz_beta at the
    origin, scaled so that its first nonzero entry (row-major) is 1.
    """
    plus, minus, cartan, pos_m = [], [], [], []
    for info, x in zip(spec.positive_roots, spec.lowering_generators):
        pos_m.append(spec.root_matrix(info.as_array()))
        xm = x / x.flat[np.flatnonzero(x)[0]]
        xp = spec.working_from_split(xm.conj().T)
        xm = spec.working_from_split(xm)
        plus.append(xp)
        minus.append(xm)
        cartan.append(xp @ xm - xm @ xp)
    return RootDatum(
        spec=spec,
        simple_roots=tuple(pos_m[: spec.rank]),
        simple_root_labels=tuple(i.label for i in spec.simple_roots),
        positive_roots=tuple(pos_m),
        positive_root_labels=tuple(i.label for i in spec.positive_roots),
        simple_root_vectors=tuple(i.as_array() for i in spec.simple_roots),
        positive_root_vectors=tuple(i.as_array() for i in spec.positive_roots),
        root_vectors_plus=tuple(plus),
        root_vectors_minus=tuple(minus),
        cartan_vectors=tuple(cartan),
        bilinear_form_scale=spec.pairing_scale,
    )


# ---------------------------------------------------------------------------
# Weyl groups


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: reduced word, matrix representative, action."""

    word: tuple
    matrix: np.ndarray             # representative in the working basis
    action: np.ndarray             # signed permutation of weight coords
    length: int
    after: list = field(default=None, repr=False, compare=False)  # [k]: g_k w

    def action_key(self):
        return _action_key(self.action)


def _action_key(action: np.ndarray):
    """The exact entries: 1 and 1.0 share a key, 1 + 1e-9 has its own."""
    return tuple(np.asarray(action).ravel().tolist())


@dataclass(frozen=True)
class WeylGroup:
    spec: GroupSpec
    elements: tuple
    generators: tuple
    by_key: dict = field(repr=False, compare=False)   # _action_key -> element

    @property
    def order(self) -> int:
        return len(self.elements)

    def find(self, action: np.ndarray) -> WeylElement:
        el = self.by_key.get(_action_key(action))
        if el is None:
            raise KeyError("action is not a Weyl element")
        return el

    def element_by_word(self, word) -> WeylElement:
        """The element of a word of letters 0..rank-1; ValueError otherwise."""
        act = self.elements[0].action
        for k in weyl_element(self.spec, word)[0]:
            act = self.generators[k].action @ act
        return self.find(act)


def _reflections(spec: GroupSpec) -> list:
    """Simple root alpha on weights: 1 - 2 alpha alpha^T / (alpha . alpha)."""
    return [np.eye(spec.rankdim, dtype=int) - 2 * np.outer(a, a) // (a @ a)
            for a in (np.array(i.vec, dtype=int) for i in spec.simple_roots)]


@lru_cache(maxsize=16)
def weyl_group(spec: GroupSpec) -> WeylGroup:
    """Enumerate the Weyl group by closure over the simple reflections.

    Their actions (``_reflections``) compose exactly. Elements are sorted
    by length, then word: the first reduced word in lexicographic order.
    """
    ident = WeylElement(word=(), matrix=np.eye(spec.slots, dtype=complex),
                        action=np.eye(spec.rankdim, dtype=int), length=0)
    gens = [WeylElement(word=(k,), matrix=gm, action=act, length=1)
            for k, (act, gm) in enumerate(zip(_reflections(spec),
                                              spec.weyl_generators()))]
    seen = {ident.action_key(): ident}
    order = [ident]
    for el in order:                  # grows as it is read: breadth first
        for k, g in enumerate(gens):
            act = g.action @ el.action
            if (key := _action_key(act)) not in seen:
                seen[key] = WeylElement(word=el.word + (k,), action=act,
                                        matrix=el.matrix @ g.matrix,
                                        length=el.length + 1)
                order.append(seen[key])
    elements = tuple(sorted(seen.values(), key=lambda e: (e.length, e.word)))
    return WeylGroup(spec=spec, elements=elements, generators=tuple(gens),
                     by_key=seen)


@lru_cache(maxsize=16)
def _elements_met(spec: GroupSpec) -> tuple:
    """The identity and table (by action bytes) of the Weyl elements a
    group's words have met; the simple reflections' actions and lifts."""
    one = WeylElement((), *_read_only(np.eye(spec.slots, dtype=complex)),
                      np.eye(spec.rankdim, dtype=int), 0, [None] * spec.rank)
    return one, {one.action.tobytes(): one}, _reflections(spec), \
        spec.weyl_generators()


def _new_element(spec: GroupSpec, act) -> WeylElement:
    """The element acting by ``act``: its first reduced word (the least k
    with ``act`` alpha_k of negative height, then the word of act g_k;
    Bjorner-Brenti ch. 1, 8) and the closure's lift, bit for bit."""
    one, _, refl, gens = _elements_met(spec)
    h, roots = spec.dual_weights.sum(0), np.array(
        [i.vec for i in spec.simple_roots]).T
    word, w = [], act
    while (neg := np.flatnonzero(h @ w @ roots < 0)).size:
        word.append(int(neg[0]))
        w = w @ refl[word[-1]]
    lift, = _read_only(reduce(np.matmul, (gens[j] for j in word), one.matrix))
    return WeylElement(tuple(word), lift, act, len(word), [None] * len(refl))


def weyl_element(spec: GroupSpec, word) -> tuple:
    """(first reduced word, read-only lift) of a word of letters 0..rank-1,
    ValueError for any other letter. No Weyl group is enumerated: a word met
    before costs one list lookup per letter on the elements met so far."""
    el, met, refl, _ = _elements_met(spec)
    rank = spec.rank
    for k in word:
        if (type(k) is not int or not 0 <= k < rank) and (  # fast path
                not isinstance(k, Integral) or k not in range(rank)):
            raise ValueError(f"{spec.name} has no simple reflection "
                             f"{k!r}, only 0..{rank - 1}")
        nxt = el.after[k]
        if nxt is None:
            act = refl[k] @ el.action
            if (key := act.tobytes()) not in met:
                met[key] = _new_element(spec, act)
            nxt = el.after[k] = met[key]
        el = nxt
    return el.word, el.matrix


def _times_bracket(p, m: int) -> tuple:
    """p(t) [m]_t, [m]_t = 1 + t + ... + t^(m-1): each coefficient is a sum
    of m consecutive coefficients of p, read off its prefix sums."""
    c, k = (0, *accumulate(p)), len(p)
    return tuple(c[min(i + 1, k)] - c[max(i + 1 - m, 0)]
                 for i in range(k + m - 1))


def _poly_divide(p, q) -> tuple:
    """Exact quotient p / q of integer polynomials; ValueError otherwise."""
    rem, out = list(p), []
    for i in range(len(p) - len(q), -1, -1):
        out.insert(0, rem[i + len(q) - 1] // q[-1])
        rem[i:i + len(q)] = [r - out[0] * b for r, b in zip(rem[i:], q)]
    if any(rem):
        raise ValueError(f"{tuple(q)} does not divide {tuple(p)}")
    return tuple(out)


def parabolic_roots(spec: GroupSpec, gens) -> np.ndarray:
    """Mask of the positive roots with simple-root support inside ``gens``.

    Formed once per group and set (read as in ``poincare_polynomial``) and
    read-only.
    """
    return _parabolic(spec, _wall_set(spec, gens))


@lru_cache(maxsize=256)
def _parabolic(spec: GroupSpec, gens) -> np.ndarray:
    coeff = spec.simple_root_coefficients
    outside = [] if gens is None else sorted(set(range(spec.rank)) - set(gens))
    return _read_only(~coeff[:, outside].any(axis=1))[0]


def _wall_set(spec: GroupSpec, gens):
    """Canonical key of a generator set: a sorted tuple, None for all of W."""
    if gens is None:
        return None
    gens = tuple(sorted({int(k) for k in gens}))
    return None if gens == tuple(range(spec.rank)) else gens


def poincare_polynomial(spec: GroupSpec, gens=None) -> tuple:
    """Poincare polynomial of the parabolic subgroup W_J, J = ``gens``.

    Macdonald's product P_W(t) = prod_{alpha > 0} [ht alpha + 1]_t / [ht alpha]_t
    with [m]_t = 1 + t + ... + t^{m-1}, over the positive roots whose
    simple-root support lies in J (all of them when ``gens`` is None).
    With m_h of those roots at height h it telescopes to the product of
    [h + 1]_t^(m_h - m_(h+1)) over h, the degrees of W_J (Kostant), which
    is formed without a division.
    Coefficient k counts the elements of length k: P_W(1) = |W|, and the
    degree is the number of positive roots of W_J. P_{G/P_J} = P_W / P_{W_J}
    (Macdonald, Math. Ann. 199 (1972); Humphreys, Reflection Groups and
    Coxeter Groups, sections 3.15 and 3.20). ``gens`` is any iterable of
    simple reflection indices; the product is formed once per group and set.
    """
    return _poincare(spec, _wall_set(spec, gens))


def poincare_quotient(spec: GroupSpec, gens, sub) -> tuple:
    """The exact quotient P_{W_J} / P_{W_K}, J = ``gens`` and K = ``sub``.

    Sets are read as in ``poincare_polynomial`` (None for all of W) and
    each quotient is divided once per group and pair of sets. Raises
    ValueError when P_{W_K} does not divide P_{W_J}.
    """
    return _quotient(spec, _wall_set(spec, gens), _wall_set(spec, sub))


@lru_cache(maxsize=256)
def _poincare(spec: GroupSpec, gens) -> tuple:
    coeff = spec.simple_root_coefficients[_parabolic(spec, gens)]
    m = np.bincount(coeff.sum(axis=1), minlength=2).tolist() + [0]
    p = (1,)
    for h in range(1, len(m) - 1):
        for _ in range(m[h] - m[h + 1]):
            p = _times_bracket(p, h + 1)
    return p


@lru_cache(maxsize=256)
def _quotient(spec: GroupSpec, gens, sub) -> tuple:
    return _poly_divide(_poincare(spec, gens), _poincare(spec, sub))


# ---------------------------------------------------------------------------
# initial points and classification


@dataclass(frozen=True)
class InitialPoint:
    """A dominant weight: chamber weights, walls and the matrix they fix.
    Raises ValueError for weights that are negative or not finite, or whose
    weight coordinates overflow."""

    spec: GroupSpec
    weights: tuple
    coords: tuple = field(init=False)    # weight coordinates
    walls: tuple = field(default=(), init=False)   # simple roots on mu0

    def __post_init__(self):
        if len(self.weights) != self.spec.rank:
            raise ValueError(f"{self.spec.name} needs {self.spec.rank} "
                             f"weights, got {len(self.weights)}")
        # numpy's conversion (None reads as nan); the checks on the few
        # weights run on Python floats, which skips numpy's reductions
        w = np.asarray(self.weights, dtype=float).tolist()
        if not all(map(isfinite, w)):
            raise ValueError("weights must be finite")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative "
                             "(closed positive Weyl chamber)")
        coords = tuple(self.spec.initial_coords(self.weights).tolist())
        if not all(map(isfinite, coords)):
            raise ValueError("the weight coordinates overflow: they are not "
                             "finite")
        object.__setattr__(self, "coords", coords)
        # the one wall decision: zero, or small against the largest weight
        cut = WALL_TOL * max(w)
        object.__setattr__(self, "walls", tuple(
            k for k, x in enumerate(w) if x == 0 or x < cut))

    @cached_property
    def matrix(self):
        """mu0 in the working basis: ``weight_matrix`` of its coordinates.

        Built once per point and read-only.
        """
        m = self.spec.weight_matrix(self.coords)
        m.setflags(write=False)
        return m

    @cached_property
    def split_diagonal(self):
        """mu0 in the split basis, where it is diagonal on every family: one
        entry per slot, read off the slot weights (``Family.split_diagonal``).

        What dressing multiplies by; built once per point and read-only.
        """
        d = self.spec.split_diagonal(self.coords)
        d.setflags(write=False)
        return d

    @property
    def matrix_native(self):
        """Alias of ``matrix``: every family, Sp included, works in one basis."""
        return self.matrix


def initial_point(spec: GroupSpec, weights) -> InitialPoint:
    return InitialPoint(spec, tuple(float(w) for w in weights))


def reject_zero_orbit(point: InitialPoint) -> None:
    """Raise AllWeightsZero when all weights are walls; the orbit is a point."""
    if len(point.walls) == point.spec.rank:
        raise AllWeightsZero("all weights vanish; the orbit is a point")


class OrbitKind(str, Enum):
    GENERIC = "generic"
    DEGENERATE = "degenerate"
    MAXIMAL_DEGENERATE = "maximal-degenerate"


@dataclass(frozen=True)
class OrbitClass:
    kind: OrbitKind
    vanishing_walls: tuple          # labels of simple roots on which mu0 sits
    real_dimension: int
    stabilizer: str

    @property
    def is_generic(self) -> bool:
        return self.kind is OrbitKind.GENERIC


def classify_initial_point(spec: GroupSpec, point: InitialPoint) -> OrbitClass:
    """Chamber position of mu0: kind, walls, orbit dimension, stabilizer.

    Emits GENERIC or DEGENERATE; whether a degenerate orbit is maximally so
    (no intermediate subgroup, hence no bundle structure) is decided by
    ``orbit.fibration``, which raises MaximalDegenerate in that case. The
    class depends only on the group and the walls: it is formed once per
    group and wall set, and every later point on those walls reads it.
    """
    reject_zero_orbit(point)
    return _classify(spec, point.walls)


@lru_cache(maxsize=256)
def _classify(spec: GroupSpec, walls: tuple) -> OrbitClass:
    # one complex chart coordinate per positive root off the walls
    nonzero = int(np.count_nonzero(~parabolic_roots(spec, walls)))
    kind = OrbitKind.GENERIC if not walls else OrbitKind.DEGENERATE
    return OrbitClass(
        kind=kind,
        vanishing_walls=tuple(spec.simple_roots[k].label for k in walls),
        real_dimension=2 * nonzero,
        stabilizer=spec.stabilizer_description(walls),
    )
