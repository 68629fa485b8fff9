"""Groups, root data, Weyl groups, Poincare polynomials, orbit classification.

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
from functools import cached_property, lru_cache

import numpy as np

from ._families import Family, get_family
from .errors import AllWeightsZero, UnsupportedGroup

WALL_TOL = 1e-12


@dataclass(frozen=True)
class GroupSpec:
    """A compact classical group SU(n), Sp(n), or SO(n) (n in {3,4})."""

    family: str
    n: int
    rank: int

    @property
    def name(self) -> str:
        pretty = {"su": "SU", "sp": "Sp", "so": "SO"}[self.family]
        return f"{pretty}({self.n})"

    @property
    def adapter(self) -> Family:
        return get_family(self.family, self.n)


def build_group(family: str, n: int) -> GroupSpec:
    """Validate (family, n) and return the group descriptor.

    Raises UnsupportedGroup for SO(n) outside {3, 4} or any n < 2.
    """
    fam = get_family(family, int(n))
    return GroupSpec(fam.family, fam.n, fam.rank)


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
    fam = spec.adapter
    plus, minus, cartan, pos_m = [], [], [], []
    for info, x in zip(fam.positive_roots, fam.lowering_generators):
        pos_m.append(fam.root_matrix(info.as_array()))
        xm = x / x.flat[np.flatnonzero(x)[0]]
        xp = fam.working_from_split(xm.conj().T)
        xm = fam.working_from_split(xm)
        plus.append(xp)
        minus.append(xm)
        cartan.append(xp @ xm - xm @ xp)
    return RootDatum(
        spec=spec,
        simple_roots=tuple(pos_m[: fam.rank]),
        simple_root_labels=tuple(i.label for i in fam.simple_roots),
        positive_roots=tuple(pos_m),
        positive_root_labels=tuple(i.label for i in fam.positive_roots),
        simple_root_vectors=tuple(i.as_array() for i in fam.simple_roots),
        positive_root_vectors=tuple(i.as_array() for i in fam.positive_roots),
        root_vectors_plus=tuple(plus),
        root_vectors_minus=tuple(minus),
        cartan_vectors=tuple(cartan),
        bilinear_form_scale=fam.pairing_scale,
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
        for k in word:
            if k not in range(self.spec.rank):
                raise ValueError(f"{self.spec.name} has no simple reflection "
                                 f"{k!r}, only 0..{self.spec.rank - 1}")
            act = self.generators[k].action @ act
        return self.find(act)


@lru_cache(maxsize=16)
def weyl_group(spec: GroupSpec) -> WeylGroup:
    """Enumerate the Weyl group by closure over the simple reflections.

    Simple root alpha acts on weight coordinates as the integer matrix
    1 - 2 alpha alpha^T / (alpha . alpha), composed exactly. Elements are
    sorted by length, then word: the first reduced word in lexicographic order.
    """
    fam = spec.adapter
    ident = WeylElement(word=(), matrix=np.eye(fam.slots, dtype=complex),
                        action=np.eye(fam.rankdim, dtype=int), length=0)
    gens = []
    for k, (info, gm) in enumerate(zip(fam.simple_roots,
                                       fam.weyl_generators())):
        a = np.asarray(info.vec).astype(int)
        act = ident.action - 2 * np.outer(a, a) // (a @ a)
        gens.append(WeylElement(word=(k,), matrix=gm, action=act, length=1))
    seen = {ident.action_key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for k, g in enumerate(gens):
                act = g.action @ el.action
                key = _action_key(act)
                if key in seen:
                    continue
                mat = el.matrix @ g.matrix
                new = WeylElement(word=el.word + (k,), matrix=mat,
                                  action=act, length=el.length + 1)
                seen[key] = new
                nxt.append(new)
        frontier = nxt
    elements = tuple(sorted(seen.values(), key=lambda e: (e.length, e.word)))
    return WeylGroup(spec=spec, elements=elements, generators=tuple(gens),
                     by_key=seen)


def _poly_multiply(p, q) -> tuple:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


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
    """Mask of the positive roots with simple-root support inside ``gens``."""
    coeff = spec.adapter.simple_root_coefficients
    outside = sorted(set(range(coeff.shape[1])) - set(gens))
    return ~coeff[:, outside].any(axis=1)


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
    Coefficient k counts the elements of length k: P_W(1) = |W|, and the
    degree is the number of positive roots of W_J. P_{G/P_J} = P_W / P_{W_J}
    (Macdonald, Math. Ann. 199 (1972); Humphreys, Reflection Groups and
    Coxeter Groups, section 3.15). ``gens`` is any iterable of simple
    reflection indices; the product is formed once per group and set.
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
    coeff = spec.adapter.simple_root_coefficients
    if gens is not None:
        coeff = coeff[parabolic_roots(spec, gens)]
    num = den = (1,)
    for h in coeff.sum(axis=1).tolist():
        num = _poly_multiply(num, (1,) * (h + 1))
        den = _poly_multiply(den, (1,) * h)
    return _poly_divide(num, den)


@lru_cache(maxsize=256)
def _quotient(spec: GroupSpec, gens, sub) -> tuple:
    return _poly_divide(_poincare(spec, gens), _poincare(spec, sub))


# ---------------------------------------------------------------------------
# initial points and classification


@dataclass(frozen=True)
class InitialPoint:
    """A dominant weight: chamber weights, walls and the matrix they fix."""

    spec: GroupSpec
    weights: tuple
    coords: tuple = field(default=())
    walls: tuple = field(default=(), init=False)   # simple roots on mu0

    def __post_init__(self):
        fam = self.spec.adapter
        if len(self.weights) != fam.rank:
            raise ValueError(
                f"{self.spec.name} needs {fam.rank} weights, "
                f"got {len(self.weights)}")
        w = np.asarray(self.weights, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative "
                             "(closed positive Weyl chamber)")
        object.__setattr__(self, "coords",
                           tuple(fam.initial_coords(self.weights)))
        # the one wall decision: zero, or small against the largest weight
        walls = np.nonzero((w == 0) | (w < WALL_TOL * w.max()))[0]
        object.__setattr__(self, "walls", tuple(int(k) for k in walls))

    @cached_property
    def matrix(self):
        """mu0 in the working realization (anti-hermitian, correct form).

        Built once per point and read-only.
        """
        m = self.spec.adapter.initial_matrix(self.weights)
        m.setflags(write=False)
        return m

    @property
    def matrix_native(self):
        """Alias of ``matrix``: every family, Sp included, works in one basis."""
        return self.matrix


def initial_point(spec: GroupSpec, weights) -> InitialPoint:
    return InitialPoint(spec, tuple(float(w) for w in weights))


def reject_zero_orbit(point: InitialPoint) -> None:
    """Raise AllWeightsZero when all weights are walls; the orbit is a point."""
    if len(point.walls) == point.spec.adapter.rank:
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
    ``orbit.fibration``, which raises MaximalDegenerate in that case.
    """
    fam = spec.adapter
    reject_zero_orbit(point)
    # one complex chart coordinate per positive root off the walls
    nonzero = int(np.count_nonzero(~parabolic_roots(spec, point.walls)))
    kind = OrbitKind.GENERIC if not point.walls else OrbitKind.DEGENERATE
    return OrbitClass(
        kind=kind,
        vanishing_walls=tuple(fam.simple_roots[k].label for k in point.walls),
        real_dimension=2 * nonzero,
        stabilizer=fam.stabilizer_description(point.walls),
    )
