"""Generalized stereographic projection: dressing, transitions, fibrations.

``dress_batch`` conjugates an initial point by the compact Iwasawa factors
of a batch of chart representatives, mu = k* mu0 k, landing on the
(co)adjoint orbit; the batch is one ``iwasawa_batch`` call and ``dress`` is
its one-row case. Every family dresses through the same complex kernel, Sp
in the split basis of C^2n. For SU(3), the eight Gell-Mann coordinates
(over a whole stack at once) and their closed forms are provided;
chart transitions are computed numerically through the Gauss-Bruhat
factorization of z w and, for SU(3), also by the closed-form coordinate
maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._linalg import cell_miss
from .decompose import ChartPoint, _nak, bruhat_chart, chart_batch, \
    chart_matrix, chart_point
from .errors import DegeneracyViolation, MaximalDegenerate, PoleOnChart
from .groups import GroupSpec, InitialPoint, WeylElement, classify_initial_point, \
    parabolic_roots, poincare_polynomial, reject_zero_orbit, weyl_group

GELL_MANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.diag([1.0, -1.0, 0.0]).astype(complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    (np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)).astype(complex),
)

# dual-space basis Y_a = -(i/2) lambda_a and pairing <A, B> = -2 Tr(A B)
DUAL_PAIRING_SCALE = -2.0


@dataclass(frozen=True)
class OrbitPoint:
    """A dressed point: matrix in g*, group coordinates where defined."""

    spec: GroupSpec
    mu_matrix: object
    coords: tuple            # Gell-Mann coordinates for SU(3), else empty
    chart: tuple = ()

    def spectrum(self) -> np.ndarray:
        return self.spec.adapter.spectrum(self.mu_matrix)


def required_zero_mask(spec: GroupSpec, point: InitialPoint) -> np.ndarray:
    """Chart coordinates that must vanish: the roots supported on the walls.

    Cached per walls and read-only.
    """
    return _wall_mask(spec, point.walls)


@lru_cache(maxsize=64)
def _wall_mask(spec: GroupSpec, walls: tuple) -> np.ndarray:
    mask = parabolic_roots(spec, walls)
    mask.setflags(write=False)
    return mask


# Y_a = -(i/2) lambda_a, stacked
_DUAL_BASIS = -0.5j * np.array(GELL_MANN)


def gell_mann_coordinates(mu: np.ndarray) -> np.ndarray:
    """mu_a = <mu, Y_a> with Y_a = -(i/2) lambda_a and <A,B> = -2 Tr AB.

    ``mu`` is one 3 x 3 matrix or a stack (..., 3, 3); the eight
    coordinates come last.
    """
    prods = np.asarray(mu)[..., None, :, :] @ _DUAL_BASIS
    return (DUAL_PAIRING_SCALE * np.trace(prods, axis1=-2, axis2=-1)).real


def dress_batch(spec: GroupSpec, point: InitialPoint, coords) -> np.ndarray:
    """mu = k(z)* mu0 k(z) at a batch (N, chart_dim) of chart coordinates.

    Returns the (N, s, s) complex stack in the working basis. Raises
    AllWeightsZero for the zero orbit and DegeneracyViolation when a row
    leaves the orbit chart (a required-zero coordinate is nonzero).
    """
    reject_zero_orbit(point)
    coords = chart_batch(spec, coords)
    mask = required_zero_mask(spec, point)
    if mask.any():
        bad = np.flatnonzero(mask & np.any(np.abs(coords) > 0, axis=0))
        if bad.size:
            labels = [spec.adapter.positive_roots[i].label for i in bad]
            raise DegeneracyViolation(f"coordinates along {labels} must "
                                      "vanish on this degenerate orbit")
    k = _nak(spec, coords)[2]
    return np.conj(np.swapaxes(k, -1, -2)) @ point.matrix @ k


def dress(spec: GroupSpec, point: InitialPoint, chart: ChartPoint) -> OrbitPoint:
    """mu = k(z)* mu0 k(z): the one-row ``dress_batch``.

    For SU(3) the Gell-Mann coordinates come with it. Raises as
    ``dress_batch`` does.
    """
    mu = dress_batch(spec, point, chart.array()[None])[0]
    mu_coords = ()
    if (spec.family, spec.n) == ("su", 3):
        mu_coords = tuple(gell_mann_coordinates(mu))
    return OrbitPoint(spec=spec, mu_matrix=mu, coords=mu_coords,
                      chart=chart.chart)


def su3_closed_form(point: InitialPoint, chart: ChartPoint) -> np.ndarray:
    """The eight closed forms of the SU(3) stereographic projection."""
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


# ---------------------------------------------------------------------------
# chart transitions


def su3_transition_closed(word, coords) -> tuple:
    """Closed-form SU(3) chart transitions for a word in (w1, w2)."""
    z1, z2, z3 = (complex(z) for z in coords)
    for k in word:
        if k == 0:
            if z1 == 0:
                raise PoleOnChart("w1 transition has a pole at z1 = 0")
            z1, z2, z3 = 1.0 / z1, -z3, -z2
        elif k == 1:
            if z2 == 0:
                raise PoleOnChart("w2 transition has a pole at z2 = 0")
            z1, z2, z3 = -(z3 - z1 * z2), 1.0 / z2, -z3 / z2
        else:
            raise ValueError("SU(3) has two simple reflections")
    return (z1, z2, z3)


def chart_transition(spec: GroupSpec, w, chart: ChartPoint) -> ChartPoint:
    """Coordinates of the same orbit point on the w-translated chart.

    ``w`` is a WeylElement or a word (tuple of simple-reflection indices).
    Computed by the Gauss-Bruhat factorization of z(coords) w, a one-row
    ``bruhat_chart``; raises PoleOnChart where the target cell misses the
    point.
    """
    wg = weyl_group(spec)
    el = w if isinstance(w, WeylElement) else wg.element_by_word(tuple(w))
    m = chart_matrix(spec, chart) @ el.matrix
    coords, _, in_cell = bruhat_chart(spec, m[None])
    if not in_cell[0]:
        exc = cell_miss(spec.adapter.split_from_working(m))
        raise PoleOnChart(f"transition by word {el.word} undefined "
                          f"at this point: {exc}") from exc
    new_word = wg.element_by_word(tuple(chart.chart) + el.word).word
    return chart_point(spec, coords[0], new_word)


# ---------------------------------------------------------------------------
# fibrations


@dataclass(frozen=True)
class SpaceDescriptor:
    label: str
    real_dimension: int


@dataclass(frozen=True)
class FibrationDescription:
    """E(base, fiber, pi) data: descriptors plus the parabolic generator sets."""

    spec: GroupSpec
    total: SpaceDescriptor
    base: SpaceDescriptor
    fiber: SpaceDescriptor
    stabilizer_generators: tuple      # simple reflections fixing mu0
    intermediate_generators: tuple    # simple reflections of K


def fibration(spec: GroupSpec, point: InitialPoint) -> FibrationDescription:
    """The bundle E(K\\G, G_mu0\\K, pi) through a standard parabolic K.

    K is the parabolic generated by the stabilizer walls plus the remaining
    simple reflections except one (the last for SU/SO, the first for Sp,
    matching the classical chains CP^{n-1} and CP^{2n-1}). Raises
    MaximalDegenerate when no such proper intermediate exists. Intermediate
    subgroups that are not standard parabolics (they occur for some
    degenerate Sp orbits) are not searched.
    """
    fam = spec.adapter
    cls = classify_initial_point(spec, point)
    stab = frozenset(point.walls)
    missing = sorted(set(range(fam.rank)) - stab)
    if not missing:
        raise MaximalDegenerate("stabilizer equals the group")
    drop = missing[0] if spec.family == "sp" else missing[-1]
    k_gens = frozenset(set(range(fam.rank)) - {drop})
    if k_gens == stab:
        raise MaximalDegenerate(
            f"no standard parabolic sits strictly between the stabilizer "
            f"and {spec.name}; the orbit is maximally degenerate")
    # deg P_{W_J} is the number of positive roots of W_J
    n_pos, n_stab, n_k = (len(poincare_polynomial(spec, gens)) - 1
                          for gens in (None, stab, k_gens))
    base_dim = 2 * (n_pos - n_k)
    fiber_dim = 2 * (n_k - n_stab)
    total = SpaceDescriptor(_orbit_label(spec, cls), cls.real_dimension)
    base = SpaceDescriptor(_base_label(spec, drop, base_dim), base_dim)
    fiber = SpaceDescriptor(_fiber_label(spec, k_gens, stab, fiber_dim),
                            fiber_dim)
    return FibrationDescription(spec=spec, total=total, base=base, fiber=fiber,
                                stabilizer_generators=tuple(sorted(stab)),
                                intermediate_generators=tuple(sorted(k_gens)))


def _orbit_label(spec, cls) -> str:
    tag = "generic" if cls.is_generic else "degenerate"
    return f"O^{spec.name} ({tag})"


def _base_label(spec, drop, base_dim) -> str:
    if spec.family == "su":
        k = drop + 1
        if min(k, spec.n - k) == 1:
            return f"CP^{spec.n - 1}"
        return f"Gr({spec.n},{k})"
    if spec.family == "sp":
        return f"CP^{2 * spec.n - 1}"
    return "S^2"


def _fiber_label(spec, k_gens, stab, fiber_dim) -> str:
    if fiber_dim == 2:
        return "CP^1"
    if spec.family == "su":
        m = len(k_gens) + 1
        tag = "" if not stab else "_d"
        return f"O{tag}^SU({m})"
    if spec.family == "sp":
        return f"O^Sp({spec.n - 1})"
    return "S^2"
