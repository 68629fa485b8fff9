"""Generalized stereographic projection: dressing, transitions, fibrations.

``dress_batch`` conjugates an initial point by the compact Iwasawa factors
of a batch of chart representatives, mu = k* mu0 k, landing on the
(co)adjoint orbit; ``dress`` is its one-row case and the CLI dress grid and
``verify`` share its kernel. Every family dresses through it in the split
basis: one ``_linalg.iwasawa_ak`` call gives a and k and never forms n,
and mu0 acts as the diagonal it is there (``InitialPoint.split_diagonal``),
one scaling of the columns of k* and one stacked product, then on SO one
map to the vector basis. For SU(3), the eight
Gell-Mann coordinates and their closed forms are provided, over a whole
stack at once or at one point;
chart transitions are computed numerically through the Gauss-Bruhat
factorization of z w and, for SU(3), also by the closed-form coordinate
maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cell_miss, iwasawa_ak
from .decompose import ChartPoint, bruhat_chart, chart_batch, chart_matrix, \
    chart_point
from .errors import DegeneracyViolation, MaximalDegenerate, \
    NumericalBreakdown, PoleOnChart
from .groups import GroupSpec, InitialPoint, WeylElement, classify_initial_point, \
    parabolic_roots, reject_zero_orbit, same_group, weyl_group

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
        """Eigenvalues of mu by the hermitian solver of ``Family.spectrum``,
        which reads the lower triangle of i mu only."""
        return self.spec.spectrum(self.mu_matrix)


def required_zero_mask(spec: GroupSpec, point: InitialPoint) -> np.ndarray:
    """Chart coordinates that must vanish: the roots supported on the walls.

    Cached per walls and read-only.
    """
    return parabolic_roots(spec, point.walls)


# Y_a = -(i/2) lambda_a transposed, so Tr(mu Y_a) = sum_ij mu[i, j] Y_a^T[i, j];
# its 17 nonzero entries in the order the trace adds them (a, then i, then
# j): two for each a, three for lambda_8, which comes last
_DUAL_T = np.swapaxes(-0.5j * np.array(GELL_MANN), 1, 2)
_I, _J = np.nonzero(_DUAL_T)[1:]
_Y = _DUAL_T[_DUAL_T != 0]


def gell_mann_coordinates(mu: np.ndarray) -> np.ndarray:
    """mu_a = <mu, Y_a> with Y_a = -(i/2) lambda_a and <A,B> = -2 Tr AB.

    ``mu`` is one 3 x 3 matrix or a stack (..., 3, 3); the eight
    coordinates come last. Tr(mu Y_a) is summed over the nonzero entries
    of Y_a only, in the order of the trace of mu @ Y_a; on dressed points
    the two agree bit for bit.
    """
    terms = np.asarray(mu)[..., _I, _J] * _Y
    tr = terms[..., 0:16:2] + terms[..., 1:16:2]
    tr[..., 7] += terms[..., 16]
    return (DUAL_PAIRING_SCALE * tr).real


def dress_batch(spec: GroupSpec, point: InitialPoint, coords) -> np.ndarray:
    """mu = k(z)* mu0 k(z) at a batch (N, chart_dim) of chart coordinates.

    Returns the (N, s, s) complex stack in the working basis. Raises
    AllWeightsZero for the zero orbit, DegeneracyViolation when a row
    leaves the orbit chart (a required-zero coordinate is nonzero) and
    ValueError for a point of another group.
    """
    return _dress(spec, point, coords)[0]


def _dress(spec: GroupSpec, point: InitialPoint, coords) -> tuple:
    """(mu, d) of ``dress_batch``: mu and the A-diagonal of its factorization.

    One chart build and one ``iwasawa_ak``, in the split basis; n is never
    formed. Raises as ``dress_batch`` does.
    """
    same_group(spec, point)
    reject_zero_orbit(point)
    coords = chart_batch(spec, coords)
    if point.walls:           # a generic orbit has no required zeros
        mask = required_zero_mask(spec, point)
        bad = np.flatnonzero(mask & np.any(np.abs(coords) > 0, axis=0))
        if bad.size:
            labels = [spec.positive_roots[i].label for i in bad]
            raise DegeneracyViolation(f"coordinates along {labels} must "
                                      "vanish on this degenerate orbit")
    d, k = iwasawa_ak(spec.chart_split(coords))
    return _action(point, k), d


def _action(point: InitialPoint, k) -> np.ndarray:
    """k* mu0 k in the working basis for a stack of split-basis ``k``.

    mu0 is the diagonal ``point.split_diagonal`` there: one scaling of the
    columns of k*, one stacked product and, on SO, one working map.
    """
    kh = k.swapaxes(-1, -2).conj()
    return point.spec.working_from_split(
        (kh * point.split_diagonal) @ k)


def coadjoint_action(point: InitialPoint, k) -> np.ndarray:
    """mu = k* mu0 k for a stack (N, s, s) of unitary ``k``, working basis.

    With ``k`` the compact factors of an ``iwasawa_batch`` this is
    ``dress_batch`` of the same coordinates, without a second
    factorization: bit for bit on SU and Sp, whose split basis is the
    working basis, to rounding on SO, whose k goes through the split basis
    and back.
    """
    return _action(point, point.spec.split_from_working(k))


def dress(spec: GroupSpec, point: InitialPoint, chart: ChartPoint) -> OrbitPoint:
    """mu = k(z)* mu0 k(z): the one-row ``dress_batch``.

    For SU(3) the Gell-Mann coordinates come with it. Raises as
    ``dress_batch`` does, and ValueError for a chart of another group.
    """
    same_group(spec, chart)
    mu = _dress(spec, point, chart.array()[None])[0][0]
    mu_coords = ()
    if (spec.family, spec.n) == ("su", 3):
        mu_coords = tuple(gell_mann_coordinates(mu))
    return OrbitPoint(spec=spec, mu_matrix=mu, coords=mu_coords,
                      chart=chart.chart)


def su3_closed_form(point: InitialPoint, chart: ChartPoint) -> np.ndarray:
    """The eight closed forms of the SU(3) stereographic projection.

    The one-point ``su3_closed_form_batch``, on Python floats.
    """
    _require_su3(point.spec)
    z = chart.coords
    return _su3_mu(point.weights, [c.real for c in z], [c.imag for c in z])


def su3_closed_form_batch(point: InitialPoint, coords) -> np.ndarray:
    """The closed forms at a batch (N, 3) of chart coordinates, as (N, 8).

    Row for row equal to ``su3_closed_form`` bit for bit.
    """
    _require_su3(point.spec)
    coords = chart_batch(point.spec, coords)
    return _su3_mu(point.weights, np.ascontiguousarray(coords.real.T),
                   np.ascontiguousarray(coords.imag.T))


def _require_su3(spec: GroupSpec) -> None:
    if (spec.family, spec.n) != ("su", 3):
        raise ValueError("closed forms are available only for SU(3)")


def _su3_mu(weights, re, im) -> np.ndarray:
    """mu_1..mu_8 from the parts of z1, z2, z3: three floats or three arrays.

    The complex arithmetic is written out on (re, im) pairs as Python and
    numpy complex scalars carry it out, a real factor x taken as x + 0i,
    so that arrays give the scalar results bit for bit, signed zeros
    included: numpy's complex-array products and ``np.abs`` round
    differently. ``np.hypot`` is the modulus of a complex scalar, and
    ``_square`` squares as a Python float does.
    """
    xi, eta = weights
    z1, z2, z3 = zip(re, im)
    w = _csub(z3, _cmul(z1, z2))
    s1, s2, s3, sw = (_square(np.hypot(*z)) for z in (z1, z2, z3, w))
    ce, cx = eta / (1.0 + s2 + s3), xi / (1.0 + s1 + sw)
    zb1, zb2, zb3, wb = (_conj(z) for z in (z1, z2, z3, w))
    mce, rcx = (-ce, 0.0), (cx, 0.0)
    ice, icx = (_cmul((0.0, 1.0), (c, 0.0)) for c in (ce, cx))
    p, q = _cmul(zb2, z3), _cmul(z2, zb3)
    u, v = _cmul(zb1, w), _cmul(z1, wb)
    mu = np.empty(np.shape(ce) + (8,))
    mu[..., 0] = _re_cmul(mce, _cadd(p, q)) - _re_cmul(rcx, _cadd(z1, zb1))
    mu[..., 1] = _re_cmul(ice, _csub(p, q)) + _re_cmul(icx, _csub(z1, zb1))
    mu[..., 2] = ce * (s2 - s3) + cx * (1.0 - s1)
    mu[..., 3] = _re_cmul(mce, _cadd(z3, zb3)) - _re_cmul(rcx, _cadd(w, wb))
    mu[..., 4] = _re_cmul(ice, _csub(z3, zb3)) + _re_cmul(icx, _csub(w, wb))
    mu[..., 5] = _re_cmul(mce, _cadd(z2, zb2)) + _re_cmul(rcx, _cadd(u, v))
    mu[..., 6] = _re_cmul(ice, _csub(z2, zb2)) - _re_cmul(icx, _csub(u, v))
    mu[..., 7] = (ce * (2.0 - s2 - s3)
                  + cx * (1.0 + s1 - 2.0 * sw)) / np.sqrt(3.0)
    return mu


def _square(x):
    """x ** 2 through C ``pow``, as a Python float squares: numpy squares an
    array as x * x, which rounds differently on about 0.1% of inputs.
    Raises NumericalBreakdown where a square overflows."""
    try:
        if np.ndim(x):
            return np.array([v ** 2 for v in x.tolist()])
        return float(x) ** 2
    except OverflowError:
        raise NumericalBreakdown("the closed form overflows") from None


def _re_cmul(a, b):
    return a[0] * b[0] - a[1] * b[1]


def _cmul(a, b):
    return _re_cmul(a, b), a[0] * b[1] + a[1] * b[0]


def _cadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _csub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _conj(a):
    return a[0], -a[1]


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

    ``w`` is a WeylElement of this group or a word (tuple of simple
    reflections), resolved on its multiplication table as the new tag is.
    Computed by the Gauss-Bruhat factorization of z(coords) w, a one-row
    ``bruhat_chart``; raises PoleOnChart where the target cell misses it,
    ValueError for a chart or Weyl element of another group.
    """
    same_group(spec, chart)
    wg = weyl_group(spec)
    el = wg.element_by_word(w.word if isinstance(w, WeylElement) else w)
    if isinstance(w, WeylElement) and not (w is el or np.array_equal(
            w.matrix, el.matrix)):    # equal: a copy from an earlier build
        raise ValueError(f"{w.word} is not a Weyl element of {spec.name}")
    m = chart_matrix(spec, chart) @ el.matrix
    coords, _, in_cell = bruhat_chart(spec, m[None])
    if not in_cell[0]:
        exc = cell_miss(spec.split_from_working(m))
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
    cls = classify_initial_point(spec, point)
    stab = frozenset(point.walls)
    missing = sorted(set(range(spec.rank)) - stab)
    if not missing:
        raise MaximalDegenerate("stabilizer equals the group")
    drop = missing[0] if spec.family == "sp" else missing[-1]
    k_gens = frozenset(set(range(spec.rank)) - {drop})
    if k_gens == stab:
        raise MaximalDegenerate(
            f"no standard parabolic sits strictly between the stabilizer "
            f"and {spec.name}; the orbit is maximally degenerate")
    # one chart coordinate per positive root, of G and of each parabolic
    n_stab, n_k = (int(np.count_nonzero(parabolic_roots(spec, gens)))
                   for gens in (stab, k_gens))
    base_dim = 2 * (spec.chart_dim - n_k)
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
