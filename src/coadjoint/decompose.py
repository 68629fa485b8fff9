"""Iwasawa and Gauss-Bruhat decompositions of chart representatives.

The chart Z of an orbit is parameterized by one holomorphic coordinate per
positive root. ``iwasawa_batch`` factors the chart representatives of a
batch (N, chart_dim) of coordinates as z = n a k with one stacked
Householder QR (``_linalg._rq``), with no Gram matrix z z*, and reads log a
off A in ``Family.log_a_from_tail``; ``iwasawa`` is its one-row case. They,
and ``dressing_matrix`` through ``iwasawa``, are the only paths that form
n: dressing reads a and k alone (``orbit.dress_batch``).
``gauss_bruhat_batch`` factors a stack of complexified group elements as
g = n d zeta on the open cell with one stacked Doolittle elimination
(``_linalg.ul_decompose``), ``gauss_bruhat`` is its one-row case and
``bruhat_chart`` reads only d and the entries of zeta its family's
read-out needs. All of them work in the split basis, where the Borel
subgroup is upper triangular, and map back with ``working_from_split``:
the identity for SU and Sp, a unitary for SO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import _doolittle, cell_miss, iwasawa_nak, ul_decompose
from .errors import ZeroTorusEntry
from .groups import GroupSpec


@dataclass(frozen=True)
class ChartPoint:
    """Complex coordinates on one Bruhat chart, tagged by a Weyl word."""

    spec: GroupSpec
    coords: tuple
    chart: tuple = ()

    def __post_init__(self):
        c = self.coords       # a numeric vector in one call, else entry by entry
        vec = type(c) is np.ndarray and c.ndim == 1 and c.dtype.kind in "biufc"
        coords = tuple(c.astype(complex, copy=False).tolist() if vec
                       else (complex(z) for z in c))
        if len(coords) != self.spec.chart_dim:
            raise ValueError(f"{self.spec.name} charts have "
                             f"{self.spec.chart_dim} coordinates, "
                             f"got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=complex)


def chart_point(spec: GroupSpec, coords, chart=()) -> ChartPoint:
    return ChartPoint(spec, coords, tuple(chart))


def chart_matrix(spec: GroupSpec, point: ChartPoint):
    """The chart representative z in the family's working realization."""
    return spec.chart_working(point.array())


@dataclass(frozen=True)
class IwasawaFactors:
    """z = n a k with n unipotent, a positive (diagonal/blocks), k compact.

    From ``iwasawa_batch`` every field is stacked along a first batch axis
    (``a_parameters`` and ``log_a_split`` as arrays); from ``iwasawa`` it
    holds one point.
    """

    n: object
    a: object
    k: object
    a_parameters: tuple           # family torus parameters of the A part
    log_a_split: tuple = field(repr=False, default=())

    def multiply_back(self):
        return self.n @ self.a @ self.k


def chart_batch(spec: GroupSpec, coords) -> np.ndarray:
    """``coords`` as a complex (N, chart_dim) batch; ValueError otherwise."""
    coords = np.asarray(coords, dtype=complex)
    dim = spec.chart_dim
    if coords.ndim != 2 or coords.shape[1] != dim:
        raise ValueError(f"{spec.name} chart batches have shape (N, {dim}), "
                         f"got {coords.shape}")
    return coords


def element_batch(spec: GroupSpec, g, *leads) -> np.ndarray:
    """``g`` as complex group elements (*lead, s, s), ``lead`` one of
    ``leads`` and (None,) any row count; else ValueError naming the group."""
    g, s = np.asarray(g, dtype=complex), spec.slots
    if g.shape[-2:] != (s, s) or not any(
            x in (g.shape[:-2], (None,) * (g.ndim - 2)) for x in leads):
        want = " or ".join(str(x + (s, s)) for x in leads)
        raise ValueError(f"{spec.name} elements have shape "
                         f"{want.replace('None', 'N')}, got {g.shape}")
    return g


def iwasawa_batch(spec: GroupSpec, coords) -> IwasawaFactors:
    """Iwasawa factors of the chart representatives at a batch of coordinates.

    ``coords`` is (N, chart_dim); the whole batch is one ``iwasawa_nak``
    call. SU(n) and Sp(n): complex triangular factors, for Sp in the split
    basis of C^2n. SO(3)/SO(4): factors in the vector basis, with A in its
    cosh/sinh rotation-block form.
    """
    z = spec.chart_split(chart_batch(spec, coords))
    return _working_factors(spec, *iwasawa_nak(z))


def _working_factors(spec: GroupSpec, n, d, k) -> IwasawaFactors:
    """The ``iwasawa_batch`` factors of the split-basis ``iwasawa_nak``
    output (n, d, k), mapped to the working realization."""
    to_w = spec.working_from_split
    log_d = spec.log_a_from_tail(d)
    a = to_w(d[..., None] * np.eye(spec.slots))
    return IwasawaFactors(n=to_w(n), a=a, k=to_w(k),
                          a_parameters=spec.a_parameters(log_d),
                          log_a_split=log_d)


def iwasawa(spec: GroupSpec, point: ChartPoint) -> IwasawaFactors:
    """Iwasawa factors of the chart representative at ``point``.

    The one-row ``iwasawa_batch``.
    """
    fac = iwasawa_batch(spec, point.array()[None])
    return IwasawaFactors(n=fac.n[0], a=fac.a[0], k=fac.k[0],
                          a_parameters=tuple(fac.a_parameters[0]),
                          log_a_split=tuple(fac.log_a_split[0]))


def dressing_matrix(spec: GroupSpec, point: ChartPoint):
    """The compact factor k(z) = a^-1 n^-1 z of the chart representative."""
    return iwasawa(spec, point).k


@dataclass(frozen=True)
class BruhatFactors:
    """g = n d zeta with n unipotent upper, d torus, zeta unipotent lower."""

    n: object
    d: object
    zeta: object
    d_split: tuple = field(repr=False, default=())   # diagonal in split basis

    def multiply_back(self):
        return self.n @ self.d @ self.zeta


def _nan_off_cell(in_cell, *factors) -> None:
    if np.count_nonzero(in_cell) < len(in_cell):
        for x in factors:
            x[~in_cell] = np.nan


def gauss_bruhat_batch(spec: GroupSpec, g) -> tuple:
    """Gauss-Bruhat factors of a stack (N, s, s) and the mask of the open cell.

    ``g`` holds elements of the complexified group in the working
    realization (for Sp 2n x 2n matrices in the split basis). Returns
    ``(factors, in_cell)``: ``factors`` stacked along a first batch axis
    (``d_split`` an (N, s) array), ``in_cell`` the (N,) bool mask of the rows
    whose required principal minors do not vanish. Off-cell rows need a
    chart switch; their factors are nan. The whole stack is one
    ``ul_decompose`` call; a ``g`` of another shape raises ValueError.
    """
    g = element_batch(spec, g, (None,))
    n, d, zeta, in_cell = ul_decompose(spec.split_from_working(g))
    _nan_off_cell(in_cell, n, d, zeta)
    dm = np.zeros_like(n)
    idx = np.arange(d.shape[-1])
    dm[:, idx, idx] = d
    to_w = spec.working_from_split
    return BruhatFactors(n=to_w(n), d=to_w(dm), zeta=to_w(zeta),
                         d_split=d), in_cell


def bruhat_chart(spec: GroupSpec, g) -> tuple:
    """Chart coordinates of the zeta factors of a stack (N, s, s).

    Returns ``(coords, d_split, in_cell)`` as ``gauss_bruhat_batch`` would
    give them (nan on off-cell rows), read straight off the split-basis
    elimination: what chart transitions and cocycle shifts need, without n,
    the working-basis factors or the zeta entries no coordinate reads.
    """
    _, d, zeta, in_cell = _doolittle(spec.split_from_working(g),
                                     *spec.zeta_entries)
    _nan_off_cell(in_cell, d, zeta)
    return spec.coords_from_zeta_entries(zeta), d, in_cell


def gauss_bruhat(spec: GroupSpec, g) -> BruhatFactors:
    """Gauss-Bruhat factorization on the open cell: the one-row
    ``gauss_bruhat_batch``.

    Raises OutsideCell when a required principal minor vanishes, signalling
    that a chart switch is needed, and ValueError unless ``g`` is (s, s).
    """
    g = element_batch(spec, g, ())
    fac, in_cell = gauss_bruhat_batch(spec, g[None])
    if not in_cell[0]:
        raise cell_miss(spec.split_from_working(g))
    return BruhatFactors(n=fac.n[0], d=fac.d[0], zeta=fac.zeta[0],
                         d_split=tuple(fac.d_split[0]))


def torus_coordinates(spec: GroupSpec, d) -> np.ndarray:
    """Coordinates (d_1, .., d_l) of a complexified-torus element.

    Accepts the working-basis matrix or the split diagonal as a vector.
    Uses the family isomorphism T^C ~ (C*)^l: for SU the pattern
    diag(1/d_1, d_1/d_2, ..., d_{n-1}); for SO d_k = exp(a_k) read off the
    rotation blocks; for Sp the first n split diagonal entries. ValueError
    for shapes but (slots,) and (slots, slots), or a matrix off the torus.
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim == 1 and d.size != spec.slots:
        raise ValueError(f"{spec.name} split diagonals have {spec.slots} "
                         f"entries, got {d.size}")
    if d.ndim == 1:
        return spec.torus_coords(d)
    ds = spec.split_from_working(element_batch(spec, d, ()))
    off = ds - np.diag(np.diagonal(ds))
    if np.max(np.abs(off)) > 1e-9 * max(1.0, np.max(np.abs(ds))):
        raise ValueError("matrix is not in the (complexified) torus")
    return spec.torus_coords(np.diagonal(ds))


def torus_character(spec: GroupSpec, d, weights) -> complex:
    """chi^xi(d) = prod d_k^{xi_k} (principal branch for real weights)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        coords = torus_coordinates(spec, d)
    weights = np.asarray(weights, dtype=float)
    if weights.size != coords.size:
        raise ValueError("need one weight per torus coordinate")
    if np.any(~np.isfinite(coords)) or np.any(np.abs(coords) < 1e-300):
        raise ZeroTorusEntry("torus coordinate vanished")
    return complex(np.exp(np.sum(weights * np.log(coords.astype(complex)))))
