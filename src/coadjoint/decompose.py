"""Iwasawa and Gauss-Bruhat decompositions of chart representatives.

The chart Z of an orbit is parameterized by one complex coordinate per
positive root (for Sp(n), quaternion entries carry pairs of short-root
coordinates and the long-root coordinates come last; they must vanish for
the native quaternionic operations). ``iwasawa`` factors a chart
representative as z = n a k from one Householder QR of z (``_linalg._rq``;
Sp through its interleaved complex embedding), with no Gram matrix z z*;
``gauss_bruhat`` factors a complexified group element as g = n d zeta on
the open cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import iwasawa_nak, quaternion_iwasawa, quaternion_ul, ul_decompose
from .errors import ZeroTorusEntry
from .groups import GroupSpec
from .quaternion import QuaternionMatrix


@dataclass(frozen=True)
class ChartPoint:
    """Complex coordinates on one Bruhat chart, tagged by a Weyl word."""

    spec: GroupSpec
    coords: tuple
    chart: tuple = ()

    def __post_init__(self):
        fam = self.spec.adapter
        coords = tuple(complex(z) for z in self.coords)
        if len(coords) != fam.chart_dim:
            raise ValueError(
                f"{self.spec.name} charts have {fam.chart_dim} coordinates, "
                f"got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=complex)


def chart_point(spec: GroupSpec, coords, chart=()) -> ChartPoint:
    return ChartPoint(spec, tuple(coords), tuple(chart))


def chart_matrix(spec: GroupSpec, point: ChartPoint):
    """The chart representative z in the family's working realization."""
    return spec.adapter.chart_working(point.array())


@dataclass(frozen=True)
class IwasawaFactors:
    """z = n a k with n unipotent, a positive (diagonal/blocks), k compact."""

    n: object
    a: object
    k: object
    a_parameters: tuple           # family torus parameters of the A part
    log_a_split: tuple = field(repr=False, default=())

    def multiply_back(self):
        return self.n @ self.a @ self.k


def iwasawa(spec: GroupSpec, point: ChartPoint) -> IwasawaFactors:
    """Iwasawa factors of the chart representative at ``point``.

    SU(n): complex triangular factors. Sp(n): native quaternionic factors
    (raises ValueError if a long-root coordinate is nonzero, those
    directions have no quaternionic chart). SO(3)/SO(4): factors in the
    vector basis, with A in its cosh/sinh rotation-block form.
    """
    fam = spec.adapter
    if fam.family == "su":
        z = fam.chart_split([point.array()])[0]
        n, d, k = iwasawa_nak(z)
        return IwasawaFactors(n=n, a=np.diag(d).astype(complex), k=k,
                              a_parameters=tuple(fam.a_parameters(np.log(d))),
                              log_a_split=tuple(np.log(d)))
    if fam.family == "sp":
        zq = fam.chart_quaternion(point.array())
        n, avec, k = quaternion_iwasawa(zq)
        a = QuaternionMatrix(np.diag(avec).astype(complex))
        return IwasawaFactors(n=n, a=a, k=k,
                              a_parameters=tuple(avec),
                              log_a_split=tuple(np.log(avec)))
    # so
    zs = fam.chart_split([point.array()])[0]
    n, d, k = iwasawa_nak(zs)
    to_w = fam.working_from_split
    return IwasawaFactors(n=to_w(n), a=to_w(np.diag(d)), k=to_w(k),
                          a_parameters=tuple(fam.a_parameters(np.log(d))),
                          log_a_split=tuple(np.log(d)))


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


def gauss_bruhat(spec: GroupSpec, g) -> BruhatFactors:
    """Gauss-Bruhat factorization on the open cell.

    Accepts an element of the complexified group in the working realization
    (for Sp either a QuaternionMatrix, factored natively, or a 2n x 2n
    split-embedded complex matrix). Raises OutsideCell when a required
    principal minor vanishes, signalling that a chart switch is needed.
    """
    fam = spec.adapter
    if isinstance(g, QuaternionMatrix):
        n, dlist, zeta = quaternion_ul(g)
        d = QuaternionMatrix.zeros(fam.n)
        for i, q in enumerate(dlist):
            d[i, i] = q
        dsplit = tuple(np.array([q.z1 for q in dlist]))
        return BruhatFactors(n=n, d=d, zeta=zeta, d_split=dsplit)
    g = np.asarray(g, dtype=complex)
    if fam.family == "so":
        gs = fam.split_from_working(g)
        n, d, zeta = ul_decompose(gs)
        to_w = fam.working_from_split
        return BruhatFactors(n=to_w(n), d=to_w(np.diag(d)), zeta=to_w(zeta),
                             d_split=tuple(d))
    n, d, zeta = ul_decompose(g)
    return BruhatFactors(n=n, d=np.diag(d), zeta=zeta, d_split=tuple(d))


def torus_coordinates(spec: GroupSpec, d) -> np.ndarray:
    """Coordinates (d_1, .., d_l) of a complexified-torus element.

    Accepts the working-basis matrix, a QuaternionMatrix with complex
    diagonal, or the split diagonal as a vector. Uses the family isomorphism
    T^C ~ (C*)^l: for SU the pattern diag(1/d_1, d_1/d_2, ..., d_{n-1}); for
    SO d_k = exp(a_k) read off the rotation blocks; for Sp the first n split
    diagonal entries.
    """
    fam = spec.adapter
    if isinstance(d, QuaternionMatrix):
        if np.max(np.abs(d.z2)) > 1e-12:
            raise ValueError("not a complex-torus element (j-part present)")
        diag = np.diagonal(d.z1).copy()
        return fam.torus_coords(np.concatenate([diag, diag[::-1].conj()]))
    d = np.asarray(d, dtype=complex)
    if d.ndim == 1:
        return fam.torus_coords(d)
    if fam.family == "so":
        ds = fam.split_from_working(d)
        off = ds - np.diag(np.diagonal(ds))
        if np.max(np.abs(off)) > 1e-9 * max(1.0, np.max(np.abs(ds))):
            raise ValueError("matrix is not in the (complexified) torus")
        return fam.torus_coords(np.diagonal(ds))
    return fam.torus_coords(np.diagonal(d))


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
