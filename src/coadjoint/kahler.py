"""Kahler potentials, metrics, the KKS pairing, cocycle covariance.

The potential of the orbit through mu0 with chamber weights (xi_1..xi_l) is
Phi = sum_k xi_k Phi_k, where Phi_k are the basis potentials dual to the
simple-root two-cycles (for SU(n) these are ln r_k^2 in terms of the Iwasawa
torus parameters). Each Phi_k is a combination of log det of the trailing
minors of z z*, so the metric, the Wirtinger Hessian of Phi on the active
chart coordinates, is exact and exactly hermitian (``wirtinger_hessian``).
Both come from Householder QR (``_linalg._rq``): the metric from one QR of
z, the potential from the QR of its trailing ``rank`` rows alone
(``Family.log_a``), since log a is fixed by its last ``rank`` entries. The
cocycle shift reads the same trailing entries of its Gauss-Bruhat d. z z*
itself is never formed, so all of them hold far out on the chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cell_miss, wirtinger_hessian
from .decompose import (ChartPoint, bruhat_chart, chart_batch, chart_point,
                        element_batch)
from .errors import NumericalBreakdown
from .groups import GroupSpec, InitialPoint, same_group
from .orbit import OrbitPoint, required_zero_mask
from .quaternion import QuaternionMatrix

# scale of the trace form <X, Y> on the compact algebra; for Sp it refers to
# the 2n-dimensional split basis (half its trace is the quaternionic real
# trace)
KKS_FORM_SCALE = {"su": 1.0, "so": 0.5, "sp": 0.5}


def potential_batch(spec: GroupSpec, point: InitialPoint, coords) -> np.ndarray:
    """Phi at a batch (N, chart_dim) of chart coordinates.

    Phi = log a . c with the weights folded in (``Family.fold``), so every
    row equals the one-point ``potential`` bit for bit, whatever batch it is
    in. Raises ValueError unless ``coords`` has shape (N, chart_dim), and
    for a point of another group.
    """
    same_group(spec, point)
    z = spec.chart_split(chart_batch(spec, coords))
    return spec.fold(spec.log_a(z), point.weights)


def potential(spec: GroupSpec, point: InitialPoint, chart: ChartPoint) -> float:
    """Kahler potential Phi = sum_k <mu0, alpha_k> ln r_k^2 at the point.

    Raises ValueError for a point or chart of another group.
    """
    same_group(spec, chart)
    return float(potential_batch(spec, point, chart.array()[None])[0])


@dataclass(frozen=True)
class KahlerTensor:
    """Hermitian metric g_{a bbar} on the active chart coordinates.

    ``omega_scale`` records the convention: the Kahler form is
    omega = i * g_{a bbar} dz_a ^ dzbar_b.
    """

    g: np.ndarray
    active_indices: tuple
    active_labels: tuple
    base_point: ChartPoint
    omega_scale: str = "omega = i g dz^dzbar"

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.g)


def metric_batch(spec: GroupSpec, point: InitialPoint, coords) -> np.ndarray:
    """g_{a bbar} = d^2 Phi / dz_a dzbar_b at a batch (N, chart_dim), (N, m, m).

    Phi = sum_j c_j log det G[j:, j:] with G = z z* and c = weights @
    ``minor_weights``, folded in by ``wirtinger_hessian`` before any
    product, on z and its closed-form ``Family.chart_jacobian``. Degenerate
    orbits restrict to the m active coordinates (those not forced to
    vanish), where the tensor is positive definite. Raises
    NumericalBreakdown for a chart matrix that is singular to working
    precision. A row that overflows in the kernel (Sp near |z| ~ 1e300)
    comes back nan, as off-cell rows of ``cocycle_shift_batch`` do;
    ``metric`` raises there. Raises ValueError unless ``coords`` has shape
    (N, chart_dim), and for a point of another group.
    """
    same_group(spec, point)
    active = np.flatnonzero(~required_zero_mask(spec, point))
    z, a = spec.chart_jacobian(chart_batch(spec, coords))
    c = np.asarray(point.weights) @ spec.minor_weights
    return wirtinger_hessian(z, a[:, active], c)


def metric(spec: GroupSpec, point: InitialPoint,
           chart: ChartPoint) -> KahlerTensor:
    """The one-point ``metric_batch``, with the active coordinate labels.

    Raises NumericalBreakdown where the metric is not finite, ValueError
    for a point or chart of another group.
    """
    same_group(spec, point, chart)
    active = np.flatnonzero(~required_zero_mask(spec, point))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = metric_batch(spec, point, chart.array()[None])[0]
    if not np.isfinite(g).all():
        raise NumericalBreakdown("the metric is not finite at this point: "
                                 "the chart or its factorization overflows")
    labels = tuple(spec.positive_roots[i].label for i in active)
    return KahlerTensor(g=g, active_indices=tuple(int(i) for i in active),
                        active_labels=labels, base_point=chart)


def kks_pairing(point: OrbitPoint, x, y) -> float:
    """Kirillov-Kostant-Souriau pairing <mu, [X, Y]> at the orbit point."""
    spec = point.spec
    scale = KKS_FORM_SCALE[spec.family]
    mu = np.asarray(point.mu_matrix, dtype=complex)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return float(scale * np.trace(mu @ (x @ y - y @ x)).real)


def _cocycle(spec: GroupSpec, point: InitialPoint, coords, g) -> tuple:
    """(z g, coords_g, shift, in_cell) of ``cocycle_shift_batch``."""
    same_group(spec, point)
    if isinstance(g, QuaternionMatrix):
        g = g.embed("split")
    coords = chart_batch(spec, coords)
    g = element_batch(spec, g, (), (len(coords),))
    zg = spec.chart_working(coords) @ g
    coords_g, d, in_cell = bruhat_chart(spec, zg)
    # the trailing pivots are the first Doolittle steps on the reversed
    # matrix, the accurate ones; they fix log |d| as they fix log a
    log_d = spec.log_a_from_tail(np.abs(d[:, -spec.rank:]))
    shift = spec.fold(log_d, -np.asarray(point.weights))
    return zg, coords_g, shift, in_cell


def cocycle_shift_batch(spec: GroupSpec, point: InitialPoint, coords,
                        g) -> tuple:
    """Transformed coordinates and potential shifts for a batch of points.

    ``coords`` is (N, chart_dim); ``g`` one element or a stack (N, s, s) in
    the working realization (an Sp(n) element may also be a
    QuaternionMatrix). Factors z(coords) g = n d zeta in one
    ``bruhat_chart`` call and returns ``(coords_g, shift, in_cell)``: the
    (N, chart_dim) coordinates of zeta, the (N,) shifts
    ln |chi^xi(d(zg))|^2 for the cocycle torus element (the inverse of the
    emitted d-factor; this orientation is what makes
    Phi(z_g) = Phi(z) + shift hold identically) and the (N,) mask of the
    rows whose product stays in the cell of this chart. Off-cell rows of
    ``coords_g`` and ``shift`` are nan. Raises ValueError for a point of
    another group, and unless ``g`` is (s, s) or (N, s, s).
    """
    return _cocycle(spec, point, coords, g)[1:]


def cocycle_shift(spec: GroupSpec, point: InitialPoint, chart: ChartPoint,
                  g) -> tuple:
    """Transformed chart point z_g and the potential shift under g.

    The one-row ``cocycle_shift_batch``. Raises OutsideCell when the product
    leaves the cell of this chart, ValueError for a point or chart of
    another group or a ``g`` that is not (s, s).
    """
    same_group(spec, chart)
    zg, coords_g, shift, in_cell = _cocycle(spec, point, chart.array()[None],
                                            g)
    if not in_cell[0]:
        raise cell_miss(spec.split_from_working(zg[0]))
    return chart_point(spec, coords_g[0], chart.chart), float(shift[0])


def integrality_check(spec: GroupSpec, point: InitialPoint):
    """Quantization test 2<mu0, alpha_k>/<alpha_k, alpha_k> in Z per root.

    Returns (flags, ratios); ratios are computed on weight coordinates,
    where the chamber form is the euclidean dot product.
    """
    c = np.asarray(point.coords)
    ratios, flags = [], []
    for info in spec.simple_roots:
        a = info.as_array()
        ratio = 2.0 * float(c @ a) / float(a @ a)
        ratios.append(ratio)
        flags.append(bool(abs(ratio - round(ratio)) < 1e-9))
    return tuple(flags), tuple(ratios)
