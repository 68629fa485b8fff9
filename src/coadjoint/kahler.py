"""Kahler potentials, metrics, the KKS pairing, cocycle covariance.

The potential of the orbit through mu0 with chamber weights (xi_1..xi_l) is
Phi = sum_k xi_k Phi_k, where Phi_k are the basis potentials dual to the
simple-root two-cycles (for SU(n) these are ln r_k^2 in terms of the Iwasawa
torus parameters). The metric is the finite-difference Wirtinger Hessian of
Phi restricted to the active chart coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import wirtinger_hessian
from .decompose import ChartPoint, chart_matrix, chart_point, gauss_bruhat
from .errors import StepUnderflow
from .groups import GroupSpec, InitialPoint
from .orbit import OrbitPoint, required_zero_mask, _zeta_coords
from .quaternion import QuaternionMatrix

DEFAULT_STEP = 1e-4

# scale of the trace form <X, Y> on the compact algebra; for Sp it refers to
# the 2n-dimensional embedding (half the embedded trace equals the
# quaternionic real trace)
KKS_FORM_SCALE = {"su": 1.0, "so": 0.5, "sp": 0.5}

# ratio of the KKS pairing on root-direction generators to the metric value
# at the origin, calibrated once on SU(2) and frozen; it absorbs the scale
# mismatch between the trace form above and the dual-space pairing
KKS_METRIC_RATIO = 2.0


def potential_batch(spec: GroupSpec, point: InitialPoint, coords) -> np.ndarray:
    """Phi at a batch (N, chart_dim) of chart coordinates."""
    fam = spec.adapter
    weights = np.asarray(point.weights)
    z = fam.chart_split(np.atleast_2d(np.asarray(coords, dtype=complex)))
    return fam.potentials(z) @ weights


def potential(spec: GroupSpec, point: InitialPoint, chart: ChartPoint) -> float:
    """Kahler potential Phi = sum_k <mu0, alpha_k> ln r_k^2 at the point."""
    return float(potential_batch(spec, point, chart.array()[None])[0])


def basis_potential_batch(spec: GroupSpec, k: int, coords) -> np.ndarray:
    """The k-th basis potential Phi_k on a coordinate batch."""
    fam = spec.adapter
    z = fam.chart_split(np.atleast_2d(np.asarray(coords, dtype=complex)))
    return fam.potentials(z)[:, k]


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


def metric(spec: GroupSpec, point: InitialPoint, chart: ChartPoint,
           step: float = DEFAULT_STEP, richardson: bool = True) -> KahlerTensor:
    """g_{a bbar} = d^2 Phi / dz_a dzbar_b by central differences.

    Degenerate orbits restrict to the active coordinates (those not forced
    to vanish), keeping the tensor positive definite on its actual domain.
    Raises StepUnderflow when |z| is too large for the step.
    """
    fam = spec.adapter
    mask = required_zero_mask(spec, point)
    active = tuple(int(i) for i in np.nonzero(~mask)[0])
    z0 = chart.array()
    if np.max(np.abs(z0)) > 1e3 / step:
        raise StepUnderflow(
            f"|z| = {np.max(np.abs(z0)):.3e} too large for step {step:g}")

    def f(batch):
        full = np.tile(z0, (len(batch), 1))
        full[:, list(active)] = batch
        return potential_batch(spec, point, full)

    g = wirtinger_hessian(f, z0[list(active)], h=step, richardson=richardson)
    labels = tuple(fam.positive_roots[i].label for i in active)
    return KahlerTensor(g=g, active_indices=active, active_labels=labels,
                        base_point=chart)


def kks_pairing(point: OrbitPoint, x, y) -> float:
    """Kirillov-Kostant-Souriau pairing <mu, [X, Y]> at the orbit point."""
    spec = point.spec
    scale = KKS_FORM_SCALE[spec.family]
    mu = point.mu_matrix
    if isinstance(mu, QuaternionMatrix):
        mu = mu.embed("split")
    if isinstance(x, QuaternionMatrix):
        x = x.embed("split")
    if isinstance(y, QuaternionMatrix):
        y = y.embed("split")
    mu = np.asarray(mu, dtype=complex)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return float(scale * np.trace(mu @ (x @ y - y @ x)).real)


def cocycle_shift(spec: GroupSpec, point: InitialPoint, chart: ChartPoint,
                  g) -> tuple:
    """Transformed coordinates z_g and the potential shift under g.

    Factors z(coords) g = n d zeta; returns the chart point of zeta and
    shift = ln |chi^xi(d(zg))|^2 for the cocycle torus element (the inverse
    of the emitted d-factor; this orientation is what makes
    Phi(z_g) = Phi(z) + shift hold identically). Propagates OutsideCell when
    the product leaves the cell of this chart.
    """
    fam = spec.adapter
    z = chart_matrix(spec, chart)
    fac = gauss_bruhat(spec, z @ g)
    coords = _zeta_coords(spec, fac.zeta)
    zg = chart_point(spec, coords, chart.chart)
    if isinstance(fac.d, QuaternionMatrix):
        mags = np.array([abs(fac.d[i, i]) for i in range(fam.n)])
        log_abs = np.log(np.concatenate([mags, mags[::-1]]))
    else:
        log_abs = np.log(np.abs(np.asarray(fac.d_split)))
    weights = np.asarray(point.weights)
    shift = float(-(weights @ fam.potential_weights) @ log_abs)
    return zg, shift


def integrality_check(spec: GroupSpec, point: InitialPoint):
    """Quantization test 2<mu0, alpha_k>/<alpha_k, alpha_k> in Z per root.

    Returns (flags, ratios); ratios are computed on weight coordinates,
    where the chamber form is the euclidean dot product.
    """
    fam = spec.adapter
    c = np.asarray(point.coords)
    ratios, flags = [], []
    for info in fam.simple_roots:
        a = info.as_array()
        ratio = 2.0 * float(c @ a) / float(a @ a)
        ratios.append(ratio)
        flags.append(bool(abs(ratio - round(ratio)) < 1e-9))
    return tuple(flags), tuple(ratios)
