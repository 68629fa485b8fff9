"""Betti numbers, the Leray-Hirsch product, two-cycles and basis two-forms.

Even Betti numbers b_{2k} of G/G_mu0 are the coefficients of the exact
integer quotient P_W / P_{W(G_mu0)} of Poincare polynomials from Macdonald's
product formula (``groups.poincare_polynomial``), as are the Leray-Hirsch
total, base and fiber; the Betti numbers sum to
ord W(G) / ord W(G_mu0). Basis two-forms are omega_j = (i/2pi) ddbar Phi_j
with Phi_j the torus-coordinate potentials; their integrals over the
simple-root two-cycles gamma_i form the identity matrix. The quadrature
compactifies each cycle with the substitution r = tan(theta/2), switching to
the Weyl-flipped chart past theta = pi/2 (the flipped chart representative
z w has the same Iwasawa A-part as z, so the integrand function is
unchanged there). The integrand is exact: every Phi_j is a combination of
log det of the trailing minors of z z*, whose Laplacian along the cycle
``_linalg.complex_laplacian`` gives in closed form, all j from one
factorization. It is also independent of the angle phi of t = r e^{i phi}:
the torus moves the cycle chart exp(t x_i) to exp(e^{i phi} t x_i) by
conjugation with a unitary diagonal h, and G -> h G h* leaves every
trailing principal minor unchanged. So the phi integral is exactly 2 pi and
each cycle needs only a one-dimensional Gauss-Legendre rule in theta on the
real ray: one pass of ``order`` nodes yields the integrals of every basis
form over it, and the pairing matrix costs rank such passes, linear in
``order``. The rows depend on neither weights nor seed, so each is
computed once per group, cycle and order and kept on the group:
``pairing_matrix``, ``pairing_integral`` and the convergence check read
the same kept rows, and ``pairing_matrix`` stacks them into a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._families import per_group
from ._linalg import complex_laplacian, gauss_legendre
from .decompose import ChartPoint, chart_point
from .errors import QuadratureNotConverged
from .groups import (GroupSpec, InitialPoint, poincare_quotient,
                     reject_zero_orbit)
from .orbit import FibrationDescription, _fibration


@dataclass(frozen=True)
class BettiVector:
    """Even Betti numbers (b^0, b^2, ..., b^{2n})."""

    b: tuple

    @property
    def total(self) -> int:
        return int(sum(self.b))


def betti(spec: GroupSpec, point: InitialPoint) -> BettiVector:
    """Betti vector of the orbit through ``point``.

    Raises AllWeightsZero when the orbit is a point.
    """
    reject_zero_orbit(point)
    return BettiVector(b=poincare_quotient(spec, None, point.walls))


@dataclass(frozen=True)
class LerayHirschResult:
    ok: bool
    total: tuple
    base: tuple
    fiber: tuple
    note: str = ""


def leray_hirsch_check(fib: FibrationDescription) -> LerayHirschResult:
    """Total, base and fiber Poincare polynomials of the fibration.

    With exact polynomials total = base * fiber holds identically, so ``ok``
    compares the total instead with an independent count: its degree must
    be half the orbit's real dimension, which ``classify_initial_point``
    counts as the positive roots off the walls (``fib.total``).
    """
    spec, stab = fib.spec, fib.stabilizer_generators
    k_gens = fib.intermediate_generators
    total = poincare_quotient(spec, None, stab)
    base = poincare_quotient(spec, None, k_gens)
    fiber = poincare_quotient(spec, k_gens, stab)
    ok = 2 * (len(total) - 1) == fib.total.real_dimension
    return LerayHirschResult(ok=ok, total=total, base=base, fiber=fiber)


def leray_hirsch(spec: GroupSpec, point: InitialPoint) -> LerayHirschResult:
    """Leray-Hirsch check through the canonical fibration of the orbit.

    Maximally degenerate orbits admit no fibration; the check is then
    vacuously true (with a note), as for SU(2). The result depends only on
    the group and the walls: it is formed once per group and wall set.
    """
    reject_zero_orbit(point)
    return _leray_hirsch(spec, point.walls)


@per_group
def _leray_hirsch(spec: GroupSpec, walls: tuple) -> LerayHirschResult:
    fib = _fibration(spec, walls)
    if isinstance(fib, str):        # maximally degenerate
        b = poincare_quotient(spec, None, walls)
        return LerayHirschResult(ok=True, total=b, base=b, fiber=(1,),
                                 note="maximally degenerate: no fibration, "
                                      "check is vacuous")
    return leray_hirsch_check(fib)


# ---------------------------------------------------------------------------
# cycles, forms, pairing integrals


@dataclass(frozen=True)
class TwoCycle:
    """The sphere swept by SU_alpha(2) along one simple root."""

    spec: GroupSpec
    index: int
    root_label: str
    coord_index: int

    def embedding(self, t) -> ChartPoint:
        """Chart point with the cycle coordinate set to t, others zero."""
        coords = np.zeros(self.spec.chart_dim, dtype=complex)
        coords[self.coord_index] = t
        return chart_point(self.spec, coords)


@dataclass(frozen=True)
class BasisTwoForm:
    """omega_j = (i/2pi) d dbar Phi_j with Phi_j the j-th torus potential."""

    spec: GroupSpec
    index: int
    label: str
    normalization: str = "i/(2*pi)"

    def potential(self, coords) -> np.ndarray:
        return self.spec.chart_potentials(coords)[:, self.index]


def basis_cycles(spec: GroupSpec) -> list:
    """One two-cycle per simple root, along its chart coordinate k."""
    return [TwoCycle(spec=spec, index=k, root_label=info.label, coord_index=k)
            for k, info in enumerate(spec.simple_roots)]


def basis_two_forms(spec: GroupSpec) -> list:
    return [BasisTwoForm(spec=spec, index=j,
                         label=f"(i/2pi) ddbar ln d_{j + 1}^2")
            for j in range(spec.rank)]


@per_group
def _pairing_quadrature(spec: GroupSpec, i: int, order: int) -> np.ndarray:
    """Row int_{gamma_i} omega_j, j = 1..rank, from one pass over the cycle.

    Depends on neither weights nor seed: computed once for each group, cycle
    and order, kept on the group and read-only.
    """
    xs, ws = gauss_legendre(order)
    theta = (xs + 1.0) * (np.pi / 2.0)
    wth = ws * (np.pi / 2.0)
    # r = tan(theta/2); past theta = pi/2 switch to the flipped chart, where
    # the radial coordinate is 1/r and the potential function is unchanged
    rho = np.where(theta <= np.pi / 2.0,
                   np.tan(theta / 2.0), np.tan((np.pi - theta) / 2.0))
    z = spec.cycle_chart(i, rho)
    # the cycle chart is exp(t x_i), so dz/dt = z x_i
    lap = complex_laplacian(z, z @ spec.cycle_generators()[i],
                            spec.minor_weights.T)
    jac = rho * (1.0 + rho ** 2) / 2.0
    # omega_j = lap_j d^2 t / pi with d^2 t = jac dtheta dphi; lap_j does
    # not depend on phi, so the phi integral is exactly 2 pi
    row = 2.0 * (wth * jac) @ lap
    row.setflags(write=False)
    return row


def _pairing_row(spec: GroupSpec, i: int, order: int,
                 check_convergence: bool) -> np.ndarray:
    row = _pairing_quadrature(spec, i, order)
    if check_convergence:
        # the half-order rule, or below 16 nodes the double-order one, so
        # that no rule is ever compared with itself
        ref = order // 2 if order >= 16 else 2 * order
        delta = float(np.max(np.abs(row - _pairing_quadrature(spec, i, ref))))
        if delta > 1e-6:
            raise QuadratureNotConverged(
                f"rules {ref} and {order} differ on the integrals over "
                f"cycle {i} by up to {delta:.3e}")
    return row


def pairing_integral(form: BasisTwoForm, cycle: TwoCycle, order: int = 128,
                     check_convergence: bool = True) -> float:
    """int_{gamma_i} omega_j by Gauss-Legendre quadrature on the cycle.

    Uses an ``order``-node rule in theta on the radial ray, r = tan(theta/2),
    with the exact Laplacian of the pulled-back potentials; the phi integral
    is exactly 2 pi because the integrand is torus invariant. One pass over
    the cycle yields the integrals of every basis form; this returns the
    entry of ``form``. Raises QuadratureNotConverged if the half-order rule
    (the double-order rule below 16 nodes) moves any integral over the cycle
    by > 1e-6.
    """
    if form.spec != cycle.spec:
        raise ValueError("form and cycle belong to different groups")
    row = _pairing_row(form.spec, cycle.index, order, check_convergence)
    return float(row[form.index])


def pairing_matrix(spec: GroupSpec, order: int = 128,
                   check_convergence: bool = False) -> np.ndarray:
    """Full matrix int_{gamma_i} omega_j; identity when all is well.

    Row i comes from one ``order``-node radial pass over gamma_i that
    differentiates every basis potential at once, so the matrix costs rank
    one-dimensional quadratures, linear in ``order``, paid once for each
    group and order. With ``check_convergence`` each row is
    compared with a second rule as in ``pairing_integral``.
    """
    return np.array([_pairing_row(spec, cyc.index, order, check_convergence)
                     for cyc in basis_cycles(spec)])
