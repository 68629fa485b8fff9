"""Betti numbers, the Leray-Hirsch product, two-cycles and basis two-forms.

Even Betti numbers are graded by Bruhat word length: b_{2k} counts the
minimal-length representatives of length k in W(G_mu0)\\W(G); their total is
ord W(G) / ord W(G_mu0). Basis two-forms are omega_j = (i/2pi) ddbar Phi_j
with Phi_j the torus-coordinate potentials; their integrals over the
simple-root two-cycles gamma_i form the identity matrix. The quadrature
compactifies each cycle with the substitution r = tan(theta/2), switching to
the Weyl-flipped chart past theta = pi/2 (the flipped chart representative
z w has the same Iwasawa A-part as z, so the integrand function is
unchanged there). One finite-difference stencil pass over a cycle evaluates
all rank potentials together, so it yields the integrals of every basis
form over that cycle: the pairing matrix costs one quadrature per cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._linalg import complex_laplacian, gauss_legendre
from .decompose import ChartPoint, chart_point
from .errors import MaximalDegenerate, QuadratureNotConverged
from .groups import (GroupSpec, InitialPoint, _action_key, classify_initial_point,
                     weyl_group)
from .orbit import FibrationDescription, fibration


@dataclass(frozen=True)
class BettiVector:
    """Even Betti numbers (b^0, b^2, ..., b^{2n})."""

    b: tuple

    @property
    def total(self) -> int:
        return int(sum(self.b))


def _parabolic_actions(wg, gen_indices):
    """Closure (as actions) of the subgroup generated by given reflections."""
    dim = wg.generators[0].action.shape[0] if wg.generators else 1
    ident = np.eye(dim)
    actions = {_action_key(ident): ident}
    frontier = [ident]
    gens = [wg.generators[k].action for k in gen_indices]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = g @ a
                key = _action_key(b)
                if key not in actions:
                    actions[key] = b
                    nxt.append(b)
        frontier = nxt
    return actions


def _coset_length_counts(wg, sub_gens, within_gens=None) -> tuple:
    """Length distribution of minimal coset representatives in H\\W (or H\\W_K)."""
    sub = _parabolic_actions(wg, sub_gens)
    within = None
    if within_gens is not None:
        within = set(_parabolic_actions(wg, within_gens).keys())
    length_of = {el.action_key(): el.length for el in wg.elements}
    counts = Counter()
    done = set()
    for el in wg.elements:
        key = el.action_key()
        if key in done or (within is not None and key not in within):
            continue
        coset = {_action_key(el.action @ h) for h in sub.values()}
        done |= coset
        counts[min(length_of[k] for k in coset)] += 1
    top = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(top + 1))


def betti(spec: GroupSpec, point: InitialPoint) -> BettiVector:
    """Betti vector of the orbit through ``point``."""
    classify_initial_point(spec, point)
    wg = weyl_group(spec)
    weights = np.asarray(point.weights)
    walls = [int(i) for i in np.nonzero(np.abs(weights) < 1e-12)[0]]
    return BettiVector(b=_coset_length_counts(wg, walls))


@dataclass(frozen=True)
class LerayHirschResult:
    ok: bool
    total: tuple
    base: tuple
    fiber: tuple
    note: str = ""


def _poly_multiply(p, q) -> tuple:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def leray_hirsch_check(fib: FibrationDescription) -> LerayHirschResult:
    """Poincare polynomial of the total space vs the base-fiber product."""
    wg = weyl_group(fib.spec)
    stab = list(fib.stabilizer_generators)
    kg = list(fib.intermediate_generators)
    total = _coset_length_counts(wg, stab)
    base = _coset_length_counts(wg, kg)
    fiber = _coset_length_counts(wg, stab, within_gens=kg)
    ok = _poly_multiply(base, fiber) == total
    return LerayHirschResult(ok=ok, total=total, base=base, fiber=fiber)


def leray_hirsch(spec: GroupSpec, point: InitialPoint) -> LerayHirschResult:
    """Leray-Hirsch check through the canonical fibration of the orbit.

    Maximally degenerate orbits admit no fibration; the check is then
    vacuously true (with a note), as for SU(2).
    """
    try:
        fib = fibration(spec, point)
    except MaximalDegenerate:
        b = betti(spec, point).b
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
        coords = np.zeros(self.spec.adapter.chart_dim, dtype=complex)
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
        fam = self.spec.adapter
        z = fam.chart_split(np.atleast_2d(np.asarray(coords, dtype=complex)))
        return fam.potentials(z)[:, self.index]


def basis_cycles(spec: GroupSpec) -> list:
    """One two-cycle per simple root, along the matching chart coordinate."""
    fam = spec.adapter
    cycles = []
    for k, info in enumerate(fam.simple_roots):
        ci = next(i for i, r in enumerate(fam.chart_roots)
                  if np.allclose(r.as_array(), info.as_array()))
        cycles.append(TwoCycle(spec=spec, index=k, root_label=info.label,
                               coord_index=ci))
    return cycles


def basis_two_forms(spec: GroupSpec) -> list:
    fam = spec.adapter
    return [BasisTwoForm(spec=spec, index=j,
                         label=f"(i/2pi) ddbar ln d_{j + 1}^2")
            for j in range(fam.rank)]


def _pairing_quadrature(spec: GroupSpec, i: int, order: int) -> np.ndarray:
    """Row int_{gamma_i} omega_j, j = 1..rank, from one stencil pass."""
    fam = spec.adapter
    xs, ws = gauss_legendre(order)
    theta = (xs + 1.0) * (np.pi / 2.0)
    wth = ws * (np.pi / 2.0)
    phi = (xs + 1.0) * np.pi
    wph = ws * np.pi
    # r = tan(theta/2); past theta = pi/2 switch to the flipped chart, where
    # the radial coordinate is 1/r and the potential function is unchanged
    rho = np.where(theta <= np.pi / 2.0,
                   np.tan(theta / 2.0), np.tan((np.pi - theta) / 2.0))
    t = rho[:, None] * np.exp(1j * phi[None, :])

    def f(tflat):
        return fam.potentials(fam.cycle_chart(i, tflat))

    lap = complex_laplacian(f, t)            # d^2 Phi_j / dt dtbar, j last
    jac = rho * (1.0 + rho ** 2) / 2.0
    return np.array([wth @ (lap[..., j] * jac[:, None]) @ wph / np.pi
                     for j in range(lap.shape[-1])])


def _pairing_row(spec: GroupSpec, i: int, order: int,
                 check_convergence: bool) -> np.ndarray:
    row = _pairing_quadrature(spec, i, order)
    if check_convergence:
        coarse = _pairing_quadrature(spec, i, max(order // 2, 8))
        delta = float(np.max(np.abs(row - coarse)))
        if delta > 1e-6:
            raise QuadratureNotConverged(
                f"rule {order // 2} -> {order} moved the integrals over "
                f"cycle {i} by up to {delta:.3e}")
    return row


def pairing_integral(form: BasisTwoForm, cycle: TwoCycle, order: int = 128,
                     check_convergence: bool = True) -> float:
    """int_{gamma_i} omega_j by Gauss-Legendre quadrature on the cycle.

    Uses an order x order product rule in (theta, phi) with r = tan(theta/2)
    and the finite-difference Laplacian of the pulled-back potentials. One
    stencil pass over the cycle yields the integrals of every basis form;
    this returns the entry of ``form``. Raises QuadratureNotConverged if
    halving the rule moves any integral over the cycle by > 1e-6.
    """
    if form.spec != cycle.spec:
        raise ValueError("form and cycle belong to different groups")
    row = _pairing_row(form.spec, cycle.index, order, check_convergence)
    return float(row[form.index])


def pairing_matrix(spec: GroupSpec, order: int = 128,
                   check_convergence: bool = False) -> np.ndarray:
    """Full matrix int_{gamma_i} omega_j; identity when all is well.

    Row i comes from one stencil pass over gamma_i that evaluates every basis
    potential at once, so the matrix costs rank quadratures, not rank^2.
    With ``check_convergence`` each row is compared with the half-order rule
    as in ``pairing_integral``.
    """
    return np.array([_pairing_row(spec, cyc.index, order, check_convergence)
                     for cyc in basis_cycles(spec)])
