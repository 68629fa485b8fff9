"""Coadjoint orbits of compact classical Lie groups.

Construction, complex parameterization (generalized stereographic
projection), Kahler structure, and cohomology data for orbits of SU(n),
Sp(n), SO(3) and SO(4).
"""

from .cohomology import (BasisTwoForm, BettiVector, TwoCycle, basis_cycles,
                         basis_two_forms, betti, leray_hirsch,
                         leray_hirsch_check, pairing_integral, pairing_matrix)
from .decompose import (BruhatFactors, ChartPoint, IwasawaFactors,
                        chart_matrix, chart_point, dressing_matrix,
                        gauss_bruhat, gauss_bruhat_batch, iwasawa,
                        iwasawa_batch, torus_character)
from .errors import (AllWeightsZero, CoadjointError, DegeneracyViolation,
                     MaximalDegenerate, NumericalBreakdown, OutsideCell,
                     PoleOnChart, QuadratureNotConverged, UnsupportedGroup,
                     ZeroTorusEntry)
from .groups import (GroupSpec, InitialPoint, OrbitClass, OrbitKind,
                     RootDatum, WeylElement, WeylGroup, build_group,
                     classify_initial_point, initial_point,
                     poincare_polynomial, root_datum, weyl_group)
from .kahler import (KahlerTensor, cocycle_shift, cocycle_shift_batch,
                     integrality_check, kks_pairing, metric, metric_batch,
                     potential, potential_batch)
from .orbit import (FibrationDescription, OrbitPoint, chart_transition,
                    dress, dress_batch, fibration, su3_closed_form,
                    su3_closed_form_batch, su3_transition_closed)

__version__ = "0.1.0"

__all__ = [
    "AllWeightsZero", "BasisTwoForm", "BettiVector", "BruhatFactors",
    "ChartPoint", "CoadjointError", "DegeneracyViolation",
    "FibrationDescription", "GroupSpec", "InitialPoint", "IwasawaFactors",
    "KahlerTensor", "MaximalDegenerate", "NumericalBreakdown", "OrbitClass",
    "OrbitKind", "OrbitPoint", "OutsideCell", "PoleOnChart",
    "QuadratureNotConverged", "RootDatum", "TwoCycle", "UnsupportedGroup",
    "WeylElement", "WeylGroup", "ZeroTorusEntry", "basis_cycles",
    "basis_two_forms",
    "betti", "build_group", "chart_matrix", "chart_point",
    "chart_transition", "classify_initial_point", "cocycle_shift",
    "cocycle_shift_batch", "dress", "dress_batch", "dressing_matrix",
    "fibration", "gauss_bruhat", "gauss_bruhat_batch",
    "initial_point", "integrality_check", "iwasawa", "iwasawa_batch",
    "kks_pairing", "leray_hirsch", "leray_hirsch_check", "metric",
    "metric_batch", "pairing_integral",
    "pairing_matrix", "poincare_polynomial", "potential", "potential_batch",
    "root_datum", "su3_closed_form", "su3_closed_form_batch",
    "su3_transition_closed", "torus_character", "weyl_group",
]
