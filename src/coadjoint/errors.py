"""Exception types raised by the library.

Exit-code mapping used by the CLI: config problems (UnsupportedGroup,
AllWeightsZero, bad flags) exit 2; domain errors raised while evaluating a
well-formed request (DegeneracyViolation, PoleOnChart, OutsideCell, ...)
exit 3; verification failures exit 1.
"""


class CoadjointError(Exception):
    """Base class for all library errors."""


class UnsupportedGroup(CoadjointError):
    """Group family/size outside the supported range (e.g. SO(n) for n > 4)."""


class AllWeightsZero(CoadjointError):
    """Every weight vanishes: the orbit degenerates to a single point."""


class NumericalBreakdown(CoadjointError):
    """A chart matrix is singular to working precision or not finite."""


class OutsideCell(CoadjointError):
    """The element misses the Bruhat cell of this chart; switch charts."""


class ZeroTorusEntry(CoadjointError):
    """A torus coordinate is numerically zero; its character is undefined."""


class DegeneracyViolation(CoadjointError):
    """A chart coordinate that must vanish on this degenerate orbit is nonzero."""


class PoleOnChart(CoadjointError):
    """The chart transition has a pole at this point (denominator vanished)."""


class MaximalDegenerate(CoadjointError):
    """No intermediate subgroup exists: the orbit is not a nontrivial bundle."""


class QuadratureNotConverged(CoadjointError):
    """Successive quadrature rule sizes disagree beyond tolerance."""
