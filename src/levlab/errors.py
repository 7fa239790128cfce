"""Exception types shared across the package."""


class LevlabError(Exception):
    """Base class for all package-specific failures."""


class NonUnitaryPath(LevlabError):
    """A constructed boundary path leaves the unitary family."""


class PhaseJumpTooLarge(LevlabError):
    """A phase step above pi/2, whose branch is ambiguous: a det phase step of
    ``loops.winding`` at its sample cap, or an eigenphase step of ``time_delay_integral``."""


class WindingNotConverged(LevlabError):
    """Successive winding estimates failed to stabilise at the sample cap."""


class SolverDiverged(LevlabError):
    """Transfer propagation failed its step-halving accuracy check."""


class DecayTooSlow(LevlabError):
    """The potential tail still exceeds the truncation tolerance at the radius cap."""


class ClassificationAmbiguous(LevlabError):
    """Zero-energy growth falls in the dead zone between the two threshold
    classes, or the two classification routes disagree."""


class ResolutionInsufficient(LevlabError):
    """Doubling the grid changed a discrete count."""


class SymmetryRequired(LevlabError):
    """A parity-sector operation was requested for an asymmetric potential."""


class GoldenMismatch(LevlabError):
    """A reproduced table entry differs from its frozen expected value."""


class QuadratureNotConverged(LevlabError):
    """Adaptive quadrature failed to reach its tolerance at the node cap."""


class ConfigError(LevlabError):
    """Invalid configuration input."""
