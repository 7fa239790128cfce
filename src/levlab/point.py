"""Analytic boundary loops for solvable point interactions at the origin.

The family has two named members.  Delta couples only the even sector,
delta-prime only the odd one; the uncoupled sector scatters as the identity.
The coupled sector's amplitude is the Moebius map z / conj(z) of the
momentum, so every loop here is analytic and serves as ground truth for the
winding machinery.  Only the momentum side is built here, and
``loops.loop_winding`` closes it into the loop and winds it.  Sector
embedding and the threshold class of a sector's zero-energy value follow the
rules of ``loops``, the same ones the potential pipeline uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .loops import (
    BoundaryPath,
    Sector,
    WindingReport,
    loop_winding,
    sector_threshold_class,
    sector_unitary,
)

DELTA = "delta"
DELTA_PRIME = "delta-prime"

# Coupled sector and the sign sigma of the amplitude at infinite momentum.
_MEMBERS = {DELTA: (Sector.EVEN, 1.0), DELTA_PRIME: (Sector.ODD, -1.0)}


@dataclass(frozen=True)
class PointInteraction:
    """A delta or delta-prime interaction at the origin.

    ``param`` is the coupling strength; ``math.inf`` is admitted as the
    distinguished boundary member of each family (the fully decoupling one).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _MEMBERS:
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        p = float(self.param)
        if math.isnan(p) or p == -math.inf:
            raise ValueError("param must be a real number or +inf")
        object.__setattr__(self, "param", p)

    def describe(self) -> str:
        p = "inf" if math.isinf(self.param) else f"{self.param:g}"
        name = "alpha" if self.kind == DELTA else "beta"
        return f"{self.kind} ({name} = {p})"

    @property
    def sector(self) -> Sector:
        """The coupled parity sector."""
        return _MEMBERS[self.kind][0]

    @property
    def n_bound(self) -> int:
        """Exactly one bound state, of the coupled sector's parity, for
        negative coupling; none otherwise."""
        return 1 if self.param < 0.0 else 0

    @property
    def momentum_scale(self) -> float:
        """Momentum where the coupled amplitude turns: |alpha| / 2 for delta,
        2 / |beta| for delta-prime; 1 for the constant couplings 0 and inf."""
        p = abs(self.param)
        if p == 0.0 or math.isinf(p):
            return 1.0
        return 0.5 * p if self.kind == DELTA else 2.0 / p

    def amplitude(self, kappa: float) -> complex:
        """Coupled-sector scattering amplitude z / conj(z) at momentum kappa.

        z = 2 kappa - i alpha for delta and 2 + i beta kappa for delta-prime.
        Coupling 0 scatters as 1 and coupling inf as -1 at every momentum;
        otherwise kappa = 0 gives -sigma and kappa = inf gives sigma, with
        sigma = +1 for delta and -1 for delta-prime.  z / 2 is scaled by a
        power of two below 1 first, so nothing overflows.
        """
        p = self.param
        if math.isinf(p):
            return complex(-1.0)
        if p == 0.0:
            return complex(1.0)
        sigma = _MEMBERS[self.kind][1]
        if math.isinf(kappa):
            return complex(sigma)
        if kappa == 0.0:
            return complex(-sigma)
        x, y = (kappa, -0.5 * p) if self.kind == DELTA else (1.0, 0.5 * p * kappa)
        if math.isinf(y):  # |beta kappa| past the float range: sigma to rounding
            return complex(sigma)
        _, exponent = math.frexp(max(abs(x), abs(y)))
        z = complex(math.ldexp(x, -exponent), math.ldexp(y, -exponent))
        return z / z.conjugate()


def verify_levinson(interaction: PointInteraction, sector: Sector, **knobs) -> WindingReport:
    """Full report for one parity sector: windings, bound states, and the
    residual of the index identity total = -n_bound.

    The momentum side B2 follows the sector's amplitude over kappa =
    s t / (1 - t), t in [0, 1], s the ``momentum_scale``, so it turns around
    t = 1/2 whatever the coupling (a kappa past the float range is taken as
    inf); ``loop_winding`` closes it, with ``knobs`` as its keyword arguments.
    The uncoupled sector scatters as the identity throughout.
    """
    if sector is Sector.FULL:
        raise ValueError("point-interaction verification runs per parity sector")
    coupled = sector is interaction.sector
    amplitude = interaction.amplitude if coupled else (lambda kappa: 1.0 + 0.0j)
    scale = interaction.momentum_scale

    def b2_eval(t: float):
        kappa = math.inf if t >= 1.0 else scale * t / (1.0 - t)
        return sector_unitary(amplitude(kappa), sector)

    return loop_winding(
        BoundaryPath(b2_eval),
        n_bound=interaction.n_bound if coupled else 0,
        resonance=sector_threshold_class(sector, amplitude(0.0).real),
        **knobs,
    )
