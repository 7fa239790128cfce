"""Analytic boundary loops for solvable point interactions at the origin.

The family has two named members.  Delta couples only the even sector,
delta-prime only the odd one; the uncoupled sector scatters as the identity.
The coupled sector's amplitude is the Moebius map z / conj(z) of the
momentum, so every loop here is analytic and serves as ground truth for the
winding machinery.  Only the momentum side is built here: a three-node stack
that ``loops.loop_report`` closes into the loop and winds in closed form, as
a potential's.  z / conj(z) depends on the momentum only through its ratio
to the coupling's own scale, so every finite nonzero coupling shares the
momentum side of its twin of the same sign whose scale is 1.  Sector
embedding and the threshold class of a sector's zero-energy value follow the
rules of ``loops``, the same ones the potential pipeline uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .loops import (
    Sector,
    WindingReport,
    loop_report,
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


def verify_levinson(interaction: PointInteraction, sector: Sector) -> WindingReport:
    """Full report for one parity sector: windings, bound states, and the
    residual of the index identity total = -n_bound.

    z / conj(z) depends on kappa only through kappa / s, with s = |alpha| / 2
    or 2 / |beta| the momentum where the amplitude turns.  So a finite
    nonzero coupling's momentum side B2 is that of its twin of the same sign
    with s = 1 (alpha or beta = +-2).  Its z runs along a line that misses
    the origin, so z / conj(z) turns monotonically through half a turn, a
    quarter turn on each side of kappa = 1: the node stack [S(0), S(1),
    S(inf)] has chords shorter than half a turn, and ``loop_report`` closes
    it and winds it exactly.  The uncoupled sector scatters as the identity
    throughout.
    """
    if sector is Sector.FULL:
        raise ValueError("point-interaction verification runs per parity sector")
    coupled = sector is interaction.sector
    p = interaction.param
    if p != 0.0 and not math.isinf(p):
        # same sign, s = 1: the same B2 and the same bound-state count
        interaction = PointInteraction(interaction.kind, math.copysign(2.0, p))
    amplitude = interaction.amplitude if coupled else (lambda kappa: 1.0 + 0.0j)
    nodes = [sector_unitary(amplitude(kappa), sector) for kappa in (0.0, 1.0, math.inf)]
    n_bound = interaction.n_bound if coupled else 0
    resonance = sector_threshold_class(sector, amplitude(0.0).real)
    return loop_report(nodes, n_bound=n_bound, resonance=resonance)
