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
    momentum_coordinate,
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
        sigma = +1 for delta and -1 for delta-prime.
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
        z = complex(2.0 * kappa, -p) if self.kind == DELTA else complex(2.0, p * kappa)
        return z / z.conjugate()


def verify_levinson(interaction: PointInteraction, sector: Sector, **knobs) -> WindingReport:
    """Full report for one parity sector: windings, bound states, and the
    residual of the index identity total = -n_bound.

    The momentum side B2 follows the sector's amplitude from kappa = 0 to
    kappa = inf, and ``loop_winding`` closes it; ``knobs`` are its keyword
    arguments ``corner_tol``, ``n_samples`` and ``tol``, which default to
    ``loop_winding``'s own.  The uncoupled sector scatters as the identity,
    so its loop is the identity throughout.
    """
    if sector is Sector.FULL:
        raise ValueError("point-interaction verification runs per parity sector")
    coupled = sector is interaction.sector
    amplitude = interaction.amplitude if coupled else (lambda kappa: 1.0 + 0.0j)

    def b2_eval(t: float):
        kappa = math.inf if t >= 1.0 else momentum_coordinate(float(t))
        return sector_unitary(amplitude(kappa), sector)

    return loop_winding(
        BoundaryPath(b2_eval),
        n_bound=interaction.n_bound if coupled else 0,
        resonance=sector_threshold_class(sector, amplitude(0.0).real),
        **knobs,
    )
