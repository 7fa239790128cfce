"""Analytic boundary loops for the two one-parameter point-interaction families.

The delta family couples only the even sector, the delta-prime family only the
odd one; the complementary sector scatters trivially.  Scattering amplitudes
are closed-form Moebius maps of the momentum, so every loop here is analytic
and serves as ground truth for the winding machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loops import (
    BoundaryLoop,
    BoundaryPath,
    ResonanceClass,
    Sector,
    Side,
    WindingReport,
    connector_path,
    constant_path,
    loop_winding,
    momentum_coordinate,
)

DELTA = "delta"
DELTA_PRIME = "delta-prime"

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class PointInteraction:
    """A delta or delta-prime interaction at the origin.

    ``param`` is the coupling strength; ``math.inf`` is admitted as the
    distinguished boundary member of each family (the fully decoupling one).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in (DELTA, DELTA_PRIME):
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        p = float(self.param)
        if math.isnan(p) or p == -math.inf:
            raise ValueError("param must be a real number or +inf")
        object.__setattr__(self, "param", p)

    def describe(self) -> str:
        p = "inf" if math.isinf(self.param) else f"{self.param:g}"
        name = "alpha" if self.kind == DELTA else "beta"
        return f"{self.kind} ({name} = {p})"


def s_alpha(alpha: float, lam: float) -> complex:
    """Even-sector scattering amplitude of the delta family at energy lam.

    For finite nonzero coupling: (2 sqrt(lam) - i alpha) / (2 sqrt(lam) + i alpha).
    lam may be +inf; the infinite coupling member scatters as -1 at all energies.
    """
    if math.isinf(alpha):
        return complex(-1.0)
    if alpha == 0.0:
        return complex(1.0)
    if math.isinf(lam):
        return complex(1.0)
    if lam < 0.0:
        raise ValueError("energy must be nonnegative")
    kappa = math.sqrt(lam)
    if kappa == 0.0:
        return complex(-1.0)
    return complex(2.0 * kappa, -alpha) / complex(2.0 * kappa, alpha)


def s_beta(beta: float, lam: float) -> complex:
    """Odd-sector scattering amplitude of the delta-prime family at energy lam.

    For finite nonzero coupling: (2 + i beta sqrt(lam)) / (2 - i beta sqrt(lam)).
    """
    if math.isinf(beta):
        return complex(-1.0)
    if beta == 0.0:
        return complex(1.0)
    if math.isinf(lam):
        return complex(-1.0)
    if lam < 0.0:
        raise ValueError("energy must be nonnegative")
    kappa = math.sqrt(lam)
    if kappa == 0.0:
        return complex(1.0)
    return complex(2.0, beta * kappa) / complex(2.0, -beta * kappa)


def interaction_s_matrix(interaction: PointInteraction, lam: float) -> np.ndarray:
    """Full 2x2 scattering matrix in the even/odd basis at energy lam."""
    if interaction.kind == DELTA:
        return np.array([[s_alpha(interaction.param, lam), 0.0j], [0.0j, 1.0 + 0.0j]])
    return np.array([[1.0 + 0.0j, 0.0j], [0.0j, s_beta(interaction.param, lam)]])


def nontrivial_sector(interaction: PointInteraction) -> Sector:
    return Sector.EVEN if interaction.kind == DELTA else Sector.ODD


def bound_state_count(interaction: PointInteraction) -> int:
    """Exactly one bound state for negative coupling, none otherwise."""
    return 1 if interaction.param < 0.0 else 0


def sector_bound_state_count(interaction: PointInteraction, sector: Sector) -> int:
    """Bound states restricted to a parity sector.

    The single possible eigenstate has the parity of the interacting sector.
    """
    if sector is Sector.FULL:
        return bound_state_count(interaction)
    if sector is nontrivial_sector(interaction):
        return bound_state_count(interaction)
    return 0


def resonance_for_sector(interaction: PointInteraction, sector: Sector) -> ResonanceClass:
    """Threshold class read off from the sector's zero-energy amplitude.

    Even sector: amplitude -1 at zero energy is generic, +1 carries the even
    half-bound state.  Odd sector: +1 is generic, -1 carries the odd one.
    """
    if sector is Sector.FULL:
        sector = nontrivial_sector(interaction)
    s0 = interaction_s_matrix(interaction, 0.0)
    if sector is Sector.EVEN:
        value = s0[0, 0].real
        return ResonanceClass.exceptional(1.0) if value > 0 else ResonanceClass.generic()
    value = s0[1, 1].real
    return ResonanceClass.exceptional(-1.0) if value < 0 else ResonanceClass.generic()


def build_loop(interaction: PointInteraction, sector: Sector) -> BoundaryLoop:
    """Boundary loop of the interaction restricted to one parity sector.

    The trivial sector (odd for delta, even for delta-prime) yields the
    constant identity loop.
    """
    if sector is Sector.FULL:
        raise ValueError("point-interaction loops are built per parity sector")
    if sector is not nontrivial_sector(interaction):
        return BoundaryLoop(tuple(constant_path(side, _I2) for side in Side))
    s_zero = interaction_s_matrix(interaction, 0.0)
    s_inf = interaction_s_matrix(interaction, math.inf)

    def b2_eval(t: float) -> np.ndarray:
        if t >= 1.0:
            return s_inf.copy()
        kappa = momentum_coordinate(float(t))
        return interaction_s_matrix(interaction, kappa * kappa)

    return BoundaryLoop(
        (
            connector_path(s_zero, Side.B1),
            BoundaryPath(side=Side.B2, eval=b2_eval),
            connector_path(s_inf, Side.B3),
            constant_path(Side.B4, _I2),
        )
    )


def verify_levinson(interaction: PointInteraction, sector: Sector) -> WindingReport:
    """Full report for one sector: windings, bound states, and the residual
    of the index identity total = -n_bound."""
    if sector is Sector.FULL:
        raise ValueError("point-interaction verification runs per parity sector")
    return loop_winding(
        build_loop(interaction, sector),
        n_bound=sector_bound_state_count(interaction, sector),
        resonance=resonance_for_sector(interaction, sector),
    )
