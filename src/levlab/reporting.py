"""Golden result tables of the verified configurations.

The tables pin down every verified configuration: the solvable point
interactions over attractive, trivial, repulsive, and infinitely strong
couplings, and three square wells (a generic one and the two resonance-tuned
depths).  Expected windings and bound-state counts are frozen literals;
``check_golden`` compares recomputed rows against them and names the exact
row and column of any disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ClassificationAmbiguous, GoldenMismatch
from .loops import Sector, WindingReport
from .point import DELTA, DELTA_PRIME, PointInteraction, verify_levinson
from .potentials import Potential, square_well
from .scattering import PotentialAnalysis, SolverSettings, zero_energy_tail_slope

_COLUMNS = ("w1", "w2", "w3", "w4", "total", "n_bound")

# Largest admitted gap between a computed winding or total and its frozen value.
GOLDEN_TOL = 1e-6


@dataclass(frozen=True)
class TableRow:
    """One verified configuration: its certified report next to the frozen
    windings and bound-state count."""

    label: str
    report: WindingReport
    expected_w: tuple[float, float, float, float]
    expected_n: int

    @property
    def expected_total(self) -> float:
        return float(sum(self.expected_w))

    def mismatches(self, tol: float) -> list[tuple[str, float, float]]:
        """(column, computed, expected) triples exceeding the tolerance."""
        r, bad = self.report, []
        for name, got, want in zip(_COLUMNS[:4], r.w, self.expected_w):
            if abs(got - want) > tol:
                bad.append((name, got, want))
        if abs(r.total - self.expected_total) > tol:
            bad.append(("total", r.total, self.expected_total))
        if r.n_bound != self.expected_n:
            bad.append(("n_bound", float(r.n_bound), float(self.expected_n)))
        return bad


# (kind, coupling, sector, expected windings, expected bound states)
_POINT_GOLDEN = (
    (DELTA, -1.0, Sector.EVEN, (-0.5, -0.5, 0.0, 0.0), 1),
    (DELTA, 0.0, Sector.EVEN, (0.0, 0.0, 0.0, 0.0), 0),
    (DELTA, 1.0, Sector.EVEN, (-0.5, 0.5, 0.0, 0.0), 0),
    (DELTA, math.inf, Sector.EVEN, (-0.5, 0.0, 0.5, 0.0), 0),
    (DELTA_PRIME, -1.0, Sector.ODD, (0.0, -0.5, -0.5, 0.0), 1),
    (DELTA_PRIME, 0.0, Sector.ODD, (0.0, 0.0, 0.0, 0.0), 0),
    (DELTA_PRIME, 1.0, Sector.ODD, (0.0, 0.5, -0.5, 0.0), 0),
    (DELTA_PRIME, math.inf, Sector.ODD, (0.5, 0.0, -0.5, 0.0), 0),
)


def point_table_rows() -> list[TableRow]:
    """The point-interaction table in its nontrivial sector."""
    rows = []
    for kind, coupling, sector, expected_w, expected_n in _POINT_GOLDEN:
        interaction = PointInteraction(kind, coupling)
        name = "alpha" if kind == DELTA else "beta"
        label = f"{kind} {name}={coupling:g} [{sector.value}]"
        rows.append(TableRow(label, verify_levinson(interaction, sector), expected_w, expected_n))
    return rows


# ---------------------------------------------------------------------------
# Square wells, including the resonance-tuned depths


@lru_cache(maxsize=None)
def tuned_resonance_depth(variant: str) -> float:
    """Depth of the unit-half-width square well whose zero-energy solution
    goes flat at the edge.  Inside the well that solution is sin(sqrt(V0) x)
    (odd) or cos(sqrt(V0) x) (even), flat at x = 1 exactly when sqrt(V0) is
    pi/2 or pi: the depths are (pi/2)^2 and pi^2.  The engine checks the
    closed form once: its tail slope at that depth must lie below the dead
    zone, on the exceptional side, or ``ClassificationAmbiguous`` is raised
    (the closed form and the engine disagree)."""
    if variant == "odd":
        depth = (math.pi / 2) ** 2
    elif variant == "even":
        depth = math.pi**2
    else:
        raise ValueError(f"unknown resonance variant {variant!r}")
    slope = zero_energy_tail_slope(square_well(depth, 1.0))
    edge = SolverSettings().dead_zone[0]
    if not abs(slope) < edge:
        raise ClassificationAmbiguous(
            f"{variant} resonance depth {depth!r}: tail slope {slope:.3e} is not "
            f"below the dead zone's lower edge {edge:g}"
        )
    return depth


def tuned_exceptional_well(variant: str) -> Potential:
    """Unit-half-width square well tuned onto the odd or even resonance."""
    return square_well(tuned_resonance_depth(variant), 1.0)


# (label stem, well factory, per-sector expectations)
_WELL_GOLDEN = (
    (
        "square-well depth=1",
        lambda: square_well(1.0, 1.0),
        {
            Sector.FULL: ((-0.5, -0.5, 0.0, 0.0), 1),
            Sector.EVEN: ((-0.5, -0.5, 0.0, 0.0), 1),
            Sector.ODD: ((0.0, 0.0, 0.0, 0.0), 0),
        },
    ),
    (
        "square-well odd-resonance",
        lambda: tuned_exceptional_well("odd"),
        {
            Sector.FULL: ((0.0, -1.0, 0.0, 0.0), 1),
            Sector.EVEN: ((-0.5, -0.5, 0.0, 0.0), 1),
            Sector.ODD: ((0.5, -0.5, 0.0, 0.0), 0),
        },
    ),
    (
        "square-well even-resonance",
        lambda: tuned_exceptional_well("even"),
        {
            Sector.FULL: ((0.0, -2.0, 0.0, 0.0), 2),
            Sector.EVEN: ((0.0, -1.0, 0.0, 0.0), 1),
            Sector.ODD: ((0.0, -1.0, 0.0, 0.0), 1),
        },
    ),
)


def well_table_rows() -> list[TableRow]:
    """Square-well sector table: generic plus both tuned resonant depths."""
    rows = []
    for stem, factory, expectations in _WELL_GOLDEN:
        analysis = PotentialAnalysis(factory())
        for sector in (Sector.FULL, Sector.EVEN, Sector.ODD):
            label = f"{stem} [{sector.value}]"
            rows.append(TableRow(label, analysis.report(sector), *expectations[sector]))
    return rows


def reproduce_tables() -> list[TableRow]:
    """All golden rows: point interactions first, then the square wells."""
    return point_table_rows() + well_table_rows()


def check_golden(rows) -> None:
    """Raise GoldenMismatch naming the first offending row and column."""
    for row in rows:
        bad = row.mismatches(GOLDEN_TOL)
        if bad:
            column, got, want = bad[0]
            raise GoldenMismatch(
                f"table row {row.label!r}, column {column}: "
                f"computed {got:.10g}, expected {want:.10g}"
            )


def render_rows(rows) -> str:
    """Aligned text table of computed windings against the frozen values."""
    width = max(len(r.label) for r in rows) + 2
    header = (
        f"{'configuration':<{width}}"
        f"{'w1':>9}{'w2':>9}{'w3':>9}{'w4':>9}{'total':>9}{'n':>4}  status"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        bad = r.mismatches(GOLDEN_TOL)
        status = "ok" if not bad else "MISMATCH " + ",".join(b[0] for b in bad)
        cells = "".join(f"{v:>9.4f}" for v in (*r.report.w, r.report.total))
        lines.append(f"{r.label:<{width}}{cells}{r.report.n_bound:>4}  {status}")
    return "\n".join(lines)

