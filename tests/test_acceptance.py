"""Acceptance gate: the eight headline checks, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they print.  Expected windings are frozen literals local to this file, kept
independent of the golden tables in the package.
"""

import math
import time

import pytest

from levlab.dilation import suite_residuals
from levlab.loops import Sector
from levlab.point import PointInteraction, verify_levinson
from levlab.potentials import square_well
from levlab.reporting import tuned_exceptional_well, well_table_rows
from levlab.scattering import PotentialAnalysis

INF = math.inf

DELTA_TABLE = {
    -1.0: ((-0.5, -0.5, 0.0, 0.0), 1),
    0.0: ((0.0, 0.0, 0.0, 0.0), 0),
    1.0: ((-0.5, 0.5, 0.0, 0.0), 0),
    INF: ((-0.5, 0.0, 0.5, 0.0), 0),
}

DELTA_PRIME_TABLE = {
    -1.0: ((0.0, -0.5, -0.5, 0.0), 1),
    0.0: ((0.0, 0.0, 0.0, 0.0), 0),
    1.0: ((0.0, 0.5, -0.5, 0.0), 0),
    INF: ((0.5, 0.0, -0.5, 0.0), 0),
}


def _verdict(ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


def _table_defect(kind, table, sector):
    worst = 0.0
    for coupling, (expected_w, expected_n) in table.items():
        report = verify_levinson(PointInteraction(kind, coupling), sector)
        worst = max(worst, max(abs(g - w) for g, w in zip(report.w, expected_w)))
        if report.n_bound != expected_n:
            worst = max(worst, 1.0)
    return worst


@pytest.fixture(scope="module")
def generic_well():
    return PotentialAnalysis(square_well(1.0, 1.0))


@pytest.fixture(scope="module")
def tuned_wells():
    return {
        variant: PotentialAnalysis(tuned_exceptional_well(variant))
        for variant in ("odd", "even")
    }


@pytest.fixture(scope="module")
def sector_rows():
    return well_table_rows()


def test_criterion_1_delta_table():
    start = time.monotonic()
    worst = _table_defect("delta", DELTA_TABLE, Sector.EVEN)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _verdict(ok, f"criterion 1: delta table, worst defect {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_delta_prime_table():
    start = time.monotonic()
    worst = _table_defect("delta-prime", DELTA_PRIME_TABLE, Sector.ODD)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _verdict(
        ok, f"criterion 2: delta-prime table, worst defect {worst:.2e}, {elapsed:.1f} s"
    )


def test_criterion_3_generic_square_well(generic_well):
    start = time.monotonic()
    delay = generic_well.time_delay()
    total = generic_well.report(Sector.FULL).total
    n = generic_well.bound_states()
    elapsed = time.monotonic() - start
    ok = n == 1 and abs(delay - 0.5) <= 1e-3 and abs(total + 1.0) <= 1e-4
    ok = ok and elapsed < 60.0
    _verdict(
        ok,
        "criterion 3: generic well, "
        f"delay {delay:.6f}, total {total:+.6f}, n {n}, {elapsed:.1f} s",
    )


def test_criterion_4_tuned_exceptional_wells(tuned_wells):
    pieces, ok = [], True
    for variant, expected_n in (("odd", 1), ("even", 2)):
        analysis = tuned_wells[variant]
        certified = (
            analysis.bound_states() == expected_n
            and analysis.resonance.is_exceptional
        )
        delay = analysis.time_delay()
        w1 = analysis.report(Sector.FULL).w[0]
        ok = ok and certified and abs(delay - expected_n) <= 5e-3 and abs(w1) <= 1e-3
        pieces.append(f"{variant}: delay {delay:.6f} (n {expected_n}), w1 {w1:+.2e}")
    _verdict(ok, "criterion 4: exceptional wells, " + "; ".join(pieces))


def test_criterion_5_random_well_oracle_agreement(well_family):
    start = time.monotonic()
    worst_gap, counters_agree = 0.0, True
    for analysis in well_family:
        if analysis.n_bound_shooting != analysis.n_bound_fd:
            counters_agree = False
            continue
        report = analysis.report(Sector.FULL)
        worst_gap = max(worst_gap, abs(report.total + report.n_bound))
    elapsed = time.monotonic() - start
    ok = counters_agree and worst_gap < 1e-4 and elapsed < 600.0
    _verdict(
        ok,
        f"criterion 5: {len(well_family)} random wells, counters "
        f"{'agree' if counters_agree else 'DISAGREE'}, "
        f"worst |total + n| {worst_gap:.2e}, {elapsed:.0f} s",
    )


def test_criterion_6_sector_tables(sector_rows):
    structural = max(
        (abs(g - w) for row in sector_rows for g, w in zip(row.report.w, row.expected_w)),
        default=0.0,
    )
    counts_ok = all(row.report.n_bound == row.expected_n for row in sector_rows)
    sum_gap = 0.0
    for i in range(0, len(sector_rows), 3):
        full, even, odd = sector_rows[i : i + 3]
        for j in range(4):
            sum_gap = max(sum_gap, abs(full.report.w[j] - (even.report.w[j] + odd.report.w[j])))
    ok = structural <= 1e-3 and counts_ok and sum_gap <= 1e-3
    _verdict(
        ok,
        f"criterion 6: sector tables, worst structure defect {structural:.2e}, "
        f"worst sector-sum gap {sum_gap:.2e}",
    )


def test_criterion_7_unitarity_and_integer_totals(
    generic_well, tuned_wells, well_family, sector_rows
):
    analyses = [generic_well, *tuned_wells.values(), *well_family]
    unitarity = max(a.scattering.unitarity_defect() for a in analyses)

    totals = [a.report(Sector.FULL).total for a in analyses]
    for analysis in (generic_well, *tuned_wells.values()):
        totals += [analysis.report(s).total for s in (Sector.EVEN, Sector.ODD)]
    totals += [row.report.total for row in sector_rows]
    for kind, table in (("delta", DELTA_TABLE), ("delta-prime", DELTA_PRIME_TABLE)):
        sector = Sector.EVEN if kind == "delta" else Sector.ODD
        totals += [
            verify_levinson(PointInteraction(kind, c), sector).total for c in table
        ]
    integer_gap = max(abs(t - round(t)) for t in totals)

    ok = unitarity < 1e-8 and integer_gap < 1e-6
    _verdict(
        ok,
        f"criterion 7: worst unitarity defect {unitarity:.2e} "
        f"({len(analyses)} grids), worst integer gap {integer_gap:.2e} "
        f"({len(totals)} loop totals)",
    )


def test_criterion_8_multiplier_identity():
    start = time.monotonic()
    results = suite_residuals()
    elapsed = time.monotonic() - start
    worst = max(residual for _, residual in results)
    ok = worst < 1e-3 and len(results) == 5 and elapsed < 60.0
    _verdict(
        ok,
        f"criterion 8: multiplier identity on {len(results)} probe functions, "
        f"worst residual {worst:.2e}, {elapsed:.1f} s",
    )
