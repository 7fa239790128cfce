"""The infinite-energy end in closed form: the Jost-function bound behind
``scattering.TAIL_X``, and the momentum side that stops at the tail
momentum K = I / TAIL_X."""

import copy
import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from levlab import scattering
from levlab.cli import main
from levlab.errors import PhaseJumpTooLarge
from levlab.loops import Sector
from levlab.potentials import gaussian_wells, square_well, zero_potential
from levlab.reporting import tuned_exceptional_well
from levlab.scattering import KAPPA_MAX_CAP, TAIL_X, PotentialAnalysis, SolverSettings

from conftest import WELL_FAMILY_SIZE, random_well_family, sech2_well
from test_exponential_wells import ASYMMETRIC, BRACKETS, exponential_well, matching
from test_winding import _WEAK_WELLS


def tail_bound(x):
    """B(x): every eigenvalue of S(kappa) lies within B(I / kappa) of 1."""
    beta = 0.5 * x * math.expm1(x)
    half = 0.5 * x
    return (beta + half) / (1.0 - beta) + math.sqrt(1.0 - (1.0 + beta + half) ** -2)


def test_tail_x_solves_b_equal_to_one():
    assert abs(tail_bound(TAIL_X) - 1.0) <= 1e-12


def test_tail_x_matches_a_bisection():
    lo, hi = 0.1, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail_bound(mid) < 1.0 else (lo, mid)
    assert abs(lo - TAIL_X) <= 1e-12


def test_bound_increases_and_leaves_room_for_a_low_integral():
    """B increases, so B(I / kappa) <= 1 from K up; and an I up to 28% low
    still keeps every eigenphase inside the 90 degree limit B = sqrt(2)."""
    xs = np.linspace(0.0, 0.6, 601)
    values = [tail_bound(x) for x in xs]
    assert np.all(np.diff(values) > 0.0)
    assert tail_bound(TAIL_X / 0.72) < math.sqrt(2.0) < tail_bound(0.578)


def _asymmetric_tuned_well(bracket):
    a, B, b = ASYMMETRIC
    A = brentq(matching, *bracket, args=(a, B, b), xtol=1e-15, rtol=8.9e-16)
    return exponential_well(A, a, B, b)


_WELLS = {
    **{f"weak-{w[0]:.3g}-{w[2]:.3g}-{w[1]:+.2f}": (lambda w=w: gaussian_wells([w])) for w in _WEAK_WELLS},
    **{f"sech2-{lam:g}": (lambda lam=lam: sech2_well(lam)) for lam in (1.5, 1.0, 2.0)},
    **{f"exponential-{n}": (lambda b=b: _asymmetric_tuned_well(b)) for n, b in enumerate(BRACKETS, start=1)},
    "square-well-depth-1": lambda: square_well(1.0, 1.0),
    "square-well-odd-resonance": lambda: tuned_exceptional_well("odd"),
    "square-well-even-resonance": lambda: tuned_exceptional_well("even"),
    "zero": zero_potential,
}
CASES = [f"member-{i}" for i in range(WELL_FAMILY_SIZE)] + list(_WELLS)


@pytest.fixture(scope="module")
def analysis_of(well_family):
    built = {}

    def analysis(case):
        if case.startswith("member-"):
            return well_family[int(case.split("-")[1])]
        if case not in built:
            built[case] = PotentialAnalysis(_WELLS[case]())
        return built[case]

    return analysis


def _sectors(analysis):
    symmetric = analysis.potential.symmetric
    return [Sector.FULL, Sector.EVEN, Sector.ODD] if symmetric else [Sector.FULL]


@pytest.mark.parametrize("case", CASES)
def test_side_stops_at_the_first_initial_node_at_or_above_k(analysis_of, case):
    """The side is the full grid's prefix up to the first initial node at
    or above K, and has at least two nodes."""
    analysis = analysis_of(case)
    side, full, k = analysis.side.kappas, analysis.scattering.kappas, analysis.tail_momentum
    s = analysis.settings
    step = 10.0 ** (1.0 / s.points_per_decade)
    assert np.array_equal(side, full[: side.size])
    assert k < s.kappa_max and side.size >= 2
    if k > s.kappa_min:
        assert side[-1] >= k > side[-1] / step * (1.0 - 1e-12)
    else:
        assert side.size == 2


@pytest.mark.parametrize("case", CASES)
def test_side_reports_and_delay_equal_the_full_grids(analysis_of, case):
    """Every sector report and the time delay read off the side closed at
    S(top) equal those of the whole grid to kappa_max."""
    analysis = analysis_of(case)
    reports = {sector: analysis.report(sector) for sector in _sectors(analysis)}
    delay = analysis.time_delay()
    full = copy.copy(analysis)
    full._reports = {}
    full.side = analysis.scattering
    for sector, report in reports.items():
        want = full.report(sector)
        assert np.max(np.abs(np.subtract(report.w, want.w))) <= 1e-12, sector
        assert abs(report.total - want.total) <= 1e-12 and abs(report.residual - want.residual) <= 1e-12
        assert (report.n_bound, report.resonance) == (want.n_bound, want.resonance)
    assert abs(delay - full.time_delay()) <= 1e-12


@pytest.mark.parametrize("case", CASES)
def test_full_grid_eigenvalues_obey_the_bound_from_k_up(analysis_of, case):
    """At every grid node kappa >= K, each eigenvalue of S lies within
    B(I / kappa) of 1.  1e-12 absorbs the rounding of the cell products,
    which moves the zero potential's S = 1 (I = 0) by up to 1.4e-13."""
    analysis = analysis_of(case)
    data, k = analysis.scattering, analysis.tail_momentum
    above = data.kappas >= k
    assert above.any()
    deviation = np.max(np.abs(np.linalg.eigvals(data.matrices[above]) - 1.0), axis=1)
    bound = np.array([tail_bound(k * TAIL_X / kappa) for kappa in data.kappas[above]])
    assert np.all(deviation <= bound + 1e-12)


def test_member_14_integral(analysis_of):
    """I = 135.4 by Gauss quadrature over M/2's cells, against the closed
    form sum of depth * width * sqrt(2 pi) of its Gaussian wells, all of
    them attractive."""
    analysis = analysis_of("member-14")
    closed = sum(depth * width * math.sqrt(2.0 * math.pi) for depth, _, width in random_well_family()[14])
    assert abs(analysis.tail_momentum * TAIL_X - closed) <= 1e-9 * closed
    assert round(analysis.tail_momentum) == 326


def test_negative_control_a_wrong_bound_breaks_the_identity(monkeypatch):
    """With x* forced to 30, member 14's side stops near kappa 4.6, far
    below where its eigenphases settle.  The last chord then loses two
    turns: w2 reads -9.5 and the identity fails by 4.  The delay agrees with
    the wrong w2, so its pi/2 guard does not catch the cut; only the bound
    keeps the side long enough."""
    monkeypatch.setattr(scattering, "TAIL_X", 30.0)
    analysis = PotentialAnalysis(gaussian_wells(random_well_family()[14]))
    assert 4.5 < analysis.tail_momentum < analysis.side.kappas[-1] < 4.7
    report = analysis.report(Sector.FULL)
    assert report.n_bound == 14
    assert report.w[1] == pytest.approx(-9.5, abs=1e-9)
    assert report.residual == pytest.approx(4.0, abs=1e-9)
    assert analysis.time_delay() == pytest.approx(9.5, abs=1e-9)


def test_deep_gaussian_keeps_the_whole_grid_and_its_refusal():
    """The Gaussian (2000, 0, 1) has I = 5013 and K = 12100 above kappa_max:
    its side is the whole grid, and the delay still refuses on the last
    step, from S(kappa_max) to the identity."""
    analysis = PotentialAnalysis(gaussian_wells([(2000.0, 0.0, 1.0)]))
    assert round(analysis.tail_momentum, -2) == 12100.0
    assert analysis.side.kappas[-1] == analysis.settings.kappa_max
    with pytest.raises(PhaseJumpTooLarge, match=r"eigenphase step 2\.506 rad exceeds pi/2"):
        analysis.time_delay()


def test_kappa_max_is_capped_where_kappa_to_the_fourth_stays_finite():
    assert math.isfinite(KAPPA_MAX_CAP**4)
    SolverSettings(kappa_max=KAPPA_MAX_CAP)
    with pytest.raises(ValueError, match="kappa_max must be at most 1e\\+76"):
        SolverSettings(kappa_max=1e80)


def test_cli_refuses_a_kappa_max_above_the_cap_before_propagation(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        '{"potential": {"kind": "square-well", "depth": 1.0, "half_width": 1.0}, "numerics": {"kappa_max": 1e80}}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["potential", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "kappa_max must be at most" in captured.err


def test_dumps_do_not_change_the_report(tmp_path, capsys):
    """The certificates read the side, the dumps the whole grid: stdout is
    the same with and without a dump, but for the lines that name them, and
    the scattering dump runs to kappa_max."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"potential": {"kind": "gaussian-sum", "wells": random_well_family()[2]}}))
    assert main(["potential", "--json", "--config", str(config)]) == 0
    plain = capsys.readouterr().out
    csv, phases = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["potential", "--json", "--csv", str(csv), "--phase-csv", str(phases), "--config", str(config)]
    assert main(args) == 0
    dumped = capsys.readouterr().out
    assert "".join(line for line in dumped.splitlines(True) if not line.startswith("wrote ")) == plain
    last = csv.read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == SolverSettings().kappa_max
