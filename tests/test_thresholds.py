"""Threshold crossings: a well tuned so a new level sits exactly at zero.

Walking the depth across the tuned value must step the bound-state count,
shift the time-delay integral by a full unit through a half-integer middle,
and flip the zero-energy tail slope.  An asymmetric step well checks the
exceptional threshold with gamma away from +-1 against its closed form.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from levlab.errors import ClassificationAmbiguous, SymmetryRequired
from levlab.loops import Sector
from levlab.potentials import Potential, gaussian_wells, square_well
from levlab.reporting import tuned_resonance_depth
from levlab.scattering import PotentialAnalysis, zero_energy_tail_slope

STEP = 0.15


@pytest.fixture(scope="module")
def below():
    return PotentialAnalysis(square_well(tuned_resonance_depth("odd") - STEP, 1.0))


@pytest.fixture(scope="module")
def at_odd():
    return PotentialAnalysis(square_well(tuned_resonance_depth("odd"), 1.0))


@pytest.fixture(scope="module")
def above():
    return PotentialAnalysis(square_well(tuned_resonance_depth("odd") + STEP, 1.0))


@pytest.fixture(scope="module")
def at_even():
    return PotentialAnalysis(square_well(tuned_resonance_depth("even"), 1.0))


def test_bound_state_count_steps(below, at_odd, above):
    assert below.bound_states() == 1
    assert at_odd.bound_states() == 1  # the new level is exactly at threshold
    assert above.bound_states() == 2


def test_classification_walks_generic_exceptional_generic(below, at_odd, above):
    assert not below.resonance.is_exceptional
    rc = at_odd.resonance
    assert rc.is_exceptional and abs(rc.gamma + 1.0) < 1e-9
    assert not above.resonance.is_exceptional


def test_time_delay_steps_through_half_integer(below, at_odd, above):
    assert abs(below.time_delay() - 0.5) < 1e-6
    assert abs(at_odd.time_delay() - 1.0) < 1e-6
    assert abs(above.time_delay() - 1.5) < 1e-6


def test_totals_track_bound_states(below, at_odd, above):
    for analysis in (below, at_odd, above):
        report = analysis.report(Sector.FULL)
        assert abs(report.total + analysis.bound_states()) < 1e-6


def test_tail_slope_flips_sign(below, above):
    s_below = zero_energy_tail_slope(below.potential)
    s_above = zero_energy_tail_slope(above.potential)
    assert s_below * s_above < 0


@pytest.mark.parametrize("fixture", ["below", "at_odd", "above", "at_even"])
def test_sector_windings_add_up(fixture, request):
    analysis = request.getfixturevalue(fixture)
    full = analysis.report(Sector.FULL)
    even = analysis.report(Sector.EVEN)
    odd = analysis.report(Sector.ODD)
    for j in range(4):
        assert abs(full.w[j] - (even.w[j] + odd.w[j])) <= 1e-6
    assert full.n_bound == even.n_bound + odd.n_bound


def test_at_most_one_exceptional_sector(at_odd, at_even, below):
    def flags(analysis):
        return [
            analysis.sector_resonance(s).is_exceptional
            for s in (Sector.EVEN, Sector.ODD)
        ]

    assert flags(at_odd) == [False, True]
    assert flags(at_even) == [True, False]
    assert flags(below) == [False, False]


def test_odd_resonance_sector_split(at_odd):
    even = at_odd.report(Sector.EVEN)
    odd = at_odd.report(Sector.ODD)
    assert max(abs(a - b) for a, b in zip(even.w, (-0.5, -0.5, 0.0, 0.0))) < 1e-6
    assert max(abs(a - b) for a, b in zip(odd.w, (0.5, -0.5, 0.0, 0.0))) < 1e-6
    assert even.n_bound == 1 and odd.n_bound == 0


def test_even_resonance_counts(at_even):
    assert at_even.bound_states() == 2
    assert abs(at_even.time_delay() - 2.0) < 1e-6
    even = at_even.report(Sector.EVEN)
    odd = at_even.report(Sector.ODD)
    assert even.n_bound == 1 and odd.n_bound == 1


def test_sector_reports_need_symmetry():
    analysis = PotentialAnalysis(gaussian_wells([(2.0, 0.7, 0.5)]))
    with pytest.raises(SymmetryRequired):
        analysis.report(Sector.EVEN)


# --- asymmetric exceptional threshold ---------------------------------------


def step_well(d1):
    """V = -d1 on [-1, 0), -4 on [0, 1], zero elsewhere."""

    def profile(x):
        return np.where((x >= -1.0) & (x < 0.0), -d1, np.where((x >= 0.0) & (x <= 1.0), -4.0, 0.0))

    return Potential(profile=profile, support_radius=1.0, breakpoints=(-1.0, 0.0, 1.0))


def step_well_gamma(d1):
    """Zero-energy solution flat at x = -1, evaluated at x = 1: cos(q (x + 1))
    on the left step, matched at 0 to the right step's wavenumber 2."""
    q = math.sqrt(d1)
    return math.cos(q) * math.cos(2.0) - 0.5 * q * math.sin(q) * math.sin(2.0)


@pytest.fixture(scope="module")
def step_depth():
    """Left depth at which the zero-energy solution leaves the well flat."""

    def slope(d1):
        return zero_energy_tail_slope(step_well(d1))

    return brentq(slope, 1.5, 1.8, xtol=1e-13, rtol=8.9e-16)


def test_asymmetric_exceptional_threshold_matches_closed_form(step_depth):
    analysis = PotentialAnalysis(step_well(step_depth))
    gamma = analysis.resonance.gamma
    assert abs(gamma - step_well_gamma(step_depth)) < 1e-12
    assert abs(abs(gamma) - 1.0) > 0.3  # far from the symmetric values +-1
    report = analysis.report(Sector.FULL)
    assert report.n_bound == 1
    assert max(abs(a - b) for a, b in zip(report.w, (0.0, -1.0, 0.0, 0.0))) < 1e-9
    assert abs(analysis.time_delay() - 1.0) < 1e-9


@pytest.mark.parametrize(
    "eps", [0.0] + [s * e for e in (1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.03, 0.3) for s in (1, -1)]
)
def test_asymmetric_threshold_sweep_refuses_or_certifies(step_depth, eps):
    """Across the dead zone each depth either raises ClassificationAmbiguous
    or certifies: the index identity holds, the delay is N + correction, and
    the bound-state count steps from 1 to 2 where the level crosses zero.
    The tuned depth and depths 3% or more away always certify."""
    analysis = PotentialAnalysis(step_well(step_depth * (1.0 + eps)))
    try:
        report = analysis.report(Sector.FULL)
    except ClassificationAmbiguous:
        assert 0.0 < abs(eps) < 0.03
        return
    assert report.residual < 1e-6
    assert abs(analysis.time_delay() - (report.n_bound + report.correction)) < 1e-6
    deeper_generic = eps > 0 and not report.resonance.is_exceptional
    assert report.n_bound == (2 if deeper_generic else 1)
