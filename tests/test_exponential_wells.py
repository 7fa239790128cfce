"""Smooth exceptional thresholds against exponential wells in closed form.

V = -A e^(-x/a) for x >= 0 and -B e^(x/b) for x < 0.  At zero energy each
side is Bessel's equation of order 0, in z = 2 a sqrt(A) e^(-x/(2a)) on the
right and w = 2 b sqrt(B) e^(x/(2b)) on the left, so the solution flat at
-inf is J0(w) and the one flat at +inf is J0(z).  With z0 = 2 a sqrt(A) and
w0 = 2 b sqrt(B), matching at 0 makes the threshold exceptional exactly
where

    F = sqrt(A) J1(z0) J0(w0) + sqrt(B) J1(w0) J0(z0) = 0,

and then gamma = J0(w0) / J0(z0).  When A = B and a = b the even sector is
exceptional at the zeros of J1 and the odd sector at those of J0, and the
sector counts are 1 + #{j_(1,n) < z0} even and #{j_(0,n) < z0} odd states.

Unlike the step well of ``test_thresholds.py`` the profile is smooth off 0,
so the Magnus cells are not exact and the mesh ladder runs at an
asymmetric exceptional threshold.  The tuned depths come from the closed
form, not from the engine.  Each bound sits 5x or more above the margin
measured on these wells.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j0, j1, jn_zeros

from levlab.loops import Sector
from levlab.potentials import Potential
from levlab.scattering import PotentialAnalysis


def exponential_well(A, a, B, b):
    def profile(x):
        return np.where(x >= 0.0, -A * np.exp(-np.abs(x) / a), -B * np.exp(-np.abs(x) / b))

    return Potential(
        profile=profile,
        symmetric=(A, a) == (B, b),
        breakpoints=(0.0,),
        features=((0.0, min(a, b)),),
        tail_bound=lambda level: max(0.0, a * math.log(A / level), b * math.log(B / level)),
    )


def matching(A, a, B, b):
    """F, whose zeros in A are the exceptional depths."""
    z0, w0 = 2.0 * a * math.sqrt(A), 2.0 * b * math.sqrt(B)
    return math.sqrt(A) * j1(z0) * j0(w0) + math.sqrt(B) * j1(w0) * j0(z0)


# a = 1, B = 3, b = 0.5: the first two exceptional depths lie in these brackets.
ASYMMETRIC = (1.0, 3.0, 0.5)
BRACKETS = [(1.5, 3.0), (9.0, 11.0)]


@pytest.mark.parametrize("n_bound,bracket", enumerate(BRACKETS, start=1))
def test_asymmetric_tuned_depth_matches_closed_form(n_bound, bracket):
    a, B, b = ASYMMETRIC
    A = brentq(matching, *bracket, args=(a, B, b), xtol=1e-15, rtol=8.9e-16)
    analysis = PotentialAnalysis(exponential_well(A, a, B, b))
    resonance = analysis.resonance
    assert resonance.is_exceptional
    gamma = j0(2.0 * b * math.sqrt(B)) / j0(2.0 * a * math.sqrt(A))
    assert abs(abs(gamma) - 1.0) > 0.5  # far from the symmetric values +-1
    assert abs(resonance.gamma - gamma) < 5e-12  # measured 1.3e-13 and 7.7e-13
    assert analysis.bound_states() == n_bound
    report = analysis.report(Sector.FULL)
    assert max(abs(u - v) for u, v in zip(report.w, (0.0, -n_bound, 0.0, 0.0))) < 1e-12
    assert report.residual < 1e-12  # measured at most 4.4e-16
    assert abs(analysis.time_delay() - n_bound) < 1e-12  # measured at most 8.9e-16


@pytest.mark.parametrize("A", [0.3, 2.0, 7.5, 20.0, 55.0])
def test_symmetric_sector_counts_match_bessel_zeros(A):
    analysis = PotentialAnalysis(exponential_well(A, 1.0, A, 1.0))
    z0 = 2.0 * math.sqrt(A)
    even = 1 + int(np.sum(jn_zeros(1, 10) < z0))
    odd = int(np.sum(jn_zeros(0, 10) < z0))
    assert (analysis.sector_bound_states(Sector.EVEN), analysis.sector_bound_states(Sector.ODD)) == (even, odd)


@pytest.mark.parametrize(
    "order,index", [(1, 0), (1, 1), (0, 0), (0, 1)], ids=["J1-first", "J1-second", "J0-first", "J0-second"]
)
def test_symmetric_exceptional_depths_at_bessel_zeros(order, index):
    """At z0 = j_(1,n) the even sector is exceptional with gamma = +1; at
    z0 = j_(0,n) the odd sector, with gamma = -1."""
    A = (jn_zeros(order, 2)[index] / 2.0) ** 2
    analysis = PotentialAnalysis(exponential_well(A, 1.0, A, 1.0))
    sign = 1.0 if order == 1 else -1.0
    assert analysis.resonance.is_exceptional
    assert abs(analysis.resonance.gamma - sign) < 3e-11  # measured 1.5e-13 to 6.2e-12
    flags = [analysis.sector_resonance(s).is_exceptional for s in (Sector.EVEN, Sector.ODD)]
    assert flags == ([True, False] if order == 1 else [False, True])
