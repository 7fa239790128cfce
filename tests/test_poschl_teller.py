"""Poschl-Teller wells as a closed-form oracle for a smooth potential.

V = -lambda (lambda + 1) sech^2 x is solved exactly (G. Poschl and E. Teller,
Z. Phys. 83 (1933) 143; Landau-Lifshitz, QM, Sec. 25):

* t(k) = G(1 + lambda - ik) G(-lambda - ik) / (G(1 - ik) G(-ik));
* r(k) = G(1 + lambda - ik) G(-lambda - ik) G(ik) /
  (G(-lambda) G(1 + lambda) G(-ik)), which vanishes at integer lambda;
* bound states at kappa_n = lambda - n > 0, so N = ceil(lambda), of
  parity (-1)^n: ceil(N / 2) even and floor(N / 2) odd;
* at integer lambda a zero-energy half-bound state P_lambda(tanh x): an
  exceptional threshold with gamma = (-1)^lambda, in the sector of parity
  (-1)^lambda.

The amplitudes are evaluated with complex log-gamma, independently of the
transfer machinery they check.
"""

import math

import numpy as np
import pytest
from scipy.special import loggamma, rgamma

from levlab.errors import ClassificationAmbiguous
from levlab.loops import ResonanceClass, Sector
from levlab.scattering import PotentialAnalysis, zero_energy_tail

from conftest import sech2_well

KAPPAS = np.array([0.05, 0.3, 1.0, 3.0, 10.0])
AMPLITUDE_TOL = 1e-9
WINDING_TOL = 1e-9


def closed_form_amplitudes(lam: float, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, r) of the sech^2 well, phases referenced to exp(+-i kappa x)."""
    ik = 1j * kappa
    common = loggamma(1.0 + lam - ik) + loggamma(-lam - ik)
    t = np.exp(common - loggamma(1.0 - ik) - loggamma(-ik))
    # 1 / G(-lambda) is 0 at integer lambda, where loggamma has a pole.
    r = np.exp(common + loggamma(ik) - loggamma(-ik)) * (rgamma(-lam) * rgamma(1.0 + lam))
    return t, r


@pytest.fixture(scope="module")
def analyses():
    cache = {}

    def get(lam):
        if lam not in cache:
            cache[lam] = PotentialAnalysis(sech2_well(lam))
        return cache[lam]

    return get


def test_oracle_is_unitary():
    for lam in (0.5, 1.0, 2.3):
        t, r = closed_form_amplitudes(lam, KAPPAS)
        assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.5, 2.3, 1.0, 2.0])
def test_converged_amplitudes_match_closed_form(analyses, lam):
    t, r_left, r_right = analyses(lam).engine.plane_wave_coefficients(KAPPAS)
    t_ref, r_ref = closed_form_amplitudes(lam, KAPPAS)
    assert np.max(np.abs(t - t_ref)) < AMPLITUDE_TOL
    # symmetric potential: equal reflections from either side
    assert np.max(np.abs(r_left - r_ref)) < AMPLITUDE_TOL
    assert np.max(np.abs(r_right - r_ref)) < AMPLITUDE_TOL


@pytest.mark.parametrize("lam", [0.5, 1.5, 2.3])
def test_every_grid_node_matches_closed_form(analyses, lam):
    """The dumped S at every node of the refined grid, kappa 1e-4 to 1e3,
    not only at the engine's probe momenta."""
    data = analyses(lam).scattering
    t, r = closed_form_amplitudes(lam, data.kappas)
    expected = np.stack([np.stack([t, r], axis=-1), np.stack([r, t], axis=-1)], axis=-2)
    assert np.max(np.abs(data.matrices - expected)) < AMPLITUDE_TOL


@pytest.mark.parametrize("lam", [0.5, 1.5, 2.3])
def test_generic_wells(analyses, lam):
    analysis = analyses(lam)
    n = math.ceil(lam)
    assert analysis.n_bound_shooting == n
    assert analysis.n_bound_fd == n
    assert analysis.resonance.gamma is None
    report = analysis.report()
    assert report.w == pytest.approx((-0.5, -(n - 0.5), 0.0, 0.0), abs=WINDING_TOL)


@pytest.mark.parametrize("lam", [1, 2])
def test_exceptional_wells(analyses, lam):
    analysis = analyses(float(lam))
    assert analysis.n_bound_shooting == lam
    assert analysis.n_bound_fd == lam
    assert analysis.resonance.gamma == pytest.approx((-1.0) ** lam, abs=1e-6)
    report = analysis.report()
    assert report.w == pytest.approx((0.0, -float(lam), 0.0, 0.0), abs=WINDING_TOL)


_GENERIC = ResonanceClass.generic()

# lambda -> {sector: (w, n, sector class)}
SECTOR_TABLE = {
    0.5: {
        Sector.EVEN: ((-0.5, -0.5, 0.0, 0.0), 1, _GENERIC),
        Sector.ODD: ((0.0, 0.0, 0.0, 0.0), 0, _GENERIC),
    },
    1.0: {
        Sector.EVEN: ((-0.5, -0.5, 0.0, 0.0), 1, _GENERIC),
        Sector.ODD: ((0.5, -0.5, 0.0, 0.0), 0, ResonanceClass.exceptional(-1.0)),
    },
    1.5: {
        Sector.EVEN: ((-0.5, -0.5, 0.0, 0.0), 1, _GENERIC),
        Sector.ODD: ((0.0, -1.0, 0.0, 0.0), 1, _GENERIC),
    },
    2.0: {
        Sector.EVEN: ((0.0, -1.0, 0.0, 0.0), 1, ResonanceClass.exceptional(1.0)),
        Sector.ODD: ((0.0, -1.0, 0.0, 0.0), 1, _GENERIC),
    },
    2.3: {
        Sector.EVEN: ((-0.5, -1.5, 0.0, 0.0), 2, _GENERIC),
        Sector.ODD: ((0.0, -1.0, 0.0, 0.0), 1, _GENERIC),
    },
}


@pytest.mark.parametrize("sector", [Sector.EVEN, Sector.ODD], ids=lambda s: s.value)
@pytest.mark.parametrize("lam", list(SECTOR_TABLE))
def test_sector_reports(analyses, lam, sector):
    w, n, resonance = SECTOR_TABLE[lam][sector]
    report = analyses(lam).report(sector)
    assert report.n_bound == n
    assert report.resonance == resonance
    assert report.w == pytest.approx(w, abs=WINDING_TOL)
    assert report.residual < 1e-6


# Near-integer sweep, lambda = n +- eps.  The state nearest the threshold sits
# at kappa = eps (bound above n, virtual below), and the normalised tail slope
# of the zero-energy solution is about 27 eps: the default dead zone
# [1e-6, 1e-3] holds eps = 1e-5 and 1e-6.  Outcome each eps must reach; at
# eps missing here (1e-2, 1e-3) a refusal is admitted too, though the slope
# lies far above the dead zone.
NEAR_EPS = (0.3, 0.02, 1e-2, 1e-3, 1e-5, 1e-6, 1e-8)
NEAR_REQUIRED = {0.3: "generic", 0.02: "generic", 1e-5: "dead zone", 1e-6: "dead zone", 1e-8: "exceptional"}


@pytest.mark.parametrize("eps", NEAR_EPS)
@pytest.mark.parametrize("side", (-1, 1), ids=("below", "above"))
@pytest.mark.parametrize("n", (1, 2))
def test_near_integer_sweep_certifies_closed_form_or_refuses(analyses, n, side, eps):
    lam = n + side * eps
    analysis = analyses(lam)
    required = NEAR_REQUIRED.get(eps)
    try:
        resonance = analysis.resonance
    except ClassificationAmbiguous as exc:
        assert required in (None, "dead zone"), f"lambda = {lam!r} refused: {exc}"
        if required == "dead zone":
            assert "dead zone" in str(exc)
        return
    if resonance.is_exceptional:
        assert required == "exceptional", f"lambda = {lam!r} certified exceptional"
        assert resonance.gamma == pytest.approx((-1.0) ** n, abs=1e-6)
        count, w = n, (0.0, -float(n), 0.0, 0.0)
    else:
        assert required in (None, "generic"), f"lambda = {lam!r} certified generic"
        count = math.ceil(lam)
        w = (-0.5, -(count - 0.5), 0.0, 0.0)
    assert analysis.n_bound_shooting == count
    assert analysis.n_bound_fd == count
    report = analysis.report()
    assert report.n_bound == count
    assert report.w == pytest.approx(w, abs=WINDING_TOL)


@pytest.mark.parametrize("eps", NEAR_EPS)
@pytest.mark.parametrize("n", (1, 2))
def test_tail_slope_changes_sign_across_integer_lambda(analyses, n, eps):
    below, above = (zero_energy_tail(analyses(n + side * eps).engine)[3] for side in (-1, 1))
    assert below * above < 0.0
