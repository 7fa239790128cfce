"""Numerical scattering pipeline: grids, bases, threshold classification."""

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from levlab.errors import ClassificationAmbiguous, DecayTooSlow
from levlab.loops import Sector
from levlab.potentials import Potential, gaussian_wells, square_well, zero_potential
from levlab.propagate import TransferEngine, build_mesh, sturm_negative_count, truncation_radius
from levlab.reporting import tuned_resonance_depth
from levlab.scattering import (
    PotentialAnalysis,
    SolverSettings,
    count_bound_states_shooting,
    to_even_odd,
    zero_energy_tail,
    zero_energy_tail_slope,
)


def test_basis_change_swap_matrix():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(to_even_odd(swap), np.diag([1.0, -1.0]))


def test_basis_change_is_involutive():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    assert np.allclose(to_even_odd(to_even_odd(m)), m, atol=1e-14)


def test_zero_potential_analysis():
    analysis = PotentialAnalysis(zero_potential())
    assert analysis.bound_states() == 0
    rc = analysis.resonance
    assert rc.is_exceptional and abs(rc.gamma - 1.0) < 1e-12
    report = analysis.report(Sector.FULL)
    assert max(abs(x) for x in report.w) < 1e-9
    assert abs(report.total) < 1e-9
    assert abs(analysis.time_delay()) < 1e-9


def test_grid_is_unitary_and_ascending():
    data = PotentialAnalysis(square_well(1.0, 1.0)).scattering
    assert np.all(np.diff(data.kappas) > 0)
    assert data.unitarity_defect() < 1e-10
    assert data.in_even_odd().unitarity_defect() < 1e-10


def test_symmetric_well_reflections_coincide():
    pot = gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)])
    assert pot.symmetric
    radius = truncation_radius(pot)
    engine = TransferEngine(pot, build_mesh(pot, -radius, radius))
    kappas = np.geomspace(0.02, 10.0, 15)
    _, r_left, r_right = engine.plane_wave_coefficients(kappas)
    assert np.max(np.abs(r_left - r_right)) < 1e-8


def test_asymmetric_well_reflections_differ():
    pot = gaussian_wells([(2.0, 0.7, 0.5)])
    assert not pot.symmetric
    radius = truncation_radius(pot)
    engine = TransferEngine(pot, build_mesh(pot, -radius, radius))
    kappas = np.geomspace(0.02, 10.0, 15)
    _, r_left, r_right = engine.plane_wave_coefficients(kappas)
    assert np.max(np.abs(r_left - r_right)) > 1e-3


def test_sturm_count_matches_eigenvalues():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 200):
        diag = rng.normal(size=n)
        off = rng.normal(size=n - 1)
        expected = int(np.sum(eigvalsh_tridiagonal(diag, off) < 0.0))
        assert sturm_negative_count(diag, off) == expected
    # a zero pivot counts as negative: [[0, 1], [1, 1]] has one negative eigenvalue
    assert sturm_negative_count(np.array([0.0, 1.0]), np.array([1.0])) == 1


def test_zero_energy_solution_is_computed_once():
    pot = gaussian_wells([(6.0, 0.4, 0.8), (3.0, -1.1, 0.5)])
    radius = truncation_radius(pot)
    mesh = build_mesh(pot, -radius, radius)
    engine = TransferEngine(pot, mesh)
    first = engine.edge_states()
    second = engine.edge_states()
    for a, b in zip(first, second):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    settings = SolverSettings()
    fresh = TransferEngine(pot, mesh)
    assert count_bound_states_shooting(engine, settings) == count_bound_states_shooting(fresh, settings)
    assert zero_energy_tail(engine) == zero_energy_tail(fresh)
    assert np.array_equal(engine.edge_states()[1], fresh.edge_states()[1])


# --- threshold classification near a tuned resonance ------------------------


def test_far_from_resonance_is_generic():
    depth = tuned_resonance_depth("odd") + 0.05
    rc = PotentialAnalysis(square_well(depth, 1.0)).resonance
    assert not rc.is_exceptional


def test_near_resonance_is_exceptional():
    depth = tuned_resonance_depth("odd") + 1e-7
    rc = PotentialAnalysis(square_well(depth, 1.0)).resonance
    assert rc.is_exceptional
    assert abs(rc.gamma + 1.0) < 1e-3


def test_dead_zone_refuses_to_classify():
    depth = tuned_resonance_depth("odd") + 1e-4
    with pytest.raises(ClassificationAmbiguous):
        PotentialAnalysis(square_well(depth, 1.0)).resonance


def test_tail_slope_changes_sign_across_resonance():
    root = tuned_resonance_depth("odd")
    below = zero_energy_tail_slope(square_well(root - 0.1, 1.0))
    above = zero_energy_tail_slope(square_well(root + 0.1, 1.0))
    assert below * above < 0


# --- tails outside the short-range class ------------------------------------


def test_slow_tail_warns_then_fails_truncation():
    with pytest.warns(UserWarning, match="tail decay"):
        pot = Potential(
            profile=lambda x: -1.0 / (1.0 + np.asarray(x) ** 2),
            decay_exponent=2.0,
            symmetric=True,
            label="lorentzian well",
        )
    with pytest.raises(DecayTooSlow):
        truncation_radius(pot)
