"""Closed-form square-well amplitudes as an independent oracle.

The formulas below are derived by hand from matching plane waves across the
two edges of the well and are deliberately kept separate from the transfer
machinery they check.
"""

import math

import numpy as np
import pytest

from levlab.potentials import square_well
from levlab.propagate import BLOCK_ELEMENTS, TransferEngine, build_mesh
from levlab.scattering import PotentialAnalysis


def closed_form_amplitudes(depth, half_width, kappa):
    """(t, r) for the well of the given depth on [-a, a], scattering energy
    kappa^2.  Phases referenced to plane waves exp(+-i kappa x)."""
    a = half_width
    q = math.sqrt(kappa * kappa + depth)
    s, c = math.sin(2 * q * a), math.cos(2 * q * a)
    denom = c - 1j * (kappa * kappa + q * q) / (2 * kappa * q) * s
    phase = complex(math.cos(2 * kappa * a), -math.sin(2 * kappa * a))
    t = phase / denom
    r = 1j * (q * q - kappa * kappa) / (2 * kappa * q) * s * phase / denom
    return t, r


def closed_form_bound_count(depth, half_width):
    """Number of negative-energy levels, valid away from resonant depths."""
    return 1 + math.floor(2 * half_width * math.sqrt(depth) / math.pi)


KAPPAS = np.geomspace(1e-3, 50.0, 40)
CASES = [(d, a) for d in (0.3, 1.0, 7.3) for a in (0.5, 1.0, 2.2)]


def test_oracle_is_unitary():
    # (k^2+q^2)^2 - (q^2-k^2)^2 = 4 k^2 q^2 forces |t|^2 + |r|^2 = 1
    for depth, a in CASES:
        for kappa in KAPPAS:
            t, r = closed_form_amplitudes(depth, a, kappa)
            assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-13
            # off-diagonal unitarity of [[t, r], [r, t]]
            assert abs((t * np.conj(r)).real) < 1e-13


def test_oracle_high_energy_transparency():
    t, r = closed_form_amplitudes(1.0, 1.0, 1e6)
    assert abs(t - 1.0) < 2e-6
    assert abs(r) < 2e-6


def test_oracle_threshold_reflection():
    # generic thresholds reflect totally with phase -1
    t, r = closed_form_amplitudes(1.0, 1.0, 1e-8)
    assert abs(r + 1.0) < 1e-6
    assert abs(t) < 1e-6


@pytest.mark.parametrize("depth,half_width", CASES)
def test_transfer_matches_closed_form(depth, half_width):
    pot = square_well(depth, half_width)
    mesh = build_mesh(pot, -half_width, half_width)
    engine = TransferEngine(mesh)
    t_num, r_left, r_right = engine.plane_wave_coefficients(KAPPAS)
    for i, kappa in enumerate(KAPPAS):
        t_ref, r_ref = closed_form_amplitudes(depth, half_width, kappa)
        assert abs(t_num[i] - t_ref) < 1e-10
        assert abs(r_left[i] - r_ref) < 1e-10
        # symmetric potential: equal reflections from either side
        assert abs(r_right[i] - r_ref) < 1e-10


# A wide well on a mesh of 12101 cells, an odd count, so every batch of two
# or more momenta spans several propagator blocks and the tree product carries
# odd trailing cells.  The mesh runs on past the right edge of the well: the
# free cells there make the product order matter, while the plane-wave
# amplitudes stay those of the well.
WIDE_DEPTH, WIDE_HALF_WIDTH = 1.0, 300.0125
WIDE_KAPPAS = np.geomspace(1e-3, 50.0, 200)


@pytest.fixture(scope="module")
def wide_engine():
    pot = square_well(WIDE_DEPTH, WIDE_HALF_WIDTH)
    engine = TransferEngine(build_mesh(pot, -WIDE_HALF_WIDTH, WIDE_HALF_WIDTH + 5.0))
    assert engine.mesh.n_cells % 2 == 1
    assert 2 * engine.mesh.n_cells > BLOCK_ELEMENTS
    return engine


@pytest.mark.parametrize("batch", [1, 2, 10, 200])
def test_multi_block_transfer_matches_closed_form(wide_engine, batch):
    kappas = WIDE_KAPPAS[:: 200 // batch][:batch]
    t_num, r_left, r_right = wide_engine.plane_wave_coefficients(kappas)
    for i, kappa in enumerate(kappas):
        t_ref, r_ref = closed_form_amplitudes(WIDE_DEPTH, WIDE_HALF_WIDTH, kappa)
        assert abs(t_num[i] - t_ref) < 1e-10
        assert abs(r_left[i] - r_ref) < 1e-10
        assert abs(r_right[i] - r_ref) < 1e-10


def test_transfer_does_not_depend_on_batch(wide_engine):
    batched = np.array(wide_engine.transfer(WIDE_KAPPAS))
    for i in (0, 57, 199):
        alone = np.array(wide_engine.transfer(WIDE_KAPPAS[i : i + 1]))[:, 0]
        scale = np.max(np.abs(batched[:, i]))
        assert np.max(np.abs(alone - batched[:, i])) < 1e-12 * scale


@pytest.mark.parametrize(
    "depth,half_width",
    [(0.3, 0.5), (1.0, 1.0), (7.3, 1.0), (7.3, 2.2)],
)
def test_bound_state_counters_match_formula(depth, half_width):
    expected = closed_form_bound_count(depth, half_width)
    analysis = PotentialAnalysis(square_well(depth, half_width))
    assert analysis.n_bound_shooting == expected
    assert analysis.n_bound_fd == expected
    assert analysis.bound_states() == expected
