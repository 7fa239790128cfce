"""Winding engine on paths with analytically known answers."""

import bisect
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from levlab.errors import CornerMismatch, NonUnitaryPath, PhaseJumpTooLarge
from levlab.loops import (
    BoundaryPath,
    ResonanceClass,
    Sector,
    interpolated_path,
    loop_winding,
    winding,
)
from levlab.potentials import gaussian_wells, square_well
from levlab.reporting import tuned_exceptional_well
from levlab.scattering import PotentialAnalysis


def phase_path(turns):
    """det winds exactly ``turns`` times: diag(exp(2 pi i turns t), 1)."""

    def evaluate(t):
        return np.diag([np.exp(2j * np.pi * turns * t), 1.0])

    return BoundaryPath(evaluate)


def arc_path(phi_start, phi_end):
    """diag(exp(i phi), 1) with the phase moving linearly between the ends."""

    def evaluate(t):
        return np.diag([np.exp(1j * (phi_start + (phi_end - phi_start) * t)), 1.0])

    return BoundaryPath(evaluate)


def identity_path():
    return BoundaryPath(lambda t: np.eye(2, dtype=complex))


def test_constant_path_has_zero_winding():
    assert winding(identity_path()) == 0.0


@pytest.mark.parametrize("turns", [-2, -1, 1, 3])
def test_integer_turns(turns):
    assert abs(winding(phase_path(turns)) - turns) < 1e-12


def test_half_turn():
    assert abs(winding(arc_path(0.0, -np.pi)) + 0.5) < 1e-12


def test_reversal_negates():
    path = phase_path(2)
    reversed_path = BoundaryPath(lambda t: path.eval(1.0 - t))
    assert abs(winding(reversed_path) + 2.0) < 1e-12


def test_reparametrisation_invariance():
    base = arc_path(0.0, 3.0)

    def smooth(t):
        return t * t * (3.0 - 2.0 * t)

    warped = BoundaryPath(lambda t: base.eval(smooth(t)))
    assert abs(winding(base) - winding(warped)) < 1e-9


def test_concatenation_adds():
    a = arc_path(0.0, np.pi)
    b = arc_path(np.pi, 3.0 * np.pi)
    joined = BoundaryPath(lambda t: a.eval(2.0 * t) if t <= 0.5 else b.eval(2.0 * t - 1.0))
    assert abs(winding(joined) - (winding(a) + winding(b))) < 1e-9


def test_jump_discontinuity_is_detected():
    def evaluate(t):
        return np.diag([1.0 + 0.0j, 1.0]) if t < 0.5 else np.diag([-1.0 + 0.0j, 1.0])

    path = BoundaryPath(evaluate)
    with pytest.raises(PhaseJumpTooLarge):
        winding(path, max_samples=4097)


def test_loop_corner_mismatch_raises():
    """A momentum side whose end value cannot be reproduced leaves a gap at
    the B1-B2 corner: the connector ends where B2 started on the first call."""
    calls = []

    def drifting(t):
        calls.append(t)
        return np.diag([-1.0, 1.0]) if len(calls) == 1 else np.eye(2)

    with pytest.raises(CornerMismatch):
        loop_winding(BoundaryPath(drifting), n_bound=0, resonance=ResonanceClass.generic())


def test_closed_identity_loop():
    report = loop_winding(identity_path(), n_bound=0, resonance=ResonanceClass.generic())
    assert report.w == (0.0, 0.0, 0.0, 0.0)
    assert report.total == 0.0
    assert report.correction == 0.0


def test_boundary_loop_closes_the_momentum_side(wound_paths):
    """B1 runs from the identity to B2's start and winds -1/2 at a generic
    start; B3 from an identity end back to the identity and B4 do not wind.
    Only B2 is sampled."""
    b2 = arc_path(-np.pi, 0.0)  # diag(-1, 1) to the identity, half a turn up
    # the smallest positive tolerance: only corners that meet exactly pass
    report = loop_winding(
        b2, n_bound=0, resonance=ResonanceClass.generic(), corner_tol=math.ulp(0.0)
    )
    (same,) = wound_paths
    assert same is b2
    w1, w2, w3, w4 = report.w
    assert (w1, w3, w4) == (-0.5, 0.0, 0.0)
    assert math.copysign(1.0, w3) == 1.0  # +0.0: the tables print 0.0000, not -0.0000
    assert abs(w2 - 0.5) < 1e-12


def test_doubling_evaluates_each_parameter_once():
    """Each doubling reuses the samples it already has; the result equals the
    phase-step sum over the final grid, bit for bit."""
    base = phase_path(200)  # two doublings: 257 samples alias, 513 step > pi/2
    calls = {}

    def counting(t):
        calls[t] = calls.get(t, 0) + 1
        return base.eval(t)

    result = winding(BoundaryPath(counting))
    assert max(calls.values()) == 1
    n_final = len(calls)
    assert n_final == 1025
    ts = np.linspace(0.0, 1.0, n_final)
    assert set(calls) == set(float(t) for t in ts)
    dets = np.array([np.linalg.det(base.eval(float(t))) for t in ts])
    steps = np.angle(dets[1:] * np.conj(dets[:-1]))
    assert result == float(steps.sum() / (2.0 * np.pi))
    assert abs(result - 200) < 1e-9


@given(st.integers(-3, 3))
def test_integer_turns_exact(turns):
    assert abs(winding(phase_path(turns)) - turns) < 1e-10


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _svd_polar(m):
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _polar_factor(m00, m01, m10, m11):
    """Unitary polar factor of [[m00, m01], [m10, m11]] in closed form.

    With det M = |det M| e^(i phi) and M = U P, Cayley-Hamilton for the
    positive factor, P + det(P) P^-1 = tr(P) 1, gives
    M + e^(i phi) adj(M)^H = tr(P) U; tr(P) is the norm of either column.
    """
    det = m00 * m11 - m01 * m10
    phase = det / abs(det)
    n00 = m00 + phase * m11.conjugate()
    n10 = m10 - phase * m01.conjugate()
    inv = 1.0 / math.sqrt(abs(n00) ** 2 + abs(n10) ** 2)
    return np.array(
        [
            [n00 * inv, (m01 - phase * m10.conjugate()) * inv],
            [n10 * inv, (m11 + phase * m00.conjugate()) * inv],
        ]
    )


def polar_interpolated_path(node_params, node_values):
    """Reference momentum side, built apart from ``interpolated_path``: the
    linear interpolant of neighbouring nodes, projected onto U(2)."""
    knots = list(node_params)
    us = np.asarray(node_values, dtype=complex)

    def evaluate(t):
        j = min(bisect.bisect_right(knots, t) - 1, len(knots) - 2)
        theta = (t - knots[j]) / (knots[j + 1] - knots[j])
        return _polar_factor(*((1.0 - theta) * us[j] + theta * us[j + 1]).ravel().tolist())

    return BoundaryPath(evaluate)


def _det_phase(m):
    return np.angle(np.linalg.det(m))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.5), st.floats(0.0, 1.0))
def test_interpolant_det_phase_matches_svd_polar_factor(seed, step, theta):
    rng = np.random.default_rng(seed)
    u = _random_unitary(rng)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = u @ scipy.linalg.expm(1j * step * (a + a.conj().T))  # a nearby unitary
    m = (1.0 - theta) * u + theta * v
    polar = _svd_polar(m)
    got = interpolated_path([0.0, 1.0], [u, v]).eval(theta)
    gap = abs(np.angle(np.exp(1j * (_det_phase(got) - _det_phase(polar)))))
    assert gap < 1e-14
    # the reference factor of the oracle below is this polar factor
    assert np.max(np.abs(_polar_factor(*m.ravel().tolist()) - polar)) < 1e-14


def test_interpolated_path_is_linear_between_nodes():
    rng = np.random.default_rng(7)
    nodes = [_random_unitary(rng) for _ in range(2)]
    path = interpolated_path([0.0, 1.0], nodes)
    assert np.array_equal(path.eval(0.0), nodes[0])
    assert np.array_equal(path.eval(1.0), nodes[1])
    for theta in (0.25, 0.5, 0.9):
        assert np.array_equal(path.eval(theta), (1.0 - theta) * nodes[0] + theta * nodes[1])


def test_singular_interpolant_raises():
    # halfway from 1 to -1 the interpolant is the zero matrix: no unitary
    # factor exists, and the winding must not invent one
    path = interpolated_path([0.0, 1.0], [np.eye(2), -np.eye(2)])
    with pytest.raises(NonUnitaryPath):
        path.eval(0.5)
    with pytest.raises(NonUnitaryPath):
        winding(path)


_REFERENCE_WELLS = {
    "square-well": lambda: square_well(1.0, 1.0),
    "odd-resonance": lambda: tuned_exceptional_well("odd"),
    "even-resonance": lambda: tuned_exceptional_well("even"),
    "symmetric-pair": lambda: gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)]),
}


def _assert_windings_match_polar_reference(analysis):
    """Every sector's windings equal those of the loop whose momentum side
    is the polar interpolant through the same nodes: the linear interpolant
    has the same det phase."""
    sectors = [Sector.FULL]
    if analysis.potential.symmetric:
        sectors += [Sector.EVEN, Sector.ODD]
    s = analysis.settings
    for sector in sectors:
        report = analysis.report(sector)
        reference = loop_winding(
            polar_interpolated_path(*analysis._b2_nodes(sector)),
            n_bound=report.n_bound,
            resonance=report.resonance,
            corner_tol=s.corner_tol,
            n_samples=s.winding_samples,
            tol=s.winding_tol,
        )
        gap = max(abs(a - b) for a, b in zip(report.w, reference.w))
        assert gap < 1e-12, (sector, report.w, reference.w)


@pytest.mark.parametrize("name", list(_REFERENCE_WELLS))
def test_windings_match_polar_reference(name):
    _assert_windings_match_polar_reference(PotentialAnalysis(_REFERENCE_WELLS[name]()))


@pytest.mark.parametrize("member", [9, 2, 3])
def test_random_well_windings_match_polar_reference(well_family, member):
    _assert_windings_match_polar_reference(well_family[member])
