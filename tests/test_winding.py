"""Winding engine on paths with analytically known answers, and the closed
form of every side of a loop against its sampled oracle."""

import bisect
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from levlab import loops
from levlab.cli import main
from levlab.errors import NonUnitaryPath, PhaseJumpTooLarge
from levlab.loops import (
    BoundaryPath,
    ResonanceClass,
    Sector,
    loop_report,
    restrict,
    unitarity_defect,
    winding,
)
from levlab.point import DELTA, DELTA_PRIME, PointInteraction, verify_levinson
from levlab.potentials import gaussian_wells, square_well
from levlab.reporting import tuned_exceptional_well
from levlab.scattering import PotentialAnalysis

from test_gamma_paths import sampled_connector


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


def sampled_connectors(start, end):
    """B1 and B3 sampled: the connectors to a momentum side's end values,
    the second run backwards, which negates its winding."""
    return winding(sampled_connector(start)), 0.0 - winding(sampled_connector(end))


def sampled_windings(b2, connectors=None):
    """Reference windings of the loop around the momentum side ``b2``, every
    side sampled: ``connectors``, or ``sampled_connectors`` of b2's end
    values, and ``b2`` itself, the one path handed to ``loops.winding``."""
    b1, b3 = connectors or sampled_connectors(b2.eval(0.0), b2.eval(1.0))
    return (b1, loops.winding(b2), b3, 0.0)


def test_closed_identity_loop():
    b2 = identity_path()
    report = loop_report([b2.eval(0.0), b2.eval(1.0)], n_bound=0, resonance=ResonanceClass.generic())
    assert report.w == sampled_windings(b2) == (0.0, 0.0, 0.0, 0.0)
    assert report.total == 0.0
    assert report.correction == 0.0


def test_loop_refuses_a_nan_end():
    """A momentum side that starts or ends on nan values leaves no loop: the
    loop refuses it, as the sampled connector to that end does."""
    nan = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(NonUnitaryPath):
        sampled_connector(nan)
    for nodes in ((nan, np.eye(2)), (np.eye(2), nan)):
        with pytest.raises(NonUnitaryPath):
            loop_report(nodes, n_bound=0, resonance=ResonanceClass.generic())


def test_boundary_loop_closes_the_momentum_side(wound_paths):
    """B1 runs from the identity to B2's start and winds -1/2 at a generic
    start; B3 from an identity end back to the identity and B4 do not wind.
    B2's nodes, an eighth of a turn apart, wind as the sampled side; only
    the reference samples it."""
    b2 = arc_path(-np.pi, 0.0)  # diag(-1, 1) to the identity, half a turn up
    nodes = [b2.eval(t) for t in np.linspace(0.0, 1.0, 5).tolist()]
    report = loop_report(nodes, n_bound=0, resonance=ResonanceClass.generic())
    reference = sampled_windings(b2)
    (same,) = wound_paths
    assert same is b2
    w1, w2, w3, w4 = report.w
    assert (w1, w3, w4) == (-0.5, 0.0, 0.0)
    assert math.copysign(1.0, w3) == 1.0  # +0.0: the tables print 0.0000, not -0.0000
    assert abs(w2 - 0.5) < 1e-12
    assert max(abs(a - b) for a, b in zip(report.w, reference)) < 1e-12


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


# A sampled value with |det| at or below this share of its squared Frobenius
# norm is singular to rounding, as on the chords of ``loop_report``.
SINGULAR_DET = 1e-14


def interpolated_path(node_params, node_values):
    """Sampled oracle for the chords of ``loop_report``: the piecewise-linear
    path through unitary nodes, (1 - theta) A + theta B between neighbours,
    as a path over the node parameters.

    Node parameters must increase strictly from 0 to 1; each node must be
    unitary to 1e-8.  A singular sampled value raises ``NonUnitaryPath``.
    """
    ts = np.asarray(node_params, dtype=float)
    us = np.asarray(node_values, dtype=complex)
    if ts.ndim != 1 or us.shape != (ts.size, 2, 2):
        raise ValueError("need matching 1d parameters and (n, 2, 2) values")
    if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
        raise ValueError("node parameters must increase strictly from 0 to 1")
    worst = unitarity_defect(us)
    if not worst < 1e-8:
        raise NonUnitaryPath(f"interpolation node is not unitary (defect {worst:.3e})")
    knots = ts.tolist()
    entries = us.reshape(-1, 4).tolist()
    last = len(knots) - 1

    def evaluate(t):
        t = min(max(float(t), 0.0), 1.0)
        j = bisect.bisect_right(knots, t) - 1
        if j >= last:
            return us[-1].copy()
        if t == knots[j]:
            return us[j].copy()
        theta = (t - knots[j]) / (knots[j + 1] - knots[j])
        m00, m01, m10, m11 = (
            (1.0 - theta) * p + theta * q for p, q in zip(entries[j], entries[j + 1])
        )
        size = abs(m00 * m11 - m01 * m10)
        scale = abs(m00) ** 2 + abs(m01) ** 2 + abs(m10) ** 2 + abs(m11) ** 2
        if not size > SINGULAR_DET * scale:  # also rejects nan
            raise NonUnitaryPath(f"interpolant is singular (|det| {size:.3e})")
        return np.array([[m00, m01], [m10, m11]])

    return BoundaryPath(evaluate)


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


def wind_chords(nodes, *, frame=True):
    """B2's winding in ``loop_report``.  ``frame`` puts an identity node,
    which is always admitted, at both ends of an arbitrary unitary stack, so
    B2 winds its chords from and back to the identity."""
    if frame:
        nodes = [np.eye(2), *nodes, np.eye(2)]
    return loop_report(nodes, n_bound=0, resonance=ResonanceClass.generic()).w[1]


def test_singular_interpolant_raises():
    """Halfway from 1 to -1 the chord is the zero matrix, and in the even
    sector its det 1 - 2 theta vanishes there: no det phase exists, and the
    closed form must not invent one.  Both ends are admitted, so only the
    chord is refused."""
    with pytest.raises(NonUnitaryPath, match="det vanishes"):
        wind_chords([np.eye(2), -np.eye(2)], frame=False)
    with pytest.raises(NonUnitaryPath, match="det vanishes"):
        wind_chords(restrict(np.array([np.eye(2), -np.eye(2)]), Sector.EVEN), frame=False)
    with pytest.raises(NonUnitaryPath):
        interpolated_path([0.0, 1.0], [np.eye(2), -np.eye(2)]).eval(0.5)


def test_chord_winding_refuses_non_unitary_nodes():
    """Nodes off unitary by more than 1e-8, nan nodes among them, are
    refused before any end is admitted; so are stacks of the wrong shape."""
    for frame in (False, True):
        with pytest.raises(NonUnitaryPath, match="not unitary"):
            wind_chords([np.eye(2), 1.01 * np.eye(2)], frame=frame)
        with pytest.raises(NonUnitaryPath, match="not unitary"):
            wind_chords([np.eye(2), np.full((2, 2), np.nan)], frame=frame)
    one_nan = np.array([[1.0, np.nan], [0.0, 1.0]])
    for nodes in ([np.eye(2), one_nan], [np.eye(2), np.eye(2), one_nan]):
        with pytest.raises(NonUnitaryPath, match="not unitary"):
            wind_chords(nodes, frame=False)
    for bad in (np.eye(2), np.eye(2)[None], np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match="stack of at least two nodes"):
            loop_report(bad, n_bound=0, resonance=ResonanceClass.generic())


def test_constant_chords_do_not_wind():
    """A chord between equal nodes adds exactly nothing to B2: around a
    constant admitted side B2 is 0.0 and the connectors cancel.  Framed by
    the identity, a constant stack winds out and back to rounding."""
    rotation = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    for s in (np.eye(2), np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]), rotation):
        report = loop_report([s, s, s], n_bound=0, resonance=ResonanceClass.generic())
        assert report.w[1] == 0.0 and report.w[0] + report.w[2] == 0.0
    u = _random_unitary(np.random.default_rng(3))
    v = np.diag([1.0, np.exp(0.7j)])
    for nodes in ([u, u, u], [v, v]):
        assert abs(wind_chords(nodes)) < 1e-15


def _chain(seed, steps, sector):
    """Unitary nodes, each a random unitary step exp(i step H) from the last.
    In a parity sector H is diagonal and the nodes are restricted to it."""
    rng = np.random.default_rng(seed)
    nodes = [_random_unitary(rng) if sector is Sector.FULL else np.diag(np.exp(2j * rng.normal(size=2)))]
    for step in steps:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if sector is not Sector.FULL:
            a = np.diag(np.diag(a))
        nodes.append(nodes[-1] @ scipy.linalg.expm(1j * step * (a + a.conj().T)))
    return restrict(np.array(nodes), sector)


def _min_det_share(nodes, n=2001):
    """Smallest |det| / |M|_F^2 over n points on each chord."""
    theta = np.linspace(0.0, 1.0, n)[:, None, None, None]
    m = (1.0 - theta) * nodes[:-1] + theta * nodes[1:]
    return float(np.min(np.abs(np.linalg.det(m)) / np.sum(np.abs(m) ** 2, axis=(-2, -1))))


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.0, 1.5), min_size=1, max_size=5),
    st.sampled_from(list(Sector)),
)
def test_chord_winding_matches_sampled_chords(seed, steps, sector):
    """Random unitary chords, with steps up to spectral norm 2, framed by
    identity nodes: B2 in closed form equals the sampled winding of the same
    framed chords to 1e-12.  A parity sector makes each chord's det linear
    in theta."""
    nodes = _chain(seed, steps, sector)
    framed = np.concatenate([[np.eye(2)], nodes, [np.eye(2)]])
    assume(_min_det_share(framed) > 1e-3)
    sampled = winding(interpolated_path(np.linspace(0.0, 1.0, len(framed)), framed))
    assert abs(wind_chords(nodes) - sampled) < 1e-12


def test_chord_steps_beyond_unit_norm_are_wound():
    """A chord from 1 to exp(i phi) with phi near pi has spectral norm near
    2; its det stays off zero and winds by the chord's own angle.  The
    chord on to the admitted end diag(-1, 1) is short, so B2 winds half a
    turn in the direction of phi."""
    for phi in (2.5, 3.0, -3.0):
        nodes = np.array([np.eye(2), np.diag([np.exp(1j * phi), 1.0]), np.diag([-1.0, 1.0])])
        assert np.linalg.norm(nodes[1] - nodes[0], 2) > 1.0
        assert abs(wind_chords(nodes, frame=False) - math.copysign(0.5, phi)) < 1e-15


_REFERENCE_WELLS = {
    "square-well": lambda: square_well(1.0, 1.0),
    "odd-resonance": lambda: tuned_exceptional_well("odd"),
    "even-resonance": lambda: tuned_exceptional_well("even"),
    "symmetric-pair": lambda: gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)]),
}

# The weak wells (depth, center, width) of the benchmark's weak-wells pass
# for seed 1 that certify; the other two are refused by the classifier.
_WEAK_WELLS = [
    (0.006463304070095649, 0.9009273926518706, 1.6500000000000001),
    (0.029999999999999995, 0.8972988942744877, 0.75),
    (0.13924766500838337, 0.6554051876408835, 0.75),
    (0.13924766500838337, -0.18160172726167745, 1.6500000000000001),
    (0.029999999999999995, -0.3763370959790291, 1.6500000000000001),
    (0.029999999999999995, -0.1533471020548487, 2.5500000000000003),
    (0.13924766500838337, 0.09918737534611899, 2.5500000000000003),
    (0.006463304070095649, -0.7116807745607325, 2.5500000000000003),
]


def _assert_windings_match_polar_reference(analysis):
    """Every sector's windings equal those of the loops whose momentum side
    is sampled through the same nodes, at their momentum parameters
    t = kappa / (1 + kappa): the linear interpolant ``interpolated_path``,
    and the polar interpolant, which has the same det phase."""
    sectors = [Sector.FULL]
    if analysis.potential.symmetric:
        sectors += [Sector.EVEN, Sector.ODD]
    kappas = analysis.side.kappas
    params = np.concatenate([[0.0], kappas / (1.0 + kappas), [1.0]])
    for sector in sectors:
        report = analysis.report(sector)
        nodes = analysis._b2_nodes(sector)
        assert report == loop_report(nodes, n_bound=report.n_bound, resonance=report.resonance)
        connectors = sampled_connectors(nodes[0], nodes[-1])
        for sampled in (interpolated_path, polar_interpolated_path):
            reference = sampled_windings(sampled(params, nodes), connectors)
            gap = max(abs(a - b) for a, b in zip(report.w, reference))
            assert gap < 1e-12, (sector, sampled.__name__, report.w, reference)


@pytest.mark.parametrize("name", list(_REFERENCE_WELLS))
def test_windings_match_polar_reference(name):
    _assert_windings_match_polar_reference(PotentialAnalysis(_REFERENCE_WELLS[name]()))


@pytest.mark.parametrize("member", [9, 2, 3])
def test_random_well_windings_match_polar_reference(well_family, member):
    _assert_windings_match_polar_reference(well_family[member])


@pytest.mark.parametrize("well", _WEAK_WELLS, ids=lambda w: f"{w[0]:.3g}-{w[2]:.3g}-{w[1]:+.2f}")
def test_weak_well_windings_match_polar_reference(well):
    _assert_windings_match_polar_reference(PotentialAnalysis(gaussian_wells([well])))


def test_deep_square_well_windings_match_polar_reference():
    """Depth 3000, half-width 0.5: 18 bound states, and a last chord, from
    S(kappa_max) to the identity, of spectral norm above 1."""
    analysis = PotentialAnalysis(square_well(3000.0, 0.5))
    nodes = analysis._b2_nodes(Sector.FULL)
    assert np.linalg.norm(nodes[-1] - nodes[-2], 2) > 1.0
    _assert_windings_match_polar_reference(analysis)
    assert analysis.report(Sector.FULL).n_bound == 18


def test_potential_loops_are_not_sampled(wound_paths, capsys):
    """Every momentum side is wound in closed form: no potential or point
    report, and no ``levlab tables`` run, hands a path to ``winding``."""
    analysis = PotentialAnalysis(square_well(1.0, 1.0))
    for sector in Sector:
        analysis.report(sector)
    for kind in (DELTA, DELTA_PRIME):
        for coupling in (-5.0, -1e-300, 0.0, 1e-300, 5.0, math.inf):
            for sector in (Sector.EVEN, Sector.ODD):
                verify_levinson(PointInteraction(kind, coupling), sector)
    assert main(["tables"]) == 0
    assert "all golden rows reproduced" in capsys.readouterr().out
    assert wound_paths == []
