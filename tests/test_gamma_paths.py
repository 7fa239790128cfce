"""Threshold connectors: unitarity and half-integer windings.

The closed-form ``connector_winding`` is checked against the sampled
connector path it replaced, kept here as the reference.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from levlab import loops
from levlab.errors import NonUnitaryPath
from levlab.loops import (
    BoundaryPath,
    ResonanceClass,
    Sector,
    chord_winding,
    connector_winding,
    loop_report,
    r_even,
    restrict,
    sector_unitary,
    unitarity_defect,
    winding,
)
from levlab.point import DELTA, DELTA_PRIME, PointInteraction
from levlab.scattering import threshold_matrix

I2 = np.eye(2, dtype=complex)


def dilation_coordinate(t):
    """Map the open unit interval onto the dilation axis, x = tan(pi (t - 1/2))."""
    return math.tan(math.pi * (t - 0.5))


def sampled_connector(s_end):
    """The connector 1 + (1/2) (1 - diag(r_even(x), r_odd(x))) (s_end - 1) as
    a path over x = tan(pi (t - 1/2)), the identity at t = 0 and s_end at
    t = 1: the reference for ``connector_winding``.  Like it, refuses an
    endpoint whose connector leaves U(2) at one of 41 parameters."""
    s = np.asarray(s_end, dtype=complex)
    (d00, d01), (d10, d11) = (s - I2).tolist()

    def evaluate(t):
        if t <= 0.0:
            return I2.copy()
        if t >= 1.0:
            return s.copy()
        r = r_even(dilation_coordinate(t))  # the odd entry r_odd(x) is its conjugate
        a = 0.5 * (1.0 - r)
        b = 0.5 * (1.0 - r.conjugate())
        return np.array(
            [[1.0 + 0.0j + a * d00, 0.0j + a * d01], [0.0j + b * d10, 1.0 + 0.0j + b * d11]]
        )

    worst = unitarity_defect([evaluate(t) for t in np.linspace(0.0, 1.0, 41).tolist()])
    if not worst < 1e-10:
        raise NonUnitaryPath(f"connector leaves U(2) (defect {worst:.3e})")
    return BoundaryPath(evaluate)


def reversed_path(path):
    return BoundaryPath(lambda t: path.eval(1.0 - t))


def constant_path(value):
    return BoundaryPath(lambda t: np.array(value, dtype=complex))


def assert_closed_form_matches_sampled(s_end):
    """``connector_winding`` equals the sampled connector's winding to 1e-12,
    or both refuse the endpoint."""
    try:
        path = sampled_connector(s_end)
    except NonUnitaryPath:
        with pytest.raises(NonUnitaryPath):
            connector_winding(s_end)
        return
    assert abs(connector_winding(s_end) - winding(path)) < 1e-12


def sampled_defect(path, n_samples):
    """Worst unitarity defect of the path at n_samples evenly spaced parameters."""
    return unitarity_defect([path.eval(t) for t in np.linspace(0.0, 1.0, n_samples).tolist()])


GAMMAS = [-10.0, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 10.0]


def test_generic_form_matrix():
    m = threshold_matrix(ResonanceClass.generic())
    assert np.array_equal(m, np.diag([-1.0 + 0.0j, 1.0 + 0.0j]))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_exceptional_form_is_real_orthogonal(gamma):
    m = threshold_matrix(ResonanceClass.exceptional(gamma))
    assert np.max(np.abs(m.imag)) == 0.0
    assert np.max(np.abs(m @ m.T.conj() - np.eye(2))) < 1e-15
    assert abs(np.linalg.det(m) - 1.0) < 1e-15


def test_exceptional_form_at_unit_gamma():
    assert np.allclose(threshold_matrix(ResonanceClass.exceptional(1.0)), np.eye(2))
    assert np.allclose(threshold_matrix(ResonanceClass.exceptional(-1.0)), -np.eye(2))


def test_generic_connector_winds_minus_half():
    end = threshold_matrix(ResonanceClass.generic())
    path = sampled_connector(end)
    assert sampled_defect(path, 257) < 1e-10
    assert abs(winding(path) + 0.5) < 1e-9
    assert connector_winding(end) == -0.5


@pytest.mark.parametrize("gamma", GAMMAS)
def test_exceptional_connector_winds_zero(gamma):
    end = threshold_matrix(ResonanceClass.exceptional(gamma))
    path = sampled_connector(end)
    assert sampled_defect(path, 257) < 1e-10
    assert abs(winding(path)) < 1e-9
    assert abs(connector_winding(end)) < 1e-12


def test_odd_sector_connector_winds_plus_half():
    # diag(1, -1) routes the jump through the odd multiplier instead
    end = np.diag([1.0, -1.0])
    assert abs(winding(sampled_connector(end)) - 0.5) < 1e-9
    assert connector_winding(end) == 0.5


def closed_loop(b2):
    """``loop_report`` of the momentum side b2's two end values.  Its
    windings equal, to 1e-12, the reference: the connectors to those ends
    in closed form and b2 sampled by ``loops.winding``."""
    start, end = b2.eval(0.0), b2.eval(1.0)
    report = loop_report([start, end], n_bound=0, resonance=ResonanceClass.generic())
    reference = (connector_winding(start), loops.winding(b2), 0.0 - connector_winding(end), 0.0)
    assert max(abs(a - b) for a, b in zip(report.w, reference)) < 1e-12
    return report


def wound_report(wound_paths, b2_value):
    """The report of the loop around a constant momentum side; the side is
    the only path it samples."""
    b2 = constant_path(b2_value)
    report = closed_loop(b2)
    assert wound_paths == [b2]
    return report


def test_endpoints_are_exact(wound_paths):
    """The reference connector starts at the identity and ends on its
    endpoint bit for bit, and the loop around a constant exceptional side
    does not wind."""
    target = threshold_matrix(ResonanceClass.exceptional(2.0))
    forward = sampled_connector(target)
    assert np.array_equal(forward.eval(0.0), I2)
    assert np.array_equal(forward.eval(1.0), target)
    report = wound_report(wound_paths, target)
    assert report.w == (0.0, 0.0, 0.0, 0.0)


def test_reversed_side_negates_winding(wound_paths):
    """Around a constant momentum side, B3 runs B1's connector backwards:
    its winding is B1's negated, and the loop does not wind."""
    target = threshold_matrix(ResonanceClass.generic())
    report = wound_report(wound_paths, target)
    assert report.w == (-0.5, 0.0, 0.5, 0.0)
    assert report.total == 0.0
    assert abs(report.w[2] - winding(reversed_path(sampled_connector(target)))) < 1e-12


def test_connector_rejects_unitary_outside_family():
    # the swap matrix is unitary but the connector through it degenerates
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonUnitaryPath):
        connector_winding(swap)
    with pytest.raises(NonUnitaryPath):
        closed_loop(constant_path(swap))


@given(st.floats(0.1, 10.0), st.sampled_from([-1.0, 1.0]))
def test_exceptional_connectors_stay_unitary(magnitude, sign):
    end = threshold_matrix(ResonanceClass.exceptional(sign * magnitude))
    assert sampled_defect(sampled_connector(end), 65) < 1e-10
    assert abs(connector_winding(end)) < 1e-12


def _matrix_formula(s_end, x):
    """The connector value as the diag-and-matmul formula of its docstring:
    1 + (1/2) (1 - diag(r_even(x), r_odd(x))) (s_end - 1)."""
    one = np.eye(2, dtype=complex)
    r = r_even(x)
    return one + 0.5 * (one - np.diag([r, r.conjugate()])) @ (np.asarray(s_end, dtype=complex) - one)


ENDPOINTS = {
    "identity": np.eye(2),
    "generic": threshold_matrix(ResonanceClass.generic()),
    "odd-sector": np.diag([1.0, -1.0]),
    **{f"gamma={g:g}": threshold_matrix(ResonanceClass.exceptional(g)) for g in GAMMAS},
}


@pytest.mark.parametrize("side", ["B1", "B3"])
@pytest.mark.parametrize("name", list(ENDPOINTS))
def test_connector_values_are_the_matrix_formula_bit_for_bit(name, side, wound_paths):
    """B1 is the reference connector itself, B3 the connector run backwards;
    the loop around a momentum side from and to the endpoint reports the
    sampled winding of each to 1e-12."""
    end = ENDPOINTS[name]
    forward = sampled_connector(end)
    path = forward if side == "B1" else reversed_path(forward)
    for t in np.linspace(0.0, 1.0, 1025)[1:-1].tolist():
        u = t if side == "B1" else 1.0 - t
        want = _matrix_formula(end, dilation_coordinate(u))
        got = path.eval(t)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), t
    report = wound_report(wound_paths, end)
    assert abs(report.w[0 if side == "B1" else 2] - winding(path)) < 1e-12


@pytest.mark.parametrize("sector", list(Sector), ids=lambda s: s.value)
@pytest.mark.parametrize("name", list(ENDPOINTS))
def test_closed_form_matches_sampled_connector(name, sector):
    """A parity sector keeps one diagonal entry; where that entry is not
    unimodular (gamma != +-1) both routes refuse the endpoint."""
    assert_closed_form_matches_sampled(restrict(ENDPOINTS[name], sector))


def test_closed_form_matches_sampled_connector_on_golden_point_ends():
    """S(0) and S(inf) of both sectors of every golden point row."""
    for kind in (DELTA, DELTA_PRIME):
        for coupling in (-1.0, 0.0, 1.0, math.inf):
            interaction = PointInteraction(kind, coupling)
            for sector in (Sector.EVEN, Sector.ODD):
                for kappa in (0.0, math.inf):
                    value = interaction.amplitude(kappa) if sector is interaction.sector else 1.0
                    assert_closed_form_matches_sampled(sector_unitary(value, sector))


@given(st.floats(0.01, 100.0), st.sampled_from([-1.0, 1.0]))
def test_closed_form_matches_sampled_exceptional_connectors(magnitude, sign):
    assert_closed_form_matches_sampled(threshold_matrix(ResonanceClass.exceptional(sign * magnitude)))


ADMITTED_ENDS = {
    f"{name}-{sector.value}": restrict(end, sector)
    for name, end in ENDPOINTS.items()
    for sector in Sector
    if unitarity_defect(restrict(end, sector)) < 1e-10
}


@pytest.mark.parametrize("name", list(ADMITTED_ENDS))
def test_connector_det_is_a_chord_det(name):
    """det C(x) and det((1 - theta) J + theta s), J = diag(-i, i) and
    theta = 1 / (1 + exp(-pi x)), differ by a positive factor: the connector
    winds as the chord from J to its endpoint."""
    s = ADMITTED_ENDS[name]
    chord_start = np.diag([-1j, 1j])
    xs = np.geomspace(1e-3, 10.0, 97)
    for x in np.concatenate([-xs[::-1], xs]).tolist():
        theta = 1.0 / (1.0 + math.exp(-math.pi * x))
        connector = np.linalg.det(_matrix_formula(s, x))
        chord = np.linalg.det((1.0 - theta) * chord_start + theta * s)
        assert abs(np.angle(connector * np.conj(chord))) < 1e-12, x
    assert connector_winding(s) == chord_winding(np.stack([chord_start, s]))


@pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0 + 1e-9])
@pytest.mark.parametrize("name", list(ADMITTED_ENDS))
def test_connector_refuses_endpoints_off_unitary_by_1e_9(name, scale):
    """A real scale keeps sigma_z (s - 1) Hermitian, so only the endpoint's
    unitarity check, tighter than the 1e-8 of ``chord_winding``, refuses."""
    s = scale * ADMITTED_ENDS[name]
    with pytest.raises(NonUnitaryPath):
        connector_winding(s)
    assert_closed_form_matches_sampled(s)


def _haar_unitary(seed):
    """A Haar-random 2x2 unitary: QR of a complex Gaussian, phases fixed."""
    z = np.random.default_rng(seed).standard_normal((2, 4)).view(complex)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _near_identity(seed, distance):
    """A unitary exp(i H) with H Hermitian of spectral norm ``distance``."""
    z = np.random.default_rng(seed).standard_normal((2, 4)).view(complex)
    h = z + z.conj().T
    return scipy.linalg.expm(1j * distance * h / np.linalg.norm(h, 2))


def _rotation_form(t, phi):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, np.exp(1j * phi) * s], [-np.exp(-1j * phi) * s, c]])


SEEDS = st.integers(0, 2**32 - 1)
ANGLES = st.floats(0.0, 2 * math.pi)
SIGNS = st.sampled_from([-1.0, 1.0])
SIGN_DIAGONALS = st.builds(lambda a, b: np.diag([a, b]), SIGNS, SIGNS)
ADMITTED_FAMILY = st.one_of(st.builds(_rotation_form, ANGLES, ANGLES), SIGN_DIAGONALS)


@given(
    st.one_of(
        st.builds(
            lambda s, seed, distance: s @ _near_identity(seed, distance),
            ADMITTED_FAMILY,
            SEEDS,
            st.sampled_from([0.0, 1e-13, 1e-6, 1e-3]),
        ),
        st.builds(_haar_unitary, SEEDS),
    )
)
def test_exact_admission_refuses_exactly_when_sampled_does(s_end):
    """The admitted family (rotation forms and +-1 diagonals), the same
    right-multiplied by unitaries near the identity, and Haar unitaries:
    ``connector_winding`` refuses exactly the endpoints whose sampled
    connector leaves U(2), and winds the others as it does."""
    assert_closed_form_matches_sampled(s_end)


REFUSED_ENDS = {
    "channel-swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "nan": np.full((2, 2), np.nan),
    **{
        f"{name}-x{scale!r}": scale * end
        for name, end in ADMITTED_ENDS.items()
        for scale in (1.0 - 1e-9, 1.0 + 1e-9)
    },
}


@pytest.mark.parametrize("name", list(REFUSED_ENDS))
def test_loop_refuses_the_ends_the_connector_refuses(name):
    """An end that ``connector_winding`` refuses is refused as either end of
    a loop.  Ends scaled by 1 +- 1e-9 pass the 1e-8 node rule of
    ``chord_winding``, so only the loop's 1e-10 end admission refuses them."""
    bad = REFUSED_ENDS[name]
    with pytest.raises(NonUnitaryPath):
        connector_winding(bad)
    match = "not unitary" if name == "nan" else "connector endpoint"
    for nodes in ([bad, I2], [I2, bad]):
        with pytest.raises(NonUnitaryPath, match=match):
            loop_report(nodes, n_bound=0, resonance=ResonanceClass.generic())


def _sector_phases(seed):
    """A diagonal unitary of random phases: a node that a parity sector keeps."""
    return np.diag(np.exp(2j * np.pi * np.random.default_rng(seed).random(2)))


@given(
    SEEDS,
    st.one_of(st.none(), st.floats(0.05, 20.0)),
    SIGNS,
    st.integers(0, 4),
    st.one_of(st.just(I2), ADMITTED_FAMILY),
    st.one_of(st.just(I2), SIGN_DIAGONALS),
    st.sampled_from(list(Sector)),
)
def test_loop_report_is_the_three_call_composition(seed, magnitude, sign, n_middle, end, sector_end, sector):
    """One batch of chords winds each side as its own call does: a threshold
    start (generic, or exceptional with a random gamma; +-1 in a parity
    sector), random unitary middle nodes and an identity or admitted end,
    full line or restricted to a sector.  The batch and the three calls
    agree to 1e-15, or both refuse."""
    if magnitude is None:
        resonance = ResonanceClass.generic()
    else:
        resonance = ResonanceClass.exceptional(sign * (magnitude if sector is Sector.FULL else 1.0))
    if sector is Sector.FULL:
        middle = [_haar_unitary(seed + k) for k in range(n_middle)]
    else:
        middle, end = [_sector_phases(seed + k) for k in range(n_middle)], sector_end
    nodes = restrict(np.array([threshold_matrix(resonance), *middle, end], dtype=complex), sector)
    try:
        want = (connector_winding(nodes[0]), chord_winding(nodes), 0.0 - connector_winding(nodes[-1]), 0.0)
    except NonUnitaryPath:
        with pytest.raises(NonUnitaryPath):
            loop_report(nodes, n_bound=0, resonance=resonance)
        return
    got = loop_report(nodes, n_bound=0, resonance=resonance).w
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15, (got, want)
