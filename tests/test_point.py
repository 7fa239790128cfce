"""Solvable point interactions: scattering values, tables, duality."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levlab import point
from levlab.loops import BoundaryPath, Sector, restrict, sector_threshold_class, winding
from levlab.point import DELTA, DELTA_PRIME, PointInteraction, verify_levinson

INF = math.inf


def s_alpha(alpha, lam):
    """Even-sector amplitude of the delta member at energy lam."""
    return PointInteraction(DELTA, alpha).amplitude(math.sqrt(lam))


def s_beta(beta, lam):
    """Odd-sector amplitude of the delta-prime member at energy lam."""
    return PointInteraction(DELTA_PRIME, beta).amplitude(math.sqrt(lam))


def zero_energy_class(interaction, sector):
    """Threshold class of a sector from its zero-energy amplitude; the
    uncoupled sector scatters as 1."""
    value = interaction.amplitude(0.0).real if sector is interaction.sector else 1.0
    return sector_threshold_class(sector, value)


def sector_unitary(value, sector):
    """One sector's amplitude as a 2x2 unitary, diag(value, 1) for EVEN and
    diag(1, value) for ODD: the embedding ``restrict`` replaced, kept as its
    reference."""
    if sector is Sector.EVEN:
        return np.array([[value, 0.0j], [0.0j, 1.0 + 0.0j]])
    return np.array([[1.0 + 0.0j, 0.0j], [0.0j, value]])


COUPLINGS = [-5.0, -1.0, -0.1, 0.1, 1.0, 5.0, INF]


def expected_windings(kind, coupling):
    """Nontrivial-sector windings from the phase arithmetic of the scattering
    amplitude: the threshold connector always contributes, the momentum side
    sweeps half a turn whose sign follows the coupling, and an infinitely
    strong coupling moves the half turn to the infinite-energy side."""
    if coupling == 0.0:
        return (0.0, 0.0, 0.0, 0.0)
    if kind == DELTA:
        if coupling == INF:
            return (-0.5, 0.0, 0.5, 0.0)
        return (-0.5, -0.5 if coupling < 0 else 0.5, 0.0, 0.0)
    if coupling == INF:
        return (0.5, 0.0, -0.5, 0.0)
    return (0.0, -0.5 if coupling < 0 else 0.5, -0.5, 0.0)


# --- scattering values ------------------------------------------------------


def test_even_amplitude_example():
    assert abs(s_alpha(-2.0, 1.0) - 1j) < 1e-15


def test_odd_amplitude_example():
    assert abs(s_beta(2.0, 1.0) - 1j) < 1e-15


def test_even_amplitude_limits():
    assert s_alpha(1.0, 0.0) == -1.0
    assert s_alpha(1.0, INF) == 1.0
    assert s_alpha(0.0, 5.0) == 1.0
    for lam in (0.0, 3.0, INF):
        assert s_alpha(INF, lam) == -1.0


def test_odd_amplitude_limits():
    assert s_beta(1.0, 0.0) == 1.0
    assert s_beta(1.0, INF) == -1.0
    assert s_beta(0.0, 5.0) == 1.0
    for lam in (0.0, 3.0, INF):
        assert s_beta(INF, lam) == -1.0


@given(
    st.floats(1e-3, 1e3),
    st.sampled_from([-1.0, 1.0]),
    st.floats(1e-6, 1e6),
)
def test_amplitudes_on_unit_circle(magnitude, sign, lam):
    coupling = sign * magnitude
    assert abs(abs(s_alpha(coupling, lam)) - 1.0) < 1e-12
    assert abs(abs(s_beta(coupling, lam)) - 1.0) < 1e-12


@given(st.floats(1e-3, 1e3), st.sampled_from([-1.0, 1.0]), st.floats(1e-6, 1e6))
def test_amplitude_is_the_quotient_of_z_bit_for_bit(magnitude, sign, kappa):
    """On ordinary scales the overflow-safe amplitude is z / conj(z) itself:
    its power-of-two scale rounds nothing."""
    coupling = sign * magnitude
    for kind, z in ((DELTA, complex(2.0 * kappa, -coupling)), (DELTA_PRIME, complex(2.0, coupling * kappa))):
        assert PointInteraction(kind, coupling).amplitude(kappa) == z / z.conjugate()


@pytest.mark.parametrize("coupling", [1e308, -1e308, 1e-300, -1e-300])
def test_amplitude_survives_extreme_scales(coupling):
    """2 kappa, alpha and beta kappa may overflow; the amplitude stays on the
    unit circle, and past the float range it sits at its limit sigma."""
    for kind in (DELTA, DELTA_PRIME):
        interaction = PointInteraction(kind, coupling)
        scale = 0.5 * abs(coupling) if kind == DELTA else 2.0 / abs(coupling)
        for kappa in (1e-300, 1e-5, 1.0, 1e5, 1e300, 1.7e308, scale, 0.5 * scale, 2.0 * scale):
            value = interaction.amplitude(kappa)
            assert abs(abs(value) - 1.0) < 1e-15, (kind, kappa, value)
        # at kappa = s the amplitude is a quarter turn off its ends
        turn = interaction.amplitude(scale)
        assert abs(turn - (-1j if (kind == DELTA) == (coupling > 0) else 1j)) < 1e-15
    assert PointInteraction(DELTA_PRIME, 1e308).amplitude(1e10) == -1.0


def test_interaction_matrix_embeds_by_sector():
    a = s_alpha(-2.0, 1.0)
    m = restrict(np.diag([a, a]), PointInteraction(DELTA, -2.0).sector)
    assert m[0, 0] == a
    assert m[1, 1] == 1.0
    b = s_beta(2.0, 1.0)
    m = restrict(np.diag([b, b]), PointInteraction(DELTA_PRIME, 2.0).sector)
    assert m[0, 0] == 1.0
    assert m[1, 1] == b
    full = np.array([[s_alpha(-2.0, 1.0), 0.3], [0.4, s_beta(2.0, 1.0)]])
    assert np.array_equal(restrict(full, Sector.EVEN), sector_unitary(full[0, 0], Sector.EVEN))
    assert np.array_equal(restrict(full, Sector.ODD), sector_unitary(full[1, 1], Sector.ODD))
    assert restrict(full, Sector.FULL) is full


# --- construction validation ------------------------------------------------


def test_interaction_rejects_bad_couplings():
    with pytest.raises(ValueError):
        PointInteraction(DELTA, math.nan)
    with pytest.raises(ValueError):
        PointInteraction(DELTA, -INF)
    with pytest.raises(ValueError):
        PointInteraction("contact", 1.0)


GOLDEN_COUPLINGS = [(kind, coupling) for kind in (DELTA, DELTA_PRIME) for coupling in (-1.0, 0.0, 1.0, INF)]


@pytest.mark.parametrize("kind,coupling", GOLDEN_COUPLINGS)
def test_nodes_are_the_sector_embedding_bit_for_bit(kind, coupling, monkeypatch):
    """Both sectors' three nodes, built by ``restrict``, equal the embedding
    of the +-2 twin's amplitude at 0, 1 and inf (1 in the uncoupled sector)
    bit for bit, signed zeros included."""
    stacks = []
    wind = point.loop_report

    def capture(nodes, **kwargs):
        stacks.append(nodes)
        return wind(nodes, **kwargs)

    monkeypatch.setattr(point, "loop_report", capture)
    interaction = PointInteraction(kind, coupling)
    twin = PointInteraction(kind, 2.0 * coupling) if coupling in (-1.0, 1.0) else interaction
    for sector in (Sector.EVEN, Sector.ODD):
        verify_levinson(interaction, sector)
        amplitude = twin.amplitude if sector is interaction.sector else (lambda kappa: 1.0 + 0.0j)
        want = np.array([sector_unitary(amplitude(kappa), sector) for kappa in (0.0, 1.0, INF)])
        got = stacks.pop()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_full_sector_has_no_single_report():
    with pytest.raises(ValueError):
        verify_levinson(PointInteraction(DELTA, 1.0), Sector.FULL)


# --- bound states and thresholds -------------------------------------------


def test_bound_state_counts():
    assert PointInteraction(DELTA, -1.0).n_bound == 1
    assert PointInteraction(DELTA, 1.0).n_bound == 0
    assert PointInteraction(DELTA, INF).n_bound == 0
    assert verify_levinson(PointInteraction(DELTA, -1.0), Sector.EVEN).n_bound == 1
    assert verify_levinson(PointInteraction(DELTA, -1.0), Sector.ODD).n_bound == 0
    assert verify_levinson(PointInteraction(DELTA_PRIME, -1.0), Sector.ODD).n_bound == 1


def test_threshold_classes():
    # even sector resonates when the even amplitude is +1 at zero energy
    assert zero_energy_class(PointInteraction(DELTA, 0.0), Sector.EVEN).is_exceptional
    assert not zero_energy_class(PointInteraction(DELTA, 1.0), Sector.EVEN).is_exceptional
    # the free odd half line stays generic, the free even half line resonates
    assert not zero_energy_class(PointInteraction(DELTA, 1.0), Sector.ODD).is_exceptional
    assert zero_energy_class(PointInteraction(DELTA_PRIME, 1.0), Sector.EVEN).is_exceptional
    assert zero_energy_class(PointInteraction(DELTA_PRIME, INF), Sector.ODD).is_exceptional
    assert not zero_energy_class(PointInteraction(DELTA_PRIME, 1.0), Sector.ODD).is_exceptional
    # verify_levinson reports the same classes
    for kind in (DELTA, DELTA_PRIME):
        for coupling in (0.0, 1.0, INF):
            interaction = PointInteraction(kind, coupling)
            for sector in (Sector.EVEN, Sector.ODD):
                report = verify_levinson(interaction, sector)
                assert report.resonance == zero_energy_class(interaction, sector)


def test_nontrivial_sector():
    assert PointInteraction(DELTA, 2.0).sector is Sector.EVEN
    assert PointInteraction(DELTA_PRIME, 2.0).sector is Sector.ODD


# --- the full table ---------------------------------------------------------


@pytest.mark.parametrize("kind", [DELTA, DELTA_PRIME])
@pytest.mark.parametrize("coupling", COUPLINGS + [0.0])
def test_winding_table(kind, coupling):
    interaction = PointInteraction(kind, coupling)
    active = interaction.sector
    report = verify_levinson(interaction, active)
    expected = expected_windings(kind, coupling)
    assert max(abs(g - w) for g, w in zip(report.w, expected)) < 1e-9
    assert report.n_bound == (1 if (coupling < 0 and coupling != -INF) else 0)
    assert report.residual < 1e-9
    # trivial sector: empty loop, no bound states
    other = Sector.ODD if active is Sector.EVEN else Sector.EVEN
    trivial = verify_levinson(interaction, other)
    assert trivial.w == (0.0, 0.0, 0.0, 0.0)
    assert trivial.n_bound == 0


@pytest.mark.parametrize("coupling", COUPLINGS)
def test_duality_swaps_dilation_sides(coupling):
    """The odd table of the derivative coupling is the even table of the
    plain coupling with the two dilation sides exchanged."""
    even = verify_levinson(PointInteraction(DELTA, coupling), Sector.EVEN)
    odd = verify_levinson(PointInteraction(DELTA_PRIME, coupling), Sector.ODD)
    w1, w2, w3, w4 = even.w
    swapped = (w3, w2, w1, w4)
    assert max(abs(a - b) for a, b in zip(odd.w, swapped)) < 1e-9


MAGNITUDES = [5e-324, 1e-310, 1e-300, 0.1, 1.0, 3.7, 1e6, 1e308, 1.7976931348623157e308]


@pytest.mark.parametrize("kind", [DELTA, DELTA_PRIME])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("sector", [Sector.EVEN, Sector.ODD])
def test_report_depends_only_on_the_coupling_sign(kind, sign, sector):
    """z / conj(z) depends on kappa only through kappa / s, so every finite
    nonzero coupling, subnormal or near the float maximum, reports exactly
    as its twin of the same sign with s = 1."""
    twin = verify_levinson(PointInteraction(kind, 2.0 * sign), sector)
    for magnitude in MAGNITUDES:
        assert verify_levinson(PointInteraction(kind, sign * magnitude), sector) == twin, magnitude


def sampled_w2(interaction, sector):
    """B2 wound by sampling: ``winding`` on the sector amplitude of the
    coupling's +-2 twin over kappa = t / (1 - t)."""
    p = interaction.param
    if p != 0.0 and not math.isinf(p):
        interaction = PointInteraction(interaction.kind, math.copysign(2.0, p))
    coupled = sector is interaction.sector

    def value(t):
        amplitude = interaction.amplitude(INF if t >= 1.0 else t / (1.0 - t)) if coupled else 1.0 + 0.0j
        return sector_unitary(amplitude, sector)

    return winding(BoundaryPath(value))


COUPLING_VALUES = st.one_of(
    st.sampled_from([0.0, INF]),
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 308.0)),
)


@given(st.sampled_from([DELTA, DELTA_PRIME]), COUPLING_VALUES, st.sampled_from([Sector.EVEN, Sector.ODD]))
def test_three_node_side_winds_as_the_sampled_path(kind, coupling, sector):
    """The closed-form three-node B2 winds as the analytic path sampled
    densely, for both kinds and signs, tiny to huge couplings, 0 and inf."""
    interaction = PointInteraction(kind, coupling)
    w2 = verify_levinson(interaction, sector).w[1]
    assert abs(w2 - sampled_w2(interaction, sector)) < 1e-12
