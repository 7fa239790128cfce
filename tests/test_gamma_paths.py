"""Threshold connector paths: unitarity and half-integer windings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levlab.errors import NonUnitaryPath
from levlab.loops import (
    ResonanceClass,
    connector_path,
    constant_path,
    dilation_coordinate,
    loop_winding,
    r_even,
    unitarity_defect,
    winding,
)
from levlab.scattering import threshold_matrix


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
    path = connector_path(threshold_matrix(ResonanceClass.generic()))
    assert sampled_defect(path, 257) < 1e-10
    assert abs(winding(path) + 0.5) < 1e-9


@pytest.mark.parametrize("gamma", GAMMAS)
def test_exceptional_connector_winds_zero(gamma):
    path = connector_path(threshold_matrix(ResonanceClass.exceptional(gamma)))
    assert sampled_defect(path, 257) < 1e-10
    assert abs(winding(path)) < 1e-9


def test_odd_sector_connector_winds_plus_half():
    # diag(1, -1) routes the jump through the odd multiplier instead
    path = connector_path(np.diag([1.0, -1.0]))
    assert abs(winding(path) - 0.5) < 1e-9


def wound_sides(wound_paths, b2_value):
    """The four sides ``loop_winding`` winds around a constant momentum side,
    and its report."""
    report = loop_winding(constant_path(b2_value), n_bound=0, resonance=ResonanceClass.generic())
    return wound_paths[-4:], report


def test_endpoints_are_exact(wound_paths):
    target = threshold_matrix(ResonanceClass.exceptional(2.0))
    forward = connector_path(target)
    assert np.array_equal(forward.eval(0.0), np.eye(2, dtype=complex))
    assert np.array_equal(forward.eval(1.0), target)
    (_, _, reverse, _), _ = wound_sides(wound_paths, target)
    assert np.array_equal(reverse.eval(0.0), target)
    assert np.array_equal(reverse.eval(1.0), np.eye(2, dtype=complex))


def test_reversed_side_negates_winding(wound_paths):
    """Around a constant momentum side, B3 runs B1's connector backwards."""
    target = threshold_matrix(ResonanceClass.generic())
    _, report = wound_sides(wound_paths, target)
    assert abs(report.w[0] + 0.5) < 1e-9
    assert abs(report.w[0] + report.w[2]) < 1e-9


def test_connector_rejects_unitary_outside_family():
    # the swap matrix is unitary but the connector through it degenerates
    with pytest.raises(NonUnitaryPath):
        connector_path(np.array([[0.0, 1.0], [1.0, 0.0]]))


@given(st.floats(0.1, 10.0), st.sampled_from([-1.0, 1.0]))
def test_exceptional_connectors_stay_unitary(magnitude, sign):
    path = connector_path(
        threshold_matrix(ResonanceClass.exceptional(sign * magnitude))
    )
    assert sampled_defect(path, 65) < 1e-10


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
    """B1 is the connector itself; B3 is the path ``loop_winding`` hands to
    ``winding`` for a momentum side ending at the endpoint, the connector
    run backwards."""
    end = ENDPOINTS[name]
    if side == "B1":
        path = connector_path(end)
    else:
        (_, _, path, _), _ = wound_sides(wound_paths, end)
    for t in np.linspace(0.0, 1.0, 1025)[1:-1].tolist():
        u = t if side == "B1" else 1.0 - t
        want = _matrix_formula(end, dilation_coordinate(u))
        got = path.eval(t)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), t
