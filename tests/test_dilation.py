"""Half-line Fourier projection against its scale-multiplier form.

The direct route integrates the closed-form Fourier transform; the multiplier
route runs through the discretised Mellin transform.  They share no code, so
agreement is a genuine cross-check of both.
"""

import numpy as np
import pytest

from levlab.dilation import (
    GAUSSIAN,
    HERMITE,
    MellinEvaluator,
    ProbeFunction,
    apply_halfline_fourier,
    default_suite,
    identity_residual,
    suite_residuals,
)
from levlab.errors import QuadratureNotConverged
from levlab.loops import r_even, r_odd


@pytest.fixture(scope="module")
def evaluator():
    return MellinEvaluator()


def trapezoid_fourier(fn, ks, half_span, dx=0.002):
    """Direct unitary Fourier transform on a wide uniform grid; independent
    oracle for the closed-form expressions."""
    xs = np.arange(-half_span, half_span + 0.5 * dx, dx)
    vals = fn.value(xs)
    out = np.empty(len(ks), dtype=complex)
    for i, k in enumerate(ks):
        out[i] = np.trapezoid(vals * np.exp(-1j * k * xs), xs)
    return out / np.sqrt(2.0 * np.pi)


def dense_forward(ev, samples, rows=512):
    """The forward Mellin sum term by term, a few hundred s rows at a time;
    independent oracle for the chirp-z evaluation."""
    h = np.exp(0.5 * ev.u) * samples
    out = np.concatenate(
        [np.exp(-1j * ev.sign * np.outer(ev.s[i : i + rows], ev.u)) @ h for i in range(0, ev.s.size, rows)]
    )
    return out * ev.du / np.sqrt(2.0 * np.pi)


# --- closed forms -----------------------------------------------------------


@pytest.mark.parametrize("fn", default_suite(), ids=lambda f: f.label)
def test_fourier_closed_form_against_trapezoid(fn):
    ks = np.linspace(-5.0, 5.0, 21)
    span = abs(fn.center) + 12.0 * fn.width
    assert np.max(np.abs(fn.fourier(ks) - trapezoid_fourier(fn, ks, span))) < 1e-8


@pytest.mark.parametrize("fn", default_suite(), ids=lambda f: f.label)
def test_momentum_cutoff_bounds_the_transform(fn):
    cut = fn.momentum_cutoff()
    edge = np.max(np.abs(fn.fourier(np.array([-cut, cut]))))
    peak = np.max(np.abs(fn.fourier(np.linspace(-cut, cut, 801))))
    assert edge < 1e-15 * peak


def test_validation_rejects_bad_functions():
    with pytest.raises(ValueError):
        ProbeFunction("bump", width=1.0)
    with pytest.raises(ValueError):
        ProbeFunction(GAUSSIAN, width=0.0)
    with pytest.raises(ValueError):
        ProbeFunction(GAUSSIAN, width=1.0, order=2)
    with pytest.raises(ValueError):
        ProbeFunction(HERMITE, width=1.0, center=0.5)
    with pytest.raises(ValueError):
        ProbeFunction(HERMITE, width=1.0, order=-1)


# --- direct route -----------------------------------------------------------


def test_calibration_value_at_origin():
    fn = ProbeFunction(GAUSSIAN, width=1.0)
    for omega in (1, -1):
        val = apply_halfline_fourier(fn, 0.0, omega)[0]
        assert abs(val - 0.5) < 1e-12


def test_parity_of_direct_route():
    odd = ProbeFunction(HERMITE, width=0.9, order=1)
    even = ProbeFunction(GAUSSIAN, width=1.2, freq=2.5)
    r = np.geomspace(0.1, 4.0, 9)
    assert np.max(
        np.abs(apply_halfline_fourier(odd, r, -1) + apply_halfline_fourier(odd, r, 1))
    ) < 1e-12
    assert np.max(
        np.abs(apply_halfline_fourier(even, r, -1) - apply_halfline_fourier(even, r, 1))
    ) < 1e-12


def test_quadrature_reports_nonconvergence():
    fn = ProbeFunction(GAUSSIAN, width=1.0)
    with pytest.raises(QuadratureNotConverged):
        apply_halfline_fourier(fn, 1.0, 1, max_nodes=64)


def test_omega_must_be_a_sign():
    fn = ProbeFunction(GAUSSIAN, width=1.0)
    with pytest.raises(ValueError):
        apply_halfline_fourier(fn, 1.0, 2)


# --- the Mellin transform ---------------------------------------------------

UNALIGNED_GRID = dict(u_min=-10.3, u_max=2.1, du=0.037, s_max=9.7, ds=0.029)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("grid", ({}, UNALIGNED_GRID), ids=("default", "unaligned"))
def test_forward_matches_the_dense_sum(grid, sign):
    ev = MellinEvaluator(sign=sign, **grid)
    samples = ProbeFunction(GAUSSIAN, width=0.7, center=1.3).value(ev.x)
    dense = dense_forward(ev, samples)
    assert np.max(np.abs(ev.forward(samples) - dense)) <= 1e-11 * np.max(np.abs(dense))


def test_identity_transforms_each_part_once(evaluator, monkeypatch):
    calls = []
    forward = MellinEvaluator.forward

    def counted(self, samples):
        calls.append(1)
        return forward(self, samples)

    monkeypatch.setattr(MellinEvaluator, "forward", counted)
    for fn in default_suite():
        before = len(calls)
        identity_residual(fn, evaluator)
        assert len(calls) - before == 2, fn.label


def test_stacked_inverse_matches_columns(evaluator):
    ev = evaluator
    fn = ProbeFunction(GAUSSIAN, width=1.5, center=-0.4, freq=1.0)
    spectra = np.stack(
        (r_even(ev.s) * ev.forward(fn.even_part(ev.x)), r_odd(ev.s) * ev.forward(fn.odd_part(ev.x))),
        axis=1,
    )
    x = np.geomspace(0.05, 6.0, 20)
    stacked = ev.inverse_at(spectra, x)
    assert stacked.shape == (x.size, 2)
    for col in range(2):
        single = ev.inverse_at(spectra[:, col], x)
        assert np.max(np.abs(stacked[:, col] - single)) <= 1e-14 * np.max(np.abs(single))


def test_inverse_kernel_is_built_once_per_targets(monkeypatch):
    builds = []
    build = MellinEvaluator._inverse_kernel

    def counted(self, x):
        builds.append(self.sign)
        return build(self, x)

    monkeypatch.setattr(MellinEvaluator, "_inverse_kernel", counted)
    # every probe is inverted at the same ray points; the flipped convention
    # has a kernel of its own
    for sign in (1.0, -1.0):
        suite_residuals(MellinEvaluator(sign=sign))
    assert builds == [1.0, -1.0]


def test_inverse_follows_new_targets(evaluator):
    ev = evaluator
    fn = ProbeFunction(GAUSSIAN, width=0.7, center=1.3)
    spectrum = ev.forward(fn.even_part(ev.x))
    first, second = np.geomspace(0.05, 6.0, 20), np.linspace(0.1, 3.0, 7)
    ev.inverse_at(spectrum, first)
    again = ev.inverse_at(spectrum, second)
    fresh = MellinEvaluator().inverse_at(spectrum, second)
    assert np.array_equal(again, fresh)


# --- the multiplier identity ------------------------------------------------


def parseval_defect(ev, samples):
    """Relative mismatch of the grid norms on both sides of the transform;
    small exactly when the discretisation resolves the function."""
    h = np.exp(0.5 * ev.u) * np.asarray(samples)
    left = float(np.sum(np.abs(h) ** 2) * ev.du)
    right = float(np.sum(np.abs(ev.forward(samples)) ** 2) * ev.ds)
    return abs(right - left) / max(left, 1e-300)


def test_mellin_grid_resolves_the_suite(evaluator):
    for fn in default_suite():
        defect = parseval_defect(evaluator, fn.even_part(evaluator.x))
        assert defect < 1e-8


def test_identity_for_calibration_function(evaluator):
    assert identity_residual(ProbeFunction(GAUSSIAN, width=1.0), evaluator) < 1e-9


def test_identity_for_zero_function(evaluator):
    fn = ProbeFunction(GAUSSIAN, width=1.0, amplitude=0.0)
    assert identity_residual(fn, evaluator) == 0.0


def test_identity_across_suite(evaluator):
    for label, residual in suite_residuals(evaluator):
        assert residual < 1e-9, label


def test_flipped_spectral_axis_breaks_identity():
    flipped = MellinEvaluator(sign=-1.0)
    for label, residual in suite_residuals(flipped):
        assert residual > 0.3, label


def test_evaluator_rejects_other_signs():
    with pytest.raises(ValueError):
        MellinEvaluator(sign=0.5)
