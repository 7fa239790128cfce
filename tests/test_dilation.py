"""Half-line Fourier projection against its scale-multiplier form.

The direct route evaluates the half-line integral of the closed-form Fourier
transform through the Faddeeva function; the multiplier route runs through
the discretised Mellin transform.  They share no code, so agreement is a
genuine cross-check of both.  The direct route is itself checked against two
oracles: adaptive Gauss-Legendre quadrature of the transform, and the same
closed form with scipy's Faddeeva function.
"""

import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.hermite import herm2poly
from scipy.special import loggamma, wofz

from levlab.dilation import (
    GAUSSIAN,
    HERMITE,
    MellinEvaluator,
    ProbeFunction,
    _faddeeva,
    apply_halfline_fourier,
    default_suite,
    identity_residual,
    suite_residuals,
)
from levlab.errors import ResolutionInsufficient
from levlab.loops import r_even, r_odd

RAY = np.geomspace(0.05, 6.0, 20)


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
    """The forward Mellin sum term by term, a few hundred s rows at a time,
    continued below u_min with the first sample held for the next 80 / du
    steps, where e^(u/2) has fallen by e^-40; independent oracle for the
    single FFT on the reciprocal grid and its closed-form tail."""
    below = ev.u[0] - ev.du * np.arange(int(80.0 / ev.du), 0, -1)
    u = np.concatenate((below, ev.u))
    h = np.exp(0.5 * u) * np.concatenate((np.full(below.size, samples[0]), samples))
    out = np.concatenate(
        [np.exp(-1j * ev.sign * np.outer(ev.s[i : i + rows], u)) @ h for i in range(0, ev.s.size, rows)]
    )
    return out * ev.du / np.sqrt(2.0 * np.pi)


def momentum_cutoff(fn):
    """Past this momentum the transform is below 1e-17 of its peak."""
    return abs(fn.freq) + (9.0 + 2.0 * fn.order) / fn.width


# --- closed forms -----------------------------------------------------------


@pytest.mark.parametrize("fn", default_suite(), ids=lambda f: f.label)
def test_fourier_closed_form_against_trapezoid(fn):
    ks = np.linspace(-5.0, 5.0, 21)
    span = abs(fn.center) + 12.0 * fn.width
    assert np.max(np.abs(fn.fourier(ks) - trapezoid_fourier(fn, ks, span))) < 1e-8


@pytest.mark.parametrize("fn", default_suite(), ids=lambda f: f.label)
def test_momentum_cutoff_bounds_the_transform(fn):
    cut = momentum_cutoff(fn)
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
    # non-finite parameters, and orders that are not integers
    for bad in (dict(width=np.inf), dict(freq=np.nan), dict(center=np.inf), dict(amplitude=np.nan)):
        with pytest.raises(ValueError):
            ProbeFunction(GAUSSIAN, **{"width": 1.0, **bad})
    for order in (1.5, True):
        with pytest.raises(ValueError):
            ProbeFunction(HERMITE, width=1.0, order=order)


def test_validation_accepts_numpy_integer_order():
    assert ProbeFunction(HERMITE, width=1.0, order=np.int64(2)).label == "hermite(n=2, w=1)"


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


class QuadratureNotConverged(Exception):
    """The quadrature oracle's node doubling did not settle."""


@lru_cache(maxsize=16)
def gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def halfline_fourier_quadrature(fn, r, omega, *, tol=1e-10, max_nodes=8192):
    """(T f)(r omega) by Gauss-Legendre on [0, cutoff] of the momentum
    half-line, the node count doubling until two estimates agree to ``tol``,
    scaled by their largest value where that exceeds one; independent oracle
    for the closed form."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cap = momentum_cutoff(fn)
    previous = None
    n = 64
    while n <= max_nodes:
        base, weights = gauss_legendre(n)
        nodes = 0.5 * cap * (base + 1.0)
        vals = np.exp(1j * np.outer(r, nodes)) @ (0.5 * cap * weights * fn.fourier(omega * nodes))
        vals /= np.sqrt(2.0 * np.pi)
        if previous is not None and np.max(np.abs(vals - previous)) < tol * max(1.0, np.max(np.abs(vals))):
            return vals
        previous = vals
        n *= 2
    raise QuadratureNotConverged(f"not settled below {tol:g} at {max_nodes} nodes")


def gaussian_tail_integral(alpha, beta, a):
    """int_a^inf exp(-alpha u^2 + i beta u) du
    = 1/2 sqrt(pi / alpha) exp(-alpha a^2 + i a beta) w(i z),
    z = sqrt(alpha) a - i beta / (2 sqrt(alpha)), from erfc(z) = exp(-z^2) w(i z)
    with w the Faddeeva function."""
    root = np.sqrt(alpha)
    z = root * a - 1j * beta / (2.0 * root)
    return 0.5 * np.sqrt(np.pi / alpha) * np.exp(-alpha * a * a + 1j * a * beta) * wofz(1j * z)


def halfline_fourier_closed_form(fn, r, omega):
    """(T f)(r omega) of a suite probe through scipy's Faddeeva function;
    second oracle for the direct route.  A Gaussian lobe
    exp(-i (k - mu) c - w^2 (k - mu)^2 / 2) at k = omega kappa is
    exp(i omega mu r) times one tail integral from a = -omega mu.  The
    Hermite probe sums the moments
    I_n = int_0^inf kappa^n exp(-w^2 kappa^2 / 2 + i r kappa) dkappa, which
    integration by parts chains as I_n = ([n = 1] + (n - 1) I_{n-2} + i r I_{n-1}) / w^2.
    The chain amplifies rounding at large r / w, and the tail product
    overflows once w |mu| passes about 38, so this oracle serves the default
    suite only."""
    r = np.asarray(r, dtype=float)
    w = fn.width
    alpha = 0.5 * w * w
    if fn.kind == HERMITE:
        moments = [gaussian_tail_integral(alpha, r, 0.0)]
        for n in range(1, fn.order + 1):
            lower = 1.0 if n == 1 else (n - 1) * moments[n - 2]
            moments.append((lower + 1j * r * moments[n - 1]) / (w * w))
        coeffs = herm2poly(np.eye(fn.order + 1)[fn.order])
        total = sum(c * (w * omega) ** j * moments[j] for j, c in enumerate(coeffs))
        return fn.amplitude * w * (-1j) ** fn.order * total / np.sqrt(2.0 * np.pi)
    total = sum(
        np.exp(1j * omega * mu * r) * gaussian_tail_integral(alpha, r - omega * fn.center, -omega * mu)
        for mu in (fn.freq, -fn.freq)
    )
    return fn.amplitude * 0.5 * w * total / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("omega", (1, -1))
@pytest.mark.parametrize("fn", default_suite(), ids=lambda f: f.label)
def test_direct_route_matches_closed_form(fn, omega):
    exact = halfline_fourier_closed_form(fn, RAY, omega)
    assert np.max(np.abs(apply_halfline_fourier(fn, RAY, omega) - exact)) < 1e-13


@pytest.mark.parametrize("omega", (1, -1))
@pytest.mark.parametrize("fn", default_suite(), ids=lambda f: f.label)
def test_direct_route_matches_quadrature(fn, omega):
    quad = halfline_fourier_quadrature(fn, RAY, omega)
    assert np.max(np.abs(apply_halfline_fourier(fn, RAY, omega) - quad)) < 1e-13


@pytest.mark.parametrize("omega", (1, -1))
@pytest.mark.parametrize("width", (0.3, 0.9, 3.0))
@pytest.mark.parametrize("order", range(9))
def test_hermite_orders_match_quadrature(order, width, omega):
    # r / width reaches 20, where the three-term moment chain would lose up
    # to 1e-8 of the peak at order 8
    fn = ProbeFunction(HERMITE, width=width, order=order)
    quad = halfline_fourier_quadrature(fn, RAY, omega)
    gap = np.max(np.abs(apply_halfline_fourier(fn, RAY, omega) - quad))
    assert gap <= 1e-11 * np.max(np.abs(quad))


@pytest.mark.parametrize("order", (12, 16))
def test_high_hermite_orders_stay_accurate(order):
    # the three-term chain is off by 5e-5 (order 12) and 0.15 (order 16) of
    # the peak here; the quadrature needs a tolerance relative to the peak
    fn = ProbeFunction(HERMITE, width=0.3, order=order)
    quad = halfline_fourier_quadrature(fn, RAY, 1, tol=1e-13)
    gap = np.max(np.abs(apply_halfline_fourier(fn, RAY, 1) - quad))
    assert gap <= 1e-11 * np.max(np.abs(quad))


@given(
    width=st.floats(0.2, 5.0),
    product=st.floats(-60.0, 60.0),
    center=st.floats(-3.0, 3.0),
    omega=st.sampled_from((1, -1)),
)
def test_gaussian_probes_never_overflow(width, product, center, omega):
    # width * |freq| up to 60: the tail of the far lobe starts 60 / sqrt(2)
    # standard deviations out, where exp(-alpha a^2) underflows and the
    # reflected w would overflow
    fn = ProbeFunction(GAUSSIAN, width=width, center=center, freq=product / width)
    with np.errstate(over="raise", invalid="raise"):
        direct = apply_halfline_fourier(fn, RAY, omega)
    quad = halfline_fourier_quadrature(fn, RAY, omega)
    # |T f| <= (2 pi)^(-1/2) ||fhat||_1 <= |amplitude|; the peak itself can
    # be tiny when the bump sits on the far side of the origin
    assert np.max(np.abs(direct - quad)) <= 1e-12 * abs(fn.amplitude)


def test_quadrature_reports_nonconvergence():
    fn = ProbeFunction(GAUSSIAN, width=1.0)
    with pytest.raises(QuadratureNotConverged):
        halfline_fourier_quadrature(fn, 1.0, 1, max_nodes=64)


# --- the Faddeeva function --------------------------------------------------


def relative_gap(z):
    want = wofz(z)
    return np.max(np.abs(_faddeeva(z) - want) / np.abs(want))


@pytest.mark.parametrize("size", (1e-3, 1.0, 5.0, 30.0, 1e3, 1e5))
def test_faddeeva_upper_half_plane(size):
    rng = np.random.default_rng(7)
    z = size * (rng.uniform(-1.0, 1.0, 2000) + 1j * rng.uniform(0.0, 1.0, 2000))
    assert relative_gap(z) < 1e-13


def test_faddeeva_near_the_real_axis():
    x = np.linspace(-50.0, 50.0, 4001)
    for offset in (0.0, 1e-12, 1e-6):
        assert relative_gap(x + 1j * offset) < 1e-13, offset


def test_faddeeva_on_the_imaginary_axis():
    assert relative_gap(1j * np.geomspace(1e-8, 1e5, 200)) < 1e-13


@pytest.mark.parametrize("z", (-1e-12j, 0.5 - 0.5j, -20j, [1j, 2.0 - 1e-9j]), ids=str)
def test_faddeeva_refuses_the_lower_half_plane(z):
    with pytest.raises(ValueError):
        _faddeeva(z)


def test_faddeeva_at_the_origin():
    assert abs(_faddeeva(0.0) - 1.0) < 1e-15


def test_faddeeva_keeps_shape():
    z = np.array([[0.5 + 0.5j, -1.0 + 2.0j], [3.0, 1e3j]])
    assert _faddeeva(z).shape == (2, 2)
    assert relative_gap(z) < 1e-13


def test_import_builds_no_faddeeva_table():
    code = "import levlab.dilation as d; print(d._weideman_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_omega_must_be_a_sign():
    fn = ProbeFunction(GAUSSIAN, width=1.0)
    with pytest.raises(ValueError):
        apply_halfline_fourier(fn, 1.0, 2)


# --- the Mellin transform ---------------------------------------------------

UNALIGNED_GRID = dict(u_min=-10.3, u_max=2.1, du=0.037, s_max=9.7)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("grid", ({}, UNALIGNED_GRID), ids=("default", "unaligned"))
def test_forward_matches_the_dense_sum(grid, sign):
    ev = MellinEvaluator(sign=sign, **grid)
    samples = ProbeFunction(GAUSSIAN, width=0.7, center=1.3).value(ev.x)
    dense = dense_forward(ev, samples)
    assert np.max(np.abs(ev.forward(samples) - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("width", (0.7, 1.0, 1.5))
def test_forward_matches_the_gamma_function(width, sign, evaluator):
    # M exp(-x^2 / 2 w^2)(s) = (2 w^2)^z Gamma(z) / (2 sqrt(2 pi)),
    # z = (1/2 - i sign s) / 2; cutting the sum at u_min instead of
    # continuing it would leave e^(u_min / 2) / |1/2 - i s|, 2e-10 to 3e-10
    # of the peak even at u_min = -44
    ev = evaluator if sign > 0 else MellinEvaluator(sign=sign)
    z = 0.5 * (0.5 - 1j * sign * ev.s)
    exact = np.exp(z * np.log(2.0 * width**2) + loggamma(z)) / (2.0 * np.sqrt(2.0 * np.pi))
    spectrum = ev.forward(ProbeFunction(GAUSSIAN, width=width).value(ev.x))
    assert np.max(np.abs(spectrum - exact)) <= 1e-14 * np.max(np.abs(exact))


@pytest.mark.parametrize(
    "grid",
    (
        dict(du=0.0),
        dict(du=-0.02),
        dict(u_min=4.0, u_max=-44.0),
        dict(u_min=0.0, u_max=0.01),
        dict(s_max=0.0),
        dict(s_max=-48.0),
        dict(u_min=-np.inf),
        dict(u_max=np.nan),
        dict(du=np.inf),
        dict(s_max=np.inf),
        dict(du=0.02, s_max=np.pi / 0.02),
        dict(du=0.04, s_max=192.0),
    ),
    ids=lambda g: ",".join(f"{k}={v:g}" for k, v in g.items()),
)
def test_evaluator_refuses_bad_grids(grid):
    # an s range at or past pi / du would read aliased bins
    with pytest.raises(ValueError):
        MellinEvaluator(**grid)


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


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_inverse_kernel_matches_complex_exponential(sign):
    # the kernel is built from tan of the half angle; the angles reach
    # 48 |ln 1e-9|, about 1e3 rad, at x = 1e-9
    ev = MellinEvaluator(sign=sign)
    x = np.concatenate([[1e-9], np.geomspace(0.05, 6.0, 20)])
    want = np.exp((1j * sign) * np.outer(np.log(x), ev.s))
    assert np.max(np.abs(ev._inverse_kernel(x) - want)) <= 1e-15


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


RESOLVED_PROBES = default_suite() + (
    ProbeFunction(HERMITE, width=0.3, order=8),
    ProbeFunction(HERMITE, width=0.9, order=8),
)
UNRESOLVED_PROBES = (
    ProbeFunction(HERMITE, width=0.3, order=12),
    ProbeFunction(HERMITE, width=0.3, order=20),
    ProbeFunction(HERMITE, width=0.3, order=40),
    ProbeFunction(HERMITE, width=0.3, order=80),
    ProbeFunction(HERMITE, width=0.9, order=20),
    ProbeFunction(GAUSSIAN, width=4.0, freq=3.0),
    ProbeFunction(GAUSSIAN, width=2.0, freq=3.0),
    ProbeFunction(GAUSSIAN, width=0.2, center=1.0),
)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("fn", RESOLVED_PROBES, ids=lambda f: f.label)
def test_resolved_probes_pass_the_spectrum_edge_check(fn, sign):
    # edge-to-peak ratios up to 4.8e-11; flipping the sign reverses the
    # spectral axis, which keeps both edges
    residual = identity_residual(fn, MellinEvaluator(sign=sign))
    assert residual < 1e-10 if sign > 0 else residual > 0.3


@pytest.mark.parametrize("fn", UNRESOLVED_PROBES, ids=lambda f: f.label)
def test_probes_the_grid_cannot_resolve_are_refused(fn, evaluator):
    # edge-to-peak ratios 4.3e-9 to 0.73, residuals 2.9e-10 to 0.31
    with pytest.raises(ResolutionInsufficient, match="edge of the s grid"):
        identity_residual(fn, evaluator)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_probe_is_refused_not_nan(evaluator):
    # hermval overflows on the grid at order 160, so the spectrum is nan
    with pytest.raises(ResolutionInsufficient, match="reaches nan"):
        identity_residual(ProbeFunction(HERMITE, width=0.3, order=160), evaluator)


def test_padding_keeps_periodic_images_off_the_data():
    # at u_min = -36.9 the u grid has 2046 samples: an FFT of only 2048
    # points would let the periodic images of the multiplied spectrum fold
    # back onto the data (residuals near 9e-9); twice the samples keep them
    # a full span away
    for label, residual in suite_residuals(MellinEvaluator(u_min=-36.9, du=0.02)):
        assert residual < 1e-10, label


def test_periodic_images_set_the_shortest_grid():
    # the multiplied function decays like e^(-|u| / 2) away from the ray
    # targets, so its images one period P away come back at about
    # e^(-(P - 5) / 2): at u_min = -16 the 501 samples take a 1024-point FFT,
    # P = 41, and the residuals reach 9.1e-9; the default grid's 701 samples
    # take 2048 points, P = 82
    shortest = [residual for _, residual in suite_residuals(MellinEvaluator(u_min=-16.0))]
    assert 1e-9 < max(shortest) < 1e-7
    for label, residual in suite_residuals(MellinEvaluator()):
        assert residual < 1e-12, label


def test_flipped_spectral_axis_breaks_identity():
    flipped = MellinEvaluator(sign=-1.0)
    for label, residual in suite_residuals(flipped):
        assert residual > 0.3, label


def test_evaluator_rejects_other_signs():
    with pytest.raises(ValueError):
        MellinEvaluator(sign=0.5)
