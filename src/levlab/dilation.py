"""Verification of the half-space splitting as a dilation multiplier.

The positive-frequency half of a function f on the line, restricted to the
ray of direction omega,

    (T f)(r omega) = (2 pi)^(-1/2) * integral_0^inf exp(i kappa r)
                     fhat(kappa omega) dkappa,

acts diagonally in the scale decomposition: on the even part it multiplies
the Mellin spectrum by (1 - r_even(s)) / 2, on the odd part by
(1 - r_odd(s)) / 2, with the same universal circle-valued multipliers that
build the threshold connectors of the boundary loops.  This module checks
that statement numerically: the left side in closed form, through the
Faddeeva function w, the right side by a discretised unitary Mellin
transform, with no shared code between the routes.

Every probe's transform is a sum of Gaussian lobes, times a Hermite
polynomial for the ``hermite`` kind, so its integral over the momentum
half-line reduces to Gaussian tail integrals
integral_a^inf exp(-alpha u^2 + i beta u) du.  Each is w at one point,
with w from Weideman's rational approximation (J. A. C. Weideman, SIAM
J. Numer. Anal. 31 (1994) 1497) in numpy alone; it agrees with a
reference w to a few parts in 1e14 in the upper half-plane.

The Mellin convention is M f(s) = (2 pi)^(-1/2) * integral_0^inf
x^(-1/2 - i s) f(x) dx, evaluated after x = exp(u) as an ordinary Fourier
sum from a uniform u grid to a uniform s grid.  Below the grid's first
point the function is held at its first sample, so the sum continues to
u = -inf as a geometric series in closed form instead of stopping with an
error of e^(u_min / 2) f(0).  The s grid is the reciprocal lattice of the u
grid, so the sampled part is one zero-padded FFT per spectrum, and a
spectral range past the Nyquist frequency pi / du is refused, as is a probe
whose spectrum the s range cuts off; the inverse is a dense sum at the few
ray points the check needs, with its kernel kept for the last targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import ResolutionInsufficient
from .loops import r_even, r_odd

_SQRT_2PI = math.sqrt(2.0 * math.pi)

GAUSSIAN = "gaussian-cosine"
HERMITE = "hermite"

@dataclass(frozen=True)
class ProbeFunction:
    """A test function with a closed-form Fourier transform.

    gaussian-cosine: amplitude * cos(freq x) * exp(-(x - center)^2 / 2 width^2)
    hermite:         amplitude * H_order(x / width) * exp(-x^2 / 2 width^2)
    """

    kind: str
    width: float
    center: float = 0.0
    freq: float = 0.0
    order: int = 0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, HERMITE):
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        for name in ("width", "center", "freq", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if isinstance(self.order, bool) or not isinstance(self.order, Integral):
            raise ValueError("order must be an integer")
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.kind == GAUSSIAN and self.order != 0:
            raise ValueError("gaussian-cosine takes no Hermite order")
        if self.kind == HERMITE:
            if self.center != 0.0 or self.freq != 0.0:
                raise ValueError("hermite kind is centred and unmodulated")
            if self.order < 0:
                raise ValueError("order must be nonnegative")

    @property
    def label(self) -> str:
        if self.kind == HERMITE:
            return f"hermite(n={self.order}, w={self.width:g})"
        bits = [f"w={self.width:g}"]
        if self.center:
            bits.append(f"c={self.center:g}")
        if self.freq:
            bits.append(f"nu={self.freq:g}")
        return f"gaussian({', '.join(bits)})"

    def _hermite(self, y: np.ndarray) -> np.ndarray:
        coeff = np.zeros(self.order + 1)
        coeff[-1] = 1.0
        return hermval(y, coeff)

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == HERMITE:
            return (
                self.amplitude
                * self._hermite(x / self.width)
                * np.exp(-(x * x) / (2.0 * self.width**2))
            )
        return (
            self.amplitude
            * np.cos(self.freq * x)
            * np.exp(-((x - self.center) ** 2) / (2.0 * self.width**2))
        )

    def fourier(self, k) -> np.ndarray:
        """Unitary-convention Fourier transform, in closed form."""
        k = np.asarray(k, dtype=float)
        w, c, nu = self.width, self.center, self.freq
        if self.kind == HERMITE:
            return (
                self.amplitude
                * w
                * (-1j) ** self.order
                * self._hermite(w * k)
                * np.exp(-(w * k) ** 2 / 2.0)
            )
        lobe_minus = np.exp(-1j * (k - nu) * c - (w * (k - nu)) ** 2 / 2.0)
        lobe_plus = np.exp(-1j * (k + nu) * c - (w * (k + nu)) ** 2 / 2.0)
        return self.amplitude * 0.5 * w * (lobe_minus + lobe_plus)

    def even_part(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return 0.5 * (self.value(r) + self.value(-r))

    def odd_part(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return 0.5 * (self.value(r) - self.value(-r))


# A forward spectrum resolves its probe only if its outermost SPECTRUM_EDGE_BINS
# bins at each end stay within SPECTRUM_EDGE_RATIO of its peak; past that the
# cut at |s| = s_max shows in the identity residual.
SPECTRUM_EDGE_BINS = 20
SPECTRUM_EDGE_RATIO = 1e-9


# Unused by the package: kept only because the benchmark clears this memo by
# name on every pass, until ROADMAP item 1 lets it go.
@lru_cache(maxsize=16)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


# Terms of Weideman's rational approximation of w.
_WEIDEMAN_TERMS = 40


@lru_cache(maxsize=1)
def _weideman_table() -> tuple[float, np.ndarray]:
    """Scale L and coefficients a_0 .. a_(N-1) of Weideman's rule

        w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)),
        Z = (L + i z) / (L - i z),  p(Z) = sum_k a_k Z^k,

    valid for Im z >= 0, where |Z| <= 1.  The a_k are Fourier coefficients
    of exp(-t^2) (L^2 + t^2) under t = L tan(theta / 2), from one FFT of
    4 N points; built on first use, not at import."""
    n = _WEIDEMAN_TERMS
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(0.5 * math.pi * np.arange(-m + 1, m) / m)
    samples = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    coeffs = np.fft.fft(np.fft.fftshift(samples)).real / (2 * m)
    return scale, coeffs[1 : n + 1]


def _faddeeva(z) -> np.ndarray:
    """w(z) = exp(-z^2) erfc(-i z) for Im z >= 0, by Weideman's rule.
    Below the real axis w grows like exp(-z^2); ``_gaussian_tail`` mirrors
    its arguments into the upper half-plane, so points below are refused."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0.0):
        raise ValueError("the Faddeeva rule needs Im z >= 0")
    iz = 1j * z
    scale, coeffs = _weideman_table()
    d = 1.0 / (scale - iz)
    # the powers Z^0 .. Z^(N-1) by one cumulative product: on the few dozen
    # points of a probe that is faster than N Horner steps
    powers = np.empty(z.shape + (_WEIDEMAN_TERMS,), dtype=complex)
    powers[..., 0] = 1.0
    powers[..., 1:] = ((scale + iz) * d)[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    return (2.0 * (powers @ coeffs) * d + 1.0 / math.sqrt(math.pi)) * d


def _gaussian_tail(alpha: float, a, beta) -> np.ndarray:
    """integral_a^inf exp(-alpha u^2 + i beta u) du for real a and complex
    beta, broadcast together:

        (1/2) sqrt(pi / alpha) exp(-alpha a^2 + i a beta) w(zeta),
        zeta = beta / (2 sqrt(alpha)) + i sqrt(alpha) a.

    Where Im zeta < 0 the integral is the full-line Gaussian
    sqrt(pi / alpha) exp(-beta^2 / (4 alpha)) minus the mirrored tail, whose
    w argument -zeta lies in the upper half-plane.  So w is never taken
    below the real axis, where exp(-alpha a^2) times 2 exp(-zeta^2) would
    overflow in its second factor once sqrt(alpha) |a| passes about 27."""
    root = math.sqrt(alpha)
    zeta = beta / (2.0 * root) + 1j * root * a
    lower = zeta.imag < 0.0
    w = _faddeeva(np.where(lower, -zeta, zeta))
    half = 0.5 * math.sqrt(math.pi / alpha) * np.exp(-alpha * a * a + 1j * a * beta) * w
    full = math.sqrt(math.pi / alpha) * np.exp(-beta * beta / (4.0 * alpha))
    return np.where(lower, full - half, half)


def _hermite_moment(n: int, b: np.ndarray) -> np.ndarray:
    """J_n(b) = integral_0^inf H_n(t) exp(-t^2/2 + i b t) dt for real b.

    Summed against s^n / n!, the Hermite generating function
    exp(2 t s - s^2) turns the J_n into the Taylor coefficients of
    g(s) = exp(-s^2) G(b - 2 i s), G(beta) = integral_0^inf
    exp(-t^2/2 + i beta t) dt.  The coefficient of s^n is read off by the
    trapezoid rule on the circle |s| = rho.  At rho^2 = n/2 the largest
    |g| on the circle, times n! / rho^n, is of the size of the largest J_n,
    so for every b the rounding stays within a few parts in 1e14 of the
    peak up to order 40; the m = 32 + 3n nodes put the aliased
    coefficients below that.  The three-term chain
    J_(n+1) = 2 i b J_n + 2 n J_(n-1) + 2 H_n(0) amplifies rounding like
    H_n(b) instead: with b up to 20 it is off by 1e-8 of the peak at
    order 8 and by 0.15 at order 16.  Its first step alone is safe: it
    scales the error of J_0 by 2 |b|, and |b J_0| stays below 1.33, so
    orders 0 and 1 skip the circle."""
    if n < 2:
        j0 = _gaussian_tail(0.5, 0.0, b)
        return j0 if n == 0 else 2j * b * j0 + 2.0
    rho = math.sqrt(n / 2.0)
    m = 32 + 3 * n
    turns = np.exp(2j * math.pi * np.arange(m) / m)
    s = rho * turns
    g = np.exp(-s * s) * _gaussian_tail(0.5, 0.0, b[:, None] - 2j * s)
    return (g @ turns ** (-n)) * (math.exp(math.lgamma(n + 1) - n * math.log(rho)) / m)


def apply_halfline_fourier(fn: ProbeFunction, r, omega: int) -> np.ndarray:
    """(T f)(r omega), the momentum half-line integral in closed form.

    A Gaussian lobe exp(-i (k - mu) c - w^2 (k - mu)^2 / 2) at k = omega
    kappa is exp(i omega mu r) times the tail integral from a = -omega mu of
    exp(-(w^2 / 2) u^2 + i (r - omega c) u); a Hermite probe of order n is
    amplitude (-i omega)^n J_n(r / w) / sqrt(2 pi).  Both agree with
    adaptive quadrature of the transform to about 1e-14 of the peak."""
    if omega not in (-1, 1):
        raise ValueError("omega must be +1 or -1")
    r = np.ravel(np.asarray(r, dtype=float))
    if fn.kind == HERMITE:
        n = fn.order
        return fn.amplitude * (-1j * omega) ** n * _hermite_moment(n, r / fn.width) / _SQRT_2PI
    mu = np.array([[fn.freq], [-fn.freq]])
    lobes = np.exp(1j * omega * mu * r) * _gaussian_tail(0.5 * fn.width**2, -omega * mu, r - omega * fn.center)
    return fn.amplitude * 0.5 * fn.width * lobes.sum(axis=0) / _SQRT_2PI


class MellinEvaluator:
    """Discretised unitary Mellin transform on a fixed logarithmic grid.

    Forward: phi(s) = (du / sqrt(2 pi)) * sum_u exp(-i sign s u) e^(u/2) f(e^u).
    Inverse at target x: x^(-1/2) (ds / sqrt(2 pi)) * sum_s exp(i sign s ln x) phi(s).

    The forward sum runs over u_n = u_0 + n du for every integer n up to
    u_max, with f(e^u) held at its first sample f(x_0) for n < 0.  That
    continued part is f(x_0) e^(w u_0) q / (1 - q), with w = 1/2 - i sign s
    and q = e^(-w du), one vector per grid.  Below x_0 a smooth f differs
    from f(x_0) by O(x_0), so the continued sum is off by about
    e^(3 u_0 / 2), 2e-16 at the default u_0 = -24.

    The s grid is the reciprocal lattice of the u grid: s_j = j ds with
    ds = 2 pi / (N du) and |s_j| <= s_max.  On u_n = u_0 + n du the phase
    s_j u_n is s_j u_0 + 2 pi j n / N, so the sampled part is one FFT of N
    points read at bins (sign j) mod N, times exp(-i sign s_j u_0).  A
    spectrum sampled at step ds inverts to a function of period P = N du in
    u.  N is the smallest power of two of at least twice the u samples: the
    multiplied function decays like e^(-|u| / 2) away from the ray targets,
    so its images one period away contribute about e^(-(P - 5) / 2), below
    1e-16 at the default P = 82.  The sum is periodic in s with period
    2 pi / du, so a grid with s_max >= pi / du would alias and is refused.

    ``sign = +1`` is the convention the multiplier statement refers to;
    flipping it reverses the spectral axis and must wreck the identity, which
    the command-line self-test uses as a built-in failure probe.
    """

    def __init__(
        self,
        *,
        u_min: float = -24.0,
        u_max: float = 4.0,
        du: float = 0.04,
        s_max: float = 48.0,
        sign: float = 1.0,
    ):
        if sign not in (1.0, -1.0):
            raise ValueError("sign must be +-1")
        if not all(math.isfinite(v) for v in (u_min, u_max, du, s_max)):
            raise ValueError("Mellin grid bounds must be finite")
        if not du > 0.0:
            raise ValueError("du must be positive")
        if not 0.0 < s_max < math.pi / du:
            raise ValueError(f"s_max must lie in (0, pi / du) = (0, {math.pi / du:.6g}), or the spectrum aliases")
        self.u = np.arange(u_min, u_max + 0.5 * du, du)
        if self.u.size < 2:
            raise ValueError("the u grid needs at least two samples")
        # the step arange actually took, (start + step) - start, differs from
        # the nominal du in the last bits; the reciprocal lattice needs it
        self.du = self.u[1] - self.u[0]
        self.sign = sign
        self._fft_size = 1 << (2 * self.u.size - 1).bit_length()
        self.ds = 2.0 * math.pi / (self._fft_size * self.du)
        j = np.arange(-int(s_max / self.ds), int(s_max / self.ds) + 1)
        self.s = j * self.ds
        self._bins = (int(sign) * j) % self._fft_size
        self._weight = np.exp(0.5 * self.u)
        self._phase = np.exp(-1j * sign * self.s * self.u[0]) * (self.du / _SQRT_2PI)
        # The sum continued below u_0 with f held at its first sample:
        # sum_(m >= 1) e^(w (u_0 - m du)) = e^(w u_0) / (e^(w du) - 1).
        w = 0.5 - 1j * sign * self.s
        self._tail = np.exp(w * self.u[0]) / np.expm1(w * self.du) * (self.du / _SQRT_2PI)
        # The universal multipliers on the spectral grid, shared by every probe.
        self.r_even = r_even(self.s)
        self.r_odd = r_odd(self.s)
        # Inverse kernel of the last targets: every probe of a residual check
        # is inverted at the same ray points.
        self._kernel_targets = np.empty(0)
        self._kernel = np.empty((0, self.s.size), dtype=complex)

    @property
    def x(self) -> np.ndarray:
        """Abscissae e^u of the logarithmic sampling grid."""
        return np.exp(self.u)

    def forward(self, samples: np.ndarray) -> np.ndarray:
        """Mellin spectrum of a function given by its values on ``self.x``."""
        samples = np.asarray(samples)
        spectrum = np.fft.fft(self._weight * samples, self._fft_size)
        return self._phase * spectrum[self._bins] + samples[0] * self._tail

    def inverse_at(self, spectrum: np.ndarray, x) -> np.ndarray:
        """Inverse transform of a spectrum, evaluated at positive targets.

        A stacked ``(s.size, m)`` spectrum is inverted column by column with
        one kernel; the result is then ``(x.size, m)``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x <= 0.0):
            raise ValueError("Mellin inversion targets must be positive")
        spectrum = np.asarray(spectrum)
        if not np.array_equal(x, self._kernel_targets):
            self._kernel = self._inverse_kernel(x)
            self._kernel_targets = x.copy()
        root = np.sqrt(x) if spectrum.ndim == 1 else np.sqrt(x)[:, None]
        return (self._kernel @ spectrum) * (self.ds / _SQRT_2PI) / root

    def _inverse_kernel(self, x: np.ndarray) -> np.ndarray:
        """exp(i sign s ln x) for each target x (rows) and grid s (columns).

        Built from one tangent of the half angle, u = tan(sign s ln x / 2),
        as ((1 - u^2) + 2 i u) / (1 + u^2), written straight into the real
        and imaginary parts of the kernel."""
        kernel = np.empty((x.size, self.s.size), dtype=complex)
        re, im = kernel.real, kernel.imag
        np.multiply.outer((0.5 * self.sign) * np.log(x), self.s, out=im)
        np.tan(im, out=im)
        np.multiply(im, im, out=re)
        d = re + 1.0
        np.subtract(1.0, re, out=re)
        re /= d
        im += im
        im /= d
        return kernel


def _multiplier_halves(
    fn: ProbeFunction, r: np.ndarray, ev: MellinEvaluator
) -> tuple[np.ndarray, np.ndarray]:
    """(1/2)(1 - r_even) on the even part and (1/2)(1 - r_odd) on the odd
    part of fn at the ray points r; neither depends on the direction omega.
    fn is sampled once at +x and once at -x for both parts, each part is
    transformed once and its spectrum checked by ``_resolved``, and both
    images are inverted together."""
    xs = ev.x
    plus, minus = fn.value(xs), fn.value(-xs)
    even = _resolved(ev.forward(0.5 * (plus + minus)), fn)
    odd = _resolved(ev.forward(0.5 * (plus - minus)), fn)
    spectra = np.stack((ev.r_even * even, ev.r_odd * odd), axis=1)
    images = ev.inverse_at(spectra, r)
    even_half = 0.5 * (fn.even_part(r) - images[:, 0])
    odd_half = 0.5 * (fn.odd_part(r) - images[:, 1])
    return even_half, odd_half


def _resolved(spectrum: np.ndarray, fn: ProbeFunction) -> np.ndarray:
    """The forward spectrum of a part of fn, refused with
    ResolutionInsufficient where its edge bins exceed SPECTRUM_EDGE_RATIO of
    its peak: the fixed s grid cuts off a spectrum still that large."""
    size = np.abs(spectrum)
    edge = max(size[:SPECTRUM_EDGE_BINS].max(), size[-SPECTRUM_EDGE_BINS:].max())
    if not edge <= SPECTRUM_EDGE_RATIO * size.max():  # a nan spectrum is refused too
        raise ResolutionInsufficient(
            f"Mellin spectrum of {fn.label} still reaches {edge / size.max():.1e} of its peak "
            "at the edge of the s grid; the grid cannot resolve this probe"
        )
    return spectrum


def identity_residual(fn: ProbeFunction, evaluator: MellinEvaluator | None = None) -> float:
    """Relative l2 gap between the two routes over the logarithmic ray grid
    geomspace(0.05, 6, 20), both directions omega = +-1 together.  The
    direct route is closed form, good to about 1e-14, so the gap measures
    the Mellin discretisation.  The multiplier route's halves are computed
    once and shared by the two directions."""
    ev = evaluator or MellinEvaluator()
    r = np.geomspace(0.05, 6.0, 20)
    even_half, odd_half = _multiplier_halves(fn, r, ev)
    diffs = []
    scale = []
    for omega in (1, -1):
        direct = apply_halfline_fourier(fn, r, omega)
        diffs.append(direct - (even_half + omega * odd_half))
        scale.append(direct)
    num = float(np.linalg.norm(np.concatenate(diffs)))
    den = float(np.linalg.norm(np.concatenate(scale)))
    return num / den if den > 1e-12 else num


def default_suite() -> tuple[ProbeFunction, ...]:
    """Five test functions; the first is the calibration Gaussian whose
    half-line Fourier value at the origin is exactly one half."""
    return (
        ProbeFunction(GAUSSIAN, width=1.0),
        ProbeFunction(GAUSSIAN, width=0.7, center=1.3),
        ProbeFunction(GAUSSIAN, width=1.2, freq=2.5),
        ProbeFunction(HERMITE, width=0.9, order=1),
        ProbeFunction(GAUSSIAN, width=1.5, center=-0.4, freq=1.0),
    )


def suite_residuals(evaluator: MellinEvaluator | None = None) -> list[tuple[str, float]]:
    """(label, residual) for every function of the default suite, sharing one
    evaluator so the Mellin grids are built a single time."""
    ev = evaluator or MellinEvaluator()
    return [(fn.label, identity_residual(fn, ev)) for fn in default_suite()]
