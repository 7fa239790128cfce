"""Verification of the half-space splitting as a dilation multiplier.

The positive-frequency half of a function f on the line, restricted to the
ray of direction omega,

    (T f)(r omega) = (2 pi)^(-1/2) * integral_0^inf exp(i kappa r)
                     fhat(kappa omega) dkappa,

acts diagonally in the scale decomposition: on the even part it multiplies
the Mellin spectrum by (1 - r_even(s)) / 2, on the odd part by
(1 - r_odd(s)) / 2, with the same universal circle-valued multipliers that
build the threshold connectors of the boundary loops.  This module checks
that statement numerically: the left side by adaptive quadrature of the
closed-form Fourier transform, the right side by a discretised unitary
Mellin transform, with no shared code between the routes.

The Mellin convention is M f(s) = (2 pi)^(-1/2) * integral_0^inf
x^(-1/2 - i s) f(x) dx, evaluated after x = exp(u) as an ordinary Fourier
sum from a uniform u grid to a uniform s grid.  That sum is computed by the
chirp-z transform (one zero-padded FFT per spectrum); the inverse is a dense
sum at the few ray points the check needs, with its kernel kept for the last
targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermval

from .errors import QuadratureNotConverged
from .loops import r_even, r_odd

_SQRT_2PI = math.sqrt(2.0 * math.pi)

GAUSSIAN = "gaussian-cosine"
HERMITE = "hermite"

# Evaluation point standing in for r = 0 (the Mellin kernel x^(-1/2+is)
# needs a positive abscissa; the multiplier image is continuous at 0).
ORIGIN_PROXY = 1e-9


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

    def momentum_cutoff(self) -> float:
        """Past this momentum the transform is below 1e-17 of its peak."""
        return abs(self.freq) + (9.0 + 2.0 * self.order) / self.width


@lru_cache(maxsize=16)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def apply_halfline_fourier(
    fn: ProbeFunction,
    r,
    omega: int,
    *,
    tol: float = 1e-10,
    max_nodes: int = 8192,
) -> np.ndarray:
    """(T f)(r omega) by adaptive Gauss-Legendre on the momentum half-line.

    Node counts double until two estimates agree to ``tol`` everywhere.
    """
    if omega not in (-1, 1):
        raise ValueError("omega must be +1 or -1")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cap = fn.momentum_cutoff()
    previous = None
    n = 64
    while n <= max_nodes:
        base, weights = _gauss_nodes(n)
        nodes = 0.5 * cap * (base + 1.0)
        scaled = 0.5 * cap * weights
        fhat = fn.fourier(omega * nodes)
        phases = np.exp(1j * np.outer(r, nodes))
        vals = (phases @ (scaled * fhat)) / _SQRT_2PI
        if previous is not None and float(np.max(np.abs(vals - previous))) < tol:
            return vals
        previous = vals
        n *= 2
    raise QuadratureNotConverged(
        f"half-line Fourier quadrature not settled below {tol:g} at {max_nodes} nodes"
    )


class MellinEvaluator:
    """Discretised unitary Mellin transform on a fixed logarithmic grid.

    Forward: phi(s) = (du / sqrt(2 pi)) * sum_u exp(-i sign s u) e^(u/2) f(e^u).
    Inverse at target x: x^(-1/2) (ds / sqrt(2 pi)) * sum_s exp(i sign s ln x) phi(s).

    The forward sum is evaluated by the chirp-z transform: on uniform grids
    s_j = s_0 + j ds and u_n = u_0 + n du the product s_j u_n splits as
    s_0 u_0 + s_0 n du + j ds u_0 + beta (j^2 + n^2 - (j - n)^2) / 2 with
    beta = sign ds du, so the sum is one convolution with the chirp
    exp(i beta k^2 / 2), done by a zero-padded FFT.  The chirp spectrum and
    the phase vectors on either side of it depend only on the grids and are
    built once here.

    ``sign = +1`` is the convention the multiplier statement refers to;
    flipping it reverses the spectral axis and must wreck the identity, which
    the command-line self-test uses as a built-in failure probe.
    """

    def __init__(
        self,
        *,
        u_min: float = -44.0,
        u_max: float = 4.0,
        du: float = 0.02,
        s_max: float = 48.0,
        ds: float = 0.02,
        sign: float = 1.0,
    ):
        if sign not in (1.0, -1.0):
            raise ValueError("sign must be +-1")
        self.u = np.arange(u_min, u_max + 0.5 * du, du)
        self.du = du
        self.s = np.arange(-s_max, s_max + 0.5 * ds, ds)
        self.ds = ds
        self.sign = sign
        # The steps arange actually took, (start + step) - start, differ from
        # the nominal ones in the last bits; the chirp phases need the former.
        n_u, n_s = self.u.size, self.s.size
        step_u = self.u[1] - self.u[0]
        step_s = self.s[1] - self.s[0]
        beta = sign * step_s * step_u
        n = np.arange(n_u, dtype=float)
        j = np.arange(n_s, dtype=float)
        k = np.arange(-(n_u - 1), n_s, dtype=float)
        # The smallest power of two of at least n_u + n_s - 1 points: the
        # circular convolution then equals the linear one on every kept row.
        self._fft_size = 1 << (n_u + n_s - 2).bit_length()
        self._pre = np.exp(0.5 * self.u - 1j * (sign * self.s[0] * step_u * n + 0.5 * beta * n * n))
        self._post = np.exp(-1j * (sign * self.s * self.u[0] + 0.5 * beta * j * j)) * (self.du / _SQRT_2PI)
        self._chirp_spectrum = np.fft.fft(np.exp(0.5j * beta * k * k), self._fft_size)
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
        weighted = np.fft.fft(self._pre * np.asarray(samples), self._fft_size)
        conv = np.fft.ifft(weighted * self._chirp_spectrum)
        return self._post * conv[self.u.size - 1 : self.u.size - 1 + self.s.size]

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
    transformed once, and both images are inverted together."""
    targets = np.where(r <= 0.0, ORIGIN_PROXY, r)
    xs = ev.x
    plus, minus = fn.value(xs), fn.value(-xs)
    spectra = np.stack(
        (ev.r_even * ev.forward(0.5 * (plus + minus)), ev.r_odd * ev.forward(0.5 * (plus - minus))),
        axis=1,
    )
    images = ev.inverse_at(spectra, targets)
    even_half = 0.5 * (fn.even_part(targets) - images[:, 0])
    odd_half = 0.5 * (fn.odd_part(targets) - images[:, 1])
    return even_half, odd_half


def identity_residual(fn: ProbeFunction, evaluator: MellinEvaluator | None = None) -> float:
    """Relative l2 gap between the two routes over the logarithmic ray grid
    geomspace(0.05, 6, 20), both directions omega = +-1 together.  The
    multiplier route's halves are computed once and shared by the two
    directions."""
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
