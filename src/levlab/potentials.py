"""Potential descriptors for the full-line scattering solver.

A potential carries, besides its profile, the metadata the solver needs:
declared tail decay, an optional exact support radius, breakpoints where the
profile is allowed to be non-smooth, and feature zones that the propagation
mesh must resolve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# Integrability of (1 + |x|)^(1/2 + eps) V requires faster decay than this.
MIN_DECAY_EXPONENT = 2.5
# V(-x) and V(x) agree when they differ by at most this times max(1, max |V|)
# over the points compared: rounding of a deep profile must not break its
# symmetry.
SYMMETRY_TOL = 1e-10


def _symmetry_probes(radius: float, breakpoints) -> np.ndarray:
    """Where a declared symmetry is checked: 37 points from 0.1 out to
    ``radius``, and every |breakpoint|, so the scale sees a table's extremes."""
    return np.concatenate([np.linspace(0.1, radius, 37), np.abs(np.asarray(breakpoints, dtype=float))])


def _mirrored(profile, xs: np.ndarray) -> bool:
    """Whether V(-x) = V(x) at every x of ``xs``, to ``SYMMETRY_TOL`` times
    max(1, max |V|) over both sides."""
    left, right = profile(-xs), profile(xs)
    scale = max(1.0, float(np.max(np.abs(left))), float(np.max(np.abs(right))))
    return bool(np.max(np.abs(left - right)) <= SYMMETRY_TOL * scale)


@dataclass(eq=False)
class Potential:
    """A real potential on the line.

    ``decay_exponent`` is the declared power-law bound on the tail; declaring
    a slow tail only warns, but the solver will refuse a truncation radius it
    cannot certify.  ``features`` lists (center, width) pairs marking zones the
    propagation mesh must refine.

    ``tail_bound``, when declared, maps a level to a radius beyond which
    |V| < level; without it ``bounded_radius`` falls back to
    ``support_radius``, or to infinity.  The finite-difference count
    evaluates the profile only inside the radius at which |V| is too small
    to move a diagonal entry.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float = math.inf
    support_radius: Optional[float] = None
    symmetric: bool = False
    breakpoints: tuple[float, ...] = ()
    features: tuple[tuple[float, float], ...] = ()
    label: str = "potential"
    tail_bound: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if math.isnan(self.decay_exponent):
            raise ValueError("decay_exponent must be finite or +inf")
        if self.decay_exponent <= MIN_DECAY_EXPONENT:
            warnings.warn(
                f"declared tail decay exponent {self.decay_exponent:g} <= "
                f"{MIN_DECAY_EXPONENT}: outside the short-range class, results "
                "may not converge",
                stacklevel=3,
            )
        if self.support_radius is not None and not self.support_radius > 0:
            raise ValueError("support_radius must be positive")
        if self.symmetric and not _mirrored(self, _symmetry_probes(self.probe_radius(), self.breakpoints)):
            raise ValueError("potential declared symmetric but V(-x) != V(x)")

    def probe_radius(self) -> float:
        """Radius at which symmetry checks and the truncation search start."""
        if self.support_radius is not None:
            return self.support_radius
        if self.features:
            return max(abs(c) + 4.0 * w for c, w in self.features)
        return 8.0

    def bounded_radius(self, level: float) -> float:
        """Radius beyond which |V| < ``level``."""
        if self.tail_bound is not None:
            return self.tail_bound(level)
        return math.inf if self.support_radius is None else self.support_radius

    def __call__(self, x) -> np.ndarray:
        return self.profile(np.asarray(x, dtype=float))


def square_well(depth: float, half_width: float) -> Potential:
    """V = -depth on [-half_width, half_width], zero elsewhere."""
    if not (math.isfinite(depth) and math.isfinite(half_width)):
        raise ValueError("depth and half_width must be finite")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    a = float(half_width)
    d = float(depth)

    def profile(x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x) <= a, -d, 0.0)

    return Potential(
        profile=profile,
        decay_exponent=math.inf,
        support_radius=a,
        symmetric=True,
        breakpoints=(-a, a),
        label=f"square well (depth {d:g}, half-width {a:g})",
    )


def gaussian_wells(wells: Sequence[tuple[float, float, float]]) -> Potential:
    """Sum of Gaussian wells; each entry is (depth, center, width) with the
    well contributing -depth * exp(-(x - center)^2 / (2 width^2)).

    Its ``tail_bound`` is the closed form: with n wells, |V| < level beyond
    max |center| + width sqrt(2 ln(n |depth| / level)), where every well is
    below level / n."""
    entries = [(float(d), float(c), float(w)) for d, c, w in wells]
    for d, c, w in entries:
        if not all(math.isfinite(v) for v in (d, c, w)):
            raise ValueError("well depths, centres and widths must be finite")
        if w <= 0:
            raise ValueError("well widths must be positive")

    def profile(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x, dtype=float)
        for d, c, w in entries:
            out -= d * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        return out

    def tail_bound(level: float) -> float:
        share = len(entries) / level
        return max(abs(c) + w * math.sqrt(2.0 * math.log(max(1.0, share * abs(d)))) for d, c, w in entries)

    mirrored = {(d, -c, w) for d, c, w in entries}
    symmetric = mirrored == set(entries)
    label = "gaussian well" if len(entries) == 1 else f"sum of {len(entries)} gaussian wells"
    return Potential(
        profile=profile,
        decay_exponent=math.inf,
        support_radius=None,
        symmetric=symmetric,
        features=tuple((c, w) for _, c, w in entries),
        label=label,
        tail_bound=tail_bound if entries else None,
    )


def tabulated_potential(
    xs: Sequence[float],
    values: Sequence[float],
    *,
    decay_exponent: float = math.inf,
) -> Potential:
    """Piecewise-linear interpolation of samples, zero outside the table."""
    x = np.asarray(xs, dtype=float)
    v = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2 or x.shape != v.shape:
        raise ValueError("need matching 1d abscissae and values, at least two points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise ValueError("abscissae and values must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("abscissae must be strictly increasing")

    def profile(q: np.ndarray) -> np.ndarray:
        return np.interp(q, x, v, left=0.0, right=0.0)

    radius = float(max(abs(x[0]), abs(x[-1])))
    # V(q) and V(-q) are affine in q on each open interval between the knots
    # 0 and |x| (a table end can jump to 0), so the knots and two interior
    # points of each interval decide symmetry everywhere.  The points that
    # ``Potential.__post_init__`` checks are compared too, on the same scale,
    # so a table found symmetric passes that check.
    knots = np.unique(np.abs(np.append(x, 0.0)))
    probe = np.concatenate(
        [knots, knots[:-1] + np.diff(knots) / 3.0, knots[1:] - np.diff(knots) / 3.0, _symmetry_probes(radius, x)]
    )
    symmetric = _mirrored(profile, probe)
    min_dx = float(np.min(np.diff(x)))
    span = 0.5 * float(x[-1] - x[0])
    center = 0.5 * float(x[-1] + x[0])
    return Potential(
        profile=profile,
        decay_exponent=float(decay_exponent),
        support_radius=radius,
        symmetric=symmetric,
        breakpoints=tuple(float(t) for t in x),
        features=((center, max(min_dx, span / 64.0)),),
        label=f"tabulated potential ({x.size} samples)",
    )


def zero_potential() -> Potential:
    """The free line."""
    return Potential(
        profile=lambda x: np.zeros_like(x, dtype=float),
        decay_exponent=math.inf,
        support_radius=1.0,
        symmetric=True,
        label="zero potential",
    )


def integrated_absolute(potential: Potential, radius: float) -> float:
    """Trapezoid estimate of the integral of |V| over [-radius, radius], on
    4097 evenly spaced points."""
    xs = np.linspace(-radius, radius, 4097)
    return float(np.trapezoid(np.abs(potential(xs)), xs))
