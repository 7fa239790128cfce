"""Boundary loops over the compactified energy-dilation square.

The index bookkeeping lives on the boundary of a square whose horizontal
coordinate is energy (momentum squared) and whose vertical coordinate is the
spectral parameter of the dilation generator.  The four sides are traversed
counterclockwise:

    B1: zero-energy side, dilation parameter x from -inf to +inf
    B2: energy side at x = +inf, momentum kappa from 0 to +inf
    B3: infinite-energy side, x from +inf back to -inf
    B4: energy side at x = -inf, kappa from +inf back to 0

Each side carries a norm-continuous family of invertible 2x2 matrices; a
closed loop has a well defined winding number of the determinant.

Every system supplies only its momentum side B2, and ``loop_winding`` closes
it, so the loop has one shape for point interactions and potentials alike.
B2 is wound by phase unwrapping of determinant step ratios with adaptive
sample doubling; a potential's B2 is linear between its momentum nodes.  The
other three sides are fixed by B2's end values and wound in closed form: B1
is the threshold connector from the identity to S(0), B3 the connector to
S(inf) run backwards, B4 the identity, which does not wind.

B2's infinite momentum is represented by its exact end value at t = 1 of
its unit-interval parametrisation; no floating infinity ever enters a
quadrature.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import (
    CornerMismatch,
    NonUnitaryPath,
    PhaseJumpTooLarge,
    WindingNotConverged,
)

INF = float("inf")

# tanh saturates to 1 and sech underflows past double precision well before
# the argument reaches this cap, so clipping changes nothing measurable while
# keeping cosh away from overflow.
_ARG_CAP = 40.0

_I2 = np.eye(2, dtype=complex)

# Interpolants with |det| at or below this share of their squared Frobenius
# norm are singular to rounding: their det phase is undefined.
_SINGULAR_DET = 1e-14

# Winding knobs of every boundary loop: initial samples per side, agreement
# of successive doublings, largest mismatch at a corner.
WINDING_SAMPLES = 257
WINDING_TOL = 1e-9
CORNER_TOL = 1e-8


def r_even(x):
    """Universal even-sector multiplier -tanh(pi x) - i sech(pi x).

    Accepts scalars or arrays; +-inf map to the exact limits -+1.  The value
    lies on the unit circle for every real argument.
    """
    arr = np.asarray(x, dtype=float)
    z = np.clip(np.pi * arr, -_ARG_CAP, _ARG_CAP)
    out = -np.tanh(z) - 1j / np.cosh(z)
    out = np.where(np.isposinf(arr), -1.0 + 0.0j, out)
    out = np.where(np.isneginf(arr), 1.0 + 0.0j, out)
    if np.ndim(x) == 0:
        return complex(out)
    return out


def r_odd(x):
    """Universal odd-sector multiplier, the complex conjugate of r_even."""
    return np.conjugate(r_even(x))


# ---------------------------------------------------------------------------
# 2x2 unitary values


def unitarity_defect(us) -> float:
    """Max-norm distance of U^dag U from the identity, for one square matrix
    or, in one stacked computation, the largest over an (n, m, m) stack."""
    us = np.asarray(us, dtype=complex)
    gram = np.swapaxes(us.conj(), -1, -2) @ us
    return float(np.max(np.abs(gram - np.eye(us.shape[-1]))))


class Sector(Enum):
    """Parity sector of the full-line problem."""

    EVEN = "even"
    ODD = "odd"
    FULL = "full"


# ---------------------------------------------------------------------------
# Report types


@dataclass(frozen=True)
class ResonanceClass:
    """Threshold behaviour tag: generic, or exceptional with the ratio of the
    right to the left asymptotic constant of the bounded zero-energy solution."""

    tag: str
    gamma: Optional[float] = None

    _TAGS: ClassVar[tuple[str, str]] = ("generic", "exceptional")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown resonance tag {self.tag!r}")
        if self.tag == "exceptional":
            if self.gamma is None or self.gamma == 0.0:
                raise ValueError("exceptional class requires a nonzero gamma")
        elif self.gamma is not None:
            raise ValueError("generic class carries no gamma")

    @classmethod
    def generic(cls) -> "ResonanceClass":
        return cls("generic")

    @classmethod
    def exceptional(cls, gamma: float) -> "ResonanceClass":
        return cls("exceptional", float(gamma))

    @property
    def is_exceptional(self) -> bool:
        return self.tag == "exceptional"

    def to_dict(self) -> dict:
        return {"tag": self.tag, "gamma": self.gamma}


# ---------------------------------------------------------------------------
# Parity sectors and the threshold


_SLOT = {Sector.EVEN: 0, Sector.ODD: 1}


def threshold_matrix(resonance: ResonanceClass) -> np.ndarray:
    """Zero-energy scattering matrix in the even-odd basis.

    Generic thresholds give diag(-1, 1); an exceptional threshold with
    asymptotic ratio gamma gives the real orthogonal matrix with 2 gamma on
    the diagonal and +-(1 - gamma^2) off it, normalised by 1 + gamma^2.
    """
    if not resonance.is_exceptional:
        return np.diag([-1.0 + 0.0j, 1.0 + 0.0j])
    g = resonance.gamma
    return np.array(
        [[2.0 * g, 1.0 - g * g], [g * g - 1.0, 2.0 * g]], dtype=complex
    ) / (1.0 + g * g)


def restrict(matrices, sector: Sector) -> np.ndarray:
    """One parity sector's part of even-odd matrices: FULL returns them
    unchanged, EVEN and ODD embed the sector's diagonal entry s as diag(s, 1)
    or diag(1, s).  Accepts one 2x2 matrix or an (n, 2, 2) stack."""
    if sector is Sector.FULL:
        return matrices
    m = np.asarray(matrices, dtype=complex)
    slot = _SLOT[sector]
    out = np.zeros(m.shape, dtype=complex)
    out[..., slot, slot] = m[..., slot, slot]
    out[..., 1 - slot, 1 - slot] = 1.0
    return out


def sector_unitary(value: complex, sector: Sector) -> np.ndarray:
    """diag(value, 1) for EVEN, diag(1, value) for ODD: one sector's
    amplitude as a 2x2 unitary, built as one array."""
    if sector is Sector.EVEN:
        return np.array([[value, 0.0j], [0.0j, 1.0 + 0.0j]])
    if sector is Sector.ODD:
        return np.array([[1.0 + 0.0j, 0.0j], [0.0j, value]])
    raise ValueError("sector amplitudes exist for parity sectors only")


def sector_threshold_class(sector: Sector, value: float) -> ResonanceClass:
    """Threshold class of a parity sector from its zero-energy amplitude:
    +1 in the even sector is the even half-bound state, exceptional(+1), -1
    in the odd sector the odd one, exceptional(-1); anything else is generic."""
    if sector is Sector.EVEN and value == 1.0:
        return ResonanceClass.exceptional(1.0)
    if sector is Sector.ODD and value == -1.0:
        return ResonanceClass.exceptional(-1.0)
    return ResonanceClass.generic()


@dataclass(frozen=True)
class WindingReport:
    """Per-side windings of a boundary loop plus bound-state bookkeeping.

    ``correction`` is the part of the total winding not carried by the energy
    side B2 (the sum w1 + w3 + w4); with the time-delay sign convention used
    here the B2 integral equals n_bound plus this correction.  ``residual`` is
    |total + n_bound| and is small exactly when the index identity holds.
    """

    w: tuple[float, float, float, float]
    total: float
    n_bound: int
    correction: float
    resonance: ResonanceClass
    residual: float

    def to_dict(self) -> dict:
        return {
            "w": list(self.w),
            "total": self.total,
            "n_bound": self.n_bound,
            "correction": self.correction,
            "resonance": self.resonance.to_dict(),
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# Paths


@dataclass
class BoundaryPath:
    """A path of invertible 2x2 matrices: t in [0, 1] mapped to one value,
    whose det phase is wound.  Values at both ends are unitary.

    t = 0 is the start of the traversal.  ``eval`` takes one float and
    returns one 2x2 array; it is never called with an array of parameters.
    The benchmark tracer relies on that: it wraps ``eval`` and counts one
    path evaluation per call.
    """

    eval: Callable[[float], np.ndarray]


def momentum_coordinate(t: float) -> float:
    """Map the open unit interval onto the momentum half-line, kappa = t / (1 - t)."""
    return t / (1.0 - t)


def interpolated_path(node_params, node_values) -> BoundaryPath:
    """Piecewise-linear path through unitary nodes.

    Node parameters must be strictly increasing and span [0, 1]; each node must
    be unitary to 1e-8.  Between nodes the value is (1 - theta) A + theta B:
    only its det phase is wound, and for M = U P that is the phase of det U.
    A singular interpolant raises ``NonUnitaryPath``.
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

    def evaluate(t: float) -> np.ndarray:
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
        if not size > _SINGULAR_DET * scale:  # also rejects nan
            raise NonUnitaryPath(
                f"interpolant is singular (|det| {size:.3e}); its det phase is undefined"
            )
        return np.array([[m00, m01], [m10, m11]])

    return BoundaryPath(evaluate)


# ---------------------------------------------------------------------------
# Winding numbers


def _dets(path: BoundaryPath, ts: np.ndarray) -> np.ndarray:
    """det of the path's value at each parameter, in one stacked call."""
    return np.linalg.det(np.array([path.eval(t) for t in ts.tolist()], dtype=complex))


def phase_steps(dets: np.ndarray) -> np.ndarray:
    """Phase steps arg(d[i+1] / d[i]) of consecutive determinants, in radians
    within (-pi, pi]."""
    return np.angle(dets[1:] * np.conj(dets[:-1]))


def _turns(dets: np.ndarray) -> tuple[float, float]:
    """Summed phase steps of consecutive determinants in turns, and the
    largest single step in radians."""
    steps = phase_steps(dets)
    return float(steps.sum() / (2.0 * np.pi)), float(np.max(np.abs(steps)))


def winding(
    path: BoundaryPath,
    n_samples: int = WINDING_SAMPLES,
    *,
    tol: float = WINDING_TOL,
    max_samples: int = 1 << 17,
) -> float:
    """Winding number of det along the path via unwrapped phase steps.

    Doubles the sample count until two successive estimates agree to ``tol``
    and no single step exceeds pi/2.  The phase-step sum telescopes, so for a
    continuous path the estimate is exact as soon as the sampling is fine
    enough to rule out hidden full turns.  Each parameter is evaluated once:
    a doubling keeps the previous determinants and samples only the new
    midpoints.
    """
    if n_samples < 16:
        raise ValueError("n_samples must be at least 16")
    n = int(n_samples)
    dets = _dets(path, np.linspace(0.0, 1.0, n))
    est, _ = _turns(dets)
    while True:
        n2 = 2 * n - 1
        # linspace(0, 1, n2)[::2] is linspace(0, 1, n) bit for bit: the step
        # halves exactly, so only the odd-index parameters are new.
        fine = np.empty(n2, dtype=complex)
        fine[::2] = dets
        fine[1::2] = _dets(path, np.linspace(0.0, 1.0, n2)[1::2])
        est2, max_step = _turns(fine)
        if max_step <= np.pi / 2 and abs(est2 - est) < tol:
            return est2
        if n2 >= max_samples:
            if max_step > np.pi / 2:
                raise PhaseJumpTooLarge(
                    f"determinant phase step {max_step:.3f} rad still exceeds pi/2 "
                    f"at the sample cap {n2}"
                )
            raise WindingNotConverged(
                f"winding estimates still moving by {abs(est2 - est):.3e} at the sample cap"
            )
        n, dets, est = n2, fine, est2


def connector_winding(s_end) -> float:
    """Winding of the dilation-side connector from the identity to s_end.

    At dilation parameter x the connector is

        C(x) = 1 + (1/2) (1 - R(x)) (s_end - 1),   R(x) = diag(r_even(x), r_odd(x)),

    the identity at x = -inf and s_end at x = +inf.  With y = exp(-pi x),
    (1 - r_even) / 2 = 1 / (1 - i y) and (1 - r_odd) / 2 = 1 / (1 + i y), so

        (1 + y^2) det C = y^2 + i (s00 - s11) y + det s_end.

    y runs from +inf down to 0 as x increases, and each root rho of that
    quadratic turns arg(y - rho) from 0 to arg(-rho): the winding is the sum
    of arg(-rho) over both roots, in turns.  A generic endpoint diag(-1, 1)
    gives (y - i)^2, that is -1/2.

    The connector stays unitary for the admitted endpoint shapes (identity,
    +-1 blocks, and both zero-energy scattering forms); endpoints outside that
    family are rejected by a unitarity check of C at the 41 dilation
    parameters x = tan(pi (t - 1/2)), t evenly spaced in [0, 1].
    """
    s = np.asarray(s_end, dtype=complex)
    (s00, s01), (s10, s11) = s.tolist()
    r = r_even(np.tan(np.pi * (np.linspace(0.0, 1.0, 41) - 0.5)))
    halves = 0.5 * (1.0 - np.stack([r, r.conjugate()], axis=-1))
    worst = unitarity_defect(_I2 + halves[:, :, None] * (s - _I2))
    if not worst < 1e-10:
        raise NonUnitaryPath(
            f"connector endpoint leaves the unitary family along the path "
            f"(worst defect {worst:.3e} >= 1e-10)"
        )
    # Roots of y^2 + b y + c without cancellation: q takes the larger of
    # -(b +- sqrt(b^2 - 4c)) / 2, and the other root is c / q.  q is never
    # zero: c = det s_end, and the check above admits unitary s_end only.
    b = 1j * (s00 - s11)
    c = s00 * s11 - s01 * s10
    root = cmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * root).real < 0.0:
        root = -root
    q = -0.5 * (b + root)
    return (cmath.phase(-q) + cmath.phase(-c / q)) / (2.0 * math.pi)


def loop_winding(
    b2: BoundaryPath,
    *,
    n_bound: int,
    resonance: ResonanceClass,
    corner_tol: float = CORNER_TOL,
    n_samples: int = WINDING_SAMPLES,
    tol: float = WINDING_TOL,
) -> WindingReport:
    """Complete report of the boundary loop around a momentum side B2 that
    runs from S(0) to S(inf): per-side windings, their sum, the given
    bound-state count and threshold class, and the residual |total + n_bound|
    of the index identity.

    B1 connects the identity to S(0) and B3 runs the connector to S(inf)
    backwards, so both are wound in closed form by ``connector_winding``; B4
    is the identity and does not wind.  Only B2 is sampled, by ``winding``.
    The end values read for the connectors must match fresh evaluations of
    B2 to ``corner_tol``.
    """
    start, end = b2.eval(0.0), b2.eval(1.0)
    w1 = connector_winding(start)
    # 0.0 - w keeps an unwound B3 at +0.0 where -w would give -0.0
    w3 = 0.0 - connector_winding(end)
    defect = max(
        float(np.max(np.abs(start - b2.eval(0.0)))),
        float(np.max(np.abs(b2.eval(1.0) - end))),
    )
    if not defect < corner_tol:
        raise CornerMismatch(f"loop corners differ by {defect:.3e} >= {corner_tol:g}")
    ws = (w1, winding(b2, n_samples=n_samples, tol=tol), w3, 0.0)
    total = float(sum(ws))
    return WindingReport(
        w=ws,
        total=total,
        n_bound=n_bound,
        correction=ws[0] + ws[2] + ws[3],
        resonance=resonance,
        residual=abs(total + n_bound),
    )
