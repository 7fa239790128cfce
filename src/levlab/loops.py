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

Every system supplies only its momentum side B2, a stack of momentum nodes
from S(0) to S(inf) joined by chords, and ``loop_report``, the one winding
entry, closes it: B1 is the threshold connector from the identity to S(0),
B3 the connector to S(inf) run backwards, and B4 the identity, which does
not wind.  A connector's endpoint is admitted by an exact unitarity rule,
and its det phase is that of the chord from diag(-i, i) to the endpoint.  So
the whole loop is a batch of chords, wound in one array pass by the roots of
each chord's det.  ``restrict`` embeds one parity sector's part of even-odd
matrices, for potentials and point interactions alike.  ``winding`` winds
an analytic ``BoundaryPath`` by phase unwrapping with adaptive sample
doubling, the tests' reference for the closed forms; no system uses it, its
knobs are its own arguments, and the package top level exports neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import NonUnitaryPath, PhaseJumpTooLarge, WindingNotConverged

# tanh saturates to 1 and sech underflows past double precision well before
# the argument reaches this cap, so clipping changes nothing measurable while
# keeping cosh away from overflow.
_ARG_CAP = 40.0

_J = np.diag([-1j, 1j])[None]  # where every connector's chord starts, as a stack
_SIGMA_Z = np.diag([1.0, -1.0])

# A chord value with |det| at or below this share of its squared Frobenius
# norm is singular to rounding: its det phase is undefined.
_SINGULAR_DET = 1e-14


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
    """Threshold behaviour: generic (gamma None), or exceptional with gamma the
    ratio of right to left asymptotic constants of the zero-energy solution."""

    gamma: Optional[float] = None

    @classmethod
    def generic(cls) -> "ResonanceClass":
        return cls()

    @classmethod
    def exceptional(cls, gamma: float) -> "ResonanceClass":
        if gamma == 0.0:
            raise ValueError("exceptional class requires a nonzero gamma")
        return cls(float(gamma))

    @property
    def is_exceptional(self) -> bool:
        return self.gamma is not None

    @property
    def tag(self) -> str:
        return "exceptional" if self.is_exceptional else "generic"

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
    n_samples: int = 257,
    *,
    tol: float = 1e-9,
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


def _root_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The phase turn of each det root of the chords (1 - theta) a + theta b,
    theta in [0, 1], from the starts ``a`` to the ends ``b``, (m, 2, 2)
    stacks, as a (2, m) array with one row per root.

    det of a chord is p(theta) = det a + theta tr(adj(a) (b - a)) +
    theta^2 det(b - a), and each root rho of p turns its phase by
    arg((1 - rho) / (-rho)) = arg(1 - 1/rho).  The reciprocal roots are
    finite since |det a| = 1, and 0 for a root p lacks (p linear, as in a
    parity sector, or constant).  A chord whose |det| at the point of
    [0, 1] nearest a root is at most ``_SINGULAR_DET`` times its squared
    Frobenius norm raises ``NonUnitaryPath``.
    """
    d = b - a
    (a00, a01), (a10, a11) = a[:, 0].T, a[:, 1].T
    (d00, d01), (d10, d11) = d[:, 0].T, d[:, 1].T
    c = a00 * a11 - a01 * a10
    lin = a11 * d00 - a01 * d10 - a10 * d01 + a00 * d11
    quad = d00 * d11 - d01 * d10
    # q = -(lin + r) / 2, r the square root of the discriminant signed so
    # that the sum never cancels: the roots are q / quad and c / q
    root = np.sqrt(lin * lin - 4.0 * quad * c)
    q = -0.5 * (lin + np.where((np.conj(lin) * root).real < 0.0, -root, root))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # q = 0 only where lin = quad = 0 (to underflow): a constant det
        recips = np.where(q == 0.0, 0.0, np.stack([quad / q, q / c]))
        # a root far off (or none) gives inf or nan: any point will do
        nearest = np.clip(np.nan_to_num((1.0 / recips).real), 0.0, 1.0)
    det = c + nearest * (lin + nearest * quad)
    norm = np.sum(np.abs(a + nearest[..., None, None] * d) ** 2, axis=(-2, -1))
    if not np.all(np.abs(det) > _SINGULAR_DET * norm):
        raise NonUnitaryPath("a chord's det vanishes on it; its det phase is undefined")
    return np.angle(1.0 - recips)


def _turns_of(angles: np.ndarray) -> float:
    """Summed root angles in turns."""
    return float(np.sum(angles) / (2.0 * np.pi))


def loop_report(nodes, *, n_bound: int, resonance: ResonanceClass) -> WindingReport:
    """Report of the loop around the momentum side B2, an (n, 2, 2) node
    stack from S(0) to S(inf), n >= 2, with the given bound-state count and
    threshold class.  B1 connects the identity to S(0), B3 runs the
    connector to S(inf) backwards, and B4 is the identity, which does not
    wind.  Each node must be unitary to 1e-8.

    At dilation parameter x the connector to an endpoint s is

        C(x) = 1 + (1/2) (1 - R(x)) (s - 1),   R(x) = diag(r_even(x), r_odd(x)),

    the identity at x = -inf and s at x = +inf.  With y = exp(-pi x),
    (1 - r_even) / 2 = alpha = 1 / (1 - i y) and (1 - r_odd) / 2 = conj(alpha),
    so with J = diag(-i, i) and theta = 1 / (1 + y)

        (1 + y^2) det C = y^2 + i (s00 - s11) y + det s
                        = theta^-2 det((1 - theta) J + theta s),

    because det J = 1 and tr(adj(J) s) = i (s00 - s11).  theta runs from 0
    to 1 as x increases and the positive factors do not turn the phase, so a
    connector winds as the chord from J to its endpoint; a generic endpoint
    diag(-1, 1) gives -1/2.  With M = s - 1 and sigma_z = diag(1, -1),

        C^dag C - 1 = |alpha|^2 [(M + M^dag + M^dag M) + i y (sigma_z M - (sigma_z M)^dag)],

    so C is unitary for every x exactly when s is unitary and sigma_z M is
    Hermitian, as for both zero-energy scattering forms.  Both ends are
    admitted by that rule in one array check, and an end off it by 1e-10
    raises ``NonUnitaryPath``.  The n + 1 chords, J -> S(0), B2's n - 1 and
    J -> S(inf), are then wound in one array pass.
    """
    us = np.asarray(nodes, dtype=complex)
    if us.ndim != 3 or us.shape[0] < 2 or us.shape[1:] != (2, 2):
        raise ValueError("need an (n, 2, 2) stack of at least two nodes")
    worst = unitarity_defect(us)
    if not worst < 1e-8:
        raise NonUnitaryPath(f"chord node is not unitary (defect {worst:.3e})")
    ends = us[[0, -1]]
    dag = np.swapaxes(ends.conj(), -1, -2)
    # sigma_z s - s^dag sigma_z is sigma_z M - (sigma_z M)^dag, M = s - 1
    defects = np.concatenate([dag @ ends - np.eye(2), _SIGMA_Z @ ends - dag @ _SIGMA_Z])
    worst = float(np.max(np.abs(defects)))
    if not worst < 1e-10:
        raise NonUnitaryPath(
            f"connector endpoint leaves the unitary family along the path "
            f"(worst defect {worst:.3e} >= 1e-10)"
        )
    angles = _root_angles(np.concatenate([_J, us[:-1], _J]), np.concatenate([us, us[-1:]]))
    # B2's block is summed as a contiguous copy, which keeps the order of
    # its sum on long stacks; 0.0 - w keeps an unwound B3 at +0.0 where -w
    # would give -0.0
    b2 = _turns_of(angles[:, 1:-1].copy())
    ws = (_turns_of(angles[:, 0]), b2, 0.0 - _turns_of(angles[:, -1]), 0.0)
    total = float(sum(ws))
    return WindingReport(
        w=ws,
        total=total,
        n_bound=n_bound,
        correction=ws[0] + ws[2] + ws[3],
        resonance=resonance,
        residual=abs(total + n_bound),
    )
