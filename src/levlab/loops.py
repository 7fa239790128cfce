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

Every system supplies only its momentum side B2, and ``loop_report`` closes
it: B1 is the threshold connector from the identity to S(0), B3 the
connector to S(inf) run backwards, and B4 the identity, which does not wind.
A connector's endpoint is admitted by an exact unitarity rule, and its det
phase is that of the chord from diag(-i, i) to the endpoint
(``connector_winding``).  A potential's B2 is its stack of momentum nodes
joined by chords.  ``chord_winding`` winds all chords in closed form.  A point
interaction's B2 is an analytic path over t in [0, 1], ending on its exact
value at infinite momentum; ``winding`` winds it by phase unwrapping with
adaptive sample doubling, and ``loop_report`` closes it like any other B2.
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

_J = np.diag([-1j, 1j])  # where a connector's chord starts

# A chord value with |det| at or below this share of its squared Frobenius
# norm is singular to rounding: its det phase is undefined.
_SINGULAR_DET = 1e-14

# Knobs of ``winding``: initial samples per path, agreement of successive
# doublings.
WINDING_SAMPLES = 257
WINDING_TOL = 1e-9


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
    (1 - r_even) / 2 = alpha = 1 / (1 - i y) and (1 - r_odd) / 2 = conj(alpha),
    so with J = diag(-i, i) and theta = 1 / (1 + y)

        (1 + y^2) det C = y^2 + i (s00 - s11) y + det s_end
                        = theta^-2 det((1 - theta) J + theta s_end),

    because det J = 1 and tr(adj(J) s_end) = i (s00 - s11).  theta runs from
    0 to 1 as x increases and the positive factors do not turn the phase, so
    the connector winds as the chord from J to s_end (``chord_winding``).  A
    generic endpoint diag(-1, 1) gives -1/2.

    With M = s_end - 1 and sigma_z = diag(1, -1),

        C^dag C - 1 = |alpha|^2 [(M + M^dag + M^dag M) + i y (sigma_z M - (sigma_z M)^dag)],

    so C is unitary for every x exactly when s_end is unitary and sigma_z M
    is Hermitian, as for both zero-energy scattering forms; an endpoint off
    either by 1e-10 raises ``NonUnitaryPath``.
    """
    s = np.asarray(s_end, dtype=complex)
    hz = (s - np.eye(2)) * [[1.0], [-1.0]]  # sigma_z M
    worst = max(unitarity_defect(s), float(np.max(np.abs(hz - hz.conj().T))))
    if not worst < 1e-10:
        raise NonUnitaryPath(
            f"connector endpoint leaves the unitary family along the path "
            f"(worst defect {worst:.3e} >= 1e-10)"
        )
    return chord_winding(np.stack([_J, s]))


def chord_winding(nodes) -> float:
    """Winding of det along the chords (1 - theta) A + theta B, theta in
    [0, 1], between consecutive unitary nodes of an (n, 2, 2) stack.

    det of a chord is p(theta) = det A + theta tr(adj(A) (B - A)) +
    theta^2 det(B - A), and each root rho of p turns its phase by
    arg((1 - rho) / (-rho)) = arg(1 - 1/rho).  The reciprocal roots are
    finite since |det A| = 1, and 0 for a root p lacks (p linear, as in a
    parity sector, or constant).  Nodes must be unitary to 1e-8; a chord
    whose |det| at the point of [0, 1] nearest a root is at most
    ``_SINGULAR_DET`` times its squared Frobenius norm raises
    ``NonUnitaryPath``.
    """
    us = np.asarray(nodes, dtype=complex)
    if us.ndim != 3 or us.shape[0] < 2 or us.shape[1:] != (2, 2):
        raise ValueError("need an (n, 2, 2) stack of at least two nodes")
    worst = unitarity_defect(us)
    if not worst < 1e-8:
        raise NonUnitaryPath(f"chord node is not unitary (defect {worst:.3e})")
    a, d = us[:-1], np.diff(us, axis=0)
    (a00, a01), (a10, a11) = a[:, 0].T, a[:, 1].T
    (d00, d01), (d10, d11) = d[:, 0].T, d[:, 1].T
    c = a00 * a11 - a01 * a10
    b = a11 * d00 - a01 * d10 - a10 * d01 + a00 * d11
    quad = d00 * d11 - d01 * d10
    # q = -(b + r) / 2, r the square root of the discriminant signed so that
    # the sum never cancels: the roots are q / quad and c / q
    root = np.sqrt(b * b - 4.0 * quad * c)
    q = -0.5 * (b + np.where((np.conj(b) * root).real < 0.0, -root, root))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # q = 0 only where b = quad = 0 (to underflow): a constant det
        recips = np.where(q == 0.0, 0.0, np.stack([quad / q, q / c]))
        # a root far off (or none) gives inf or nan: any point will do
        nearest = np.clip(np.nan_to_num((1.0 / recips).real), 0.0, 1.0)
    det = c + nearest * (b + nearest * quad)
    norm = np.sum(np.abs(a + nearest[..., None, None] * d) ** 2, axis=(-2, -1))
    if not np.all(np.abs(det) > _SINGULAR_DET * norm):
        raise NonUnitaryPath("a chord's det vanishes on it; its det phase is undefined")
    return float(np.sum(np.angle(1.0 - recips)) / (2.0 * np.pi))


def loop_report(start, w2: float, end, *, n_bound: int, resonance: ResonanceClass) -> WindingReport:
    """Report of the loop around a momentum side B2 that runs from S(0) =
    ``start`` to S(inf) = ``end`` and winds ``w2``, with the given bound-state
    count and threshold class.  B1 connects the identity to S(0) and B3 runs
    the connector to S(inf) backwards, both wound by ``connector_winding``;
    B4 is the identity and does not wind.
    """
    # 0.0 - w keeps an unwound B3 at +0.0 where -w would give -0.0
    ws = (connector_winding(start), w2, 0.0 - connector_winding(end), 0.0)
    total = float(sum(ws))
    return WindingReport(
        w=ws,
        total=total,
        n_bound=n_bound,
        correction=ws[0] + ws[2] + ws[3],
        resonance=resonance,
        residual=abs(total + n_bound),
    )

