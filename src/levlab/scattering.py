"""Scattering analysis of short-range potentials on the line.

Everything the index bookkeeping needs from a potential is produced here:

* unitary scattering matrices on an adaptively refined momentum grid, from
  the band table of a mesh-halving ladder that stops at the pair (M, M/2):
  the nodes up to each probe momentum are propagated on the coarsest rung,
  M at the latest, that certifies it against M/2, and nodes above the top
  probe, which no probe certifies, on M/2,
* the tail momentum K beyond which a Jost-function bound certifies S in
  closed form (``TAIL_X``): the momentum side that the certificates read
  stops at the first initial grid node at or above K, and the identity
  closes it, while the dumped grid runs on to ``kappa_max``,
* the threshold class (generic, or exceptional with the asymptotic ratio
  gamma of the bounded zero-energy solution) with an independent cross-check
  against a small-momentum extrapolation of the scattering matrix itself,
* the number of bound states, counted twice by unrelated routes (nodes of
  the zero-energy solution, and negative eigenvalues of a finite-difference
  Hamiltonian on the full line); a parity sector's share of a symmetric
  potential's count follows from the oscillation theorem, the n-th state
  having parity (-1)^n,
* the spectral-shift (time-delay) integral along the momentum side of the
  boundary square, summed from eigenphase increments,
* the momentum side of the boundary loop, full line or per parity sector, as
  node values that ``loops.loop_report`` closes into the loop and winds in
  closed form.  The sector rules (which diagonal entry a sector keeps, and
  which zero-energy value is a half-bound state) live in ``loops``, shared
  with the point interactions.

Matrices are kept in the plane-wave basis (transmission on the diagonal);
the index constructions read the even-odd stack of the side that stops at K,
where the threshold forms are real orthogonal.  ``ScatteringData``'s two CSV
dumps read the even-odd stack of the whole grid in array passes: one unwrap,
one batched ``eig``, one row writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    ClassificationAmbiguous,
    PhaseJumpTooLarge,
    ResolutionInsufficient,
    SolverDiverged,
    SymmetryRequired,
)
from .loops import (
    ResonanceClass,
    Sector,
    WindingReport,
    loop_report,
    phase_steps,
    restrict,
    sector_threshold_class,
    threshold_matrix,
    unitarity_defect,
)
from .potentials import Potential, integrated_absolute
from .propagate import (
    TransferEngine,
    build_mesh,
    fd_negative_eigenvalue_count,
    truncation_radius,
)

_SQ2 = 1.0 / math.sqrt(2.0)
_EO = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]])
_I2 = np.eye(2, dtype=complex)

# Below this |c1| the flat-seeded zero-energy solution decays on both sides:
# a zero-energy bound state, which has no resonance ratio to report.
THRESHOLD_EIGENVALUE_C1 = 1e-6
# A symmetric potential is exceptional only with gamma = +1 or -1; a gamma
# farther than this from both is a classification failure.
SYMMETRIC_GAMMA_TOL = 1e-3
# Largest initial finite-difference box half-width; growth may still exceed it.
FD_BOX_CAP = 2000.0
# The first box also spans SHALLOW_DECAY_LENGTHS decay lengths of the weakest
# binding momentum, taken as SHALLOW_MOMENTUM_FACTOR times the integrated |V|
# and at least SHALLOW_MOMENTUM_FLOOR.  Only weak wells need it: from
# integrated |V| = 1.2 up it is at most 14.8, below the default fd_min_box.
SHALLOW_MOMENTUM_FACTOR = 0.45
SHALLOW_MOMENTUM_FLOOR = 5e-3
SHALLOW_DECAY_LENGTHS = 8.0
# Probe momenta whose scattering data must stop moving under mesh halving;
# each tops the band of grid nodes of the coarsest ladder rung that agrees
# with M/2 at every probe up to it, and M at the latest reaches the last.
ENGINE_PROBE_KAPPAS = np.geomspace(1e-3, 50.0, 10)
ENGINE_PROBE_KAPPAS.flags.writeable = False
# Largest ``kappa_max``: the kernel forms kappa^4, which overflows above
# kappa = 1.16e77.
KAPPA_MAX_CAP = 1e76
# The infinite-energy end in closed form.  With I = integral |V| and
# x = I / kappa, the Jost-function bound |m - 1| <= exp(x) - 1 (P. Deift and
# E. Trubowitz, Comm. Pure Appl. Math. 32 (1979) 121; R. G. Newton,
# Scattering Theory of Waves and Particles, 1982, ch. 12) puts a = 1/t within
# beta = (x/2)(e^x - 1) of its Born value a_B = 1 + i integral V / (2 kappa),
# and Re a_B = 1.  So |a| >= 1 - beta and |a - 1| <= beta + x/2, which bound
# |t - 1| = |a - 1| / |a| by (beta + x/2) / (1 - beta); and by the Wronskian
# |r_l r_r| = 1 - |a|^-2, with |a| <= 1 + beta + x/2.  Every eigenvalue
# t +- sqrt(r_l r_r) of S(kappa), and with it each parity sector's entry of a
# symmetric potential, therefore lies within
#     B(x) = (beta + x/2) / (1 - beta) + sqrt(1 - (1 + beta + x/2)^-2)
# of 1.  B increases, and TAIL_X solves B(x) = 1, so for kappa >= K = I / TAIL_X
# every eigenphase stays within +-60 degrees: the chord from S(K) to the
# identity winds exactly the phase that remains, and the time delay's last
# step stays far inside its pi/2 guard.  B reaches sqrt(2), the 90 degree
# limit, only at x = 0.577, so an I up to 28% low is still safe.
TAIL_X = 0.4146996400435798


def check_knob(name: str, value, *, integer: bool) -> None:
    """Refuse a knob that is not a finite positive number, or ``integer`` and not an int."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise TypeError(f"{name} must be {kind}, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class SolverSettings:
    """Numerical knobs for the scattering pipeline, each read by the solver.

    The defaults satisfy every tolerance used in the test suite; loosen them
    only for exploratory runs.  ``kappa_min`` and ``kappa_max`` bound the
    momentum grid that the CSV dumps read; ``kappa_max`` is at most
    ``KAPPA_MAX_CAP``.  It bounds the side that the certificates read only
    when the tail momentum K (``TAIL_X``) exceeds it, since that side stops
    at K.  ``dead_zone`` brackets the normalised slope of the zero-energy
    tail inside which neither threshold class can be certified.
    """

    kappa_min: float = 1e-4
    kappa_max: float = 1e3
    points_per_decade: int = 24
    refine_phase_step: float = 0.35
    refine_entry_step: float = 0.3
    max_refine_rounds: int = 14
    coarse_h: float = 0.05
    feature_cells: int = 32
    solver_tol: float = 2e-10
    max_halvings: int = 6
    tail_tol: float = 1e-10
    radius_cap: float = 2048.0
    dead_zone: tuple[float, float] = (1e-6, 1e-3)
    classify_probe: float = 2e-4
    classify_cross_tol: float = 1e-3
    shooting_horizon: float = 1e6
    fd_h: float = 0.005
    fd_min_box: float = 40.0
    fd_box_margin: float = 1.3
    fd_growth: float = 2.0
    fd_max_growth: int = 5

    def __post_init__(self):
        """Every knob passes ``check_knob`` for its field's type, ``dead_zone``
        increases, ``kappa_min`` lies below ``kappa_max``, ``kappa_max`` is at
        most ``KAPPA_MAX_CAP`` and ``fd_growth`` exceeds 1, so the
        finite-difference count is checked on a larger box."""
        if not (isinstance(self.dead_zone, tuple) and len(self.dead_zone) == 2):
            raise TypeError(f"dead_zone must be a pair of numbers, got {self.dead_zone!r}")
        for field in fields(self):
            values = self.dead_zone if field.name == "dead_zone" else (getattr(self, field.name),)
            for value in values:
                check_knob(field.name, value, integer=type(field.default) is int)
        if not self.dead_zone[0] < self.dead_zone[1]:
            raise ValueError(f"dead_zone must increase, got {self.dead_zone!r}")
        if not self.kappa_min < self.kappa_max:
            raise ValueError(f"kappa_min {self.kappa_min!r} must lie below kappa_max {self.kappa_max!r}")
        if not self.kappa_max <= KAPPA_MAX_CAP:
            raise ValueError(f"kappa_max must be at most {KAPPA_MAX_CAP:g}, got {self.kappa_max!r}")
        if not self.fd_growth > 1.0:
            raise ValueError(f"fd_growth must exceed 1, got {self.fd_growth!r}")


def to_even_odd(matrices: np.ndarray) -> np.ndarray:
    """Conjugate plane-wave scattering matrices into the even-odd basis.

    The transform is involutive, so it also maps even-odd back to plane.
    Accepts a single 2x2 matrix or a stack (n, 2, 2).
    """
    m = np.asarray(matrices, dtype=complex)
    return _EO @ m @ _EO


@dataclass
class ScatteringData:
    """Plane-basis scattering matrices on an ascending momentum grid, and
    whether they belong to a potential declared ``symmetric``."""

    kappas: np.ndarray
    matrices: np.ndarray
    symmetric: bool = False

    @cached_property
    def even_odd(self) -> np.ndarray:
        """The matrices in the even-odd basis, converted once on first use."""
        return to_even_odd(self.matrices)

    def unitarity_defect(self) -> float:
        """Worst entrywise distance of S^dag S from the identity on the grid."""
        return unitarity_defect(self.matrices)

    def det_phases(self) -> np.ndarray:
        """Continuously unwrapped argument of det S along the grid."""
        return _unwrapped_angle(np.linalg.det(self.even_odd))

    def eigenphase_curves(self) -> np.ndarray:
        """Unwrapped eigenphases (n, 2), columns ordered by their angle at the
        first node.  A symmetric potential's follow the two diagonal slots of
        the even-odd stack.  Otherwise the eig columns v, w of consecutive
        nodes pair crosswise only where |<v0,w1>|^2 + |<v1,w0>|^2 strictly
        exceeds |<v0,w0>|^2 + |<v1,w1>|^2 (an exact tie pairs them straight);
        rounding decides where two eigenphases nearly meet."""
        if self.symmetric:
            slots = np.diagonal(self.even_odd, axis1=1, axis2=2)
            return _unwrapped_angle(slots[:, np.argsort(np.angle(slots[0]))])
        lam, vec = np.linalg.eig(self.even_odd)
        overlap = np.abs(vec[:-1].conj().swapaxes(1, 2) @ vec[1:]) ** 2
        cross = overlap[:, 0, 1] + overlap[:, 1, 0] > overlap[:, 0, 0] + overlap[:, 1, 1]
        swapped = np.logical_xor.accumulate(np.r_[np.angle(lam[0, 0]) > np.angle(lam[0, 1]), cross])
        return _unwrapped_angle(np.where(swapped[:, None], lam[:, ::-1], lam))

    def write_csv(self, path) -> None:
        """Entrywise CSV dump; floats use shortest round-trip formatting, so
        identical data produces byte-identical files."""
        entries = np.ascontiguousarray(self.matrices, dtype=complex).reshape(-1, 4).view(float)
        table = np.column_stack([self.kappas, entries])
        _write_rows(path, "kappa,re11,im11,re12,im12,re21,im21,re22,im22", table)

    def write_phase_csv(self, path) -> None:
        """Phase dump in the even-odd basis: unwrapped arg det S and both
        eigenphase curves per momentum, formatted as in ``write_csv``."""
        table = np.column_stack([self.kappas, self.det_phases(), self.eigenphase_curves()])
        _write_rows(path, "kappa,arg_det,phase1,phase2", table)


def _unwrapped_angle(values: np.ndarray) -> np.ndarray:
    """Angle of unit-modulus values, unwrapped along axis 0."""
    steps = np.cumsum(phase_steps(values), axis=0)
    return np.angle(values[0]) + np.concatenate([np.zeros((1,) + steps.shape[1:]), steps])


def _write_rows(path, header: str, table: np.ndarray) -> None:
    """The header, then one line per table row in shortest round-trip form."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())


@dataclass(frozen=True)
class MeshPair:
    """The converged pair (M, M/2) of the mesh-halving ladder, with the
    ladder's coarser rungs that its probes certify, read as one engine;
    ``PotentialAnalysis.mesh_pair`` keeps it.

    ``bands`` holds ascending (top, engine) pairs, and each momentum goes to
    the band of the first top at or above it.  Every rung up to M tops at the
    last probe momentum that it is the coarsest to certify against M/2
    (``_certified``); M certifies them all, so the bands reach the top probe
    by M at the latest.  M/2 closes the table at ``math.inf`` and takes the
    momenta above the last finite top, which no probe covers, and NaN ones."""

    bands: tuple[tuple[float, TransferEngine], ...]

    @property
    def fine(self) -> TransferEngine:
        """M/2, the engine of the last band."""
        return self.bands[-1][1]

    def plane_wave_coefficients(self, kappas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, r_left, r_right) as from ``TransferEngine``, each momentum
        propagated on the mesh of its band."""
        kappas = np.asarray(kappas, dtype=float)
        bands = np.searchsorted([top for top, _ in self.bands[:-1]], kappas)
        out = np.empty((3,) + kappas.shape, dtype=complex)
        for index, (_, engine) in enumerate(self.bands):
            band = bands == index
            if band.any():
                out[:, band] = engine.plane_wave_coefficients(kappas[band])
        return tuple(out)


def _certified(snapshot: np.ndarray, fine_snapshot: np.ndarray, tol: float) -> int:
    """How many leading probe momenta have their t, r_left and r_right gaps
    from ``snapshot`` to ``fine_snapshot``, and both zero-energy gaps,
    strictly below ``tol``; a NaN or inf entry certifies nothing."""
    n = ENGINE_PROBE_KAPPAS.size
    gap = np.abs(snapshot - fine_snapshot)
    per_probe = np.maximum(gap[: 3 * n].reshape(3, n).max(axis=0), gap[3 * n :].max())
    return int(np.count_nonzero(np.maximum.accumulate(per_probe) < tol))


def _plane_matrices(engine: TransferEngine | MeshPair, kappas: np.ndarray) -> np.ndarray:
    t, r_left, r_right = engine.plane_wave_coefficients(kappas)
    mats = np.empty((kappas.size, 2, 2), dtype=complex)
    mats[:, 0, 0] = t
    mats[:, 0, 1] = r_right
    mats[:, 1, 0] = r_left
    mats[:, 1, 1] = t
    return mats


def s_matrix_grid(
    engine: TransferEngine | MeshPair,
    settings: SolverSettings,
    *,
    symmetric: bool = False,
    top: float = math.inf,
) -> ScatteringData:
    """Plane-basis scattering matrices on a refined geometric momentum grid.

    Midpoints are inserted wherever the determinant phase or the entries jump
    by more than the configured steps, so every neighbour pair is close enough
    for unambiguous phase tracking.  ``engine`` is one ``TransferEngine``, or
    a ``MeshPair`` that takes each momentum from the mesh of its band; the
    refinement reads only the matrices, so both give the same rule.
    ``symmetric`` is passed on to the result.  The grid keeps the initial
    nodes up to and including the first at or above ``top``, and at least
    two; a ``top`` above ``kappa_max`` keeps them all.
    """
    decades = math.log10(settings.kappa_max / settings.kappa_min)
    # at least both ends, however short the span
    n0 = max(2, int(round(decades * settings.points_per_decade)) + 1)
    kappas = np.geomspace(settings.kappa_min, settings.kappa_max, n0)
    kappas = kappas[: max(2, int(np.searchsorted(kappas, top)) + 1)]
    mats = _plane_matrices(engine, kappas)
    for _ in range(settings.max_refine_rounds):
        dphi = np.abs(phase_steps(np.linalg.det(mats)))
        dent = np.sqrt(np.sum(np.abs(np.diff(mats, axis=0)) ** 2, axis=(1, 2)))
        need = (dphi > settings.refine_phase_step) | (dent > settings.refine_entry_step)
        if not need.any():
            return ScatteringData(kappas, mats, symmetric)
        mids = np.sqrt(kappas[:-1][need] * kappas[1:][need])
        kappas = np.concatenate([kappas, mids])
        mats = np.concatenate([mats, _plane_matrices(engine, mids)])
        order = np.argsort(kappas)
        kappas, mats = kappas[order], mats[order]
    raise SolverDiverged(
        "momentum grid still refining after "
        f"{settings.max_refine_rounds} rounds ({kappas.size} points); "
        "the scattering matrix varies too rapidly to track"
    )


# ---------------------------------------------------------------------------
# Threshold behaviour


def zero_energy_tail(engine: TransferEngine) -> tuple[float, float, float, float]:
    """Asymptotic data (c1, c2, scale, slope) of the zero-energy solution.

    The solution seeded flat (value 1, slope 0) at the left edge behaves as
    c1 + c2 x past the right edge.  ``slope`` is c2 normalised by the
    solution's overall size and the edge position; it vanishes exactly on an
    exceptional threshold, and its absolute value is the classification ratio.
    """
    _, psi, dpsi = engine.edge_states()
    x_r = engine.x_max
    c2 = float(dpsi[-1])
    c1 = float(psi[-1]) - c2 * x_r
    scale = max(1.0, float(np.max(np.abs(psi))))
    return c1, c2, scale, c2 * max(1.0, abs(x_r)) / scale


def classify_threshold(engine: TransferEngine, settings: SolverSettings) -> ResonanceClass:
    """Threshold class from the zero-energy tail, cross-checked against the
    scattering matrix extrapolated to zero momentum.

    Raises ClassificationAmbiguous inside the dead zone, when an exceptional
    gamma degenerates towards zero (a zero-energy bound state rather than a
    resonance), or when the extrapolation disagrees with the classified form.
    """
    c1, _, _, slope = zero_energy_tail(engine)
    ratio = abs(slope)
    low, high = settings.dead_zone
    if ratio >= high:
        resonance = ResonanceClass.generic()
    elif ratio <= low:
        if abs(c1) < THRESHOLD_EIGENVALUE_C1:
            raise ClassificationAmbiguous(
                "zero-energy solution decays on both sides "
                f"(c1 = {c1:.3e}); threshold eigenvalue, no resonance ratio"
            )
        resonance = ResonanceClass.exceptional(c1)
    else:
        raise ClassificationAmbiguous(
            f"normalised tail slope {ratio:.3e} falls in the dead zone "
            f"[{low:g}, {high:g}]"
        )
    k = settings.classify_probe
    probe = to_even_odd(_plane_matrices(engine, np.array([k, 2.0 * k])))
    extrapolated = 2.0 * probe[0] - probe[1]
    gap = float(np.max(np.abs(extrapolated - threshold_matrix(resonance))))
    if gap > settings.classify_cross_tol:
        raise ClassificationAmbiguous(
            f"threshold form cross-check failed: extrapolated scattering "
            f"matrix differs from the {resonance.tag} form by {gap:.3e}"
        )
    return resonance


# ---------------------------------------------------------------------------
# Bound-state counters (two independent routes)


def count_bound_states_shooting(engine: TransferEngine, settings: SolverSettings) -> int:
    """Bound states as nodes of the zero-energy solution flat at the left.

    Sign changes at cell edges count interior nodes.  Past the right edge
    x_r the solution runs straight, psi(x_r) + psi'(x_r) (x - x_r); its
    node there is counted when the line heads for zero and reaches it
    within the configured horizon.
    """
    _, psi, dpsi = engine.edge_states()
    signs = np.sign(psi)
    signs = signs[signs != 0.0]
    nodes = int(np.sum(signs[:-1] * signs[1:] < 0))
    end, c2 = float(psi[-1]), float(dpsi[-1])
    horizon = settings.shooting_horizon * max(1.0, engine.x_max)
    if end * c2 < 0.0 and abs(c2) * horizon > abs(end):
        nodes += 1
    return nodes


def count_bound_states_fd(potential: Potential, radius: float, settings: SolverSettings) -> int:
    """Bound states as negative eigenvalues of a finite-difference box on
    the full line.

    Independent of the propagation route: no transfer matrices, no shooting.
    The first box covers ``fd_min_box``, the radius with its margin and the
    weak-coupling decay lengths, up to FD_BOX_CAP; it keeps growing until the
    count stops changing.  Grid doubling inside the counter certifies h.
    """
    strength = integrated_absolute(potential, max(radius, 8.0))
    momentum = max(SHALLOW_MOMENTUM_FACTOR * strength, SHALLOW_MOMENTUM_FLOOR)
    reach = max(settings.fd_min_box, settings.fd_box_margin * radius + 8.0, SHALLOW_DECAY_LENGTHS / momentum)
    box = min(reach, FD_BOX_CAP)
    count = fd_negative_eigenvalue_count(potential, box, settings.fd_h)
    for _ in range(settings.fd_max_growth):
        bigger = settings.fd_growth * box
        again = fd_negative_eigenvalue_count(potential, bigger, settings.fd_h)
        if again == count:
            return count
        box, count = bigger, again
    raise ResolutionInsufficient(
        f"negative-eigenvalue count still changing at box half-width {box:g}"
    )


# ---------------------------------------------------------------------------
# Time delay


def time_delay_integral(matrices) -> float:
    """Spectral-shift integral along the momentum side, from eigenphase sums.

    ``matrices`` runs from the threshold form to the identity; every step
    contributes the angles of the relative unitary S_next S_prev^dag.  Each
    angle must stay within pi/2 so the branch is unambiguous.  The result is
    minus the winding of det S along the side, i.e. the integral of the
    properly normalised time delay over all energies.
    """
    v = np.asarray(matrices, dtype=complex)
    if len(v) < 2:
        raise ValueError("need at least two matrices along the side")
    angles = np.angle(np.linalg.eigvals(v[1:] @ v[:-1].conj().swapaxes(-1, -2)))
    worst = np.max(np.abs(angles), axis=1)
    too_large = np.flatnonzero(worst > 0.5 * np.pi + 1e-12)
    if too_large.size:
        raise PhaseJumpTooLarge(
            f"eigenphase step {worst[too_large[0]]:.3f} rad exceeds pi/2; grid too coarse"
        )
    # A left fold in step order: sum() and np.sum would round differently.
    total = 0.0
    for step in angles.sum(axis=1).tolist():
        total += step
    return -total / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Full analysis


class PotentialAnalysis:
    """Caches every derived quantity of one potential under fixed settings.

    The expensive steps (mesh convergence, the momentum grid, the counters)
    run once on first use and are shared by loops, reports, and tables.
    """

    def __init__(self, potential: Potential, settings: SolverSettings | None = None):
        self.potential = potential
        self.settings = settings or SolverSettings()
        self._reports: dict[Sector, WindingReport] = {}

    @cached_property
    def radius(self) -> float:
        """Certified truncation radius of the potential."""
        return truncation_radius(
            self.potential, tol=self.settings.tail_tol, cap=self.settings.radius_cap
        )

    @cached_property
    def mesh_pair(self) -> MeshPair:
        """The first pair (M, M/2) of the halving ladder that certifies every
        probe, as a band table: each rung up to M tops at the probes it is
        the coarsest to certify against M/2, and M/2 takes the rest."""
        s = self.settings
        r = self.radius
        mesh = build_mesh(
            self.potential, -r, r, coarse_h=s.coarse_h, feature_cells=s.feature_cells
        )
        n, rungs = ENGINE_PROBE_KAPPAS.size, []
        for _ in range(s.max_halvings + 1):
            engine = TransferEngine(mesh)
            # a rung that overflows has NaN or inf entries, which certify nothing
            with np.errstate(over="ignore", invalid="ignore"):
                t, r_l, r_r = engine.plane_wave_coefficients(ENGINE_PROBE_KAPPAS)
                c1, c2, scale, _ = zero_energy_tail(engine)
            snapshot = np.concatenate(
                [t, r_l, r_r, [complex(c1 / scale), complex(c2 / scale)]]
            )
            if rungs and _certified(rungs[-1][1], snapshot, s.solver_tol) == n:
                bands, banded = [], 0
                for rung, previous in rungs:
                    certified = _certified(previous, snapshot, s.solver_tol)
                    if certified > banded:
                        bands.append((float(ENGINE_PROBE_KAPPAS[certified - 1]), rung))
                        banded = certified
                return MeshPair((*bands, (math.inf, engine)))
            rungs.append((engine, snapshot))
            mesh = mesh.halved(self.potential)
        raise SolverDiverged(
            f"scattering data not converged after {s.max_halvings} mesh halvings"
        )

    @cached_property
    def engine(self) -> TransferEngine:
        """``mesh_pair.fine``, on M/2: the zero-energy solution, classifier and shooting count read it."""
        return self.mesh_pair.fine

    @cached_property
    def scattering(self) -> ScatteringData:
        """Plane-basis S on the refined grid up to ``kappa_max``, each node on
        the mesh of its band of ``mesh_pair``: the grid the CSV dumps read."""
        return s_matrix_grid(self.mesh_pair, self.settings, symmetric=self.potential.symmetric)

    @cached_property
    def tail_momentum(self) -> float:
        """K = I / ``TAIL_X``, from which on S is certified in closed form;
        I = integral |V| by three-point Gauss quadrature over M/2's cells."""
        mesh = self.engine.mesh
        weighted = 5.0 * np.abs(mesh.v_lo) + 8.0 * np.abs(mesh.v_mid) + 5.0 * np.abs(mesh.v_hi)
        return float(np.diff(mesh.edges) @ weighted) / 18.0 / TAIL_X

    @cached_property
    def side(self) -> ScatteringData:
        """The momentum side that the certificates read: ``scattering``'s
        grid stopped at ``tail_momentum``, refined by the same rule, and
        closed by the identity in ``_b2_nodes``.  Where K is at or above
        ``kappa_max`` it is the whole grid."""
        return s_matrix_grid(
            self.mesh_pair, self.settings, symmetric=self.potential.symmetric, top=self.tail_momentum
        )

    @cached_property
    def resonance(self) -> ResonanceClass:
        """Threshold class, with the extrapolation cross-check applied."""
        return classify_threshold(self.engine, self.settings)

    @cached_property
    def n_bound_shooting(self) -> int:
        return count_bound_states_shooting(self.engine, self.settings)

    @cached_property
    def n_bound_fd(self) -> int:
        return count_bound_states_fd(self.potential, self.radius, self.settings)

    def bound_states(self) -> int:
        """Certified bound-state count; both routes must agree."""
        if self.n_bound_shooting != self.n_bound_fd:
            raise ResolutionInsufficient(
                f"bound-state counters disagree: {self.n_bound_shooting} from the "
                f"zero-energy nodes, {self.n_bound_fd} from the finite-difference box"
            )
        return self.n_bound_shooting

    def sector_bound_states(self, sector: Sector) -> int:
        """Certified bound states of the full line, or of one parity sector
        of a symmetric potential.  By the oscillation theorem the n-th bound
        state (n = 0, 1, ...) has n nodes and parity (-1)^n, so of the N
        certified states (N + 1) // 2 are even and N // 2 are odd."""
        self._require_symmetric(sector)
        n = self.bound_states()
        if sector is Sector.FULL:
            return n
        return (n + 1) // 2 if sector is Sector.EVEN else n // 2

    def sector_resonance(self, sector: Sector) -> ResonanceClass:
        """Threshold class of one parity sector.

        The full line keeps the certified class.  A symmetric potential can
        only be exceptional with gamma = +1 (even resonance) or -1 (odd
        resonance), where the zero-energy matrix is +-1 in both sectors; the
        sector rule of ``loops`` then tags the matching sector exceptional.
        """
        self._require_symmetric(sector)
        full = self.resonance
        if sector is Sector.FULL:
            return full
        if not full.is_exceptional:
            return ResonanceClass.generic()
        g = full.gamma
        if abs(abs(g) - 1.0) > SYMMETRIC_GAMMA_TOL:
            raise ClassificationAmbiguous(
                f"symmetric potential with exceptional gamma {g:.6f} not at +-1"
            )
        return sector_threshold_class(sector, math.copysign(1.0, g))

    def _require_symmetric(self, sector: Sector) -> None:
        if sector is Sector.FULL:
            return
        if not self.potential.symmetric:
            raise SymmetryRequired(
                "parity sectors exist only for potentials declared symmetric"
            )

    def _b2_nodes(self, sector: Sector) -> np.ndarray:
        """B2's node values: the threshold form, the side's scattering
        matrices in the even-odd basis, and the identity at infinite momentum."""
        grid = self.side.even_odd
        start = restrict(threshold_matrix(self.sector_resonance(sector)), sector)
        return np.concatenate([[start], restrict(grid, sector), [_I2]])

    def time_delay(self) -> float:
        """Spectral-shift integral over the momentum side (full line)."""
        return time_delay_integral(self._b2_nodes(Sector.FULL))

    def report(self, sector: Sector = Sector.FULL) -> WindingReport:
        """Windings, bound states, and the residual of total = -n_bound."""
        if sector in self._reports:
            return self._reports[sector]
        nodes = self._b2_nodes(sector)
        n_bound, resonance = self.sector_bound_states(sector), self.sector_resonance(sector)
        report = loop_report(nodes, n_bound=n_bound, resonance=resonance)
        self._reports[sector] = report
        return report


def zero_energy_tail_slope(potential: Potential) -> float:
    """Normalised tail slope of the zero-energy solution (the classification
    ratio, with sign).  Vanishes exactly at an exceptional threshold, so roots
    in a potential-family parameter locate resonant members."""
    return zero_energy_tail(PotentialAnalysis(potential).engine)[3]
