"""Transfer-matrix propagation for one-dimensional stationary scattering.

The second-order equation -psi'' + V psi = kappa^2 psi is integrated as a
product of per-cell propagators for the first-order system u = (psi, psi').
Each cell applies the sixth-order Magnus rule on the three Gauss nodes (S.
Blanes, F. Casas and J. Ros, BIT 40 (2000) 434); the update is the exact
exponential of a traceless real 2x2 matrix, so every propagator has unit
determinant, the Wronskian is preserved to rounding, and the assembled
scattering matrix is unitary by construction.  Cells aligned with the
breakpoints of a piecewise-constant potential make the propagation exact
there: on a constant cell every correction term of the rule is exactly zero.
The exponential of Omega = [[X, Y], [Z, -X]] is c + snc Omega, with c and
snc the cosine and sinc of s = sqrt(-theta^2), theta^2 = X^2 + Y Z (cosh and
sinhc where theta^2 > 0).  Both come from one vectorised tangent of the half
angle, u = tan(s/2): c = (1 - u^2)/(1 + u^2) and snc = u/((s/2)(1 + u^2)),
with s clamped at 1e-300 so that theta^2 = 0 gives c = snc = 1 exactly.

Accuracy (as opposed to unitarity) is controlled upstream by recomputing on a
half-step mesh and comparing; the rule converges at sixth order, uniformly in
kappa because the exponential handles the free oscillation exactly.

One primitive builds the propagators of a block of cells for all requested
momenta at once, as ``(4, cells, k)`` arrays of the four entries.  The full
transfer matrix reduces each block by a pairwise tree product (later cells
multiply from the left, an odd trailing cell is carried to the next level)
and folds the block results in order.  A block holds at most
``BLOCK_ELEMENTS`` cell x momentum entries, so memory stays flat however
large the mesh or the momentum batch.  The zero-energy solution at the cell
edges, which the threshold classifier and the shooting counter both read, is
built from the same primitive once per engine, by prefix products of each
block's cells in array passes, and handed out read-only.

The module also hosts the finite-difference bound-state oracle: a tridiagonal
discretisation of the full line whose negative eigenvalues are counted by the
Sturm sequence of its LDL^T factorisation, entered at pivot +inf, with no
diagonalisation.  The matrix has one coupling, every off-diagonal being
-1/h^2.  Only the rows inside the potential's ``zero_radius`` are built; the
free rows beyond it, at either end, are stepped in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DecayTooSlow, ResolutionInsufficient
from .potentials import Potential

_GAUSS_OUTER = math.sqrt(15.0) / 10.0  # offset of the outer Gauss nodes from midcell, in widths

# Values per block of propagator entries (cells x momenta) or of Sturm pivots;
# bounds the memory of the block-wise loops.
BLOCK_ELEMENTS = 1 << 14

# Sturm pivots within this of zero are taken as -_PIVMIN.
_PIVMIN = 1e-290

# Fewest points of a finite-difference count, so small boxes stay resolved.
_FD_MIN_POINTS = 2000


@dataclass
class Mesh:
    """Cell edges plus the potential sampled at the three per-cell Gauss
    nodes: midcell (``v_mid``) and midcell -+ sqrt(15)/10 of the cell width
    (``v_lo``, ``v_hi``)."""

    edges: np.ndarray
    v_lo: np.ndarray
    v_mid: np.ndarray
    v_hi: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.edges.size - 1

    def halved(self, potential: Potential) -> "Mesh":
        edges = np.empty(2 * self.edges.size - 1)
        edges[0::2] = self.edges
        edges[1::2] = 0.5 * (self.edges[:-1] + self.edges[1:])
        return _mesh_from_edges(potential, edges)


def _mesh_from_edges(potential: Potential, edges: np.ndarray) -> Mesh:
    h = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    gap = _GAUSS_OUTER * h
    return Mesh(
        edges=edges, v_lo=potential(mid - gap), v_mid=potential(mid), v_hi=potential(mid + gap)
    )


def build_mesh(
    potential: Potential,
    x_min: float,
    x_max: float,
    *,
    coarse_h: float,
    feature_cells: int,
) -> Mesh:
    """Cells covering [x_min, x_max], aligned with declared breakpoints and
    refined to width/feature_cells inside each declared feature zone."""
    if x_max <= x_min:
        raise ValueError("empty propagation interval")
    cuts = {float(x_min), float(x_max)}
    zones = []
    for center, width in potential.features:
        lo = max(x_min, center - 6.0 * width)
        hi = min(x_max, center + 6.0 * width)
        if hi > lo:
            zones.append((lo, hi, width / feature_cells))
            cuts.update((lo, hi))
    for b in potential.breakpoints:
        if x_min < b < x_max:
            cuts.add(float(b))
    anchors = np.array(sorted(cuts))
    pieces = [np.array([x_min])]
    for a, b in zip(anchors[:-1], anchors[1:]):
        h = coarse_h
        mid = 0.5 * (a + b)
        for lo, hi, fine in zones:
            if lo <= mid <= hi:
                h = min(h, fine)
        n = max(1, int(math.ceil((b - a) / h)))
        pieces.append(np.linspace(a, b, n + 1)[1:])
    edges = np.concatenate(pieces)
    return _mesh_from_edges(potential, edges)


def _cosh_sinhc(theta2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cosh(sqrt(t)), sinh(sqrt(t))/sqrt(t)) for t > 0, continued by
    (cos(sqrt(-t)), sin(sqrt(-t))/sqrt(-t)) for t <= 0; smooth through 0.

    The oscillatory branch takes one tangent of the half angle: with
    s = sqrt(-t), h = s/2 and u = tan(h),

        cos s = (1 - u^2) / (1 + u^2),   sin(s)/s = u / (h (1 + u^2)),

    within 1-2 ulp of the libm pair.  s is clamped at 1e-300, so t = 0 gives
    exactly (1, 1); near a pole of tan, u^2 stays finite and the quotients
    go smoothly to (-1, 0).  Only the entries with t > 0 are overwritten by
    cosh and sinh.
    """
    h = np.sqrt(np.abs(theta2))
    np.maximum(h, 1e-300, out=h)
    h *= 0.5
    u = np.tan(h)
    d = u * u
    c = 1.0 - d
    d += 1.0
    c /= d
    h *= d
    snc = np.divide(u, h, out=u)
    grow = theta2 > 0.0
    if grow.any():
        s = np.sqrt(theta2[grow])
        c[grow] = np.cosh(s)
        snc[grow] = np.sinh(s) / s
    return c, snc


def _tree_product(cells: np.ndarray) -> np.ndarray:
    """Ordered product of a stack of 2x2 propagators, pairwise.

    ``cells`` holds the entries (e11, e12, e21, e22) as ``(4, m, k)``; cell
    j + 1 multiplies cell j from the left.  Each level halves the stack; an
    odd trailing cell is carried to the next level unchanged.  A level is
    two multiplies and one add over the entries viewed as ``(2, 2, m, k)``,
    so it costs three ufunc calls however short its stack.  Returns the
    ``(4, k)`` entries of the product.
    """
    k = cells.shape[2]
    cells = cells.reshape(2, 2, -1, k)  # (row, column, cell, momentum)
    while cells.shape[2] > 1:
        m = cells.shape[2]
        half = m // 2
        a = cells[:, :, 0 : 2 * half : 2]  # earlier cell of each pair
        b = cells[:, :, 1 : 2 * half : 2]  # later cell, applied second
        # entry (i, j) of b a is b_i0 a_0j + b_i1 a_1j
        out = np.empty((2, 2, (m + 1) // 2, k))
        np.multiply(b[:, 0:1], a[0:1], out=out[:, :, :half])
        out[:, :, :half] += b[:, 1:2] * a[1:2]
        if m % 2:
            out[:, :, -1] = cells[:, :, -1]
        cells = out
    return cells.reshape(4, k)


class TransferEngine:
    """Propagates (psi, psi') across the interaction region for momentum batches."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        # Per-cell coefficients of the sixth-order Magnus rule.  With
        # A = [[0, 1], [V - kappa^2, 0]] at the three Gauss nodes,
        #   alpha1 = h A_2, alpha2 = (sqrt(15) h / 3)(A_3 - A_1),
        #   alpha3 = (10 h / 3)(A_3 - 2 A_2 + A_1),
        #   Omega = alpha1 + alpha3 / 12
        #           + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240,
        # C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1] / 60.  alpha2
        # and alpha3 are the lower-left entries a and b alone, free of kappa,
        # so Omega = [[X, Y], [Z, -X]] is polynomial in q = V_2 - kappa^2:
        # X = x0 + x1 q and Z = Y q + z0 + w q, with Y free of kappa.  On a
        # constant cell a = b = 0, Y = h, and x0, x1, z0 and w are exactly 0.0.
        h = np.diff(mesh.edges)
        h2 = h * h
        a = (math.sqrt(15.0) / 3.0) * h * (mesh.v_hi - mesh.v_lo)
        b = (10.0 / 3.0) * h * ((mesh.v_hi - 2.0 * mesh.v_mid) + mesh.v_lo)
        a2 = (h2 * h) * (a * a) / 30.0
        y = h + (a2 - (2.0 / 3.0) * h2 * b) / 120.0
        w = h2 * b / 90.0
        z0 = b / 12.0 + (h * (b * b) / 30.0 - h * (a * a)) / 120.0
        self._v = mesh.v_mid
        self._x0 = (-20.0 * h * a + h2 * a * b / 30.0) / 240.0
        self._x1 = (h2 * h) * a / 180.0
        self._y = y
        self._z0 = z0
        self._w = w
        # theta^2 = X^2 + Y Z = X^2 + (p0 + p1 q); p0 = 0.0 and p1 = h^2 on a
        # constant cell.
        self._p0 = y * z0
        self._p1 = y * (y + w)

    @property
    def x_min(self) -> float:
        return float(self.mesh.edges[0])

    @property
    def x_max(self) -> float:
        return float(self.mesh.edges[-1])

    def _propagators(self, cells: slice, k2: np.ndarray) -> np.ndarray:
        """Entries (e11, e12, e21, e22) of the cell propagators, as
        ``(4, cells, k)``, for the energies ``k2``."""
        q = self._v[cells, None] - k2
        x = self._x1[cells, None] * q
        x += self._x0[cells, None]
        theta2 = self._p1[cells, None] * q
        theta2 += self._p0[cells, None]
        theta2 += x * x
        c, snc = _cosh_sinhc(theta2)
        # exp(Omega) = c + snc Omega with Omega = [[X, Y], [Z, -X]]; entry 21
        # is (snc Y) q + snc (z0 + w q), whose second term is 0.0 on a
        # constant cell.
        out = np.empty((4,) + theta2.shape)
        x *= snc
        np.add(c, x, out=out[0])
        np.multiply(snc, self._y[cells, None], out=out[1])
        np.multiply(out[1], q, out=out[2])
        z = self._w[cells, None] * q
        z += self._z0[cells, None]
        z *= snc
        out[2] += z
        np.subtract(c, x, out=out[3])
        return out

    def transfer(self, kappas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entries (t11, t12, t21, t22) of the full left-to-right transfer
        matrix u(x_max) = T u(x_min), one per momentum."""
        k2 = np.asarray(kappas, dtype=float) ** 2
        rows = max(1, BLOCK_ELEMENTS // max(1, k2.size))
        t11, t12, t21, t22 = np.ones_like(k2), np.zeros_like(k2), np.zeros_like(k2), np.ones_like(k2)
        for j in range(0, self.mesh.n_cells, rows):
            b11, b12, b21, b22 = _tree_product(self._propagators(slice(j, j + rows), k2))
            t11, t12, t21, t22 = (
                b11 * t11 + b12 * t21,
                b11 * t12 + b12 * t22,
                b21 * t11 + b22 * t21,
                b21 * t12 + b22 * t22,
            )
        return t11, t12, t21, t22

    @cached_property
    def _zero_energy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.mesh.n_cells
        psi = np.empty(n + 1)
        dpsi = np.empty(n + 1)
        psi[0], dpsi[0] = 1.0, 0.0
        for j in range(0, n, BLOCK_ELEMENTS):
            # (row, column, cell) entries of the block's cell propagators
            pre = self._propagators(slice(j, j + BLOCK_ELEMENTS), np.zeros(1)).reshape(2, 2, -1)
            m = pre.shape[2]
            # Prefix products by doubling: after the pass with shift s, entry
            # i holds the product of cells max(0, i - 2s + 1) .. i, the later
            # cells on the left.
            s = 1
            while s < m:
                later, earlier = pre[:, :, s:], pre[:, :, :-s]
                pre = np.concatenate(
                    [pre[:, :, :s], later[:, 0:1] * earlier[0:1] + later[:, 1:2] * earlier[1:2]], axis=2
                )
                s *= 2
            # chained from the state the previous block ends on
            p, q = psi[j], dpsi[j]
            psi[j + 1 : j + 1 + m] = pre[0, 0] * p + pre[0, 1] * q
            dpsi[j + 1 : j + 1 + m] = pre[1, 0] * p + pre[1, 1] * q
        states = (self.mesh.edges.view(), psi, dpsi)
        for array in states:
            array.flags.writeable = False
        return states

    def edge_states(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell edges and the zero-energy solution (psi, psi') at each, seeded
        flat (psi = 1, psi' = 0) at the left edge.  Computed once per engine;
        the arrays are read-only."""
        return self._zero_energy

    def plane_wave_coefficients(self, kappas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transmission and reflection amplitudes (t, r_left, r_right).

        Seeds the transmitted wave exp(i kappa x) at the right edge and pulls
        it back with the inverse transfer matrix (exact, unit determinant).
        The right-incidence amplitudes follow from the conjugate solution of
        the same real equation, so one propagation serves both.
        """
        kappas = np.asarray(kappas, dtype=float)
        if np.any(kappas <= 0.0):
            raise ValueError("momenta must be positive")
        t11, t12, t21, t22 = self.transfer(kappas)
        x_l, x_r = self.x_min, self.x_max
        phase_r = np.exp(1j * kappas * x_r)
        psi_r = phase_r
        dpsi_r = 1j * kappas * phase_r
        # inverse of a det-1 real matrix
        psi_l = t22 * psi_r - t12 * dpsi_r
        dpsi_l = -t21 * psi_r + t11 * dpsi_r
        phase_l = np.exp(1j * kappas * x_l)
        a = 0.5 * (psi_l + dpsi_l / (1j * kappas)) * np.conj(phase_l)
        b = 0.5 * (psi_l - dpsi_l / (1j * kappas)) * phase_l
        t = 1.0 / a
        r_left = b / a
        r_right = -np.conj(b) / a
        return t, r_left, r_right


def truncation_radius(
    potential: Potential,
    *,
    tol: float,
    cap: float,
) -> float:
    """Radius beyond which the remaining tail of |V| is below ``tol``.

    Uses the exact support when declared; otherwise grows the radius until a
    sampled tail integral (plus a power-law extension at the declared decay
    exponent) drops below tolerance.
    """
    if potential.support_radius is not None:
        return float(potential.support_radius)
    r = potential.probe_radius()
    while r <= cap:
        xs = np.geomspace(r, 3.0 * r, 65)
        tail = float(np.trapezoid(np.abs(potential(xs)) + np.abs(potential(-xs)), xs))
        ends = np.abs(potential(np.array([r, -r])))
        edge = float(np.max(ends))
        p = potential.decay_exponent
        if math.isfinite(p) and p > 1.0:
            far = np.abs(potential(np.array([3.0 * r, -3.0 * r])))
            amp = float(np.max(far))
            tail += 2.0 * amp * 3.0 * r / (p - 1.0)
        if tail < tol and edge < tol:
            return float(r)
        r *= 1.5
    raise DecayTooSlow(
        f"tail of |V| not below {tol:g} within radius {cap:g} "
        f"(declared decay exponent {potential.decay_exponent:g})"
    )


# ---------------------------------------------------------------------------
# Finite-difference bound-state oracle


def _free_run(d: float, c: float, m: int) -> tuple[float, int]:
    """Pivot of the last of ``m`` free rows (diagonal 2c, off-diagonal -c)
    entered with pivot ``d``, and how many of their pivots are negative;
    ``(d, 0)`` when ``m`` is 0.

    With q_(-1) = d the pivots are c q_j / q_(j-1), where q_j = d + (j+1)(d-c)
    is linear in j because the recurrence has a double root.  So q changes
    sign at most once, and only when 0 < d < c.
    """
    count = 0
    if m and not -c <= d <= c:
        # Step one row as the loop does (this also takes d = +-inf); the
        # pivot lands in [c, 3c], so q below stays far from overflow.
        d, m = c + c - c * c / d, m - 1
    elif 0.0 < d < c:
        e = d - c
        # First j + 1 with q_j <= 0.  The quotient underflows to 0 when d is
        # far below c; then q_0 = 2d - c < 0 and k = 1.
        k = max(1, math.ceil(d / -e))
        if k <= m:
            # The one negative pivot, under the loop's pivmin rule; it is
            # the only pivot of the run that can come near pivmin.
            d = min(c * (d + k * e) / (d + (k - 1) * e), -_PIVMIN)
            count, m = 1, m - k
            if m and d < -c:
                d, m = c + c - c * c / d, m - 1
    if m == 0:
        return d, count
    e = d - c
    return c * (d + m * e) / (d + (m - 1) * e), count


def _step_rows(d: float, a, b2: float) -> tuple[float, int]:
    """Row-by-row recurrence over the diagonal entries ``a`` (Python
    floats), with squared off-diagonal ``b2``, entered with pivot ``d``;
    returns the last pivot and the number of negative pivots."""
    count = 0
    for a_i in a:
        d = a_i - b2 / d
        # |d| < pivmin is replaced by -pivmin, so every d below pivmin counts.
        if d < _PIVMIN:
            if d > -_PIVMIN:
                d = -_PIVMIN
            count += 1
    return d, count


def sturm_negative_count(diag: np.ndarray, c: float, *, head: int = 0, tail: int = 0) -> int:
    """Number of negative eigenvalues of the finite-difference matrix with
    diagonal ``diag`` and every off-diagonal -``c``, padded with ``head``
    and ``tail`` free rows (diagonal 2c) that are never materialised.

    Counts negative pivots of the LDL^T factorisation at shift zero (the
    classical Sturm sequence), entered at pivot +inf, so the first row's
    pivot is its diagonal entry; O(n), no eigensolver.  A pivot within
    pivmin of zero is taken as -pivmin, so a zero eigenvalue counts as
    negative.  ``c`` must be positive with c*c a normal double; a
    finite-difference coupling 1/h^2 is far inside that range.

    A row is free when its diagonal entry is 2c bit for bit (V = 0, or below
    half an ulp of 2/h^2).  The free rows at either end of ``diag`` join the
    head and the tail, and each of those two runs is stepped in closed form
    in O(1): it has at most one negative pivot, at an index known in closed
    form, and its exit pivot follows from the entry pivot.  Every row
    between takes the row-by-row recurrence, so its pivot, pivmin rule and
    sign rule are the loop's exactly; pivots after a free run differ from
    the loop's only at the rounding level.
    """
    c = float(c)
    kept = np.flatnonzero(diag != c + c)
    lo, hi = (int(kept[0]), int(kept[-1]) + 1) if kept.size else (diag.size, diag.size)
    d, count = _free_run(math.inf, c, head + lo)
    for start in range(lo, hi, BLOCK_ELEMENTS):
        # Python floats: fast to loop over, with memory bounded by the block.
        d, negatives = _step_rows(d, diag[start : min(start + BLOCK_ELEMENTS, hi)].tolist(), c * c)
        count += negatives
    d, negatives = _free_run(d, c, diag.size - hi + tail)
    return count + negatives


def _fd_count_once(potential: Potential, box: float, n: int) -> int:
    # Row i sits at np.linspace(-box, box, n + 2)[i + 1], evaluated as
    # np.linspace does: j * step + start with step = (stop - start) / div.
    box = float(box)
    step = (box - -box) / (n + 1)

    def abscissae(lo: int, hi: int) -> np.ndarray:
        return np.arange(lo + 1, hi + 1, dtype=float) * step + -box

    first, second = abscissae(0, 2)
    h = second - first
    # Only rows [lo, hi) can feel V: elsewhere |x| > zero_radius, V(x) is
    # exactly 0.0 and diag is 2/h^2 bit for bit, so those rows are free and
    # are stepped as the head and tail runs, never materialised.  One spare
    # row each side absorbs the rounding of the index bounds.
    r = min(potential.zero_radius, box)
    lo = max(0, math.floor((box - r) / step) - 2)
    hi = min(n, math.ceil((box + r) / step) + 1)
    diag = 2.0 / (h * h) + potential(abscissae(lo, hi))
    return sturm_negative_count(diag, 1.0 / (h * h), head=lo, tail=n - hi)


def fd_negative_eigenvalue_count(potential: Potential, box_half_width: float, h: float) -> int:
    """Bound states from a hard-wall finite-difference Hamiltonian.

    Counts eigenvalues below zero of the standard three-point discretisation
    on [-box, box] via the Sturm sequence.  The grid has 2 box / h points,
    and no fewer than ``_FD_MIN_POINTS``.  Doubling the resolution must not
    change the count; if it does the discretisation cannot be trusted at
    this size.
    """
    if box_half_width <= 0:
        raise ValueError("box_half_width must be positive")
    n_points = max(_FD_MIN_POINTS, int(round(2.0 * box_half_width / h)))
    first = _fd_count_once(potential, box_half_width, n_points)
    second = _fd_count_once(potential, box_half_width, 2 * n_points)
    if second != first:
        raise ResolutionInsufficient(
            f"negative-eigenvalue count changed from {first} to {second} "
            f"under grid doubling (n = {n_points})"
        )
    return first
