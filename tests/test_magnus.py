"""The sixth-order Magnus cells of the transfer engine.

One cell's propagator is checked against the dense exponential of the
three-node Gauss-Magnus generator (S. Blanes, F. Casas and J. Ros, BIT 40
(2000) 434), its corrections are checked to vanish exactly on a constant
cell, and the probe data of the mesh-halving certificate must converge at
sixth order.  The half-angle kernel that evaluates each cell's exponential
is checked against the libm cos/sin/cosh/sinh pair, entry by entry and
through whole scattering grids.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from levlab import propagate
from levlab.loops import unitarity_defect
from levlab.potentials import gaussian_wells
from levlab.propagate import Mesh, TransferEngine, _cosh_sinhc, build_mesh, truncation_radius
from levlab.scattering import (
    ENGINE_PROBE_KAPPAS,
    PotentialAnalysis,
    SolverSettings,
    s_matrix_grid,
    zero_energy_tail,
)

from conftest import random_well_family, sech2_well


def _one_cell(h, v_lo, v_mid, v_hi):
    mesh = Mesh(
        edges=np.array([0.0, h]), v_lo=np.array([v_lo]), v_mid=np.array([v_mid]), v_hi=np.array([v_hi])
    )
    return TransferEngine(mesh)


def _magnus_generator(h, v_nodes, k2):
    """Omega of the sixth-order rule, from its commutator form."""

    def comm(a, b):
        return a @ b - b @ a

    a1, a2, a3 = (np.array([[0.0, 1.0], [v - k2, 0.0]]) for v in v_nodes)
    alpha1 = h * a2
    alpha2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
    alpha3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = comm(alpha1, alpha2)
    c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
    return alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0


def test_cell_propagator_is_exponential_of_the_magnus_generator():
    rng = np.random.default_rng(7)
    kappas = np.array([1e-3, 0.4, 2.0, 9.0])
    for _ in range(20):
        h = float(rng.uniform(0.01, 0.5))
        v_nodes = rng.normal(scale=20.0, size=3)
        cell = np.array(_one_cell(h, *v_nodes).transfer(kappas))
        for i, kappa in enumerate(kappas):
            want = expm(_magnus_generator(h, v_nodes, kappa * kappa)).ravel()
            assert np.max(np.abs(cell[:, i] - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("v", [-3000.0, -1.0, 0.0, 2.5])
def test_constant_cell_corrections_vanish_exactly(v):
    # Omega = [[0, h], [h q, 0]]: equal diagonal entries, and entry 21 is
    # entry 12 times q, bit for bit.
    kappas = np.geomspace(1e-3, 50.0, 9)
    t11, t12, t21, t22 = _one_cell(0.03125, v, v, v).transfer(kappas)
    assert np.array_equal(t11, t22)
    assert np.array_equal(t21, t12 * (v - kappas**2))


def test_halved_mesh_interleaves_midpoints():
    pot = gaussian_wells([(2.0, 0.3, 0.4)])
    mesh = build_mesh(pot, -3.0, 2.0, coarse_h=0.3, feature_cells=5)
    edges = mesh.edges
    halved = mesh.halved(pot)
    mids = 0.5 * (edges[:-1] + edges[1:])
    assert np.array_equal(halved.edges, np.sort(np.concatenate([edges, mids])))
    assert np.array_equal(halved.v_mid, pot(0.5 * (halved.edges[:-1] + halved.edges[1:])))
    assert halved.v_lo.shape == halved.v_hi.shape == (2 * mesh.n_cells,)


def _probe_gaps(potential, *, stop=1e-11, max_halvings=8):
    """Probe-snapshot gaps of successive halvings of a coarse mesh, as the
    engine's halving certificate measures them, until one falls below
    ``stop``."""

    def snapshot(mesh):
        engine = TransferEngine(mesh)
        t, r_l, r_r = engine.plane_wave_coefficients(ENGINE_PROBE_KAPPAS)
        c1, c2, scale, _ = zero_energy_tail(engine)
        return np.concatenate([t, r_l, r_r, [c1 / scale, c2 / scale]])

    settings = SolverSettings()
    r = truncation_radius(potential, tol=settings.tail_tol, cap=settings.radius_cap)
    mesh = build_mesh(potential, -r, r, coarse_h=0.2, feature_cells=4)
    previous, gaps = snapshot(mesh), []
    while not gaps or gaps[-1] >= stop:
        assert len(gaps) < max_halvings, gaps
        mesh = mesh.halved(potential)
        current = snapshot(mesh)
        gaps.append(float(np.max(np.abs(current - previous))))
        previous = current
    return gaps


@pytest.mark.parametrize(
    "potential",
    [sech2_well(1.5), gaussian_wells(random_well_family()[3])],
    ids=["sech2-1.5", "family-member-3"],
)
def test_probe_gap_converges_at_sixth_order(potential):
    # A fourth-order rule shrinks the gap 16x per halving, a sixth-order one
    # 64x; 32x separates them with room for the rounding of small gaps.
    gaps = _probe_gaps(potential)
    ratios = [a / b for a, b in zip(gaps, gaps[1:]) if 1e-11 <= a <= 1e-6]
    assert len(ratios) >= 2, gaps
    assert min(ratios) >= 32.0, (gaps, ratios)


def libm_cosh_sinhc(theta2):
    """Reference for ``_cosh_sinhc`` from the libm pairs: cos and sin of
    s = sqrt(|theta^2|) on every entry, cosh and sinh where theta^2 > 0, and
    a Taylor branch for |theta^2| < 1e-12."""
    mag = np.abs(theta2)
    s = np.sqrt(mag)
    c = np.cos(s)
    snc = np.sin(s)
    grow = theta2 > 0.0
    c[grow] = np.cosh(s[grow])
    snc[grow] = np.sinh(s[grow])
    small = mag < 1e-12
    np.divide(snc, s, out=snc, where=~small)
    c[small] = 1.0 + 0.5 * theta2[small]
    snc[small] = 1.0 + theta2[small] / 6.0
    return c, snc


def test_half_angle_kernel_matches_libm_oracle():
    rng = np.random.default_rng(11)
    # s = (2n + 1) pi puts the half angle on a pole of tan
    poles = np.array([(2 * n + 1) * math.pi for n in (0, 1, 7, 159, 4000, 15000)])
    near_poles = (poles[:, None] + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])).ravel()
    angles = np.concatenate([rng.uniform(0.0, 50.0, 2000), rng.uniform(0.0, 1e5, 2000), near_poles])
    theta2 = np.concatenate(
        [[0.0, -1e-300, 1e-300, -1e-24, 1e-24], -(angles * angles), rng.uniform(0.0, 700.0, 500)]
    )
    c, snc = _cosh_sinhc(theta2)
    want_c, want_snc = libm_cosh_sinhc(theta2)
    s = np.sqrt(np.abs(theta2))
    assert np.max(np.abs(c - want_c)) <= 2e-15
    assert np.max(np.abs(s * snc - s * want_snc)) <= 2e-15
    # theta^2 = 0 gives the identity bit for bit
    assert c[0] == 1.0 and snc[0] == 1.0
    # on the oscillatory side both quotients are bounded by 1, and the
    # propagator's determinant c^2 - theta^2 snc^2 must stay 1
    osc = theta2 <= 0.0
    det = c[osc] * c[osc] - theta2[osc] * snc[osc] * snc[osc]
    assert np.max(np.abs(det - 1.0)) <= 2e-15


@pytest.mark.parametrize(
    "potential",
    [gaussian_wells(random_well_family()[m]) for m in (2, 3, 9)] + [sech2_well(1.5)],
    ids=["family-member-2", "family-member-3", "family-member-9", "sech2-1.5"],
)
def test_scattering_grid_matches_libm_kernel(potential, monkeypatch):
    # Up to kappa_max = 1e3, past the band the engine's probes certify.  The
    # oracle reads the same mesh pair as the grid, so only the kernels differ.
    analysis = PotentialAnalysis(potential)
    grid = analysis.scattering
    monkeypatch.setattr(propagate, "_cosh_sinhc", libm_cosh_sinhc)
    oracle = s_matrix_grid(analysis.mesh_pair, analysis.settings)
    assert grid.kappas[-1] == analysis.settings.kappa_max
    assert np.array_equal(grid.kappas, oracle.kappas)
    assert np.max(np.abs(grid.matrices - oracle.matrices)) <= 1e-12
    assert unitarity_defect(grid.matrices) < 1e-12


def _broadcast_coefficients(mesh):
    """The eight per-cell coefficient rows of the reference kernel: V_2, x0,
    x1, Y, z0, w, p0 and p1, with X = x0 + x1 q, Z = Y q + z0 + w q and
    theta^2 = X^2 + p0 + p1 q."""
    h = np.diff(mesh.edges)
    h2 = h * h
    a = (math.sqrt(15.0) / 3.0) * h * (mesh.v_hi - mesh.v_lo)
    b = (10.0 / 3.0) * h * ((mesh.v_hi - 2.0 * mesh.v_mid) + mesh.v_lo)
    a2 = (h2 * h) * (a * a) / 30.0
    y = h + (a2 - (2.0 / 3.0) * h2 * b) / 120.0
    w = h2 * b / 90.0
    z0 = b / 12.0 + (h * (b * b) / 30.0 - h * (a * a)) / 120.0
    x0 = (-20.0 * h * a + h2 * a * b / 30.0) / 240.0
    x1 = (h2 * h) * a / 180.0
    return np.stack([mesh.v_mid, x0, x1, y, z0, w, y * z0, y * (y + w)])


def _broadcast_propagators(coefficients, cells, k2):
    """Reference kernel: the cell propagators with each coefficient row
    broadcast across the momenta, and q = V_2 - kappa^2, X and theta^2
    formed entry by entry.  Returns the ``(4, cells, k)`` entries and a scale
    for each: the size of the terms the entry is made of, times 1 + sqrt(T),
    where T bounds the terms of theta^2.  A rounding of theta^2 moves an
    entry by its scale times a few ulps at most."""
    v, x0, x1, y, z0, w, p0, p1 = coefficients[:, cells, None]
    q = v - k2
    x = x1 * q
    x += x0
    theta2 = p1 * q
    theta2 += p0
    theta2 += x * x
    terms = x * x + np.abs(p0) + np.abs(p1) * (np.abs(v) + k2)
    c, snc = _cosh_sinhc(theta2)
    out = np.empty((4,) + theta2.shape)
    x *= snc
    np.add(c, x, out=out[0])
    np.multiply(snc, y, out=out[1])
    np.multiply(out[1], q, out=out[2])
    z = w * q
    z += z0
    z *= snc
    out[2] += z
    np.subtract(c, x, out=out[3])
    grow = 1.0 + np.sqrt(terms)
    wave = np.abs(c) + np.abs(snc)
    scale = np.empty_like(out)
    scale[0] = scale[3] = grow * (np.abs(c) + np.abs(snc) * np.sqrt(terms) + np.abs(x))
    scale[1] = grow * np.abs(y) * wave
    scale[2] = grow * (np.abs(y * q) + np.abs(w * q) + np.abs(z0)) * wave
    return out, scale


KERNEL_ULPS = 4.0


def _kernel_gap_in_ulps(engine, coefficients, cells, k2):
    """Largest gap of the engine's propagators from the broadcast reference,
    in ulps of each entry's scale."""
    got = engine._propagators(cells, k2)
    want, scale = _broadcast_propagators(coefficients, cells, k2)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want) / scale)) / np.finfo(float).eps


def test_kernel_matches_the_broadcast_reference_on_random_cells():
    # Cells as in the single-cell test, up to half a unit wide, with wells
    # and barriers at every node, at momenta up to 20 and at kappa = 0.
    rng = np.random.default_rng(17)
    kappas = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 40)])
    for _ in range(5):
        h = rng.uniform(0.01, 0.5, 200)
        v_lo, v_mid, v_hi = rng.normal(scale=20.0, size=(3, h.size))
        mesh = Mesh(edges=np.concatenate([[0.0], np.cumsum(h)]), v_lo=v_lo, v_mid=v_mid, v_hi=v_hi)
        gap = _kernel_gap_in_ulps(TransferEngine(mesh), _broadcast_coefficients(mesh), slice(None), kappas**2)
        assert gap <= KERNEL_ULPS


@pytest.fixture(scope="module")
def member_2_engines():
    """The engines of every band of conftest member 2's converged ladder."""
    analysis = PotentialAnalysis(gaussian_wells(random_well_family()[2]))
    return [engine for _, engine in analysis.mesh_pair.bands]


@pytest.mark.parametrize("width", [1, 2, 10, 137, 4097])
def test_kernel_matches_the_broadcast_reference_on_member_2(member_2_engines, width):
    # Every block ``transfer`` builds, in tree order, over the grid's span of
    # momenta.  4097 momenta go in two chunks, 4096 and 1, and are checked on
    # the coarsest band's mesh alone, whose 176 blocks of four cells take a
    # fifth of the time of all three meshes.
    k2_all = np.geomspace(1e-4, 1e3, width) ** 2
    engines = member_2_engines if width <= propagate.TRANSFER_CHUNK else member_2_engines[:1]
    for engine in engines:
        n, coefficients = engine.mesh.n_cells, _broadcast_coefficients(engine.mesh)
        for i in range(0, width, propagate.TRANSFER_CHUNK):
            k2 = k2_all[i : i + propagate.TRANSFER_CHUNK]
            rows = max(1, propagate.BLOCK_ELEMENTS // k2.size)
            gaps = [
                _kernel_gap_in_ulps(engine, coefficients, j + propagate._tree_order(min(rows, n - j)), k2)
                for j in range(0, n, rows)
            ]
            assert max(gaps) <= KERNEL_ULPS, (n, k2.size)


def test_zero_energy_kernel_matches_the_broadcast_reference(member_2_engines):
    # The slice call of the zero-energy solution, at kappa^2 = 0.
    for engine in member_2_engines:
        coefficients = _broadcast_coefficients(engine.mesh)
        for j in range(0, engine.mesh.n_cells, propagate.BLOCK_ELEMENTS):
            cells = slice(j, j + propagate.BLOCK_ELEMENTS)
            assert _kernel_gap_in_ulps(engine, coefficients, cells, np.zeros(1)) <= KERNEL_ULPS
