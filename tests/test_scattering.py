"""Numerical scattering pipeline: grids, bases, threshold classification."""

import math
import types

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq

from levlab import propagate, scattering
from levlab.errors import (
    ClassificationAmbiguous,
    DecayTooSlow,
    PhaseJumpTooLarge,
    ResolutionInsufficient,
    SolverDiverged,
)
from levlab.loops import Sector, unitarity_defect
from levlab.potentials import Potential, gaussian_wells, square_well, tabulated_potential, zero_potential
from levlab.propagate import (
    BLOCK_ELEMENTS,
    Mesh,
    TransferEngine,
    _mesh_from_edges,
    build_mesh,
    sturm_negative_count,
    truncation_radius,
)
from levlab.reporting import tuned_resonance_depth
from levlab.scattering import (
    ENGINE_PROBE_KAPPAS,
    MeshPair,
    PotentialAnalysis,
    SolverSettings,
    _certified,
    _plane_matrices,
    classify_threshold,
    count_bound_states_shooting,
    s_matrix_grid,
    time_delay_integral,
    to_even_odd,
    zero_energy_tail,
    zero_energy_tail_slope,
)

from conftest import WELL_FAMILY_SIZE

# The solver's default mesh and truncation knobs.
DEFAULTS = SolverSettings()


def default_mesh(pot):
    """The mesh over the potential's truncation radius, built with the
    solver's default knobs."""
    radius = truncation_radius(pot, tol=DEFAULTS.tail_tol, cap=DEFAULTS.radius_cap)
    return build_mesh(pot, -radius, radius, coarse_h=DEFAULTS.coarse_h, feature_cells=DEFAULTS.feature_cells)


def test_basis_change_swap_matrix():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(to_even_odd(swap), np.diag([1.0, -1.0]))


def test_basis_change_is_involutive():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    assert np.allclose(to_even_odd(to_even_odd(m)), m, atol=1e-14)


def test_zero_potential_analysis():
    analysis = PotentialAnalysis(zero_potential())
    assert analysis.bound_states() == 0
    rc = analysis.resonance
    assert rc.is_exceptional and abs(rc.gamma - 1.0) < 1e-12
    report = analysis.report(Sector.FULL)
    assert max(abs(x) for x in report.w) < 1e-9
    assert abs(report.total) < 1e-9
    assert abs(analysis.time_delay()) < 1e-9


def test_grid_is_unitary_and_ascending():
    data = PotentialAnalysis(square_well(1.0, 1.0)).scattering
    assert np.all(np.diff(data.kappas) > 0)
    assert data.unitarity_defect() < 1e-10
    assert unitarity_defect(data.even_odd) < 1e-10


def test_grid_is_converted_to_even_odd_once(monkeypatch, tmp_path):
    """Every sector report and the delay read the side's one even-odd stack,
    and the phase dump the whole grid's; only the classifier's 2-node probe
    converts on its own."""
    sizes = []

    def counting(matrices):
        sizes.append(len(matrices))
        return to_even_odd(matrices)

    monkeypatch.setattr(scattering, "to_even_odd", counting)
    analysis = PotentialAnalysis(gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)]))
    for sector in (Sector.FULL, Sector.EVEN, Sector.ODD):
        analysis.report(sector)
    analysis.time_delay()
    analysis.scattering.write_phase_csv(tmp_path / "p.csv")
    assert [n for n in sizes if n != 2] == [analysis.side.kappas.size, analysis.scattering.kappas.size]


def test_symmetric_eigenphases_follow_the_diagonal_slots():
    """A symmetric pair's eigenphase curves are the unwrapped phases of the
    even-odd diagonal, ordered by the first node's angle, even where the two
    phases nearly meet at high momentum; a 1e-13 parity-preserving
    perturbation of S moves them only at the rounding level."""
    data = PotentialAnalysis(gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)])).scattering
    assert data.symmetric
    slots = np.diagonal(data.even_odd, axis1=1, axis2=2)
    slots = slots[:, np.argsort(np.angle(slots[0]))]
    curves = data.eigenphase_curves()
    assert np.max(np.abs(curves - np.unwrap(np.angle(slots), axis=0))) < 1e-12
    rng = np.random.default_rng(7)
    a, b = 1e-13 * (rng.normal(size=(2, data.kappas.size)) + 1j * rng.normal(size=(2, data.kappas.size)))
    # a I + b X keeps equal transmissions and equal reflections: still symmetric
    bump = a[:, None, None] * np.eye(2) + b[:, None, None] * np.array([[0.0, 1.0], [1.0, 0.0]])
    perturbed = scattering.ScatteringData(data.kappas, data.matrices + bump, symmetric=True)
    assert np.max(np.abs(perturbed.eigenphase_curves() - curves)) < 1e-12


# The CI tabulated well: asymmetric, so its phase dump takes the eig branch.
TABULATED_WELL = tabulated_potential([-2.0, -0.5, 0.0, 1.5, 2.0], [0.0, -3.0, -1.0, -2.5, 0.0])
PAIR_WELL = gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)])


def per_node_eigenphases(mats):
    """The asymmetric eigenphase curves as one eig call per node, carrying the
    previous node's ordered eigenvectors to decide each swap by overlap."""
    n = len(mats)
    phases = np.empty((n, 2))
    lam, vec = np.linalg.eig(mats[0])
    order = np.argsort(np.angle(lam))
    lam, vec = lam[order], vec[:, order]
    phases[0] = np.angle(lam)
    for i in range(1, n):
        w, v = np.linalg.eig(mats[i])
        overlap = np.abs(vec.conj().T @ v) ** 2
        if overlap[0, 0] + overlap[1, 1] < overlap[0, 1] + overlap[1, 0]:
            w, v = w[::-1], v[:, ::-1]
        phases[i] = phases[i - 1] + np.angle(w * np.conj(lam))
        lam, vec = w, v
    return phases


@pytest.mark.parametrize("member", [None, 2, 3, 14], ids=["tabulated", "member-2", "member-3", "member-14"])
def test_asymmetric_eigenphases_match_the_per_node_loop(well_family, member):
    """The batched eig branch takes every branch choice the per-node loop
    takes; only the summation order of the unwrap differs."""
    analysis = PotentialAnalysis(TABULATED_WELL) if member is None else well_family[member]
    data = analysis.scattering
    assert not data.symmetric
    curves = data.eigenphase_curves()
    assert curves.shape == (data.kappas.size, 2)
    assert np.max(np.abs(curves - per_node_eigenphases(data.even_odd))) < 1e-13


def test_asymmetric_eigenphases_follow_a_crossing():
    """S = R(k) diag(e^{ia}, e^{ib}) R(k)^T with R turning slowly: the curves
    follow a and b through their crossing (and a past pi), where a per-node
    sort by angle would reflect them."""
    k = np.linspace(0.0, 1.0, 200)
    a, b = 0.2 + 3.5 * k, 2.0 - 1.5 * k
    c, s = np.cos(0.3 * k), np.sin(0.3 * k)
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    phases = np.zeros((k.size, 2, 2), dtype=complex)
    phases[:, 0, 0], phases[:, 1, 1] = np.exp(1j * a), np.exp(1j * b)
    even_odd = rot @ phases @ rot.swapaxes(1, 2)
    data = scattering.ScatteringData(k, to_even_odd(even_odd))
    curves = data.eigenphase_curves()
    assert np.max(np.abs(curves - np.column_stack([a, b]))) < 1e-12
    assert np.any(np.diff(np.sign(a - b)) != 0)


def test_eigenphase_tie_pairs_the_eig_columns_straight(monkeypatch):
    """Where the straight and cross overlap sums tie exactly, eig's column j
    continues its column j of the node before.  Here node 1's columns cross
    node 0's, and node 2's Hadamard columns tie with node 1's, so node 2
    keeps node 1's swap."""
    h = 1.0 / math.sqrt(2.0)
    swap, hadamard = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[h, h], [h, -h]])
    overlap = np.abs(swap.T @ hadamard) ** 2
    assert overlap[0, 0] + overlap[1, 1] == overlap[0, 1] + overlap[1, 0]
    lam = np.exp(1j * np.array([[0.1, 0.5], [0.45, 0.15], [0.4, 0.2]]))
    vec = np.array([np.eye(2), swap, hadamard], dtype=complex)
    monkeypatch.setattr(np.linalg, "eig", lambda mats: (lam, vec))
    data = scattering.ScatteringData(np.array([1.0, 2.0, 3.0]), np.tile(np.eye(2, dtype=complex), (3, 1, 1)))
    curves = data.eigenphase_curves()
    assert np.allclose(curves, [[0.1, 0.5], [0.15, 0.45], [0.2, 0.4]], atol=1e-15)


def per_cell_dumps(data):
    """The bytes of both dumps as a per-cell formatter writes them."""
    rows = ["kappa,re11,im11,re12,im12,re21,im21,re22,im22"]
    for k, m in zip(data.kappas, data.matrices):
        cells = [repr(float(k))]
        for i in (0, 1):
            for j in (0, 1):
                cells.append(repr(float(m[i, j].real)))
                cells.append(repr(float(m[i, j].imag)))
        rows.append(",".join(cells))
    phases = ["kappa,arg_det,phase1,phase2"]
    for k, d, pair in zip(data.kappas, data.det_phases(), data.eigenphase_curves()):
        phases.append(",".join(repr(float(v)) for v in (k, d, pair[0], pair[1])))
    return [("\n".join(lines) + "\n").encode() for lines in (rows, phases)]


def signed_zero_stack():
    """A two-node stack whose dump holds -0.0 and 1e-300 entries."""
    mats = np.empty((2, 2, 2), dtype=complex)
    mats.real = [[[1.0, 1e-300], [-0.0, -1.0]], [[-0.0, -1e-300], [0.0, 1.0]]]
    mats.imag = [[[-0.0, 0.0], [1e-300, -0.0]], [[1.0, -0.0], [-1e-300, -0.0]]]
    return scattering.ScatteringData(np.array([1e-300, 0.5]), mats)


@pytest.mark.parametrize("source", ["symmetric", "asymmetric", "signed-zero"])
def test_dumps_match_the_per_cell_formatter_byte_for_byte(tmp_path, source):
    data = {
        "symmetric": lambda: PotentialAnalysis(PAIR_WELL).scattering,
        "asymmetric": lambda: PotentialAnalysis(TABULATED_WELL).scattering,
        "signed-zero": signed_zero_stack,
    }[source]()
    assert data.symmetric == (source == "symmetric")
    data.write_csv(tmp_path / "s.csv")
    data.write_phase_csv(tmp_path / "p.csv")
    dumps = [(tmp_path / name).read_bytes() for name in ("s.csv", "p.csv")]
    assert dumps == per_cell_dumps(data)
    assert dumps[0].count(b"\n") == dumps[1].count(b"\n") == data.kappas.size + 1
    if source == "signed-zero":
        assert b",-0.0," in dumps[0] and b"1e-300" in dumps[0]


def test_symmetric_well_reflections_coincide():
    pot = gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)])
    assert pot.symmetric
    engine = TransferEngine(default_mesh(pot))
    kappas = np.geomspace(0.02, 10.0, 15)
    _, r_left, r_right = engine.plane_wave_coefficients(kappas)
    assert np.max(np.abs(r_left - r_right)) < 1e-8


def test_asymmetric_well_reflections_differ():
    pot = gaussian_wells([(2.0, 0.7, 0.5)])
    assert not pot.symmetric
    engine = TransferEngine(default_mesh(pot))
    kappas = np.geomspace(0.02, 10.0, 15)
    _, r_left, r_right = engine.plane_wave_coefficients(kappas)
    assert np.max(np.abs(r_left - r_right)) > 1e-3


def _loop_pivots(diag, c):
    """Reference: the LDL^T pivots row by row, every off-diagonal -c, with
    the pivmin rule."""
    pivmin = 1e-290
    d = float(diag[0])
    if abs(d) < pivmin:
        d = -pivmin
    pivots = [d]
    for a in diag[1:].tolist():
        d = a - c * c / d
        if -pivmin < d < pivmin:
            d = -pivmin
        pivots.append(d)
    return np.array(pivots)


def _loop_count(diag, c):
    return int(np.sum(_loop_pivots(diag, c) < 0.0))


def _eig_count(diag, c):
    return eigvalsh_tridiagonal(diag, np.full(diag.size - 1, -c), select="v", select_range=(-np.inf, 0.0)).size


def test_sturm_count_matches_eigenvalues():
    # Oracle: FD-shaped matrices (free rows 2c, others lowered or raised by
    # V), padded with free head and tail rows, against the eigenvalues of the
    # materialised matrix.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        c = float(10.0 ** rng.uniform(-2.0, 5.0))
        m = int(rng.integers(1, 80))
        v = c * rng.uniform(-3.0, 0.5, m) * (rng.random(m) < 0.7)
        window = 2.0 * c + v
        head, tail = (int(rng.integers(0, 500)) * int(rng.random() < 0.6) for _ in range(2))
        full = np.concatenate([np.full(head, 2.0 * c), window, np.full(tail, 2.0 * c)])
        near_zero = eigvalsh_tridiagonal(
            full, np.full(full.size - 1, -c), select="v", select_range=(-1e-9 * c, 1e-9 * c)
        )
        if near_zero.size:
            continue
        expected = _eig_count(full, c)
        assert sturm_negative_count(window, c, head=head, tail=tail) == expected, (c, head, tail)
        assert sturm_negative_count(full, c) == expected, (c, head, tail)
        checked += 1
    assert checked > 250
    # a zero pivot counts as negative: [[0, -1], [-1, 1]] has one negative eigenvalue
    assert sturm_negative_count(np.array([0.0, 1.0]), 1.0) == 1


def test_sturm_enters_at_pivot_inf():
    # A free row 0 and a zero first pivot with no head are entry cases below.
    c = 3.0
    assert propagate._head_pivot(c, 1) == 2.0 * c
    assert propagate._head_pivot(c, 0) == math.inf
    assert propagate._tail_negatives(-0.5, c, 0) == 0
    # One head row counts as the free row 0 materialised.
    for first in (2.0 * c, 0.7 * c, 0.0):
        window = np.array([first, 2.0 * c, 2.0 * c, -1.0, 2.0 * c])
        materialised = np.concatenate([[2.0 * c], window])
        expected = _loop_count(materialised, c)
        assert sturm_negative_count(window, c, head=1) == expected == _eig_count(materialised, c), first


def _fd_matrix(depths, centres, widths, box, n, parity):
    """The finite-difference diagonal and coupling of a sum of Gaussian
    wells, built as the FD bound-state counter builds them; with a
    ``parity``, on the half-line grid with a reflecting first row."""
    if parity is None:
        xs = np.linspace(-box, box, n + 2)[1:-1]
        h = xs[1] - xs[0]
    else:
        h = box / n
        xs = (np.arange(n) + 0.5) * h
    v = sum(-d * np.exp(-(((xs - x0) / w) ** 2)) for d, x0, w in zip(depths, centres, widths))
    diag = 2.0 / (h * h) + v
    if parity is not None:
        diag[0] = (1.0 if parity == "even" else 3.0) / (h * h) + v[0]
    return diag, 1.0 / (h * h)


@pytest.mark.parametrize("parity", [None, "even", "odd"])
def test_sturm_free_runs_match_loop_on_random_wells(parity):
    rng = np.random.default_rng({None: 21, "even": 22, "odd": 23}[parity])
    crossings_in_free_rows = 0
    for _ in range(40):
        k = int(rng.integers(1, 4))
        box = float(rng.uniform(6.0, 200.0))
        centres = rng.uniform(-0.5 * box, 0.5 * box, k) if parity is None else rng.uniform(0.0, 0.5 * box, k)
        diag, c = _fd_matrix(rng.uniform(0.2, 8.0, k), centres, rng.uniform(0.3, 2.0, k), box, 2000, parity)
        pivots = _loop_pivots(diag, c)
        crossings_in_free_rows += int(np.sum((pivots < 0.0) & (diag == 2.0 * c)))
        count = sturm_negative_count(diag, c)
        assert count == int(np.sum(pivots < 0.0))
        assert count == _eig_count(diag, c)
    assert crossings_in_free_rows > 0


def test_sturm_free_run_entry_cases():
    c = 3.0
    free = np.full(12, 2.0 * c)
    cases = {
        "negative entry pivot": [-1.0],
        "entry pivot zero": [0.0],
        "entry pivot within pivmin": [1e-300],
        "entry below c, crossing in the run": [0.7 * c],
        "entry between c/2 and c, later crossing": [0.9 * c],
        "entry above c": [5.0 * c],
        "free row 0": [2.0 * c],
        "run of length 1": [2.0 * c, 2.0 * c, -4.0, 1.0, 2.0 * c, 7.0],
        "non-free negative pivot before a run": [1.0, 0.5],
    }
    for name, head in cases.items():
        diag = free.copy()
        diag[: len(head)] = head
        expected = _loop_count(diag, c)
        assert sturm_negative_count(diag, c) == expected, name
        assert _eig_count(diag, c) == expected, name
    # The tail run alone, entered with pivot d: a first row whose pivot is d,
    # then m free rows.  At c = 1e40 the entry 1e-289 makes d / (c - d)
    # underflow to 0.
    for c in (3.0, 1e40):
        entries = (math.inf, -math.inf, c, np.nextafter(c, 0.0), 0.999 * c, 0.7 * c, 0.1 * c, 1e-289, -c, -0.5 * c)
        for d in entries:
            for m in (0, 1, 2, 3, 5, 12, 2000):
                run = np.concatenate([[d], np.full(m, 2.0 * c)])
                expected = _loop_count(run, c) - int(d < 0.0)
                assert propagate._tail_negatives(d, c, m) == expected, (c, d, m)


def test_sturm_free_run_extreme_entry_pivots():
    # c^2 / pivmin overflows: the non-free row 1 gets an infinite pivot and
    # the free run from row 2 must go on as the loop does (next pivot 2c).
    c = 1e10
    diag = np.full(9, 2.0 * c)
    diag[:2] = [0.0, 5.0]
    diag[5] = 0.5 * c
    assert np.isinf(_loop_pivots(diag, c)[1])
    assert sturm_negative_count(diag, c) == _loop_count(diag, c) == 2
    # A tiny positive entry pivot far below c: d / (c - d) underflows to 0,
    # and the run's first pivot is the negative one (-inf here).
    c = 1e40
    diag = np.full(9, 2.0 * c)
    diag[0] = 1e-289
    diag[6] = 0.9 * c
    assert _loop_pivots(diag, c)[1] == -np.inf
    assert sturm_negative_count(diag, c) == _loop_count(diag, c) == 2


def test_sturm_free_run_crosses_block_edge():
    # A single lowered row before the block edge; its depth sweeps the one
    # negative pivot of the following free run from just after the row to
    # well past the edge, and to no crossing at all.
    n = BLOCK_ELEMENTS + 3000
    row = BLOCK_ELEMENTS - 200
    seen_after_edge = seen_before_edge = False
    for depth in np.linspace(1e-4, 1e-2, 60):
        diag = np.full(n, 2.0)
        diag[row] -= depth
        pivots = _loop_pivots(diag, 1.0)
        negative = np.flatnonzero(pivots < 0.0)
        seen_after_edge |= bool(negative.size and negative[-1] > BLOCK_ELEMENTS)
        seen_before_edge |= bool(negative.size and negative[-1] <= BLOCK_ELEMENTS)
        assert sturm_negative_count(diag, 1.0) == negative.size
    assert seen_after_edge and seen_before_edge


def test_sturm_crossing_on_the_last_row_of_a_run():
    # Tune the well so that its second FD eigenvalue is zero: the matrix
    # determinant changes sign, so the negative pivot moves on or off the
    # last row, which ends the free run of the right-hand tail.
    def matrix(depth):
        return _fd_matrix([depth], [0.0], [1.0], 10.0, 2000, None)

    def second_eigenvalue(depth):
        diag, c = matrix(depth)
        return eigvalsh_tridiagonal(diag, np.full(diag.size - 1, -c), select="i", select_range=(1, 1))[0]

    critical = brentq(second_eigenvalue, 2.0, 12.0, xtol=1e-14)
    for depth, last_negative in ((critical * (1 + 1e-7), True), (critical * (1 - 1e-7), False)):
        diag, c = matrix(depth)
        assert diag[-1] == 2.0 * c and diag[-200] == diag[-1]
        pivots = _loop_pivots(diag, c)
        assert (pivots[-1] < 0.0) == last_negative
        assert sturm_negative_count(diag, c) == int(np.sum(pivots < 0.0)) == 1 + last_negative


def test_sturm_all_free_diag():
    # Every row is free, so the whole diag joins the head run; the free
    # matrix (2c on the diagonal, -c off it) is positive definite.
    for c in (1.0, 1.0 / 0.005**2):
        for size, head, tail in ((0, 3, 4), (1, 0, 0), (7, 0, 0), (300, 5, 9)):
            diag = np.full(size, 2.0 * c)
            full = np.full(head + size + tail, 2.0 * c)
            assert sturm_negative_count(diag, c, head=head, tail=tail) == 0
            assert _loop_count(full, c) == _eig_count(full, c) == 0


def test_sturm_interior_free_gap():
    # Two wells far apart: every row between them is free bit for bit, and
    # those rows take the row-by-row recurrence.
    checked = 0
    for depth in np.linspace(0.5, 6.0, 12):
        diag, c = _fd_matrix([depth, depth], [50.0, -50.0], [0.5, 0.5], 120.0, 4000, None)
        lowered = np.flatnonzero(diag != 2.0 * c)
        inside = diag[lowered[0] : lowered[-1] + 1]
        assert np.sum(inside == 2.0 * c) > 1000
        expected = _loop_count(diag, c)
        assert sturm_negative_count(diag, c) == expected == _eig_count(diag, c), depth
        checked += expected > 0
    assert checked > 6


def test_sector_report_refuses_when_counters_disagree(monkeypatch):
    # Sector counts are shares of the certified full-line count, so they
    # inherit its refusal.
    analysis = PotentialAnalysis(square_well(1.0, 1.0))
    assert analysis.n_bound_shooting == 1
    monkeypatch.setattr(PotentialAnalysis, "n_bound_fd", 2)
    for sector in (Sector.EVEN, Sector.ODD):
        with pytest.raises(ResolutionInsufficient, match="counters disagree"):
            analysis.report(sector)


def test_zero_energy_solution_is_computed_once():
    pot = gaussian_wells([(6.0, 0.4, 0.8), (3.0, -1.1, 0.5)])
    mesh = default_mesh(pot)
    engine = TransferEngine(mesh)
    first = engine.edge_states()
    second = engine.edge_states()
    for a, b in zip(first, second):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    settings = SolverSettings()
    fresh = TransferEngine(mesh)
    assert count_bound_states_shooting(engine, settings) == count_bound_states_shooting(fresh, settings)
    assert zero_energy_tail(engine) == zero_energy_tail(fresh)
    assert np.array_equal(engine.edge_states()[1], fresh.edge_states()[1])


def test_shooting_counts_the_node_just_past_the_edge():
    # psi(x_r) = -1e-17 heads for zero with slope 1: the node sits 1e-17 past
    # the edge, where c1 + c2 x_r, with c1 = psi(x_r) - c2 x_r, rounds to 0.
    edges = np.array([0.0, 1.0])
    engine = types.SimpleNamespace(
        edge_states=lambda: (edges, np.array([1.0, -1e-17]), np.array([-1.0, 1.0])), x_max=1.0
    )
    assert count_bound_states_shooting(engine, SolverSettings()) == 2



def _sequential_edge_states(engine):
    """Reference: the zero-energy solution stepped one cell at a time from
    (1, 0), (psi, psi') <- P_j (psi, psi') with each cell's propagator."""
    cells = engine._propagators(slice(None), np.zeros(1))[:, :, 0]
    p, q = 1.0, 0.0
    psi, dpsi = [p], [q]
    for a, b, c, d in zip(*(entry.tolist() for entry in cells)):
        p, q = a * p + b * q, c * p + d * q
        psi.append(p)
        dpsi.append(q)
    return engine.mesh.edges, np.array(psi), np.array(dpsi)


@pytest.mark.parametrize("n_cells", [BLOCK_ELEMENTS + 1, 2 * BLOCK_ELEMENTS + 777])
def test_zero_energy_solution_matches_the_sequential_recurrence(n_cells):
    """The block prefix products, each block chained from the last state of
    the one before, give the cell-by-cell solution to 1e-12 relative; the
    first mesh ends on a block of one cell."""
    pot = gaussian_wells([(6.0, 0.4, 0.8), (3.0, -1.1, 0.5)])
    edges = np.linspace(-12.0, 12.0, n_cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    gap = math.sqrt(15.0) / 10.0 * np.diff(edges)
    engine = TransferEngine(Mesh(edges=edges, v_lo=pot(mid - gap), v_mid=pot(mid), v_hi=pot(mid + gap)))
    got, want = engine.edge_states(), _sequential_edge_states(engine)
    assert np.array_equal(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape == (n_cells + 1,)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _sequential_transfer(engine, kappas):
    """Reference: the transfer matrices multiplied one cell at a time,
    T <- P_j T, in cell order from the identity."""
    cells = engine._propagators(slice(None), np.asarray(kappas) ** 2)
    n = len(kappas)
    t11, t12, t21, t22 = np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)
    for a, b, c, d in cells.transpose(1, 0, 2):
        t11, t12, t21, t22 = a * t11 + b * t21, a * t12 + b * t22, c * t11 + d * t21, c * t12 + d * t22
    return np.array([t11, t12, t21, t22])


TREE_CELLS = 1001


@pytest.mark.parametrize("batch,blocks", [(1, 1), (20, 2), (40, 3), (200, 13), (600, 38)])
def test_transfer_matches_the_sequential_product(batch, blocks):
    """The block products, stacked and reduced by the same pairwise tree,
    give the cell-by-cell product to 1e-13 relative, whether the batch puts
    the mesh in one block, two, an odd number or many; at 600 momenta a
    block has 27 cells, so the stack outgrows a block and is reduced on the
    way."""
    assert -(-TREE_CELLS // (BLOCK_ELEMENTS // batch)) == blocks
    pot = gaussian_wells([(6.0, 0.4, 0.8), (3.0, -1.1, 0.5)])
    engine = TransferEngine(_mesh_from_edges(pot, np.linspace(-6.0, 6.0, TREE_CELLS + 1)))
    kappas = np.geomspace(1e-3, 80.0, batch)
    got, want = np.array(engine.transfer(kappas)), _sequential_transfer(engine, kappas)
    assert got.shape == want.shape == (4, batch)
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 1e-13


def test_family_counts_and_classes_match_the_sequential_solution(well_family, monkeypatch):
    """Every conftest member's shooting count and threshold class, read off
    the cell-by-cell zero-energy solution, are the pipeline's."""
    settings = SolverSettings()
    want = [(member.n_bound_shooting, member.resonance) for member in well_family]
    monkeypatch.setattr(TransferEngine, "edge_states", _sequential_edge_states)
    got = [
        (count_bound_states_shooting(member.engine, settings), classify_threshold(member.engine, settings))
        for member in well_family
    ]
    assert got == want


def test_grid_keeps_both_ends_of_a_short_span():
    """A span too short for one point per decade's share still puts
    kappa_min and kappa_max on the grid; the default grid keeps its 169
    starting nodes."""
    engine = TransferEngine(default_mesh(square_well(1.0, 1.0)))
    short = SolverSettings(kappa_min=1.0, kappa_max=1.04)
    kappas = s_matrix_grid(engine, short).kappas
    assert kappas[0] == 1.0 and kappas[-1] == 1.04
    coarse = SolverSettings(refine_phase_step=10.0, refine_entry_step=10.0)
    assert s_matrix_grid(engine, coarse).kappas.size == 169


# --- the band rule of the converged mesh pair --------------------------------

BAND_EDGE = float(np.max(ENGINE_PROBE_KAPPAS))


def test_mesh_pair_routes_each_momentum_by_band():
    """Momenta up to the top probe, in any order, come from the coarser mesh
    and the rest from the finer one; the two meshes differ by far more than
    the batch-dependent rounding at every momentum.  A NaN momentum gives
    NaN, as from one engine."""
    pot = gaussian_wells([(12.0, 0.3, 0.8)])
    mesh = build_mesh(pot, -8.0, 8.0, coarse_h=0.4, feature_cells=4)
    coarse, fine = TransferEngine(mesh), TransferEngine(mesh.halved(pot))
    kappas = np.array([80.0, 3.0, BAND_EDGE, 0.2, np.nextafter(BAND_EDGE, np.inf), 700.0, 20.0])
    pair = MeshPair(((BAND_EDGE, coarse), (math.inf, fine)))
    got = _plane_matrices(pair, kappas)
    inside = kappas <= BAND_EDGE
    for engine, band in ((coarse, inside), (fine, ~inside)):
        want = _plane_matrices(engine, kappas[band])
        other = _plane_matrices(fine if engine is coarse else coarse, kappas[band])
        assert np.max(np.abs(got[band] - want)) <= 1e-14
        assert np.min(np.max(np.abs(other - want), axis=(1, 2))) > 1e-10
    with np.errstate(invalid="ignore"):
        assert np.isnan(_plane_matrices(pair, np.array([np.nan, 3.0]))[0]).all()


def test_empty_batch_gives_empty_arrays():
    """An empty batch of momenta gives four empty transfer entries, and three
    empty amplitudes from one engine and from a mesh pair alike."""
    pot = gaussian_wells([(12.0, 0.3, 0.8)])
    mesh = build_mesh(pot, -8.0, 8.0, coarse_h=0.4, feature_cells=4)
    engine = TransferEngine(mesh)
    entries = engine.transfer([])
    assert len(entries) == 4 and all(e.shape == (0,) and e.dtype == float for e in entries)
    pair = MeshPair(((BAND_EDGE, engine), (math.inf, TransferEngine(mesh.halved(pot)))))
    for source in (engine, pair):
        amplitudes = source.plane_wave_coefficients([])
        assert len(amplitudes) == 3 and all(a.shape == (0,) and a.dtype == complex for a in amplitudes)


def test_lower_band_routes_each_momentum_by_band():
    """With one lower band, momenta up to its top, in any order, come from
    its rung, the next up to the top probe from M and the rest from M/2;
    the band tops themselves belong to the band below."""
    pot = gaussian_wells([(12.0, 0.3, 0.8)])
    mesh = build_mesh(pot, -8.0, 8.0, coarse_h=0.4, feature_cells=4)
    rung = TransferEngine(mesh)
    coarse = TransferEngine(mesh.halved(pot))
    fine = TransferEngine(mesh.halved(pot).halved(pot))
    top = float(ENGINE_PROBE_KAPPAS[6])
    kappas = np.array(
        [80.0, np.nextafter(top, np.inf), 3.0, BAND_EDGE, 0.2, top, np.nextafter(BAND_EDGE, np.inf), 700.0, 1e-3]
    )
    got = _plane_matrices(MeshPair(((top, rung), (BAND_EDGE, coarse), (math.inf, fine))), kappas)
    lower, upper = kappas <= top, kappas > BAND_EDGE
    engines = (rung, coarse, fine)
    for engine, band in zip(engines, (lower, ~lower & ~upper, upper)):
        assert band.sum() >= 2
        want = _plane_matrices(engine, kappas[band])
        assert np.max(np.abs(got[band] - want)) <= 1e-14
        for other in engines:
            if other is not engine:
                gap = np.max(np.abs(_plane_matrices(other, kappas[band]) - want), axis=(1, 2))
                assert np.min(gap) > 1e-10


MEMBERS = pytest.mark.parametrize("member", range(WELL_FAMILY_SIZE), ids=lambda m: f"member-{m}")


def test_lower_bands_stop_at_the_first_probe_out_of_tolerance(monkeypatch):
    """A rung's band ends below its first probe off M/2 by ``tol``, even if
    later probes agree again; a rung off at the zero-energy entries, or
    finer than one that reaches further, gets no band, and neither does M
    behind a coarser rung that certifies every probe.  The ladder runs on
    stand-in meshes and engines that replay fixed snapshots, consecutive
    rungs off by ``tol`` until M meets M/2."""
    n, tol = ENGINE_PROBE_KAPPAS.size, DEFAULTS.solver_tol
    fine = np.zeros(3 * n + 2, dtype=complex)
    gapped, off_at_zero, close, shorter = (fine + 1e-11 for _ in range(4))
    gapped[n + 4] = tol
    off_at_zero[n + 4], off_at_zero[-1] = -tol, tol
    shorter[2] = -tol
    ladder = [gapped, off_at_zero, close, shorter, fine, fine]

    class Rung:
        def __init__(self, index):
            self.index = index

        def halved(self, potential):
            return Rung(self.index + 1)

    class Engine:
        def __init__(self, mesh):
            self.index, self.snapshot = mesh.index, ladder[mesh.index]

        def plane_wave_coefficients(self, kappas):
            return tuple(self.snapshot[: 3 * n].reshape(3, n))

    monkeypatch.setattr(scattering, "build_mesh", lambda *args, **kwargs: Rung(0))
    monkeypatch.setattr(scattering, "TransferEngine", Engine)
    monkeypatch.setattr(scattering, "zero_energy_tail", lambda e: (e.snapshot[-2].real, e.snapshot[-1].real, 1.0, 0.0))
    bands = PotentialAnalysis(square_well(1.0, 1.0)).mesh_pair.bands
    assert [(top, engine.index) for top, engine in bands] == [
        (ENGINE_PROBE_KAPPAS[3], 0),
        (ENGINE_PROBE_KAPPAS[-1], 2),
        (math.inf, 5),
    ]


@pytest.mark.parametrize("where", ["probe", "zero energy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e-10, 2e-10])
def test_certified_counts_every_probe_exactly_when_the_max_gap_is_below_tol(where, bad):
    """``_certified`` gives all probes exactly when the ladder's old stop
    test, the max over every entry, holds; a NaN or inf entry, or a gap of
    ``tol`` itself, certifies nothing from its probe on, and a zero-energy
    entry holds back every probe."""
    n, tol = ENGINE_PROBE_KAPPAS.size, 2e-10
    rng = np.random.default_rng(11)
    fine = rng.normal(size=3 * n + 2) + 1j * rng.normal(size=3 * n + 2)
    fine[3 * n :] = fine[3 * n :].real
    snapshot = fine + 1e-11 * np.exp(2j * np.pi * rng.random(3 * n + 2))
    at = 2 * n + 6 if where == "probe" else 3 * n + 1
    fine[at], snapshot[at] = 0.0, bad
    for a, b in ((snapshot, fine), (fine, snapshot)):
        got = _certified(a, b, tol)
        assert (got == n) == bool(np.max(np.abs(a - b)) < tol)
        assert got == (n if abs(bad) < tol else 6 if where == "probe" else 0)
    assert _certified(fine + 1e-11, fine, tol) == n


def _deep_table(settings=None):
    """The Gaussian well -1e6 exp(-x^2) tabulated at linspace(-3, 3, 6): its
    coarsest ladder rung overflows, and the finer ones stay finite."""
    xs = np.linspace(-3.0, 3.0, 6)
    return PotentialAnalysis(tabulated_potential(xs, -1e6 * np.exp(-(xs**2))), settings)


def test_deep_table_ladder_is_refused_without_a_warning():
    """The overflowing first rung certifies nothing, and six halvings do
    not converge: a typed refusal, with no RuntimeWarning, which the suite
    turns into an error."""
    analysis = _deep_table()
    with pytest.raises(SolverDiverged, match="not converged after 6 mesh halvings"):
        analysis.mesh_pair


def test_deep_table_first_rung_takes_no_band():
    """With nine halvings the ladder converges, and the overflowing first
    rung takes no band."""
    analysis = _deep_table(SolverSettings(max_halvings=9))
    cells = [engine.mesh.n_cells for _, engine in analysis.mesh_pair.bands]
    assert min(cells) > default_mesh(analysis.potential).n_cells
    assert cells == [41984, 83968]


def _probe_snapshot(engine):
    """The halving certificate's entries of one engine: (t, r_left, r_right)
    at each probe, as rows, and the normalised zero-energy (c1, c2)."""
    c1, c2, scale, _ = zero_energy_tail(engine)
    return np.array(engine.plane_wave_coefficients(ENGINE_PROBE_KAPPAS)), np.array([c1 / scale, c2 / scale])


def _ladder_below(analysis):
    """Engines on the rungs of ``analysis``'s halving ladder coarser than
    M/2, coarsest first and M last, rebuilt from the default mesh."""
    mesh, rungs = default_mesh(analysis.potential), []
    while mesh.n_cells < analysis.mesh_pair.fine.mesh.n_cells:
        rungs.append(TransferEngine(mesh))
        mesh = mesh.halved(analysis.potential)
    assert mesh.n_cells == analysis.mesh_pair.fine.mesh.n_cells
    return rungs


@MEMBERS
def test_lower_bands_take_the_coarsest_rung_their_probes_certify(well_family, member):
    """Band tops are ascending probe momenta, the last one M/2's at inf;
    each other band's engine is a ladder rung, M or coarser, whose probe
    data up to the top, and zero-energy data, lie within ``solver_tol`` of
    M/2's; and no coarser rung's do.  The rungs reach the top probe."""
    analysis = well_family[member]
    pair, tol = analysis.mesh_pair, analysis.settings.solver_tol
    assert pair.bands[-1] == (math.inf, pair.fine)
    tops = [top for top, _ in pair.bands[:-1]]
    assert all(np.any(ENGINE_PROBE_KAPPAS == top) for top in tops)
    assert tops == sorted(set(tops)) and tops[-1] == BAND_EDGE
    fine_probes, fine_zero = _probe_snapshot(pair.fine)

    def certified(engine):
        probes, zero = _probe_snapshot(engine)
        if np.max(np.abs(zero - fine_zero)) >= tol:
            return 0
        return int(np.argmin(np.r_[np.max(np.abs(probes - fine_probes), axis=0) < tol, False]))

    rungs = _ladder_below(analysis)
    ranks = [certified(engine) for engine in rungs]
    bottom = 0
    for top, engine in pair.bands[:-1]:
        assert engine.mesh.n_cells < pair.fine.mesh.n_cells
        index = [e.mesh.n_cells for e in rungs].index(engine.mesh.n_cells)
        assert np.array_equal(engine.mesh.edges, rungs[index].mesh.edges)
        reach = int(np.flatnonzero(ENGINE_PROBE_KAPPAS == top)[0]) + 1
        assert certified(engine) == reach
        assert max(ranks[:index], default=0) <= bottom < reach
        bottom = reach
    assert max(ranks, default=0) == bottom


@pytest.mark.parametrize("member", [2, 3])
def test_members_2_and_3_take_a_lower_band_on_half_of_m(well_family, member):
    pair = well_family[member].mesh_pair
    (top, engine), (edge, m), (end, fine) = pair.bands
    assert top == ENGINE_PROBE_KAPPAS[-2] and round(top, 2) == 15.03
    assert (edge, end) == (BAND_EDGE, math.inf)
    assert engine.mesh.n_cells * 2 == m.mesh.n_cells and m.mesh.n_cells * 2 == fine.mesh.n_cells


def test_square_well_takes_no_lower_band():
    """A square well's mesh is exact, so M is the first rung and nothing
    coarser can take a band."""
    pair = PotentialAnalysis(square_well(1.0, 1.0)).mesh_pair
    (edge, m), (end, _) = pair.bands
    assert m.mesh.n_cells == default_mesh(square_well(1.0, 1.0)).n_cells
    assert (edge, end) == (BAND_EDGE, math.inf)


@pytest.fixture(scope="module")
def single_mesh_family(well_family):
    """Each conftest member analysed with every grid node on the finer mesh
    M/2, as before the band rule: same engine, grid and side from one engine."""
    out = []
    for member in well_family:
        ref = PotentialAnalysis(member.potential, member.settings)
        ref.engine = member.engine
        symmetric = member.potential.symmetric
        ref.scattering = s_matrix_grid(member.engine, member.settings, symmetric=symmetric)
        ref.side = s_matrix_grid(member.engine, member.settings, symmetric=symmetric, top=member.tail_momentum)
        out.append(ref)
    return out


@MEMBERS
def test_band_rule_keeps_the_single_mesh_nodes(well_family, single_mesh_family, member):
    assert np.array_equal(well_family[member].scattering.kappas, single_mesh_family[member].scattering.kappas)


@MEMBERS
def test_in_band_nodes_lie_within_solver_tol_of_the_finer_mesh(well_family, single_mesh_family, member):
    """Up to the top probe each node comes from its band's rung, M or a
    coarser one, whose probe data the halving certificate holds to
    ``solver_tol`` of M/2's up to the band's top."""
    got, want = well_family[member].scattering, single_mesh_family[member].scattering
    inside = got.kappas <= BAND_EDGE
    assert inside.sum() > 100
    gap = np.max(np.abs(got.matrices[inside] - want.matrices[inside]))
    assert gap <= well_family[member].settings.solver_tol


@MEMBERS
def test_above_band_nodes_come_from_the_finer_mesh(well_family, single_mesh_family, member):
    """Above the top probe, which no probe certifies, the nodes stay on M/2;
    only the batch-dependent block split of the product moves them."""
    got, want = well_family[member].scattering, single_mesh_family[member].scattering
    above = got.kappas > BAND_EDGE
    assert above.sum() > 20
    assert np.max(np.abs(got.matrices[above] - want.matrices[above])) <= 1e-14


@MEMBERS
def test_band_rule_keeps_windings_counts_class_and_delay(well_family, single_mesh_family, member):
    got, want = well_family[member], single_mesh_family[member]
    a, b = got.report(), want.report()
    assert np.max(np.abs(np.subtract(a.w, b.w))) <= 1e-12
    assert abs(a.total - b.total) <= 1e-12 and abs(a.residual - b.residual) <= 1e-12
    assert (a.n_bound, a.resonance) == (b.n_bound, b.resonance)
    assert got.n_bound_fd == want.n_bound_fd
    assert abs(got.time_delay() - want.time_delay()) <= 1e-12


def test_engine_is_the_finer_engine_of_the_pair():
    analysis = PotentialAnalysis(gaussian_wells([(4.0, 0.3, 0.8)]))
    assert analysis.engine is analysis.mesh_pair.fine
    (edge, m), (end, _) = analysis.mesh_pair.bands[-2:]
    assert (edge, end) == (BAND_EDGE, math.inf)
    assert m.mesh.n_cells * 2 == analysis.engine.mesh.n_cells


def test_grid_read_again_is_rebuilt_from_the_same_pair():
    """The pair outlives the grid: dropped and read again, the grid comes
    back bit for bit, and an assigned ``engine`` does not cut the ladder's
    pair off from the grid."""
    pot = gaussian_wells([(4.0, 0.3, 0.8)])
    analysis = PotentialAnalysis(pot)
    first = analysis.scattering
    del analysis.scattering
    again = analysis.scattering
    assert again is not first
    assert np.array_equal(again.kappas, first.kappas) and np.array_equal(again.matrices, first.matrices)
    assigned = PotentialAnalysis(pot)
    assigned.engine = analysis.engine
    grid = assigned.scattering
    assert np.array_equal(grid.kappas, first.kappas) and np.array_equal(grid.matrices, first.matrices)


# --- threshold classification near a tuned resonance ------------------------


def test_far_from_resonance_is_generic():
    depth = tuned_resonance_depth("odd") + 0.05
    rc = PotentialAnalysis(square_well(depth, 1.0)).resonance
    assert not rc.is_exceptional


def test_near_resonance_is_exceptional():
    depth = tuned_resonance_depth("odd") + 1e-7
    rc = PotentialAnalysis(square_well(depth, 1.0)).resonance
    assert rc.is_exceptional
    assert abs(rc.gamma + 1.0) < 1e-3


def test_dead_zone_refuses_to_classify():
    depth = tuned_resonance_depth("odd") + 1e-4
    with pytest.raises(ClassificationAmbiguous):
        PotentialAnalysis(square_well(depth, 1.0)).resonance


def test_tail_slope_changes_sign_across_resonance():
    root = tuned_resonance_depth("odd")
    below = zero_energy_tail_slope(square_well(root - 0.1, 1.0))
    above = zero_energy_tail_slope(square_well(root + 0.1, 1.0))
    assert below * above < 0


# --- tails outside the short-range class ------------------------------------


def test_slow_tail_warns_then_fails_truncation():
    with pytest.warns(UserWarning, match="tail decay"):
        pot = Potential(
            profile=lambda x: -1.0 / (1.0 + np.asarray(x) ** 2),
            decay_exponent=2.0,
            symmetric=True,
            label="lorentzian well",
        )
    with pytest.raises(DecayTooSlow):
        truncation_radius(pot, tol=DEFAULTS.tail_tol, cap=DEFAULTS.radius_cap)


def _loop_time_delay(matrices):
    """Reference: the per-step loop the stacked time delay replaced."""
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if len(mats) < 2:
        raise ValueError("need at least two matrices along the side")
    total = 0.0
    for prev, nxt in zip(mats[:-1], mats[1:]):
        angles = np.angle(np.linalg.eigvals(nxt @ prev.conj().T))
        worst = float(np.max(np.abs(angles)))
        if worst > 0.5 * np.pi + 1e-12:
            raise PhaseJumpTooLarge(f"eigenphase step {worst:.3f} rad exceeds pi/2; grid too coarse")
        total += float(angles.sum())
    return -total / (2.0 * np.pi)


@pytest.fixture
def delay_sides(well_family, monkeypatch):
    """The momentum sides whose time delays members 9, 2 and 3 integrate."""
    sides = []
    inner = scattering.time_delay_integral

    def spy(matrices):
        sides.append(np.array(matrices))
        return inner(matrices)

    monkeypatch.setattr(scattering, "time_delay_integral", spy)
    for member in (9, 2, 3):
        well_family[member].time_delay()
    return sides


def test_time_delay_equals_step_loop(delay_sides):
    assert len(delay_sides) == 3
    for side in delay_sides:
        assert time_delay_integral(side).hex() == _loop_time_delay(side).hex()
        assert time_delay_integral(list(side)).hex() == _loop_time_delay(side).hex()


def test_time_delay_refuses_coarse_grid_at_first_step(delay_sides):
    stride = 1
    side = delay_sides[0]
    while True:
        stride *= 2
        coarse = side[::stride]
        try:
            _loop_time_delay(coarse)
        except PhaseJumpTooLarge as exc:
            expected = str(exc)
            break
    with pytest.raises(PhaseJumpTooLarge) as caught:
        time_delay_integral(coarse)
    assert str(caught.value) == expected
    # Steps of 1.0, 2.0 and then 3.0 rad: the first offending step is named.
    phases = np.cumsum([0.0, 1.0, 2.0, 3.0])
    steps = [np.diag([np.exp(1j * p), 1.0]) for p in phases]
    with pytest.raises(PhaseJumpTooLarge, match="step 2.000 rad"):
        time_delay_integral(steps)


def test_time_delay_needs_two_matrices():
    for matrices in ([], [np.eye(2)]):
        with pytest.raises(ValueError, match="at least two"):
            time_delay_integral(matrices)
