"""The finite-difference count on the window where V can be felt.

Beyond ``Potential.bounded_radius`` at an eighth of an ulp of 2/h^2, |V| is
too small to move a diagonal entry, so the FD rows there are free (diagonal
2/h^2 bit for bit) and are stepped as a head and a tail run without being
materialised.  These tests hold the windowed count to the full-grid
construction it replaced: equal counts, free rows outside the window, and a
window ``diag`` and abscissae bit-identical to the full grid's rows.

The half-line grids with a reflecting first row count each parity
sector's bound states directly; they are the oracle of the parity rule the
analysis uses instead.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

import levlab.propagate as propagate
from levlab.loops import Sector
from levlab.potentials import Potential, gaussian_wells, square_well, tabulated_potential
from levlab.propagate import sturm_negative_count
from levlab.reporting import tuned_exceptional_well
from levlab.scattering import PotentialAnalysis

from conftest import random_well_family


def _full_grid(potential, box, n, parity=None):
    """Abscissae, spacing and diagonal of the FD matrix over every row, as
    the full-grid counter built them; with a ``parity`` ("even" or "odd"),
    the half-line grid x_i = (i + 1/2) h on [0, box], whose first row
    mirrors (even) or negates (odd) its neighbour across the origin."""
    if parity is None:
        xs = np.linspace(-box, box, n + 2)[1:-1]
        h = xs[1] - xs[0]
    else:
        h = box / n
        xs = (np.arange(n) + 0.5) * h
    diag = 2.0 / (h * h) + potential(xs)
    if parity == "even":
        diag[0] = 1.0 / (h * h) + potential(xs[:1])[0]
    elif parity == "odd":
        diag[0] = 3.0 / (h * h) + potential(xs[:1])[0]
    return xs, h, diag


def _full_count(potential, box, n):
    _, h, diag = _full_grid(potential, box, n)
    return sturm_negative_count(diag, 1.0 / (h * h))


@pytest.fixture
def windows(monkeypatch):
    """Each call the FD count makes to sturm_negative_count, as
    (window diag, head, tail)."""
    calls = []
    inner = propagate.sturm_negative_count

    def spy(diag, c, *, head=0, tail=0):
        calls.append((np.array(diag), head, tail))
        return inner(diag, c, head=head, tail=tail)

    monkeypatch.setattr(propagate, "sturm_negative_count", spy)
    return calls


def _windowed(windows, potential, box, n):
    """Windowed count, the window's diag and the head (its first row)."""
    count = propagate._fd_count_once(potential, box, n)
    diag, head, tail = windows[-1]
    assert head + diag.size + tail == n
    return count, diag, head


def _random_potentials(kind, rng, count=10):
    for _ in range(count):
        if kind == "gaussian":
            wells = [
                (rng.uniform(0.05, 8.0), rng.uniform(-3.0, 3.0), rng.uniform(0.05, 1.5))
                for _ in range(int(rng.integers(1, 4)))
            ]
            yield gaussian_wells(wells)
        elif kind == "square":
            yield square_well(rng.uniform(0.5, 10.0), rng.uniform(0.3, 5.0))
        else:
            xs = np.sort(rng.uniform(-4.0, 4.0, int(rng.integers(2, 30))))
            yield tabulated_potential(xs, rng.uniform(-6.0, 1.0, xs.size))


@pytest.mark.parametrize("kind", ["gaussian", "square", "tabulated"])
def test_window_count_and_diag_match_full_grid(windows, kind):
    rng = np.random.default_rng(["gaussian", "square", "tabulated"].index(kind) * 3)
    counts = []
    for potential in _random_potentials(kind, rng):
        for box, n in ((40.0, 2000), (300.0, 6001)):
            count, diag, lo = _windowed(windows, potential, box, n)
            _, h, full = _full_grid(potential, box, n)
            assert count == _full_count(potential, box, n)
            # The exactness proof: every row left out is free, and every row
            # kept is the full grid's row bit for bit.
            hi = lo + diag.size
            free = 2.0 / (h * h)
            assert np.all(full[:lo] == free) and np.all(full[hi:] == free)
            assert diag.tobytes() == full[lo:hi].tobytes()
            counts.append(count)
    assert max(counts) > 1


def _underflow_radius(wells):
    """Largest |c| + w sqrt(1500) over the wells: beyond it every exponent is
    below -750, so np.exp underflows and the profile is exactly 0.0."""
    return max(abs(c) + w * math.sqrt(1500.0) for _, c, w in wells)


def _weak_designs(seed):
    """The shallow well (0.005, 0, 1) and the 3 x 3 weak-well design of the
    benchmark's weak-wells pass: one Gaussian at the midpoint of each stratum
    of log-depth in [3e-3, 0.3] and width in [0.3, 3], centres drawn
    uniformly on [-1, 1] from ``seed``."""
    rng = np.random.default_rng(seed)
    mids = (np.arange(3) + 0.5) / 3
    lo, hi = math.log(3e-3), math.log(0.3)
    design = list(itertools.product(np.exp(lo + (hi - lo) * mids), 0.3 + 2.7 * mids))
    centres = rng.uniform(-1.0, 1.0, size=len(design))
    return [[(0.005, 0.0, 1.0)]] + [[(float(d), float(c), float(w))] for (d, w), c in zip(design, centres)]


FAMILY_AND_WEAK_WELLS = {f"member-{i}": [wells] for i, wells in enumerate(random_well_family())}
FAMILY_AND_WEAK_WELLS.update({f"weak-seed-{seed}": _weak_designs(seed) for seed in range(1, 11)})


@pytest.mark.parametrize("name", FAMILY_AND_WEAK_WELLS)
def test_rows_outside_the_tight_window_are_free(windows, monkeypatch, name):
    """On every grid the bound-state count builds, for the conftest family
    and the weak-well designs: each row left out of the window has diagonal
    2/h^2 exactly, and the windowed count is the full grid's.  Beyond the
    underflow radius V is exactly 0.0 (tested below), so only the rows inside
    it are evaluated."""
    grids = []
    count_once = propagate._fd_count_once

    def recorded(potential, box, n):
        count = count_once(potential, box, n)
        grids.append((box, n, count))
        return count

    monkeypatch.setattr(propagate, "_fd_count_once", recorded)
    for wells in FAMILY_AND_WEAK_WELLS[name]:
        potential = gaussian_wells(wells)
        PotentialAnalysis(potential).n_bound_fd
        assert len(windows) == len(grids) >= 2
        for (box, n, count), (diag, head, tail) in zip(grids, windows):
            xs = np.linspace(-box, box, n + 2)[1:-1]
            h = xs[1] - xs[0]
            free = 2.0 / (h * h)
            full = np.full(n, free)
            inside = np.flatnonzero(np.abs(xs) <= _underflow_radius(wells))
            full[inside] = free + potential(xs[inside])
            assert head > inside[0] and n - tail <= inside[-1]  # tighter than the underflow radius
            assert np.all(full[:head] == free) and np.all(full[n - tail :] == free)
            assert diag.tobytes() == full[head : n - tail].tobytes()
            assert count == sturm_negative_count(full, 1.0 / (h * h))
        grids.clear()
        windows.clear()


def test_tight_window_of_a_gaussian_is_its_closed_form():
    """The stated radius is max |c| + w sqrt(2 ln(n |d| / level)), and a well
    too shallow to reach the level contributes |c|."""
    wells = [(3.0, -1.0, 0.5), (-0.2, 2.0, 1.5), (1e-20, 4.0, 2.0)]
    potential = gaussian_wells(wells)
    level = 1e-12
    want = max(abs(c) + w * math.sqrt(2.0 * math.log(max(1.0, 3 * abs(d) / level))) for d, c, w in wells)
    assert potential.bounded_radius(level) == want
    assert want == pytest.approx(2.0 + 1.5 * math.sqrt(2.0 * math.log(0.6e12)), rel=1e-15)
    xs = np.linspace(want, want + 30.0, 3001)
    assert np.max(np.abs(potential(np.concatenate([xs, -xs])))) < level
    assert square_well(1.0, 2.0).bounded_radius(1e-12) == 2.0


def test_box_narrower_than_window_takes_whole_grid(windows):
    wide = gaussian_wells([(0.5, 0.0, 6.0)])
    _, h, _ = _full_grid(wide, 40.0, 2000)
    assert wide.bounded_radius(np.spacing(2.0 / (h * h)) / 8.0) > 40.0
    count, diag, head = _windowed(windows, wide, 40.0, 2000)
    assert (head, diag.size) == (0, 2000)
    assert count == _full_count(wide, 40.0, 2000) == 5


def test_box_wider_than_window_materialises_only_the_window(windows):
    well = square_well(4.0, 1.0)
    count, diag, head = _windowed(windows, well, 300.0, 6000)
    tail = windows[-1][2]
    assert diag.size < 60 and head > 0 and tail > 0
    assert count == _full_count(well, 300.0, 6000) == 2


def test_window_edge_one_row_from_box_edge(windows):
    box, n = 40.0, 2000
    # A radius that leaves exactly one free row at each box edge.
    step = 2.0 * box / (n + 1)
    well = square_well(0.002, box - 3.5 * step)
    count, diag, head = _windowed(windows, well, box, n)
    tail = windows[-1][2]
    assert (head, tail) == (1, 1)
    assert count == _full_count(well, box, n)
    _, _, full = _full_grid(well, box, n)
    assert diag.tobytes() == full[head : head + diag.size].tobytes()


def test_window_abscissae_equal_the_full_grid(windows):
    seen = []

    def profile(x):
        seen.append(x.copy())
        return np.where(np.abs(x) <= 3.0, -1.0, 0.0)

    potential = Potential(profile=profile, tail_bound=lambda level: 3.0)
    box, n = 50.0, 4001
    _, diag, lo = _windowed(windows, potential, box, n)
    xs, _, _ = _full_grid(potential, box, n)
    assert seen[0].tobytes() == xs[lo : lo + diag.size].tobytes()
    assert 0 < diag.size < n


@pytest.mark.parametrize("depth", [-1e3, 1e-6, 1.0, 1e3])
def test_gaussian_profile_is_exactly_zero_at_and_beyond_its_radius(depth):
    for width in np.geomspace(1e-3, 1e2, 11):
        for centre in (-5.0, 0.0, 2.5):
            wells = [(depth, centre, width), (0.5 * depth, -0.5 * centre, 0.5 * width)]
            potential = gaussian_wells(wells)
            r = _underflow_radius(wells)
            assert r == abs(centre) + width * math.sqrt(1500.0)
            edge = np.array([r, -r, np.nextafter(r, np.inf), np.nextafter(-r, -np.inf)])
            assert np.all(potential(edge) == 0.0), (depth, width, centre)


def test_bounded_radius_defaults():
    """Without a declared tail bound the radius is the support radius, or
    infinity."""
    assert square_well(1.0, 2.5).bounded_radius(1e-12) == 2.5
    assert tabulated_potential([-1.0, 3.0], [-1.0, -1.0]).bounded_radius(1e-12) == 3.0
    assert Potential(profile=np.sin).bounded_radius(1e-12) == math.inf
    with pytest.raises(ValueError, match="support_radius"):
        Potential(profile=np.sin, support_radius=math.nan)


@pytest.mark.parametrize("c", [1.0 / 0.02**2, 1e-40, 1e40])
def test_sturm_padding_equals_materialised_free_rows(c):
    """Padding with free rows counts like the materialised matrix, for
    couplings whose square is far from the ends of the double range."""
    rng = np.random.default_rng(3)
    for head, tail in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 700), (5000, 3)):
        window = 2.0 * c + c * rng.uniform(-3.0, 0.5, 40)
        diag = np.concatenate([np.full(head, 2.0 * c), window, np.full(tail, 2.0 * c)])
        padded = sturm_negative_count(window, c, head=head, tail=tail)
        assert padded == sturm_negative_count(diag, c), (head, tail)
        expected = eigvalsh_tridiagonal(diag / c, np.full(diag.size - 1, -1.0), select="v", select_range=(-np.inf, 0.0))
        assert padded == expected.size


def test_sturm_padding_lengths_are_exact():
    """Windows on which one padded row more or less changes the count."""
    c = 1.0 / 0.02**2

    def materialised(window, head, tail):
        return sturm_negative_count(np.concatenate([np.full(head, 2.0 * c), window, np.full(tail, 2.0 * c)]), c)

    for head in range(1, 12):
        # After `head` free rows the pivot is c (head + 1) / head; this row's
        # pivot is positive after exactly `head` of them, negative after one more.
        a = 0.5 * c * (head / (head + 1) + (head + 1) / (head + 2))
        window = np.array([a])
        padded = sturm_negative_count(window, c, head=head)
        assert padded == materialised(window, head, 0) == 0, head
    for tail in range(1, 12):
        # Entered with pivot 7c/8, a free run turns negative on its 7th row.
        window = np.array([0.875 * c])
        padded = sturm_negative_count(window, c, tail=tail)
        assert padded == materialised(window, 0, tail) == int(tail >= 7), tail


def _half_line_count(potential, parity, box):
    """Negative eigenvalues of the half-line FD matrix of one parity at the
    FD counter's default h = 0.005, from the eigensolver; the count must
    hold under grid doubling."""
    counts = set()
    for n in (round(box / 0.005), 2 * round(box / 0.005)):
        _, spacing, diag = _full_grid(potential, box, n, parity)
        off = np.full(n - 1, -1.0 / (spacing * spacing))
        counts.add(eigvalsh_tridiagonal(diag, off, select="v", select_range=(-np.inf, 0.0)).size)
    assert len(counts) == 1, (potential.label, parity, counts)
    return counts.pop()


SYMMETRIC_WELLS = {
    "square depth=1": lambda: square_well(1.0, 1.0),
    "square odd-resonance": lambda: tuned_exceptional_well("odd"),
    "square even-resonance": lambda: tuned_exceptional_well("even"),
    "square 50": lambda: square_well(50.0, 1.0),
    "square 3000": lambda: square_well(3000.0, 0.5),
    "gaussian pair 2": lambda: gaussian_wells([(2.0, 0.7, 0.5), (2.0, -0.7, 0.5)]),
    "gaussian pair 6": lambda: gaussian_wells([(6.0, 1.5, 0.8), (6.0, -1.5, 0.8)]),
    "gaussian pair 25": lambda: gaussian_wells([(25.0, 2.0, 1.2), (25.0, -2.0, 1.2)]),
}


@pytest.mark.parametrize("name", SYMMETRIC_WELLS)
def test_sector_counts_equal_the_half_line_count(name):
    """The parity rule, (N + 1) // 2 even and N // 2 odd states, against the
    half-line grids."""
    analysis = PotentialAnalysis(SYMMETRIC_WELLS[name]())
    box = max(40.0, 1.3 * analysis.radius + 8.0)
    even = analysis.sector_bound_states(Sector.EVEN)
    odd = analysis.sector_bound_states(Sector.ODD)
    assert even + odd == analysis.bound_states()
    assert even == _half_line_count(analysis.potential, "even", box)
    assert odd == _half_line_count(analysis.potential, "odd", box)
