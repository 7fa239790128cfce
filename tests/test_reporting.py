"""Golden tables and mismatch reporting."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

import levlab
from levlab import reporting
from levlab.errors import ClassificationAmbiguous, GoldenMismatch
from levlab.potentials import square_well
from levlab.reporting import (
    check_golden,
    point_table_rows,
    render_rows,
    tuned_exceptional_well,
    tuned_resonance_depth,
)


@pytest.fixture(scope="module")
def point_rows():
    return point_table_rows()


def test_point_table_matches_golden(point_rows):
    for row in point_rows:
        assert row.mismatches(1e-6) == []
    check_golden(point_rows)


def test_tampered_row_is_named(point_rows):
    row = point_rows[0]
    bad = dataclasses.replace(row, report=dataclasses.replace(row.report, w=(0.25, -0.5, 0.0, 0.0)))
    with pytest.raises(GoldenMismatch) as err:
        check_golden([point_rows[1], bad])
    message = str(err.value)
    assert bad.label in message
    assert "w1" in message


def test_wrong_bound_count_is_named(point_rows):
    row = point_rows[0]
    bad = dataclasses.replace(row, report=dataclasses.replace(row.report, n_bound=3))
    with pytest.raises(GoldenMismatch, match="n_bound"):
        check_golden([bad])


def test_render_rows_lists_every_label(point_rows):
    text = render_rows(point_rows)
    for row in point_rows:
        assert row.label in text
    assert "MISMATCH" not in text
    assert "ok" in text


def test_render_rows_flags_mismatch(point_rows):
    row = point_rows[0]
    bad = dataclasses.replace(row, report=dataclasses.replace(row.report, total=17.0))
    assert "MISMATCH" in render_rows([bad])


def test_tuned_depths_hit_closed_form_values():
    assert abs(tuned_resonance_depth("odd") - (math.pi / 2) ** 2) < 1e-12
    assert abs(tuned_resonance_depth("even") - math.pi**2) < 1e-12
    with pytest.raises(ValueError):
        tuned_resonance_depth("flat")


@pytest.mark.parametrize("variant, bracket", [("odd", (2.0, 3.0)), ("even", (9.0, 10.5))])
def test_closed_form_depths_are_roots_of_the_tail_slope(variant, bracket):
    """The closed forms equal the root of the engine's tail slope in depth,
    found by bisection on brackets around each resonance."""
    root = brentq(
        lambda depth: reporting.zero_energy_tail_slope(square_well(depth, 1.0)),
        *bracket,
        xtol=1e-13,
        rtol=8.9e-16,
    )
    assert abs(tuned_resonance_depth(variant) - root) < 1e-12


@pytest.mark.parametrize("slope", [1e-3, -1e-6, math.nan])
def test_tuned_depth_refuses_a_slope_off_resonance(monkeypatch, slope):
    """A tail slope at the closed-form depth that is not below the dead zone
    means the closed form and the engine disagree: a typed error, not a depth."""
    monkeypatch.setattr(reporting, "zero_energy_tail_slope", lambda potential: slope)
    tuned_resonance_depth.cache_clear()
    try:
        for variant in ("odd", "even"):
            with pytest.raises(ClassificationAmbiguous, match="dead zone"):
                tuned_resonance_depth(variant)
    finally:
        tuned_resonance_depth.cache_clear()


def test_cli_tables_import_no_scipy():
    """numpy is the only runtime dependency: ``levlab tables`` in a fresh
    interpreter leaves no scipy module loaded."""
    code = (
        "import sys\n"
        "from levlab.cli import main\n"
        "code = main(['tables'])\n"
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(levlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_tuned_depth_is_cached():
    tuned_resonance_depth.cache_clear()
    tuned_resonance_depth("odd")
    before = tuned_resonance_depth.cache_info().hits
    tuned_resonance_depth("odd")
    assert tuned_resonance_depth.cache_info().hits == before + 1


def test_tuned_well_labels_depth():
    pot = tuned_exceptional_well("odd")
    assert "square well" in pot.label
    assert pot.support_radius == 1.0
