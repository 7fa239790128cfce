"""Golden tables and mismatch reporting."""

import dataclasses
import math

import pytest

from levlab.errors import GoldenMismatch
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
