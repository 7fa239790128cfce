"""Tests of the benchmark itself: its generators, its correctness check, its
fresh state per pass, and the coverage of its trace.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT)]

import run  # noqa: E402

workloads, tracing = run.load_modules()

SEED = 1

# Per-layer metrics that must be non-zero on the workload chosen for them.
OWN_LAYER_METRICS = {
    "random-wells": (
        "propagate.transfer.self_share",
        "propagate.transfer.calls",
        "propagate.transfer.cells",
        "propagate.transfer.cell_momenta",
        "propagate.transfer.small_batch_calls",
        "propagate.edge_states.self_share",
        "propagate.edge_states.calls",
        "propagate.edge_states.cells",
        "propagate.edge_states.repeat_share",
        "scattering.engine.self_share",
        "scattering.engine.halvings",
        "scattering.grid.self_share",
        "scattering.grid.points",
        "scattering.grid.rounds",
        "scattering.time_delay.self_share",
        "scattering.time_delay.steps",
        "check.index_residual.max",
        "check.delay_gap.max",
        "check.unitarity.max",
    ),
    "golden-tables": (
        "propagate.fd.self_share",
        "propagate.fd.calls",
        "propagate.fd.points",
        "loops.winding.self_share",
        "loops.winding.calls",
        "loops.winding.path_evals",
        "loops.winding.repeat_share",
        "point.verify_levinson.self_share",
        "reporting.tuned_depth.self_share",
        "reporting.tuned_depth.analyses",
        "check.index_residual.max",
    ),
    "multiplier-suite": (
        "dilation.mellin_forward.self_share",
        "dilation.mellin_forward.calls",
        "dilation.mellin_forward.kernel_entries",
        "dilation.mellin_forward.repeat_share",
        "dilation.mellin_inverse.self_share",
        "dilation.halfline_fourier.self_share",
        "check.mellin_residual.max",
    ),
    "weak-wells": (
        "propagate.fd.self_share",
        "propagate.fd.calls",
        "propagate.fd.points",
        "scattering.classify.self_share",
        "scattering.classify.refusals",
        "scattering.fd_count.boxes",
        "check.delay_gap.max",
    ),
}
ON_EVERY_WORKLOAD = ("cli.item_s.p50", "cli.item_s.max", "process.cpu_s", "process.cpu_per_wall")

# The layer each workload was chosen for: its self-time share of a traced
# pass must be highest there.
DESIGNATED = {
    "random-wells": ("propagate.transfer", "propagate.edge_states"),
    "golden-tables": ("loops.winding",),
    "multiplier-suite": ("dilation.mellin_forward",),
    "weak-wells": ("propagate.fd",),
}


Round = namedtuple("Round", "plain traced metrics units")


@pytest.fixture(scope="module")
def traced_rounds(tmp_path_factory):
    """One untraced and one traced pass of every workload (the time limit
    ends the run after the first round)."""
    rounds = {}
    for name, make_items in workloads.WORKLOADS.items():
        items = make_items(SEED, tmp_path_factory.mktemp(name))
        m = run.measure(workloads, tracing, items, seconds=1e-9, trace=True)
        full = run.layer_metrics(m.plain, m.traced, m.layers)
        rounds[name] = Round(
            m.plain,
            m.traced,
            {k: value for k, (value, _) in full.items()},
            {k: unit for k, (_, unit) in full.items()},
        )
    return rounds


def test_random_wells_generator_matches_tier1_family():
    from tests.conftest import WELL_FAMILY_SEED, random_well_family

    assert workloads.WELL_FAMILY_SEED == WELL_FAMILY_SEED
    assert workloads.random_well_family() == random_well_family()
    assert workloads.random_well_family(5, seed=7) == random_well_family(5, seed=7)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(seed, workdir):
        workdir.mkdir()
        items = make_items(seed, workdir)
        return [(i.label, Path(i.argv[-1]).read_text() if "--config" in i.argv else i.argv) for i in items]

    for name, make_items in workloads.WORKLOADS.items():
        assert inputs(3, tmp_path / f"{name}-a") == inputs(3, tmp_path / f"{name}-b")
    assert workloads.weak_wells(3) != workloads.weak_wells(4)


def test_flipped_mellin_sign_fails_every_item():
    """Negative control: the CLI's failure probe must come out failed, with
    output that agrees it failed."""
    item = workloads.Item("verify-r-flipped", ("verify-r", "--flip-mellin-sign"))
    result = workloads.run_pass([item])
    failed_ratio = 1 - result.certified / len(result.outcomes)
    assert failed_ratio == 1
    assert all(o.consistent for o in result.outcomes)


def test_claim_check_rejects_contradicting_output():
    item = workloads.Item("well", ("potential", "--config", "unused.json"))
    good = "\n".join(
        [
            "potential: gaussian wells",
            "truncation radius: 9",
            "threshold: generic",
            "bound states: zero-energy nodes = 1, finite-difference box = 1",
            "  [full] w = (-0.500000, -0.500000, +0.000000, +0.000000)  total = -1.000000  "
            "n = 1  threshold = generic  residual = 1.00e-12",
            "time delay integral: 0.500000  (n + correction = 0.500000, gap = 1.00e-09)",
            "index identity: OK",
        ]
    )
    assert workloads.output_consistent(item, 0, good)
    assert not workloads.output_consistent(item, 1, good)
    assert not workloads.output_consistent(item, 0, good.replace("box = 1", "box = 2"))
    assert not workloads.output_consistent(item, 0, good.replace("n = 1", "n = 0"))


def test_consecutive_passes_repeat_every_count(tmp_path):
    """Fresh state per pass: the second pass redoes the brentq tuning, so
    every counter repeats exactly."""
    items = workloads.WORKLOADS["golden-tables"](SEED, tmp_path)
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.begin_pass()
        with tracer:
            workloads.run_pass(items, tracer)
        metrics = tracer.pass_metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith(".self_share")})
    assert counts[0] == counts[1]
    assert counts[0]["reporting.tuned_depth.analyses"] > 0


def test_tracer_restores_the_package():
    from levlab import loops, scattering

    before = (loops.winding, scattering.build_mesh, scattering.PotentialAnalysis.__dict__["engine"])
    with tracing.Tracer():
        assert loops.winding is not before[0]
    after = (loops.winding, scattering.build_mesh, scattering.PotentialAnalysis.__dict__["engine"])
    assert after == before


def test_benchmark_json_names_every_metric(traced_rounds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for r in traced_rounds.values():
        assert r.units == {m["name"]: m["unit"] for m in spec["per_layer"]}
        end_to_end = run.end_to_end_metrics(r.plain, setups=[(1.0, 0.02)], calibration=[0.02])
        assert {k: u for k, (_, u) in end_to_end.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_trace_covers_every_layer_on_its_workload(traced_rounds):
    for name, expected in OWN_LAYER_METRICS.items():
        metrics = traced_rounds[name].metrics
        missing = [m for m in expected + ON_EVERY_WORKLOAD if not metrics[m] > 0]
        assert not missing, f"{name}: zero {missing}"


def test_traced_outcomes_match_untraced(traced_rounds):
    for name, r in traced_rounds.items():
        assert r.plain[0].codes == r.traced[0].codes, name
        assert run.consistent(r.plain + r.traced), name


def test_each_workload_leads_on_its_designated_layer(traced_rounds):
    def share(workload, layers):
        return sum(traced_rounds[workload].metrics[f"{layer}.self_share"] for layer in layers)

    for own, layers in DESIGNATED.items():
        shares = {w: share(w, layers) for w in DESIGNATED}
        assert max(shares, key=shares.get) == own, (layers, shares)


def test_weak_wells_take_the_refusal_path(traced_rounds):
    weak = traced_rounds["weak-wells"].plain[0]
    assert 0 < weak.certified < len(weak.outcomes)
    for name in ("random-wells", "golden-tables", "multiplier-suite"):
        first = traced_rounds[name].plain[0]
        assert first.certified == len(first.outcomes), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden-tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert done.stdout == ""
