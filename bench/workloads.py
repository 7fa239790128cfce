"""Workloads of the levlab benchmark, the closed-loop pass that runs them, and
the calibration loop timed next to the passes.

An item is one command-line invocation, run in-process through
``levlab.cli.main(argv)`` with its output captured.  Exit 0 means every
certificate held (certified); exit 1 is a typed refusal or a failed
certificate, and an uncaught exception also counts as failed; exit 2 is a
configuration error, which means the benchmark itself is broken, so it aborts
the run.

The workloads, and why each was chosen:

* ``random-wells``: Gaussian-sum wells of the Tier-1 random family.  Mesh
  propagation (``transfer`` plus ``edge_states``) dominates, with no Mellin
  work; the workload for vectorised propagation.
* ``golden-tables``: ``levlab tables`` on fixed inputs.  Winding dominates,
  then the finite-difference Sturm count, then propagation on exact meshes;
  it shows per-call overhead added to propagation.
* ``multiplier-suite``: ``levlab verify-r`` on fixed inputs.  The dense Mellin
  forward transform is almost all of the time; the control that must stay
  flat when propagation or winding changes.
* ``weak-wells``: one shallow Gaussian per item.  Large finite-difference
  boxes dominate, and it is the only workload that takes the classifier's
  refusal path.

Every pass starts from fresh state: ``levlab tables`` pays the brentq tuning
of the resonant wells on every command-line run, so the memo of
``reporting.tuned_resonance_depth`` is cleared before each pass, and each
item builds its own analysis objects as the command line does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from levlab import cli, dilation, reporting

# Seed and size of the random well family of the Tier-1 tests
# (tests/conftest.py); the generator below must reproduce it exactly.
WELL_FAMILY_SEED = 20240811
WELL_FAMILY_SIZE = 20

# Members of the default family that make up one random-wells pass: one, two
# and three wells, 7-9 s per pass on the 2-CPU Xeon virtual machine the
# baseline was recorded on.  A pass drawn afresh from each seed would mix
# members costing 0.7 s to 17 s, so its rate would depend far more on the
# draw than on the program.  The seed therefore only orders the pass.
RANDOM_WELLS_MEMBERS = (9, 2, 3)

# Weak wells: a 3 x 3 design over log-depth and width, one well at the
# midpoint of each stratum.  Refusal and finite-difference box size both
# follow the well strength (depth times width), so wells drawn afresh from
# each seed would make a pass's cost and refusal count depend on the draw;
# the seed draws only the centres and the order.
WEAK_DEPTH = (3e-3, 0.3)
WEAK_WIDTH = (0.3, 3.0)
WEAK_CENTER = (-1.0, 1.0)
WEAK_STRATA = 3
# The shallow well named in the roadmap; refused by the classifier today.
SHALLOW_WELL = (0.005, 0.0, 1.0)


class ConfigAbort(RuntimeError):
    """An item exited with the configuration-error code 2."""


def random_well_family(n_members=WELL_FAMILY_SIZE, seed=WELL_FAMILY_SEED):
    """(depth, center, width) triples for each member, 1-3 wells apiece.

    Same draws as ``random_well_family`` in tests/conftest.py."""
    rng = np.random.default_rng(seed)
    family = []
    for _ in range(n_members):
        count = int(rng.integers(1, 4))
        family.append(
            [
                (
                    float(rng.uniform(0.1, 30.0)),
                    float(rng.uniform(-2.0, 2.0)),
                    float(rng.uniform(0.2, 3.0)),
                )
                for _ in range(count)
            ]
        )
    return family


def weak_wells(seed: int) -> list[tuple[float, float, float]]:
    """The weak-well design as (depth, center, width), in seeded order."""
    rng = np.random.default_rng(seed)
    mids = (np.arange(WEAK_STRATA) + 0.5) / WEAK_STRATA
    lo, hi = math.log(WEAK_DEPTH[0]), math.log(WEAK_DEPTH[1])
    depths = np.exp(lo + (hi - lo) * mids)
    widths = WEAK_WIDTH[0] + (WEAK_WIDTH[1] - WEAK_WIDTH[0]) * mids
    design = [(d, w) for d in depths for w in widths]
    centers = rng.uniform(*WEAK_CENTER, size=len(design))
    order = rng.permutation(len(design))
    return [(float(design[i][0]), float(centers[i]), float(design[i][1])) for i in order]


@dataclass(frozen=True)
class Item:
    """One command-line invocation."""

    label: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]


def _config_item(workdir: Path, label: str, wells) -> Item:
    path = workdir / f"{label}.json"
    config = {"potential": {"kind": "gaussian-sum", "wells": [list(w) for w in wells]}}
    path.write_text(json.dumps(config))
    return Item(label, ("potential", "--config", str(path)))


def _random_wells_items(seed: int, workdir: Path) -> list[Item]:
    family = random_well_family()
    order = np.random.default_rng(seed).permutation(len(RANDOM_WELLS_MEMBERS))
    members = [RANDOM_WELLS_MEMBERS[i] for i in order]
    return [_config_item(workdir, f"member-{m}", family[m]) for m in members]


def _weak_wells_items(seed: int, workdir: Path) -> list[Item]:
    wells = [SHALLOW_WELL] + weak_wells(seed)
    return [_config_item(workdir, f"weak-{i}", [w]) for i, w in enumerate(wells)]


WORKLOADS: dict[str, Callable[[int, Path], list[Item]]] = {
    "random-wells": _random_wells_items,
    "golden-tables": lambda seed, workdir: [Item("tables", ("tables",))],
    "multiplier-suite": lambda seed, workdir: [Item("verify-r", ("verify-r",))],
    "weak-wells": _weak_wells_items,
}


# ---------------------------------------------------------------------------
# Checking the printed claims


_SECTOR_LINE = re.compile(
    r"^\s+\[(\w+)\s*\] w = \(([^)]*)\)\s+total = (\S+)\s+n = (\d+)\s+"
    r"threshold = \S+\s+residual = (\S+)$"
)
_BOUND_LINE = re.compile(r"^bound states: zero-energy nodes = (\d+), finite-difference box = (\d+)$")
_DELAY_LINE = re.compile(r"^time delay integral: (\S+)\s+\(n \+ correction = (\S+), gap = (\S+)\)$")
_RESIDUAL_LINE = re.compile(r"^\s+\S.*\s+residual = (\S+)$")

# Printed values carry six decimals, so sums of printed values agree to a few
# units in the seventh.
_PRINT_TOL = 5e-6


def _potential_claims_hold(lines: list[str]) -> bool:
    bound = [m for m in map(_BOUND_LINE.match, lines) if m]
    sectors = [m for m in map(_SECTOR_LINE.match, lines) if m]
    delays = [m for m in map(_DELAY_LINE.match, lines) if m]
    if len(bound) != 1 or bound[0].group(1) != bound[0].group(2) or not sectors:
        return False
    for m in sectors:
        w = [float(v) for v in m.group(2).split(",")]
        total, n, residual = float(m.group(3)), int(m.group(4)), float(m.group(5))
        if abs(sum(w) - total) > _PRINT_TOL or abs(total + n) > _PRINT_TOL:
            return False
        if not residual < cli.IDENTITY_TOL:
            return False
    for m in delays:
        if abs(float(m.group(1)) - float(m.group(2))) > cli.DELAY_TOL + _PRINT_TOL:
            return False
    return lines[-1] == "index identity: OK"


def _tables_claims_hold(lines: list[str]) -> bool:
    rows = [line for line in lines[2:] if line != "all golden rows reproduced"]
    return (
        len(rows) == 17
        and all(row.endswith("  ok") for row in rows)
        and lines[-1] == "all golden rows reproduced"
    )


def _verify_r_claims_hold(lines: list[str]) -> bool:
    residuals = [float(m.group(1)) for m in map(_RESIDUAL_LINE.match, lines) if m]
    return (
        len(residuals) == 5
        and max(residuals) < cli.SUITE_TOL
        and lines[-1].startswith("multiplier identity: OK")
    )


_CLAIMS = {
    "potential": _potential_claims_hold,
    "tables": _tables_claims_hold,
    "verify-r": _verify_r_claims_hold,
}


def output_consistent(item: Item, code, stdout: str) -> bool:
    """Re-check the printed claims against the exit code.

    A certified item must print values that satisfy every certificate it
    claims; a failed one must not print the success line."""
    lines = stdout.rstrip("\n").splitlines() or [""]
    holds = _CLAIMS[item.command](lines)
    return holds if code == 0 else not holds


# ---------------------------------------------------------------------------
# Running items and passes


@dataclass
class Outcome:
    item: Item
    code: int | None  # None: uncaught exception
    seconds: float
    cpu: float
    consistent: bool
    error: str = ""

    @property
    def certified(self) -> bool:
        return self.code == 0


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Wall seconds of the items, without anything run between them."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    @property
    def certified(self) -> int:
        return sum(o.certified for o in self.outcomes)

    @property
    def codes(self) -> list:
        return [o.code for o in self.outcomes]


def fresh_state() -> None:
    """Drop the memos a command-line process would start without."""
    tuned = reporting.tuned_resonance_depth
    while not hasattr(tuned, "cache_clear"):  # under a tracing wrapper
        tuned = tuned.__wrapped__
    tuned.cache_clear()
    # Gauss-Legendre nodes of the half-line quadrature (private memo).
    dilation._gauss_nodes.cache_clear()


_CALIBRATION_ROWS = np.arange(-0.32, 0.32, 0.02)
_CALIBRATION_COLS = np.arange(-44.0, 4.0, 0.02)


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter-bound work, small numpy calls
    and a dense complex exponential kernel, none of it levlab's.  Timed next
    to the passes, it measures how fast the machine runs at that moment."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(60_000):
        acc += (i * 0.5) % 7.0
    x = np.ones(4)
    for i in range(2_000):
        acc += float(np.cosh(x * (1e-3 * i))[0])
    kernel = np.exp(-1j * np.outer(_CALIBRATION_ROWS, _CALIBRATION_COLS))
    acc += float(np.abs(kernel @ np.exp(0.5 * _CALIBRATION_COLS)).sum())
    return time.perf_counter() - start


def run_item(item: Item, tracer=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(item.argv))
            else:
                with tracer.item_span():
                    code = cli.main(list(item.argv))
    except Exception:
        code = None
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu
    if code == 2:
        raise ConfigAbort(f"{item.label}: {err.getvalue().strip()}")
    if code not in (0, 1, None):
        raise ConfigAbort(f"{item.label}: unexpected exit code {code!r}")
    consistent = output_consistent(item, code, out.getvalue())
    return Outcome(item, code, seconds, cpu, consistent, error or err.getvalue().strip())


def run_pass(items: list[Item], tracer=None, before_item=None) -> PassResult:
    """One closed-loop pass: each item after the previous one completed.
    ``before_item()``, if given, runs untimed before every item."""
    fresh_state()
    outcomes = []
    for item in items:
        if before_item is not None:
            before_item()
        outcomes.append(run_item(item, tracer))
    return PassResult(outcomes)
