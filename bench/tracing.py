"""Span and counter tracing of levlab's layers, from outside the package.

The tracer replaces public functions and methods of each module with timing
wrappers while it is installed, and puts the originals back on removal.  A
function that another module imported by name is wrapped where it is looked
up (``levlab.scattering.build_mesh``, ``levlab.scattering.fd_negative_
eigenvalue_count``, ``levlab.loops.winding``, ``levlab.propagate.sturm_
negative_count``, ...); wrapping only its home module would leave those calls
uncounted.

Each wrapped call records one span (name, start, end, parent, item); spans of
one command-line item share the item id.  Spans stay in memory until the run
writes them out.  A layer's self time is its spans' durations minus the time
covered by their child spans; it is reported as a share of the pass, the
summed duration of the pass's item spans.  Counters are updated after the
wrapped call returns, at the same boundaries.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import time
from collections import Counter, defaultdict

import numpy as np

from levlab import cli, dilation, loops, propagate, reporting, scattering
from levlab.errors import ClassificationAmbiguous
from levlab.loops import Sector

# Counters whose value is a share of calls rather than a sum.
_SHARES = {
    "propagate.edge_states.repeat_share": ("propagate.edge_states.repeats", "propagate.edge_states.calls"),
    "loops.winding.repeat_share": ("loops.winding.repeat_evals", "loops.winding.path_evals"),
    "dilation.mellin_forward.repeat_share": ("dilation.mellin_forward.repeats", "dilation.mellin_forward.calls"),
}

# Momentum batches of at most this many points count as small.
SMALL_BATCH = 10

# Span names whose self-time share is reported, in the order of the layer table.
TIMED_LAYERS = (
    "propagate.transfer",
    "propagate.edge_states",
    "propagate.fd",
    "propagate.mesh",
    "scattering.engine",
    "scattering.grid",
    "scattering.classify",
    "scattering.fd_count",
    "scattering.time_delay",
    "loops.winding",
    "point.verify_levinson",
    "reporting.tuned_depth",
    "dilation.mellin_forward",
    "dilation.mellin_inverse",
    "dilation.halfline_fourier",
    "cli.item",
)

COUNTERS = (
    "propagate.transfer.calls",
    "propagate.transfer.cells",
    "propagate.transfer.cell_momenta",
    "propagate.transfer.small_batch_calls",
    "propagate.edge_states.calls",
    "propagate.edge_states.cells",
    "propagate.fd.calls",
    "propagate.fd.points",
    "scattering.engine.halvings",
    "scattering.grid.points",
    "scattering.grid.rounds",
    "scattering.classify.refusals",
    "scattering.fd_count.boxes",
    "scattering.time_delay.steps",
    "loops.winding.calls",
    "loops.winding.path_evals",
    "reporting.tuned_depth.analyses",
    "dilation.mellin_forward.calls",
    "dilation.mellin_forward.kernel_entries",
)

CHECKS = (
    "check.index_residual.max",
    "check.delay_gap.max",
    "check.unitarity.max",
    "check.mellin_residual.max",
)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._item = -1
        self._seen_edge_states: set = set()
        self._seen_spectra: set = set()
        self._pass_start = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self._item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def item_span(self):
        """Span of one command-line item; later spans carry its id."""
        self._item += 1
        span = self._open("cli.item")
        try:
            yield
        finally:
            self._close(span)

    def _timed(self, name, fn, *, before=None, after=None, failed=None):
        """``fn`` inside a span.  ``before(args)`` returns a token handed to
        ``after(token, result, args, kwargs)``; ``failed(exc)`` sees
        exceptions."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                if failed:
                    failed(exc)
                raise
            self._close(span)
            if after:
                after(token, result, args, kwargs)
            return result

        return wrapper

    def _counted(self, fn, after):
        """``fn`` without a span, with ``after(result, args)`` on return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_cached(self, owner, attr: str, name: str, **hooks) -> None:
        prop = owner.__dict__[attr]
        wrapped = functools.cached_property(self._timed(name, prop.func, **hooks))
        wrapped.__set_name__(owner, attr)
        self._patch(owner, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise

    def _install(self) -> None:
        c = self.counts
        Engine = propagate.TransferEngine
        Analysis = scattering.PotentialAnalysis
        Evaluator = dilation.MellinEvaluator

        def transfer_done(_, result, args, kwargs):
            engine = args[0]
            n_k = int(result[0].size)
            c["propagate.transfer.calls"] += 1
            c["propagate.transfer.cells"] += engine.mesh.n_cells
            c["propagate.transfer.cell_momenta"] += engine.mesh.n_cells * n_k
            c["propagate.transfer.small_batch_calls"] += n_k <= SMALL_BATCH

        def edge_states_done(_, result, args, kwargs):
            engine, *given = args
            call = dict(zip(("k2", "u0"), given), **kwargs)
            key = (engine, float(call.get("k2", 0.0)), tuple(map(float, call.get("u0", (1.0, 0.0)))))
            c["propagate.edge_states.calls"] += 1
            c["propagate.edge_states.cells"] += engine.mesh.n_cells
            c["propagate.edge_states.repeats"] += key in self._seen_edge_states
            self._seen_edge_states.add(key)

        def halved(_, result, args, kwargs):
            c["scattering.engine.halvings"] += 1

        def fd_done(_, result, args, kwargs):
            c["propagate.fd.calls"] += 1
            c["scattering.fd_count.boxes"] += 1

        def sturm_done(result, args):
            c["propagate.fd.points"] += int(args[0].size)

        def transfer_calls(args):
            return c["propagate.transfer.calls"]

        def grid_done(calls_before, result, args, kwargs):
            c["scattering.grid.points"] += int(result.kappas.size)
            c["scattering.grid.rounds"] += c["propagate.transfer.calls"] - calls_before - 1
            self._raise_max("check.unitarity.max", result.unitarity_defect())

        def refused(exc):
            c["scattering.classify.refusals"] += isinstance(exc, ClassificationAmbiguous)

        def delay_steps(_, result, args, kwargs):
            c["scattering.time_delay.steps"] += len(args[0]) - 1

        def delay_gap(result, args):
            full = args[0].report(Sector.FULL)
            self._raise_max("check.delay_gap.max", abs(result - (full.n_bound + full.correction)))

        def residual(result, args):
            self._raise_max("check.index_residual.max", result.residual)

        def analyses(args):
            return c["analyses"]

        def tuned_done(before, result, args, kwargs):
            c["reporting.tuned_depth.analyses"] += c["analyses"] - before

        def analysis_created(result, args):
            c["analyses"] += 1

        def forward_done(_, result, args, kwargs):
            evaluator, samples = args[0], args[1]
            samples = np.ascontiguousarray(samples)
            digest = hashlib.blake2b(samples.tobytes(), digest_size=16).hexdigest()
            key = (evaluator.sign, evaluator.u.size, samples.size, digest)
            c["dilation.mellin_forward.calls"] += 1
            c["dilation.mellin_forward.kernel_entries"] += evaluator.s.size * evaluator.u.size
            c["dilation.mellin_forward.repeats"] += key in self._seen_spectra
            self._seen_spectra.add(key)

        def suite_done(result, args):
            self._raise_max("check.mellin_residual.max", max(r for _, r in result))

        t = self._timed
        self._patch(Engine, "transfer", t("propagate.transfer", Engine.transfer, after=transfer_done))
        self._patch(Engine, "edge_states", t("propagate.edge_states", Engine.edge_states, after=edge_states_done))
        self._patch(scattering, "build_mesh", t("propagate.mesh", scattering.build_mesh))
        self._patch(propagate.Mesh, "halved", t("propagate.mesh", propagate.Mesh.halved, after=halved))
        self._patch(
            scattering,
            "fd_negative_eigenvalue_count",
            t("propagate.fd", scattering.fd_negative_eigenvalue_count, after=fd_done),
        )
        self._patch(propagate, "sturm_negative_count", self._counted(propagate.sturm_negative_count, sturm_done))
        self._patch_cached(Analysis, "engine", "scattering.engine")
        self._patch(
            scattering,
            "s_matrix_grid",
            t("scattering.grid", scattering.s_matrix_grid, before=transfer_calls, after=grid_done),
        )
        self._patch(
            scattering,
            "classify_threshold",
            t("scattering.classify", scattering.classify_threshold, failed=refused),
        )
        self._patch(scattering, "count_bound_states_fd", t("scattering.fd_count", scattering.count_bound_states_fd))
        self._patch(
            scattering,
            "time_delay_integral",
            t("scattering.time_delay", scattering.time_delay_integral, after=delay_steps),
        )
        self._patch(Analysis, "time_delay", self._counted(Analysis.time_delay, delay_gap))
        self._patch(Analysis, "report", self._counted(Analysis.report, residual))
        self._patch(Analysis, "__init__", self._counted(Analysis.__init__, analysis_created))
        self._patch(loops, "winding", self._winding(loops.winding))
        levinson = t("point.verify_levinson", reporting.verify_levinson, after=lambda _, r, a, k: residual(r, a))
        self._patch(reporting, "verify_levinson", levinson)
        self._patch(cli, "verify_levinson", levinson)
        self._patch(
            reporting,
            "tuned_resonance_depth",
            t("reporting.tuned_depth", reporting.tuned_resonance_depth, before=analyses, after=tuned_done),
        )
        self._patch(Evaluator, "forward", t("dilation.mellin_forward", Evaluator.forward, after=forward_done))
        self._patch(Evaluator, "inverse_at", t("dilation.mellin_inverse", Evaluator.inverse_at))
        self._patch(
            dilation,
            "apply_halfline_fourier",
            t("dilation.halfline_fourier", dilation.apply_halfline_fourier),
        )
        self._patch(cli, "suite_residuals", self._counted(cli.suite_residuals, suite_done))

    def _winding(self, winding):
        """Span around ``winding`` that counts path evaluations, and repeats of
        a parameter already sampled in the same call."""
        c = self.counts
        timed = self._timed("loops.winding", winding)

        @functools.wraps(winding)
        def wrapper(path, *args, **kwargs):
            seen = set()

            def evaluate(t):
                c["loops.winding.path_evals"] += 1
                c["loops.winding.repeat_evals"] += t in seen
                seen.add(t)
                return path.eval(t)

            c["loops.winding.calls"] += 1
            return timed(dataclasses.replace(path, eval=evaluate), *args, **kwargs)

        return wrapper

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- metrics -------------------------------------------------------------

    def _raise_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    def begin_pass(self) -> None:
        """Start per-pass counters; spans of earlier passes are kept."""
        self.counts.clear()
        self.maxima.clear()
        self._seen_edge_states.clear()
        self._seen_spectra.clear()
        self._pass_start = len(self.spans)

    def self_times(self, start: int = 0) -> dict[str, float]:
        """Self seconds per span name over the spans from index ``start``."""
        spans = self.spans[start:]
        covered = [0.0] * len(spans)
        for name, s, e, parent, _ in spans:
            if parent >= start:
                covered[parent - start] += e - s
        totals: dict[str, float] = defaultdict(float)
        for (name, s, e, _, _), child in zip(spans, covered):
            totals[name] += (e - s) - child
        return dict(totals)

    def pass_metrics(self) -> dict[str, float]:
        """Self-time shares, counters and check maxima of the current pass."""
        times = self.self_times(self._pass_start)
        items = sum(e - s for name, s, e, _, _ in self.spans[self._pass_start :] if name == "cli.item")
        metrics = {f"{name}.self_share": times.get(name, 0.0) / items for name in TIMED_LAYERS}
        metrics.update({name: self.counts[name] for name in COUNTERS})
        for share, (num, den) in _SHARES.items():
            metrics[share] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        metrics.update({name: self.maxima.get(name, 0.0) for name in CHECKS})
        metrics["trace.spans"] = len(self.spans) - self._pass_start
        return metrics
