"""Benchmark of the levlab command line, end to end and layer by layer.

Runs one workload as a closed loop: one process, one client, one command-line
item at a time, each through ``levlab.cli.main(argv)`` in-process.  Passes
over the workload's items repeat until the next one would overrun
``--seconds``; every pass starts from fresh state.

    python3 bench/run.py --workload random-wells --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

Run from a checkout of the repository: the package is imported from its
``src`` directory, and generated configs go to ``.bench_tmp``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end:

* ``certified_per_s``: certified items per second of a pass (median over
  passes).  Goodput rather than pass time, so a refusal that turns into a
  certified result counts as more work done, not as a slowdown.
* ``setup_s``: seconds from the start of a fresh process, through importing
  levlab and generating the workload's inputs, to the first timed item
  (median over this process and ``SETUP_PROBES`` fresh ones).
* ``peak_rss_mb``: peak resident set of the process that ran the workload.

Both timings are in nominal seconds: wall seconds scaled by
``CALIBRATION_NOMINAL_S / c``, where ``c`` is the mean time of a fixed
calibration loop (``workloads.calibrate``) run in the same process before
every item of the untraced passes and after the last pass.  On the shared 2-CPU virtual machine the baseline was
recorded on, the speed of identical work switches between two levels about a
third apart, and the share of time spent slow drifts over tens of seconds:
the median pass rate of ten runs spread by 0.13 to 0.36 of its value.  The
calibration loop slows with it, and the scaled rate spread about a third as
much.  The raw wall-clock values and the calibration time are printed above
the result line.

With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer self-time shares and counters of ``tracing.Tracer`` (shares are
medians over traced passes, counts those of one pass), the item latencies and
CPU use of the untraced passes, and the tracing overhead.  The spans are written to
``.bench_out/spans-<workload>-<seed>.json``.

An item exiting 0 is certified; exit 1 or an uncaught exception is failed.
``correct`` is false when an item's printed claims contradict its exit code,
or when an item's outcome differs between passes (traced or not).  Exit code 2
from an item is a configuration error in the benchmark and aborts the run.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One OpenBLAS thread.  Only the dense Mellin kernels of multiplier-suite use
# more than one, and on a 2-CPU machine the second thread brings no wall-time
# gain while a busy neighbour stalls it: alternating passes of verify-r took
# 8.8-17.2 s with two threads against 8.8-9.7 s with one.  Set before numpy is
# imported; the thread counts are recorded with every result.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("random-wells", "golden-tables", "multiplier-suite", "weak-wells")

# Fresh processes that repeat the set-up, besides the measuring process.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120
# Calibration loop samples taken before every untimed item and after the last
# pass.
CALIBRATION_REPS = 4
# Mean calibration time on the machine the baseline was recorded on.
CALIBRATION_NOMINAL_S = 0.015


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_modules():
    """Import levlab from this checkout's ``src`` and the benchmark modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import levlab
    except ImportError as exc:
        raise BenchError(f"cannot import levlab from {src}: {exc}")
    if not Path(levlab.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"levlab imported from {levlab.__file__}, not from {src}")
    import tracing
    import workloads

    return workloads, tracing


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    return threads


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _probe_setup(args) -> tuple[float, float]:
    """Set-up seconds of one fresh process, and its calibration time."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    setup, calibration = done.stdout.strip().splitlines()[-1].split()
    return float(setup), float(calibration)


def _calibration(workloads) -> float:
    return statistics.fmean(workloads.calibrate() for _ in range(CALIBRATION_REPS))


@dataclasses.dataclass
class Measurement:
    plain: list  # untraced passes
    traced: list  # traced passes
    layers: list  # per-layer metrics of each traced pass
    calibration: list  # calibration loop seconds
    tracer: object = None


def measure(workloads, tracing, items, seconds: float, trace: bool) -> Measurement:
    """Rounds of passes until the next round would overrun ``seconds``.  A
    round is one untraced pass with the calibration loop before each item;
    with ``trace``, also a traced pass."""
    m = Measurement([], [], [], [], tracing.Tracer() if trace else None)

    def calibrate():
        m.calibration.extend(workloads.calibrate() for _ in range(CALIBRATION_REPS))

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        m.plain.append(workloads.run_pass(items, before_item=calibrate))
        if trace:
            m.tracer.begin_pass()
            with m.tracer:
                m.traced.append(workloads.run_pass(items, m.tracer))
            m.layers.append(m.tracer.pass_metrics())
        round_s = time.perf_counter() - round_start
        if time.perf_counter() - start + round_s > seconds:
            calibrate()
            return m


def layer_metrics(plain, traced, layers) -> dict[str, tuple[float, str]]:
    metrics = {}
    for name in layers[0]:
        if name.endswith(".self_share"):
            metrics[name] = (statistics.median(m[name] for m in layers), "fraction")
        elif name.startswith("check."):
            metrics[name] = (max(m[name] for m in layers), "dimensionless")
        elif name.endswith("_share"):
            metrics[name] = (layers[0][name], "fraction")
        else:
            metrics[name] = (layers[0][name], "count")
    items = [o.seconds for p in plain for o in p.outcomes]
    attempted = sum(len(p.outcomes) for p in plain)
    failed = attempted - sum(p.certified for p in plain)
    metrics.update(
        {
            "cli.item_s.p50": (statistics.median(items), "s"),
            "cli.item_s.max": (max(items), "s"),
            "cli.failed_ratio": (failed / attempted, "fraction"),
            "process.cpu_s": (statistics.median(p.cpu for p in plain), "s"),
            "process.cpu_per_wall": (statistics.median(p.cpu / p.wall for p in plain), "cpu_s/s"),
            "trace.pass_s": (statistics.median(p.wall for p in traced), "s"),
            "trace.overhead_s": (
                statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain),
                "s",
            ),
        }
    )
    return metrics


def end_to_end_metrics(plain, setups, calibration) -> dict[str, tuple[float, str]]:
    """``setups`` holds (seconds, calibration seconds) per process; see the
    module docstring for the nominal seconds."""
    slowness = statistics.fmean(calibration) / CALIBRATION_NOMINAL_S
    return {
        "certified_per_s": (
            statistics.median(p.certified / p.wall for p in plain) * slowness,
            "items/s",
        ),
        "setup_s": (
            statistics.median(s * CALIBRATION_NOMINAL_S / c for s, c in setups),
            "s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def consistent(passes) -> bool:
    """Every printed claim matches its exit code, and every item has the same
    outcome in every pass."""
    first = passes[0].codes
    return all(p.codes == first and all(o.consistent for o in p.outcomes) for p in passes)


def run_workload(args) -> int:
    workloads, tracing = load_modules()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        items = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = time.perf_counter() - _START
        setups = [(setup, _calibration(workloads))]
        if args.setup_probe:
            print(*map(repr, setups[0]))
            return 0
        env = environment()
        if not args.trace:
            setups += [_probe_setup(args) for _ in range(SETUP_PROBES)]
        try:
            m = measure(workloads, tracing, items, args.seconds, args.trace == 1)
        except workloads.ConfigAbort as exc:
            raise BenchError(f"configuration error in a generated item: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    passes = m.plain + m.traced
    attempted = sum(len(p.outcomes) for p in passes)
    failed = attempted - sum(p.certified for p in passes)
    if args.trace:
        metrics = layer_metrics(m.plain, m.traced, m.layers)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(
            json.dumps(
                {
                    "env": env,
                    "fields": ["name", "start", "end", "parent", "item"],
                    "spans": m.tracer.spans,
                }
            )
        )
    else:
        metrics = end_to_end_metrics(m.plain, setups, m.calibration)

    failures = {
        (o.item.label, o.code, (o.error.strip().splitlines() or [""])[-1])
        for p in passes
        for o in p.outcomes
        if o.code != 0
    }
    for label, code, reason in sorted(failures, key=str):
        print(f"failed item {label} (exit {code}): {reason}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(m.plain)}"
        + (f" + {len(m.traced)} traced" if m.traced else "")
        + f"  items {attempted}  failed {failed}"
    )
    print("pass wall s: " + " ".join(f"{p.wall:.3f}" for p in passes))
    print(
        f"calibration s: mean {statistics.fmean(m.calibration):.4f} "
        f"(nominal {CALIBRATION_NOMINAL_S})  "
        f"raw certified_per_s {statistics.median(p.certified / p.wall for p in m.plain):.4f}  "
        f"raw setup_s {statistics.median(s for s, _ in setups):.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": consistent(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if name == WORKLOAD_NAMES[0]:
            print(lines[0])  # the environment record
        results[name] = json.loads(lines[-1])

    print(f"{'workload':<18}{'certified_per_s':>18}{'failed_ratio':>16}{'setup_s':>12}{'peak_rss_mb':>14}")
    print(f"{'':<18}{'items/s':>18}{'fraction':>16}{'s':>12}{'MB':>14}")
    summary = {}
    for name, res in results.items():
        m = {k: v["value"] for k, v in res["metrics"].items()}
        failed_ratio = res["failed"] / res["attempted"]
        print(
            f"{name:<18}{m['certified_per_s']:>18.4f}{failed_ratio:>16.4f}"
            f"{m['setup_s']:>12.4f}{m['peak_rss_mb']:>14.1f}"
        )
        for key, value in res["metrics"].items():
            summary[f"{name}.{key}"] = value
        summary[f"{name}.failed_ratio"] = {"value": failed_ratio, "unit": "fraction"}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": summary,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
