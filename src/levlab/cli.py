"""Command line front end.

Subcommands:

* ``point``      solvable point interaction, per-sector winding reports
* ``potential``  full pipeline for a potential described by a JSON config
* ``tables``     recompute every golden table row and compare
* ``verify-r``   multiplier identity residuals for the probe-function suite

Exit codes: 0 success, 1 a verification failed or a numerical certificate
could not be produced, 2 configuration problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .dilation import MellinEvaluator, suite_residuals
from .errors import ConfigError, LevlabError
from .loops import Sector, WindingReport
from .point import DELTA, DELTA_PRIME, PointInteraction, verify_levinson
from .potentials import Potential, gaussian_wells, square_well, tabulated_potential
from .reporting import check_golden, render_rows, reproduce_tables
from .scattering import PotentialAnalysis, SolverSettings, check_knob

IDENTITY_TOL = 1e-6
DELAY_TOL = 1e-3
SUITE_TOL = 1e-3

_SECTOR_BY_NAME = {s.value: s for s in Sector}

# Sampler knobs no solver reads: checked in ``numerics``, then dropped.  Each
# maps to its least value, of the knob's type; 0.0 stands for "positive".
_SAMPLER_KNOBS = {"winding_samples": 16, "winding_tol": 0.0, "corner_tol": 0.0}

# The keys each config object may hold; any other key is refused.
_CONFIG_KEYS = ("system", "param", "potential", "sectors", "numerics", "output")
# A point interaction is reported in closed form: it reads no potential,
# sectors or dumps.
_POINT_KEYS = ("system", "param", "numerics")
_OUTPUT_KEYS = ("csv", "phase_csv")
_POTENTIAL_KEYS = {
    "square-well": ("depth", "half_width"),
    "gaussian-sum": ("wells",),
    "tabulated": ("xs", "values", "decay_exponent"),
}


def _is_inf(value) -> bool:
    """Whether ``value`` is the word 'inf' as ``--param`` takes it."""
    return isinstance(value, str) and value.strip().lower() == "inf"


def _parse_param(text: str) -> float:
    try:
        return math.inf if _is_inf(text) else float(text)
    except ValueError:
        raise ConfigError(f"coupling parameter {text!r} is not a number or 'inf'")


def _real(value) -> float:
    """A JSON number as a float; booleans and strings, which ``float`` reads, are refused."""
    if isinstance(value, bool):
        raise TypeError(f"{json.dumps(value)} is a boolean, not a number")
    if not isinstance(value, (int, float)):
        raise TypeError(f"{json.dumps(value)} is not a number")
    return float(value)


def _report_line(sector: Sector, report: WindingReport) -> str:
    w = ", ".join(f"{v:+.6f}" for v in report.w)
    return (
        f"  [{sector.value:<4}] w = ({w})  total = {report.total:+.6f}  "
        f"n = {report.n_bound}  threshold = {report.resonance.tag}  "
        f"residual = {report.residual:.2e}"
    )


def _verdict(reports: dict[str, WindingReport], as_json: bool, ok: bool = True) -> int:
    """Print the ``--json`` block if asked, then the ``index identity:`` line;
    the identity holds when ``ok`` and every residual is below IDENTITY_TOL."""
    if as_json:
        print(json.dumps({k: r.to_dict() for k, r in reports.items()}, sort_keys=True))
    ok = ok and max(r.residual for r in reports.values()) < IDENTITY_TOL
    print(f"index identity: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# point


def _run_point_system(interaction: PointInteraction, as_json: bool) -> int:
    """Report both parity sectors."""
    print(interaction.describe())
    reports = {}
    for sector in (Sector.EVEN, Sector.ODD):
        report = verify_levinson(interaction, sector)
        reports[sector.value] = report
        print(_report_line(sector, report))
    return _verdict(reports, as_json)


def _cmd_point(args) -> int:
    try:
        interaction = PointInteraction(args.kind, _parse_param(args.param))
    except ValueError as exc:
        raise ConfigError(str(exc))
    return _run_point_system(interaction, args.json)


# ---------------------------------------------------------------------------
# potential


def _require_known(what: str, entries: dict, valid) -> None:
    """Refuse the keys of a config object that nothing reads, so a misspelt
    key is an error rather than a silently dropped setting."""
    unknown = sorted(set(entries) - set(valid))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")


def _build_potential(cfg) -> Potential:
    if not isinstance(cfg, dict):
        raise ConfigError("'potential' must be an object")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    _require_known(f"{kind} potential", cfg, ("kind", *_POTENTIAL_KEYS[kind]))
    try:
        if kind == "square-well":
            return square_well(_real(cfg["depth"]), _real(cfg["half_width"]))
        if kind == "gaussian-sum":
            return gaussian_wells([tuple(map(_real, well)) for well in cfg["wells"]])
        return tabulated_potential(
            [_real(v) for v in cfg["xs"]],
            [_real(v) for v in cfg["values"]],
            decay_exponent=_real(cfg.get("decay_exponent", math.inf)),
        )
    except KeyError as exc:
        raise ConfigError(f"potential config is missing {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential config: {exc}")


def _build_settings(config: dict) -> SolverSettings:
    overrides = config.get("numerics", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'numerics' must be an object")
    valid = {f.name for f in dataclasses.fields(SolverSettings)} | set(_SAMPLER_KNOBS)
    _require_known("numerics", overrides, valid)
    if isinstance(overrides.get("dead_zone"), list):
        overrides = dict(overrides, dead_zone=tuple(overrides["dead_zone"]))
    try:
        settings = SolverSettings(**{k: v for k, v in overrides.items() if k not in _SAMPLER_KNOBS})
        for name, least in _SAMPLER_KNOBS.items():
            if name in overrides:
                check_knob(name, overrides[name], integer=type(least) is int)
                if overrides[name] < least:
                    raise ValueError(f"{name} must be at least {least}, got {overrides[name]}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numerics value: {exc}")
    return settings


def _sectors_from(config: dict, potential: Potential) -> list[Sector]:
    names = config.get("sectors")
    if names is None:
        sectors = [Sector.FULL]
        if potential.symmetric:
            sectors += [Sector.EVEN, Sector.ODD]
        return sectors
    if not isinstance(names, list) or not names:
        raise ConfigError("'sectors' must be a nonempty list")
    sectors = []
    for name in names:
        if not isinstance(name, str):
            raise ConfigError(f"sector {name!r} is not a sector name")
        if name not in _SECTOR_BY_NAME:
            raise ConfigError(f"unknown sector {name!r}")
        sector = _SECTOR_BY_NAME[name]
        if sector in sectors:
            raise ConfigError(f"sector {name!r} is listed twice")
        if sector is not Sector.FULL and not potential.symmetric:
            raise ConfigError(f"sector {name!r}: parity sectors exist only for potentials declared symmetric")
        sectors.append(sector)
    return sectors


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _output_path(flag, output: dict, key: str):
    """The flag's path whenever given, else the config's ``output`` entry.  A
    path that is not a string (``open`` would take an int or bool as a file
    descriptor), is empty, names a directory, or lies in a missing directory
    is a config error, raised before any computation; the file is not touched."""
    path = flag if flag is not None else output.get(key)
    if path is None:
        return None
    if not isinstance(path, str):
        raise ConfigError(f"output {key!r} must be a file path string, got {path!r}")
    if not path:
        raise ConfigError(f"cannot write output file: the {key!r} path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write output file: {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write output file: no directory for {path!r}")
    return path


def _require_distinct_files(paths: dict) -> None:
    """Refuse two given paths that resolve to one file: the later write would
    replace the earlier dump, or an output would overwrite the config."""
    seen = {}
    for role, path in paths.items():
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(
                f"cannot write output file: the {role} path {path!r} names the same file as {seen[real]}"
            )
        seen[real] = f"the {role} path {path!r}"


def _write_output(writer, path: str) -> None:
    try:
        writer(path)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}")


def _cmd_potential(args) -> int:
    config = _load_config(args.config)
    _require_known("top-level", config, _CONFIG_KEYS)
    settings = _build_settings(config)  # validated for point systems too, where no knob acts
    system = config.get("system", "potential")
    if system in (DELTA, DELTA_PRIME):
        _require_known(f"{system} system", config, _POINT_KEYS)
        flags = [flag for flag, path in (("--csv", args.csv), ("--phase-csv", args.phase_csv)) if path is not None]
        if flags:
            raise ConfigError(f"a {system} system writes no dumps: {', '.join(flags)}")
        if "param" not in config:
            raise ConfigError(f"system {system!r} needs a 'param' entry")
        param = config["param"]
        try:
            # JSON has no infinity, so the word 'inf' stands in for it
            interaction = PointInteraction(system, math.inf if _is_inf(param) else _real(param))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc))
        return _run_point_system(interaction, args.json)
    if system != "potential":
        raise ConfigError(f"unknown system {system!r}")
    if "potential" not in config:
        raise ConfigError("config needs a 'potential' entry")

    potential = _build_potential(config["potential"])
    sectors = _sectors_from(config, potential)
    output = config.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be an object")
    _require_known("output", output, _OUTPUT_KEYS)
    csv_path = _output_path(args.csv, output, "csv")
    phase_path = _output_path(args.phase_csv, output, "phase_csv")
    _require_distinct_files({"config": args.config, "'csv'": csv_path, "'phase_csv'": phase_path})
    analysis = PotentialAnalysis(potential, settings)

    print(f"potential: {potential.label}")
    print(f"truncation radius: {analysis.radius:g}")
    resonance = analysis.resonance
    if resonance.is_exceptional:
        print(f"threshold: exceptional (gamma = {resonance.gamma:.9g})")
    else:
        print("threshold: generic")
    print(
        "bound states: "
        f"zero-energy nodes = {analysis.n_bound_shooting}, "
        f"finite-difference box = {analysis.n_bound_fd}"
    )
    analysis.bound_states()  # raises if the two routes disagree

    reports = {}
    for sector in sectors:
        report = analysis.report(sector)
        reports[sector.value] = report
        print(_report_line(sector, report))

    full = reports.get(Sector.FULL.value)
    delay_gap = 0.0
    if full is not None:
        delay = analysis.time_delay()
        predicted = full.n_bound + full.correction
        delay_gap = abs(delay - predicted)
        print(
            f"time delay integral: {delay:.6f}  "
            f"(n + correction = {predicted:.6f}, gap = {delay_gap:.2e})"
        )

    if csv_path:
        _write_output(analysis.scattering.write_csv, csv_path)
        print(f"wrote scattering matrices to {csv_path}")
    if phase_path:
        _write_output(analysis.scattering.write_phase_csv, phase_path)
        print(f"wrote phase curves to {phase_path}")
    return _verdict(reports, args.json, ok=delay_gap < DELAY_TOL)


# ---------------------------------------------------------------------------
# tables, verify-r


def _cmd_tables(args) -> int:
    rows = reproduce_tables()
    print(render_rows(rows))
    check_golden(rows)
    print("all golden rows reproduced")
    return 0


def _cmd_verify_r(args) -> int:
    sign = -1.0 if args.flip_mellin_sign else 1.0
    evaluator = MellinEvaluator(sign=sign)
    results = suite_residuals(evaluator)
    for label, residual in results:
        print(f"  {label:<36} residual = {residual:.3e}")
    worst = max(residual for _, residual in results)
    ok = worst < SUITE_TOL
    print(f"multiplier identity: {'OK' if ok else 'FAIL'} (worst {worst:.3e})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levlab",
        description="Winding-number verification of Levinson's theorem in 1d scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="solvable point interaction")
    p_point.add_argument("--kind", choices=(DELTA, DELTA_PRIME), required=True)
    p_point.add_argument("--param", required=True, help="coupling, a float or 'inf'")
    p_point.add_argument("--json", action="store_true", help="also print JSON reports")
    p_point.set_defaults(func=_cmd_point)

    p_pot = sub.add_parser("potential", help="potential described by a JSON config")
    p_pot.add_argument("--config", required=True, help="path to the JSON config")
    p_pot.add_argument("--csv", help="write scattering matrices to this CSV file")
    p_pot.add_argument("--phase-csv", help="write unwrapped phase curves to this CSV file")
    p_pot.add_argument("--json", action="store_true", help="also print JSON reports")
    p_pot.set_defaults(func=_cmd_potential)

    p_tables = sub.add_parser("tables", help="recompute and check the golden tables")
    p_tables.set_defaults(func=_cmd_tables)

    p_verify = sub.add_parser("verify-r", help="multiplier identity residuals")
    p_verify.add_argument("--flip-mellin-sign", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=_cmd_verify_r)

    return parser


def _join_param(argv: list[str]) -> list[str]:
    """argv with ``--param <value>`` joined into ``--param=<value>`` under the
    ``point`` subcommand, for every abbreviation argparse takes for --param
    there (``--p`` to ``--param``): argparse would take a value such as -1e6
    or -.5e1 for an option.  Every other token is left alone."""
    # the top-level parser takes no option values: the subcommand is the
    # first token that is not an option
    command = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    if argv[command : command + 1] != ["point"]:
        return argv
    out = argv[: command + 1]
    tokens = iter(argv[command + 1 :])
    for token in tokens:
        if len(token) > 2 and "--param".startswith(token) and (value := next(tokens, None)) is not None:
            token = f"{token}={value}"
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_param(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
