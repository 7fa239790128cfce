"""Command line behaviour: exit codes, outputs, CSV determinism."""

import json
import math
import os

import numpy as np
import pytest

from levlab.cli import main
from levlab.loops import Sector
from levlab.point import PointInteraction, verify_levinson
from levlab.potentials import tabulated_potential

WELL_CONFIG = {"potential": {"kind": "square-well", "depth": 1.0, "half_width": 1.0}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- point ------------------------------------------------------------------


def test_point_attractive_delta(capsys):
    assert main(["point", "--kind", "delta", "--param", "-1"]) == 0
    out = capsys.readouterr().out
    assert "index identity: OK" in out
    assert "[even]" in out and "[odd " in out


def test_point_infinite_coupling(capsys):
    assert main(["point", "--kind", "delta-prime", "--param", "inf"]) == 0
    assert "index identity: OK" in capsys.readouterr().out


def test_point_json_reports(capsys):
    assert main(["point", "--kind", "delta", "--param", "2", "--json"]) == 0
    out = capsys.readouterr().out
    payload = next(line for line in out.splitlines() if line.startswith("{"))
    reports = json.loads(payload)
    assert set(reports) == {"even", "odd"}
    assert reports["even"]["n_bound"] == 0


def test_point_json_is_the_report_dict(capsys):
    # coupling 0: an exceptional even sector (gamma = 1) and a generic odd one
    assert main(["point", "--kind", "delta", "--param", "0", "--json"]) == 0
    payload = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("{"))
    interaction = PointInteraction("delta", 0.0)
    reports = {
        s.value: verify_levinson(interaction, s).to_dict()
        for s in (Sector.EVEN, Sector.ODD)
    }
    assert payload == json.dumps(reports, sort_keys=True)


@pytest.mark.parametrize("kind", ["delta", "delta-prime"])
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("magnitude", ["1e-300", "1e-100", "1e-6", "1e-5", "1e6", "1e20", "1e100", "1e308"])
def test_point_extreme_couplings_certify(kind, sign, magnitude, capsys):
    """The momentum side runs on the coupling's own scale, so the amplitude
    turns mid-side however weak or strong the coupling: every coupling
    certifies, with w2 = -1/2 when attractive and +1/2 when repulsive."""
    assert main(["point", "--kind", kind, f"--param={sign}{magnitude}", "--json"]) == 0
    payload = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("{"))
    report = json.loads(payload)["even" if kind == "delta" else "odd"]
    assert abs(report["w"][1] - (-0.5 if sign else 0.5)) < 1e-12
    assert report["n_bound"] == (1 if sign else 0)


def test_point_rejects_unknown_kind(capsys):
    assert main(["point", "--kind", "contact", "--param", "1"]) == 2


def test_point_rejects_bad_param(capsys):
    assert main(["point", "--kind", "delta", "--param", "strong"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["-1e6", "-1E6", "-1e-6", "-1e308", "-.5e1", "-1"])
def test_point_param_is_the_next_token_however_it_looks(param, capsys):
    """argparse reads -1e6 or -.5e1 as an option, but the token after
    --param, or after any abbreviation argparse takes for it, is its value:
    the run matches the --param= form byte for byte."""
    joined = main(["point", "--kind", "delta", f"--param={param}", "--json"]), capsys.readouterr()
    assert joined[0] == 0
    for flag in ("--param", "--para", "--par", "--pa", "--p"):
        spaced = main(["point", "--kind", "delta", flag, param, "--json"]), capsys.readouterr()
        assert spaced == joined, flag


def test_point_param_minus_inf_is_refused(capsys):
    for flag in ("--param", "--par"):
        assert main(["point", "--kind", "delta", flag, "-inf"]) == 2
        assert "config error" in capsys.readouterr().err


def test_potential_abbreviation_is_not_joined(tmp_path, capsys):
    """Under ``potential``, --p abbreviates --phase-csv: a value that looks
    like an option is left to argparse, which refuses it."""
    cfg = write_config(tmp_path, WELL_CONFIG)
    assert main(["potential", "--config", cfg, "--p", "-1e6"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


# --- potential --------------------------------------------------------------


def test_potential_square_well(tmp_path, capsys):
    cfg = write_config(tmp_path, WELL_CONFIG)
    assert main(["potential", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "threshold: generic" in out
    assert "time delay integral" in out
    assert "index identity: OK" in out
    for tag in ("[full]", "[even]", "[odd "):
        assert tag in out


def test_potential_point_system_config(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": "delta", "param": -1})
    assert main(["potential", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "delta (alpha = -1)" in out
    assert "index identity: OK" in out


def test_potential_point_system_config_checks_numerics(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"system": "delta", "param": -1, "numerics": {"winding_samples": 8, "bogus": 1}},
    )
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: unknown numerics keys: bogus" in captured.err


@pytest.mark.parametrize(
    "extra,flags,message",
    [
        (
            {"output": {"csv": "s.csv"}, "potential": {"kind": "velvet"}},
            ["--csv", "s2.csv"],
            "unknown delta system keys: output, potential",
        ),
        ({"sectors": ["even"]}, [], "unknown delta system keys: sectors"),
        ({"system": "delta-prime"}, ["--csv", "s.csv"], "a delta-prime system writes no dumps: --csv"),
        ({}, ["--csv", "s.csv", "--phase-csv", "p.csv"], "a delta system writes no dumps: --csv, --phase-csv"),
    ],
)
def test_point_system_refuses_what_it_does_not_read(tmp_path, capsys, monkeypatch, extra, flags, message):
    """A point system reads no potential, sectors or dumps: asking for any
    of them exits 2 before any output, and no dump is written."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"system": "delta", "param": -1, "numerics": {"kappa_max": 40.0}, **extra})
    assert main(["potential", "--config", cfg, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "plain", [{"system": "delta", "param": -1}, WELL_CONFIG], ids=["point", "square-well"]
)
def test_potential_point_system_config_ignores_winding_numerics(tmp_path, capsys, plain):
    """The boundary sampler's knobs ``winding_samples``, ``winding_tol`` and
    ``corner_tol`` are checked but act on nothing, for a point config and a
    potential alike: the output is byte-identical to the config without them."""
    assert main(["potential", "--config", write_config(tmp_path, plain), "--json"]) == 0
    out = capsys.readouterr().out
    assert "index identity: OK" in out
    numerics = {"winding_samples": 17, "winding_tol": 1e-10, "corner_tol": 1e-9}
    cfg = write_config(tmp_path, dict(plain, numerics=numerics), name="knobs.json")
    assert main(["potential", "--config", cfg, "--json"]) == 0
    assert capsys.readouterr().out == out


def test_potential_csv_outputs_are_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, WELL_CONFIG)
    first, second = tmp_path / "s1.csv", tmp_path / "s2.csv"
    phases = tmp_path / "phases.csv"
    assert main(["potential", "--config", cfg, "--csv", str(first)]) == 0
    assert (
        main(
            [
                "potential",
                "--config",
                cfg,
                "--csv",
                str(second),
                "--phase-csv",
                str(phases),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "kappa,re11,im11,re12,im12,re21,im21,re22,im22"
    assert phases.read_text().splitlines()[0] == "kappa,arg_det,phase1,phase2"


def test_potential_csv_via_config_output(tmp_path, capsys):
    target = tmp_path / "out.csv"
    cfg = write_config(
        tmp_path, dict(WELL_CONFIG, output={"csv": str(target)})
    )
    assert main(["potential", "--config", cfg]) == 0
    assert target.exists()
    data = np.loadtxt(target, delimiter=",", skiprows=1)
    assert data.shape[1] == 9
    assert np.all(np.diff(data[:, 0]) > 0)


def test_potential_sector_selection(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(WELL_CONFIG, sectors=["even"]))
    assert main(["potential", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[even]" in out and "[full]" not in out


def test_potential_tabulated_slow_tail_warns_but_runs(tmp_path, capsys):
    xs = np.linspace(-2.0, 2.0, 81)
    values = -0.4 * np.exp(-((xs - 0.3) ** 2))
    cfg = write_config(
        tmp_path,
        {
            "potential": {
                "kind": "tabulated",
                "xs": xs.tolist(),
                "values": values.tolist(),
                "decay_exponent": 2.0,
            }
        },
    )
    with pytest.warns(UserWarning, match="tail decay"):
        code = main(["potential", "--config", cfg])
    assert code == 0
    assert "index identity: OK" in capsys.readouterr().out


# V(0.005) = -3 but V(-0.005) = -1.99: a spike between two points of any even
# probe grid coarser than the table.
SPIKE_TABLE = {
    "kind": "tabulated",
    "xs": [-1.0, -0.5, 0.0, 0.005, 0.01, 0.5, 1.0],
    "values": [0.0, -1.0, -2.0, -3.0, -1.98, -1.0, 0.0],
}


def test_tabulated_symmetry_is_decided_between_probes(tmp_path, capsys):
    """A table is symmetric only if V(-x) = V(x) everywhere: at every |x|,
    and between them, where a table end can jump to 0."""
    assert not tabulated_potential(SPIKE_TABLE["xs"], SPIKE_TABLE["values"]).symmetric
    # Both tables agree at 0, 1 and 2; V(1.5) = 0 but V(-1.5) = -0.25.
    assert not tabulated_potential([-2.0, 0.0, 1.0], [0.0, -1.0, -0.5]).symmetric
    # A collinear extra breakpoint on one side, and an even grid, stay symmetric.
    assert tabulated_potential([-1.0, 0.0, 0.5, 1.0], [0.0, -1.0, -0.5, 0.0]).symmetric
    xs = np.linspace(-3.0, 3.0, 61)
    assert tabulated_potential(xs, -np.exp(-xs * xs)).symmetric
    cfg = write_config(tmp_path, {"potential": SPIKE_TABLE})
    assert main(["potential", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[full]" in out and "[even]" not in out and "[odd ]" not in out
    assert "index identity: OK" in out
    cfg = write_config(tmp_path, {"potential": SPIKE_TABLE, "sectors": ["even"]}, name="even.json")
    assert main(["potential", "--config", cfg]) == 2
    assert "declared symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("depth_profile", [lambda x: np.exp(-x * x), lambda x: 1.0 / (1.0 + x * x)], ids=["gauss", "lorentz"])
def test_deep_even_tables_are_symmetric(depth_profile):
    """Rounding of deep even tables, some 5e-16 of max |V|, is no asymmetry:
    symmetry is decided on the scale of max(1, max |V|)."""
    for n in range(5, 401):
        xs = np.linspace(-3.0, 3.0, n)
        assert tabulated_potential(xs, -1e6 * depth_profile(xs)).symmetric, n


def test_symmetry_is_decided_on_the_scale_of_the_whole_table():
    """A 1e6 spike sets the scale of the check: an asymmetry of 1e-6 where
    |V| is 1 is rounding on that scale, and a table found symmetric passes the
    declared-symmetry check of ``Potential``; 1e-3 is not rounding."""
    xs = [-1.0, -0.5, -0.01, 0.0, 0.01, 0.5, 1.0]
    assert tabulated_potential(xs, [0.0, -1.0, -1.0, -1e6, -1.0, -1.0 - 1e-6, 0.0]).symmetric
    assert not tabulated_potential(xs, [0.0, -1.0, -1.0, -1e6, -1.0, -1.0 - 1e-3, 0.0]).symmetric


def test_deep_even_table_has_parity_sectors(tmp_path, capsys):
    """A table 1e4 deep, whose mirrored samples differ by rounding only, has
    an even sector; an absolute 1e-12 threshold declared it asymmetric."""
    xs = np.linspace(-0.3, 0.3, 10)
    table = {"kind": "tabulated", "xs": xs.tolist(), "values": (-1e4 * np.exp(-((xs / 0.1) ** 2))).tolist()}
    assert tabulated_potential(table["xs"], table["values"]).symmetric
    cfg = write_config(tmp_path, {"potential": table, "sectors": ["even"]})
    assert main(["potential", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[even]" in out and "index identity: OK" in out


def test_potential_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["potential", "--config", missing]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert main(["potential", "--config", str(not_json)]) == 2

    for payload in (
        {"potential": {"kind": "velvet"}},
        {"potential": {"kind": ["square-well"], "depth": 1.0, "half_width": 1.0}},
        {"potential": {"kind": "square-well", "depth": 1.0}},
        {"system": "rotor"},
        {"system": "delta"},
        dict(WELL_CONFIG, numerics={"mesh_flavor": 3}),
        dict(WELL_CONFIG, sectors=["diagonal"]),
        dict(WELL_CONFIG, sectors=[]),
        {"potential": "deep"},
    ):
        cfg = write_config(tmp_path, payload)
        assert main(["potential", "--config", cfg]) == 2, payload
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize(
    "config,message",
    [
        (dict(WELL_CONFIG, numeric={"points_per_decade": 12}), "unknown top-level keys: numeric"),
        ({"system": "delta", "param": -1, "parm": 2}, "unknown top-level keys: parm"),
        (dict(WELL_CONFIG, output={"csv_path": "s.csv"}), "unknown output keys: csv_path"),
        (dict(WELL_CONFIG, output={"csv": "s.csv", "phase": "p.csv"}), "unknown output keys: phase"),
        (
            {"potential": dict(WELL_CONFIG["potential"], halfwidth=2.0)},
            "unknown square-well potential keys: halfwidth",
        ),
        (
            {"potential": {"kind": "gaussian-sum", "wells": [[2.0, 0.0, 0.5]], "symmetric": True}},
            "unknown gaussian-sum potential keys: symmetric",
        ),
        (
            {"potential": {"kind": "tabulated", "xs": [-2.0, 2.0], "values": [-1.0, -1.0], "decay": 3.0, "tail": 1}},
            "unknown tabulated potential keys: decay, tail",
        ),
    ],
    ids=["top-level", "top-level-point", "output", "output-beside-csv", "square-well", "gaussian-sum", "tabulated"],
)
def test_potential_unknown_config_key_is_refused_before_analysis(tmp_path, capsys, monkeypatch, config, message):
    """A misspelt key at any level is a config error, not a dropped setting,
    and nothing is computed or written."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, config)
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize(
    "numerics",
    [
        {"winding_samples": "abc"},
        {"winding_samples": 8},
        {"dead_zone": 5},
        {"kappa_min": 10, "kappa_max": 1},
        {"kappa_min": 1, "kappa_max": 1},
        {"winding_tol": 0},
        {"corner_tol": True},
        {"winding_samples": 16.0},
        {"winding_tol": 1e400},
        {"fd_growth": 1.0},
        {"fd_growth": 0.5},
    ],
    ids=[
        "samples-not-int",
        "samples-below-16",
        "dead-zone-not-pair",
        "kappa-range-inverted",
        "kappa-range-empty",
        "tol-zero",
        "corner-tol-bool",
        "samples-float",
        "tol-overflows",
        "fd-growth-one",
        "fd-growth-shrinks",
    ],
)
def test_potential_malformed_numerics_is_config_error(tmp_path, capsys, numerics):
    cfg = write_config(tmp_path, dict(WELL_CONFIG, numerics=numerics))
    assert main(["potential", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "potential",
    [
        {"kind": "square-well", "depth": 1.0, "half_width": math.inf},
        {"kind": "square-well", "depth": math.nan, "half_width": 1.0},
        {"kind": "gaussian-sum", "wells": [[math.nan, 0.0, 1.0]]},
        {"kind": "gaussian-sum", "wells": [[1.0, -math.inf, 1.0]]},
        {"kind": "gaussian-sum", "wells": [[1.0, 0.0, math.inf]]},
        {"kind": "tabulated", "xs": [-1.0, 0.0, 1.0], "values": [0.0, math.nan, 0.0]},
        {"kind": "tabulated", "xs": [-1.0, 0.0, math.inf], "values": [0.0, -1.0, 0.0]},
        {"kind": "tabulated", "xs": [-1.0, 1.0], "values": [-1.0, -1.0], "decay_exponent": math.nan},
    ],
    ids=[
        "square-infinite-width",
        "square-nan-depth",
        "gaussian-nan-depth",
        "gaussian-infinite-centre",
        "gaussian-infinite-width",
        "tabulated-nan-value",
        "tabulated-infinite-abscissa",
        "tabulated-nan-decay",
    ],
)
def test_potential_non_finite_parameter_is_config_error(tmp_path, capsys, potential):
    cfg = write_config(tmp_path, {"potential": potential})
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "config",
    [
        {"potential": {"kind": "gaussian-sum", "wells": [[2.0, 0.7, 0.5]]}, "sectors": ["even"]},
        {"potential": {"kind": "gaussian-sum", "wells": [[2.0, 0.7, 0.5]]}, "sectors": ["full", "odd"]},
        dict(WELL_CONFIG, sectors=["full", "full"]),
        dict(WELL_CONFIG, sectors=["even", "odd", "even"]),
        dict(WELL_CONFIG, sectors=[["full"]]),
        dict(WELL_CONFIG, sectors=[{}]),
    ],
    ids=["asymmetric-even", "asymmetric-odd", "full-twice", "even-twice", "list-entry", "object-entry"],
)
def test_potential_bad_sector_list_is_refused_before_analysis(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: sector" in captured.err


@pytest.mark.parametrize(
    "config",
    [
        {"system": "delta", "param": True},
        {"system": "delta-prime", "param": False},
        {"potential": {"kind": "square-well", "depth": True, "half_width": 1.0}},
        {"potential": {"kind": "gaussian-sum", "wells": [[True, 0.0, 0.5]]}},
        {"potential": {"kind": "tabulated", "xs": [-1.0, 1.0], "values": [-1.0, -1.0], "decay_exponent": True}},
        {"system": "delta", "param": "-1"},
        {"potential": {"kind": "square-well", "depth": "1.0", "half_width": 1.0}},
        {"potential": {"kind": "gaussian-sum", "wells": [["2", 0.0, 0.5]]}},
        {"potential": {"kind": "tabulated", "xs": "12", "values": "34"}},
    ],
    ids=[
        "delta-param",
        "delta-prime-param",
        "square-depth",
        "gaussian-well",
        "tabulated-decay",
        "delta-param-string",
        "square-depth-string",
        "gaussian-well-string",
        "tabulated-table-strings",
    ],
)
def test_boolean_number_is_config_error(tmp_path, capsys, config):
    """Booleans and strings are not numbers, though ``float`` reads both."""
    cfg = write_config(tmp_path, config)
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "not a number" in captured.err


@pytest.mark.parametrize("param", ["inf", " INF "])
def test_potential_point_system_config_takes_the_word_inf(tmp_path, capsys, param):
    cfg = write_config(tmp_path, {"system": "delta", "param": param})
    assert main(["potential", "--config", cfg]) == 0
    assert "index identity: OK" in capsys.readouterr().out


def test_potential_bad_output_is_refused_before_analysis(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(WELL_CONFIG, output=5))
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'output' must be an object" in captured.err


@pytest.mark.parametrize("key", ["csv", "phase_csv"])
@pytest.mark.parametrize("value", [True, 2, ["s.csv"]], ids=["bool", "int", "list"])
def test_potential_non_string_output_path_is_refused_before_analysis(tmp_path, capsys, key, value):
    # open() would take an int or bool as a file descriptor
    cfg = write_config(tmp_path, dict(WELL_CONFIG, output={key: value}))
    assert main(["potential", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and repr(key) in captured.err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("key", ["csv", "phase_csv"])
@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
def test_potential_unwritable_output_path_is_config_error(tmp_path, capsys, via, key, target):
    path = {
        "missing-directory": str(tmp_path / "absent" / "out.csv"),
        "directory": str(tmp_path),
        "empty": "",
    }[target]
    argv = ["potential"]
    if via == "flag":
        argv += ["--" + key.replace("_", "-"), path]
        config = WELL_CONFIG
    else:
        config = dict(WELL_CONFIG, output={key: path})
    assert main(argv + ["--config", write_config(tmp_path, config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: cannot write output file" in captured.err


@pytest.mark.parametrize(
    "csv_via, phase_via",
    [("flag", "flag"), ("config", "config"), ("flag", "config"), ("config", "flag")],
)
def test_potential_dumps_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, csv_via, phase_via):
    """Two dumps naming one file (here once as ./same.csv) would leave only
    the phase dump in it: refused before the analysis, nothing written."""
    monkeypatch.chdir(tmp_path)
    argv, output = ["potential"], {}
    for key, via, path in (("csv", csv_via, "same.csv"), ("phase_csv", phase_via, "./same.csv")):
        if via == "flag":
            argv += ["--" + key.replace("_", "-"), path]
        else:
            output[key] = path
    assert main(argv + ["--config", write_config(tmp_path, dict(WELL_CONFIG, output=output))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: cannot write output file" in captured.err and "names the same file" in captured.err
    assert not (tmp_path / "same.csv").exists()


@pytest.mark.parametrize("key", ["csv", "phase_csv"])
@pytest.mark.parametrize("via", ["flag", "config", "symlink"])
def test_potential_dump_naming_the_config_is_refused(tmp_path, capsys, key, via):
    """An output path that resolves to the config file (given as is, from the
    config's own ``output``, or through a symlink) would overwrite it."""
    cfg_file = tmp_path / "config.json"
    cfg = str(cfg_file)
    argv = ["potential"]
    if via == "config":
        write_config(tmp_path, dict(WELL_CONFIG, output={key: cfg}))
    else:
        write_config(tmp_path, WELL_CONFIG)
        target = cfg
        if via == "symlink":
            target = str(tmp_path / "link.json")
            os.symlink(cfg, target)
        argv += ["--" + key.replace("_", "-"), target]
    before = cfg_file.read_text()
    assert main(argv + ["--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "names the same file as the config path" in captured.err
    assert cfg_file.read_text() == before


def test_potential_flag_clears_a_shared_config_output(tmp_path, capsys):
    """A flag replaces its ``output`` entry before the paths are compared, so
    a config whose two entries coincide runs when one flag tells them apart."""
    shared = tmp_path / "same.csv"
    cfg = write_config(tmp_path, dict(WELL_CONFIG, output={"csv": str(shared), "phase_csv": str(shared)}))
    phases = tmp_path / "p.csv"
    assert main(["potential", "--config", cfg, "--phase-csv", str(phases)]) == 0
    capsys.readouterr()
    s_rows = shared.read_text().splitlines()
    assert s_rows[0].startswith("kappa,re11") and len(s_rows) == len(phases.read_text().splitlines())


def test_potential_numerics_override(tmp_path, capsys):
    cfg = write_config(
        tmp_path, dict(WELL_CONFIG, numerics={"winding_samples": 129})
    )
    assert main(["potential", "--config", cfg]) == 0


# --- tables and the multiplier identity -------------------------------------


def test_tables_reproduce(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "all golden rows reproduced" in out
    assert "MISMATCH" not in out


def test_verify_r_passes(capsys):
    assert main(["verify-r"]) == 0
    assert "multiplier identity: OK" in capsys.readouterr().out


def test_verify_r_flipped_sign_fails(capsys):
    assert main(["verify-r", "--flip-mellin-sign"]) == 1
    assert "multiplier identity: FAIL" in capsys.readouterr().out
