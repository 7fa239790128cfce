"""Command line behaviour: exit codes, outputs, CSV determinism."""

import json
import math

import numpy as np
import pytest

from levlab.cli import main
from levlab.loops import Sector
from levlab.point import PointInteraction, verify_levinson

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


def test_potential_point_system_config_applies_numerics(tmp_path, capsys, monkeypatch):
    """A point config's winding knobs reach ``loops.winding``, and
    ``corner_tol``, which acts on nothing, leaves the output unchanged."""
    from levlab import loops

    seen = []
    wind = loops.winding

    def capture(path, *args, **kwargs):
        seen.append(kwargs)
        return wind(path, *args, **kwargs)

    monkeypatch.setattr(loops, "winding", capture)
    numerics = {"winding_samples": 17, "winding_tol": 1e-10}
    cfg = write_config(tmp_path, {"system": "delta", "param": -1, "numerics": numerics})
    assert main(["potential", "--config", cfg, "--json"]) == 0
    out = capsys.readouterr().out
    assert "index identity: OK" in out
    assert seen == [{"n_samples": 17, "tol": 1e-10}] * 2
    numerics["corner_tol"] = 1e-9
    cfg = write_config(tmp_path, {"system": "delta", "param": -1, "numerics": numerics})
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


def test_potential_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["potential", "--config", missing]) == 2

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert main(["potential", "--config", str(not_json)]) == 2

    for payload in (
        {"potential": {"kind": "velvet"}},
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
    "numerics",
    [{"winding_samples": "abc"}, {"winding_samples": 8}, {"dead_zone": 5}],
    ids=["samples-not-int", "samples-below-16", "dead-zone-not-pair"],
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
