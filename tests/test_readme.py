"""The README's examples run as written and print what their comments say."""

import json
import re
from pathlib import Path

import pytest

from levlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced block of the language after the heading ``after``."""
    start = README.index(after)
    match = re.compile(rf"```{language}\n(.*?)```", re.DOTALL).search(README, start)
    return match.group(1)


def test_python_api_block_runs_and_matches_its_comments(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(_block("python", "## Python API"), namespace)
    analysis, report = namespace["analysis"], namespace["report"]
    assert analysis.bound_states() == 1
    assert report.w == pytest.approx((-0.5, -0.5, 0.0, 0.0), abs=1e-6)
    assert report.total == pytest.approx(-1.0, abs=1e-6)
    assert analysis.time_delay() == pytest.approx(0.5, abs=1e-6)
    assert analysis.scattering.even_odd.shape == analysis.scattering.matrices.shape
    assert (tmp_path / "s.csv").is_file() and (tmp_path / "phases.csv").is_file()


def test_config_schema_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = json.loads(_block("json", "### Config schema"))
    (tmp_path / "well.json").write_text(json.dumps(config))
    assert main(["potential", "--config", "well.json"]) == 0
    assert "index identity: OK" in capsys.readouterr().out
    assert (tmp_path / "s.csv").is_file() and (tmp_path / "p.csv").is_file()
