"""Micro-benchmarks of the I/O at both ends of a run.

They time ``event_line`` per templated kind and for one generic kind,
``write_artifacts`` for a bundled scenario's run, and ``parse_scenario_text``
on ``scenarios/concurrent_rooms.yaml`` with each available YAML loader.
The ``bench`` marker keeps them out of the default test run:

    PYTHONPATH=src python -m pytest -m bench                      # timed
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable  # each once
"""

from __future__ import annotations

import pytest
import yaml

from mnegoti import runner, scenario as scenario_module
from mnegoti.runner import event_line, run, write_artifacts
from mnegoti.scenario import load_scenario_file, parse_scenario_text

from conftest import SCENARIO_DIR

pytestmark = pytest.mark.bench

GENERIC_KIND = "session_end"
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.fixture(scope="module")
def artifacts():
    # protection_strategies logs every templated kind.
    return run(load_scenario_file(SCENARIO_DIR / "protection_strategies.yaml"))[0]


@pytest.mark.parametrize("kind", sorted(runner._TEMPLATES) + [GENERIC_KIND])
def test_event_line(benchmark, artifacts, kind):
    record = next(e for e in artifacts.events if e.kind == kind)
    assert benchmark(event_line, record).startswith('{"data":')


def test_write_artifacts(benchmark, artifacts, tmp_path):
    out = benchmark(write_artifacts, artifacts, tmp_path / "rep")
    assert (out / "events.log").stat().st_size > 0


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_parse_scenario_text(benchmark, monkeypatch, loader):
    monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)
    text = (SCENARIO_DIR / "concurrent_rooms.yaml").read_text(encoding="utf-8")
    assert benchmark(parse_scenario_text, text).rooms
