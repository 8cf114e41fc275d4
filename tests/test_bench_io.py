"""Micro-benchmarks of the I/O at both ends of a run.

They time ``event_line`` per templated kind and for one generic kind,
``Simulation._log`` for 1 000 records of one templated kind, one
2 000-watcher fan-out written to a file by ``EventLog.log_fired``, one
300-participant concession round written to a file by
``EventLog.log_round``, ``write_artifacts`` for a bundled
scenario's run, and ``parse_scenario_text`` on
``scenarios/concurrent_rooms.yaml`` with each available YAML loader.
The ``bench`` marker keeps them out of the default test run:

    PYTHONPATH=src python -m pytest -m bench                      # timed
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable  # each once
"""

from __future__ import annotations

import pytest
import yaml

from mnegoti import eventlog, scenario as scenario_module
from mnegoti.context import ObjectKind
from mnegoti.engine import Simulation
from mnegoti.eventlog import EventLog, event_line
from mnegoti.protocols import Offer, RoundBlock
from mnegoti.runner import run, write_artifacts
from mnegoti.scenario import load_scenario_file, parse_scenario_text
from mnegoti.scheduler import ActionKind, FiredReaction, ScheduledAction

from conftest import SCENARIO_DIR

pytestmark = pytest.mark.bench

GENERIC_KIND = "session_end"
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.fixture(scope="module")
def artifacts():
    # protection_strategies logs every templated kind.
    return run(load_scenario_file(SCENARIO_DIR / "protection_strategies.yaml"))[0]


@pytest.mark.parametrize("kind", sorted(eventlog._TEMPLATES) + [GENERIC_KIND])
def test_event_line(benchmark, artifacts, kind):
    record = next(e for e in artifacts.events if e.kind == kind)
    assert benchmark(event_line, record).startswith('{"data":')


def test_log_records(benchmark):
    sim = Simulation(load_scenario_file(SCENARIO_DIR / "concurrent_rooms.yaml"))
    log = sim._log

    def log_thousand():
        sim.events = EventLog()
        for agent in range(1_000):
            log("agent_watching", agent=agent)

    benchmark(log_thousand)
    assert len(sim.events) == 1_000


def test_log_fan_out(benchmark, tmp_path):
    # One room opening seen by 2 000 watching agents, each firing a scan:
    # one queued entry, as the scheduler makes it.
    entry = ScheduledAction(
        ActionKind.AGENT_SCAN, start=12, priority=99, seq=0, targets=list(range(2_000))
    )
    fired = [FiredReaction(0, agent, entry) for agent in entry.targets]
    with open(tmp_path / "events.log", "w", encoding="utf-8") as file:
        writer = EventLog(file)

        def log_fan_out():
            file.seek(0)
            writer.log_fired(12, 100, ObjectKind.MEETING_ROOM, 3, fired)

        benchmark(log_fan_out)
    assert (tmp_path / "events.log").read_text().count("\n") == 2_000


def test_log_round(benchmark, tmp_path):
    # A concession round of a summit-sized session: 300 participants, each
    # offering one of 30 issues and publishing an acceptable set of 1-3.
    block = RoundBlock(
        round=4,
        offers=[Offer(agent, agent % 30) for agent in range(300)],
        published=[
            (agent, tuple(range(agent % 28, agent % 28 + agent % 3 + 1))) for agent in range(300)
        ],
    )
    with open(tmp_path / "events.log", "w", encoding="utf-8") as file:
        writer = EventLog(file)

        def log_round():
            file.seek(0)
            writer.log_round(12, 50, 7, block)

        benchmark(log_round)
    assert (tmp_path / "events.log").read_text().count("\n") == 600


def test_write_artifacts(benchmark, artifacts, tmp_path):
    out = benchmark(write_artifacts, artifacts, tmp_path / "rep")
    assert (out / "events.log").stat().st_size > 0


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_parse_scenario_text(benchmark, monkeypatch, loader):
    monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)
    text = (SCENARIO_DIR / "concurrent_rooms.yaml").read_text(encoding="utf-8")
    assert benchmark(parse_scenario_text, text).rooms
