"""Micro-benchmarks of the I/O at both ends of a run.

They time ``event_line`` on fixed data per templated kind and for
``report``, the one kind the engine logs through the reference encoder,
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
from mnegoti.eventlog import EventLog, EventRecord, event_line
from mnegoti.protocols import Offer, RoundBlock
from mnegoti.runner import run, write_artifacts
from mnegoti.scenario import load_scenario_file, parse_scenario_text
from mnegoti.scheduler import ActionKind, FiredReaction, ScheduledAction

from conftest import SCENARIO_DIR

pytestmark = pytest.mark.bench

GENERIC_KIND = "report"
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# One record's data per kind, shaped as a run of protection_strategies.yaml
# logs it: 7 agents in 2 groups, 2 rooms, a 4-issue agenda.
MEMBERS = [0, 1, 2, 3, 4, 5, 6]
ISSUES = [0, 1, 2, 3]
RECORD_DATA = {
    "scenario_loaded": {
        "agents": 7, "criteria": 3, "groups": 2, "issues": 4, "rooms": 2, "seed": 42, "ticks": 12,
    },
    "population_spawned": {"group": 0, "members": [0, 1, 2], "name": "authorities"},
    "room_opened": {
        "admission": "conditions", "deadline_rounds": 4, "issues": ISSUES, "protocol": "plenary",
        "room": 0,
    },
    "room_open_skipped": {"room": 0, "state": "in_session"},
    "invitation_sent": {"agent": 1, "room": 1},
    "agent_entered": {"agent": 0, "room": 0, "utility": 0.6521804689894972},
    "agent_watching": {"agent": 0},
    "session_no_quorum": {"attendees": [4], "room": 1},
    "session_started": {
        "deadline_rounds": 4, "issues": ISSUES, "participants": MEMBERS,
        "protocol": "mediated_single_text", "room": 0,
    },
    "session_end": {
        "issue": 0, "participants": MEMBERS, "reason": None, "room": 0, "rounds": 4, "session": 0,
        "status": "agreed", "ticks_spanned": 2,
        "utilities": [0.552932356984204, 0.5810472381440224, 0.55409898146112, 0.36799313885506313,
                      0.40893556730219754, 0.40168483108189035, 0.494851534176866],
    },
    "room_closed": {"room": 0, "sessions": 1},
    "room_close_skipped": {"room": 1},
    "report": {
        "agent_phases": {"idle": 2, "watching": 5},
        "rooms": {"0": "closed", "1": "closed"},
        "sessions_completed": 2,
    },
}


@pytest.fixture(scope="module")
def artifacts():
    return run(load_scenario_file(SCENARIO_DIR / "protection_strategies.yaml"))[0]


@pytest.mark.parametrize("kind", sorted(eventlog._TEMPLATES) + [GENERIC_KIND])
def test_event_line(benchmark, kind):
    record = EventRecord(3, 50, kind, RECORD_DATA[kind])
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
