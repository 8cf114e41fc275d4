"""End-to-end engine behavior, determinism, metrics, and artifacts."""

from __future__ import annotations

import copy
import gc
import json
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mnegoti.engine
from mnegoti import eventlog, protocols, rooms, runner

from mnegoti.context import ObjectKind
from mnegoti.engine import Simulation
from mnegoti.errors import CascadeOverflowError, ConfigurationError, OutputError
from mnegoti.eventlog import (
    EventLog,
    EventRecord,
    event_line,
    parse_event_line,
    read_event_log,
)
from mnegoti.model import AgentPhase, evaluate
from mnegoti.protocols import FailureReason, Offer, ProtocolKind, RoundBlock, SessionStatus
from mnegoti.runner import SummaryRow, population_rows, run, summarize
from mnegoti.scenario import load_scenario, load_scenario_file
from mnegoti.rooms import AdmissionKind, MeetingRoom, RoomState
from mnegoti.scheduler import ActionKind, FiredReaction, ScheduledAction, Scheduler

from conftest import SCENARIO_DIR, benchmark_module, run_counting_pushes, two_group_doc
from oracles import counting, notify_one_action_per_fire, scan_every_room
from test_golden import GOLDEN, WORKLOAD_EVENTS_LOG
from test_property_gate import COMBINATIONS, scenario_docs


def events_of(sim: Simulation, kind: str) -> list[dict]:
    return [e.data for e in sim.events if e.kind == kind]


def reference_line(record: EventRecord) -> str:
    """The events.log encoding that ``event_line`` must reproduce byte for byte."""
    doc = {"tick": record.tick, "priority": record.priority, "kind": record.kind, "data": record.data}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def assert_reference_log(in_memory: EventLog, streamed: Path) -> None:
    """The streamed events.log holds the in-memory run's bytes, each line its reference encoding."""
    text = in_memory.text()
    assert streamed.read_bytes() == text.encode("ascii")
    for line in text.splitlines():
        assert line == reference_line(parse_event_line(line))


def session_end(utilities, agreed=True, room=0, session=0):
    """A synthetic session_end record; disagreement pays every participant 0."""
    return EventRecord(
        tick=1,
        priority=50,
        kind="session_end",
        data={
            "room": room,
            "session": session,
            "status": "agreed" if agreed else "failed",
            "reason": None if agreed else "no_agreement",
            "issue": 0 if agreed else None,
            "rounds": 1,
            "participants": list(range(len(utilities))),
            "utilities": list(utilities) if agreed else [0.0 for _ in utilities],
            "ticks_spanned": 1,
        },
    )


def welfare_triple(record):
    (row,) = summarize([record])
    return row.welfare, row.min_utility, row.nash_product


class TestMetrics:
    """The welfare triple that ``summarize`` derives from one session_end record."""

    def test_even_split(self):
        assert welfare_triple(session_end([0.5, 0.5])) == (1.0, 0.5, 0.25)

    def test_failed_outcome_scores_zero(self):
        assert welfare_triple(session_end([0.9, 0.9], agreed=False)) == (0.0, 0.0, 0.0)

    def test_zero_utility_annihilates_nash(self):
        assert welfare_triple(session_end([1.0, 0.0])) == (1.0, 0.0, 0.0)

    def test_rows_by_room_then_session_from_session_end_only(self):
        events = [
            EventRecord(tick=0, priority=None, kind="scenario_loaded", data={}),
            session_end([0.5, 0.5], room=1, session=0),
            session_end([0.9, 0.9], agreed=False, room=0, session=1),
            EventRecord(tick=1, priority=50, kind="room_closed", data={"room": 0, "sessions": 2}),
            session_end([0.2], room=0, session=0),
        ]
        assert summarize(events) == [
            SummaryRow(0, 0, "agreed", 0, 1, 0.2, 0.2, 0.2),
            SummaryRow(0, 1, "no_agreement", None, 1, 0.0, 0.0, 0.0),
            SummaryRow(1, 0, "agreed", 0, 1, 1.0, 0.5, 0.25),
        ]


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self, scenario_dir):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        first = Simulation(scenario, seed=42)
        second = Simulation(scenario, seed=42)
        first.run()
        second.run()
        assert first.events.text() == second.events.text()

    def test_different_seed_differs(self, scenario_dir):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        first = Simulation(scenario, seed=42)
        second = Simulation(scenario, seed=43)
        first.run()
        second.run()
        assert first.events.text() != second.events.text()

    def test_replication_seeds_are_base_plus_offset(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        results = run(scenario, seed=100, replications=3)
        assert [a.seed for a in results] == [100, 101, 102]

    def test_replications_are_seed_isolated(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        alone = run(scenario, seed=101, replications=1)[0]
        batched = run(scenario, seed=100, replications=3)[1]
        assert alone.events.text() == batched.events.text()

    def test_degenerate_bounds_make_replications_identical(self, minimal_doc):
        # Oracle: a single run; pinned sampling cannot vary across seeds.
        minimal_doc["groups"][0]["bounds"] = [[0.5, 0.5]]
        scenario = load_scenario(minimal_doc)
        single = run(scenario, seed=1, replications=1)[0]
        for artifacts in run(scenario, seed=7, replications=3):
            assert artifacts.summary == single.summary
            assert [r.weights for r in artifacts.population] == [
                r.weights for r in single.population
            ]

    # random.Random(-1) replays seed 1, and a str or float seed is hashed.
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "1"], ids=repr)
    def test_seed_that_random_would_alias_is_rejected(self, seed, minimal_doc, tmp_path):
        scenario = load_scenario(minimal_doc)
        with pytest.raises(ConfigurationError, match=f"got {re.escape(repr(seed))}$"):
            Simulation(scenario, seed=seed)
        with pytest.raises(ConfigurationError):
            run(scenario, seed=seed, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


def trade_off_rooms_doc() -> dict:
    """concurrent_rooms.yaml with 20 trade-off agents per group and monotonic concession."""
    doc = yaml.safe_load((SCENARIO_DIR / "concurrent_rooms.yaml").read_text())
    for group in doc["groups"]:
        group["member_count"] = 20
        group["strategy"]["kind"] = "trade_off"
    doc["protocols"] = [{"id": "local_vote", "kind": "monotonic_concession", "max_rounds": 5}]
    return doc


class TestUtilityTable:
    """Each (agent, issue) utility is computed by ``evaluate`` once, on first read."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        calls = []
        original = protocols.evaluate

        def counted(agent, issue):
            calls.append((agent.id, issue.id))
            return original(agent, issue)

        monkeypatch.setattr(protocols, "evaluate", counted)
        monkeypatch.setattr(rooms, "evaluate", counted)
        return calls

    @pytest.mark.parametrize(
        "doc",
        [lambda: yaml.safe_load((SCENARIO_DIR / "concurrent_rooms.yaml").read_text()),
         trade_off_rooms_doc],
        ids=["concurrent_rooms", "trade_off_rooms"],
    )
    def test_each_pair_is_evaluated_once(self, evaluated, doc):
        sim = Simulation(load_scenario(doc()))
        assert evaluated == []
        sim.run()
        # Every agent enters the room of its group and reads only its agenda.
        read = {
            (agent, issue)
            for started in events_of(sim, "session_started")
            for agent in started["participants"]
            for issue in started["issues"]
        }
        assert len(read) == len(sim.agents) * len(sim.scenario.issues)
        assert sorted(evaluated) == sorted(read)
        assert {(a.id, i) for a in sim.agents.values() for i in a.utilities} == read

    def test_trade_off_rounds_run(self):
        sim = Simulation(load_scenario(trade_off_rooms_doc()))
        sim.run()
        assert len(sim.agents) == 60
        assert any(offer["round"] >= 2 for offer in events_of(sim, "offer"))


class TestRunBound:
    def test_stop_at_ten_executes_eleven_ticks(self, minimal_doc):
        minimal_doc["ticks"] = 10
        minimal_doc["rooms"] = []
        sim = Simulation(load_scenario(minimal_doc))
        sim.scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, start=0, interval=1))
        sim.run()
        assert [e.tick for e in sim.events if e.kind == "report"] == list(range(11))
        assert sim.now == 11
        logged = len(sim.events)
        sim.run()
        sim.step()
        assert len(sim.events) == logged
        assert sim.now == 11


class TestWatcherFlow:
    def test_room_open_admits_eligible_agents_same_tick(self, minimal_doc):
        # Hand-traced: room opens at tick 1, both agents enter at tick 1,
        # session starts at tick 2.
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        opened = [e for e in sim.events if e.kind == "room_opened"]
        entered = [e for e in sim.events if e.kind == "agent_entered"]
        started = [e for e in sim.events if e.kind == "session_started"]
        assert [e.tick for e in opened] == [1]
        assert [(e.tick, e.data["agent"]) for e in entered] == [(1, 0), (1, 1)]
        assert [e.tick for e in started] == [2]

    def test_round_reaction_at_a_closed_room_does_nothing(self, minimal_doc):
        # Every room runs a round when a room opens. Room 0 never opens, so
        # the fan-out's first member finds it closed and logs nothing; the
        # second still runs and starts room 1's session in the reaction band.
        minimal_doc["rooms"][0]["id"] = 1
        minimal_doc["rooms"].insert(0, {"id": 0, "schedule": []})
        minimal_doc["watchers"].append(
            {
                "watcher": {"kind": "meeting_room"},
                "watchee": {"kind": "meeting_room"},
                "trigger": {"watchee.state": "open"},
                "reaction": {"kind": "negotiation_round"},
            }
        )
        sim = Simulation(load_scenario(minimal_doc), seed=5)
        sim.run()
        fired = [e.data for e in sim.events if e.kind == "watcher_fired" and e.data["rule"] == 1]
        assert [(f["watcher"], f["reaction"], f["band"]) for f in fired] == [
            (0, "negotiation_round", 99), (1, "negotiation_round", 99)
        ]
        reactions = [(e.kind, e.data["room"]) for e in sim.events if (e.tick, e.priority) == (1, 99)]
        assert reactions[:3] == [("agent_entered", 1), ("agent_entered", 1), ("session_started", 1)]
        assert {room for _, room in reactions} == {1}

    def test_agent_with_zero_agenda_utility_enters(self, minimal_doc):
        # Every issue scores 0, so each agent's best agenda utility is 0.0,
        # which the threshold of 0.0 admits.
        for issue in minimal_doc["issues"]:
            issue["scores"] = [0.0]
        sim = Simulation(load_scenario(minimal_doc), seed=5)
        sim.run()
        entered = events_of(sim, "agent_entered")
        assert [(e["agent"], e["utility"]) for e in entered] == [(0, 0.0), (1, 0.0)]
        assert events_of(sim, "agent_watching") == []

    def test_agents_without_admissible_room_watch(self, minimal_doc):
        minimal_doc["groups"].append(
            {"id": 1, "name": "outsiders", "member_count": 2, "bounds": [[0.0, 1.0]]}
        )
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "conditions",
            "groups": [0],
        }
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        watching = events_of(sim, "agent_watching")
        assert [w["agent"] for w in watching] == [2, 3]
        assert sim.agents[2].phase is AgentPhase.WATCHING

    def test_agent_chooses_highest_utility_room(self, minimal_doc):
        # Oracle: direct comparison of max utilities over the two agendas.
        minimal_doc["issues"] = [
            {"id": 0, "name": "fine", "scores": [0.6]},
            {"id": 1, "name": "better", "scores": [0.8]},
        ]
        minimal_doc["rooms"] = [
            {
                "id": 0,
                "schedule": [
                    {
                        "action": "open",
                        "at": 1,
                        "agenda": {
                            "issues": [0],
                            "admission": {"kind": "conditions"},
                            "protocol": "main",
                        },
                    }
                ],
            },
            {
                "id": 1,
                "schedule": [
                    {
                        "action": "open",
                        "at": 1,
                        "agenda": {
                            "issues": [1],
                            "admission": {"kind": "conditions"},
                            "protocol": "main",
                        },
                    }
                ],
            },
        ]
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        agent = sim.agents[0]
        util_room0 = 0.6 * sum(agent.weights)
        util_room1 = 0.8 * sum(agent.weights)
        assert util_room1 > util_room0
        sim.run()
        entered = events_of(sim, "agent_entered")
        assert all(e["room"] == 1 for e in entered)

    def test_agent_attends_at_most_one_room(self, scenario_dir):
        scenario = load_scenario_file(scenario_dir / "concurrent_rooms.yaml")
        sim = Simulation(scenario)
        for _ in range(sim.ticks + 1):
            sim.step()
            rooms_by_agent: dict[int, list[int]] = {}
            for room_id, room in sim.rooms.items():
                for aid in room.attendee_ids():
                    rooms_by_agent.setdefault(aid, []).append(room_id)
            assert all(len(rooms) == 1 for rooms in rooms_by_agent.values())


def room_opening(room_id: int, at: int, groups: list[int], priority: int | None = None) -> dict:
    entry = {
        "action": "open",
        "at": at,
        "agenda": {
            "issues": [0, 1],
            "admission": {"kind": "conditions", "groups": groups},
            "protocol": "main",
        },
    }
    if priority is not None:
        entry["priority"] = priority
    return {"id": room_id, "schedule": [entry]}


class TestScanSkip:
    """A watching agent skips its scan until a room opens; the log does not change."""

    @staticmethod
    def artifacts(scenario, out_dir, **kwargs) -> list[bytes]:
        run(scenario, out_dir=out_dir, **kwargs)
        return [
            (out_dir / "rep_000" / name).read_bytes()
            for name in ("events.log", "summary.csv", "population.csv")
        ]

    def assert_same_as_scanning_every_room(self, scenario, tmp_path, monkeypatch, **kwargs):
        skipping = self.artifacts(scenario, tmp_path / "skipping", **kwargs)
        oracle = counting(scan_every_room)
        with monkeypatch.context() as patched:
            patched.setattr(Simulation, "_exec_agent_scan", oracle)
            scanning = self.artifacts(scenario, tmp_path / "scanning", **kwargs)
        assert oracle.calls > 0, "the patched scan never ran"
        assert skipping == scanning

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_bundled_logs_equal_every_room_scans(self, name, seed, tmp_path, monkeypatch):
        scenario = load_scenario_file(SCENARIO_DIR / name)
        self.assert_same_as_scanning_every_room(scenario, tmp_path, monkeypatch, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_room_churn_logs_equal_every_room_scans(self, seed, tmp_path, monkeypatch):
        (path,) = benchmark_module("workloads").write_inputs("room_churn", seed, tmp_path / "inputs")
        scenario = load_scenario_file(path)
        self.assert_same_as_scanning_every_room(scenario, tmp_path, monkeypatch)

    @pytest.mark.parametrize(
        ("at", "priority"), [(1, 50), (2, None)], ids=["same_tick_lower_band", "next_tick"]
    )
    def test_second_scan_checks_nothing_and_later_room_is_entered(
        self, minimal_doc, monkeypatch, tmp_path, at, priority
    ):
        # Rooms 0 and 1 open at tick 1 for group 0 only, so outsider agent 2
        # scans twice in that tick and is admitted nowhere; room 2 opens
        # later for group 1.
        minimal_doc["groups"].append(
            {"id": 1, "name": "outsiders", "member_count": 1, "bounds": [[0.0, 1.0]]}
        )
        minimal_doc["rooms"] = [
            room_opening(0, 1, [0]),
            room_opening(1, 1, [0]),
            room_opening(2, at, [1], priority),
        ]
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario)
        calls = []
        check_admission = MeetingRoom.check_admission

        def counted(room, agent, *args):
            calls.append((sim.now, agent.id, room.id))
            return check_admission(room, agent, *args)

        with monkeypatch.context() as patched:
            patched.setattr(MeetingRoom, "check_admission", counted)
            sim.run()
        scans = [
            e.data["watchee"]
            for e in sim.events
            if e.kind == "watcher_fired" and e.data["watcher"] == 2 and e.tick == 1
        ]
        assert scans[:2] == [0, 1]
        assert [c for c in calls if c[1] == 2] == [
            (1, 2, 0), (1, 2, 1), (at, 2, 0), (at, 2, 1), (at, 2, 2)
        ]
        assert [(e.tick, e.data["room"]) for e in sim.events if e.kind == "agent_entered"
                and e.data["agent"] == 2] == [(at, 2)]
        self.assert_same_as_scanning_every_room(scenario, tmp_path, monkeypatch)


class TestScanCoalescing:
    """Artifacts equal those of one queued action per fire, duplicate scans included."""

    @staticmethod
    def artifacts(scenario, out_dir, **kwargs) -> list[bytes]:
        """Every replication's events.log, summary.csv and population.csv."""
        run(scenario, out_dir=out_dir, **kwargs)
        return [path.read_bytes() for path in sorted(out_dir.glob("rep_*/*"))]

    def assert_same_as_queueing_every_scan(self, scenario, out_dir, **kwargs):
        queued = self.artifacts(scenario, out_dir / "scheduler", **kwargs)
        oracle = counting(notify_one_action_per_fire)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(Scheduler, "notify_state_change", oracle)
            reference = self.artifacts(scenario, out_dir / "reference", **kwargs)
        # Each room opening is reported to the scheduler, so the patch ran
        # at least once per opening.
        openings = sum(artifact.count(b'"kind":"room_opened"') for artifact in reference)
        assert oracle.calls >= openings, "the patched notification did not run"
        assert len(queued) == 3 * kwargs.get("replications", 1)
        assert queued == reference

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_bundled_scenarios(self, name, seed, tmp_path):
        scenario = load_scenario_file(SCENARIO_DIR / name)
        self.assert_same_as_queueing_every_scan(scenario, tmp_path, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("workload", ["town_hall", "room_churn"])
    def test_benchmark_workloads(self, workload, seed, tmp_path):
        (path,) = benchmark_module("workloads").write_inputs(workload, seed, tmp_path / "inputs")
        self.assert_same_as_queueing_every_scan(load_scenario_file(path), tmp_path)

    @staticmethod
    def executed_scans(sim: Simulation) -> list[tuple[int, int]]:
        """Run ``sim``; the (tick, agent) of every agent scan executed."""
        scans = []
        execute = sim.scheduler.executor

        def counting(action):
            if action.kind is ActionKind.AGENT_SCAN:
                scans.append((sim.now, action.target))
            execute(action)

        sim.scheduler.executor = counting
        sim.run()
        return scans

    def test_close_in_the_band_between_openings(self, minimal_doc, tmp_path):
        # Both agents enter room 0, a same-band room_close between the two
        # openings' scans releases them, and the second scans seat them in
        # room 1; merging across the close would leave them idle.
        minimal_doc["rooms"] = [room_opening(0, 1, [0]), room_opening(1, 1, [0])]
        minimal_doc["watchers"].append(
            {
                "watcher": {"kind": "meeting_room", "id": 0},
                "watchee": {"kind": "meeting_room", "id": 0},
                "trigger": {"watchee.state": "open"},
                "reaction": {"kind": "room_close", "target": "watchee", "when": "same_tick"},
            }
        )
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario)
        assert self.executed_scans(sim) == [(1, 0), (1, 1), (1, 0), (1, 1)]
        assert [(e.data["agent"], e.data["room"]) for e in sim.events
                if e.kind == "agent_entered"] == [(0, 0), (1, 0), (0, 1), (1, 1)]
        self.assert_same_as_queueing_every_scan(scenario, tmp_path)

    @staticmethod
    def watching_doc() -> dict:
        """Two groups of 2 and 3 agents; at seed 2 some fail admission to room 0 and watch."""
        doc = two_group_doc()
        doc["criteria"] = [
            {"id": 0, "name": "a", "direction": "benefit"},
            {"id": 1, "name": "b", "direction": "benefit"},
        ]
        doc["issues"] = [
            {"id": 0, "name": "left", "scores": [1.0, 0.0]},
            {"id": 1, "name": "right", "scores": [0.0, 1.0]},
        ]
        for group in doc["groups"]:
            group["bounds"] = [[0.0, 1.0], [0.0, 1.0]]
        agenda = doc["rooms"][0]["schedule"][0]["agenda"]
        agenda["issues"] = [0]
        agenda["admission"]["threshold"] = 0.45
        return doc

    @pytest.mark.parametrize(
        ("rule", "expected"),
        [
            ({}, {(ObjectKind.MEETING_ROOM, 5)}),
            (
                {"watcher": {"kind": "agent"}, "watchee": {"kind": "agent"},
                 "trigger": {"watchee.state": "watching"}},
                {(ObjectKind.AGENT, 5)},
            ),
            (
                {"watcher": {"kind": "agent", "group_id": 1},
                 "watchee": {"kind": "agent", "group_id": 0},
                 "trigger": {"watchee.state": "idle"}},
                {(ObjectKind.AGENT, 3)},
            ),
            (
                {"watcher": {"kind": "agent", "id": 4}, "watchee": {"kind": "agent", "id": 0},
                 "trigger": {"watchee.state": "in_room"}},
                {(ObjectKind.AGENT, 1)},
            ),
            (
                {"watcher": {}, "watchee": {}, "trigger": {"watchee.state": "watching"},
                 "reaction": {"kind": "report"}},
                {(ObjectKind.AGENT, 6)},
            ),
            (
                {"watcher": {}, "watchee": {}, "trigger": {"watchee.state": "open"},
                 "reaction": {"kind": "report"}},
                {(ObjectKind.MEETING_ROOM, 6)},
            ),
            (
                {"watcher": {"state": "open"}, "watchee": {"kind": "agent"},
                 "trigger": {"watchee.state": "watching"}, "reaction": {"kind": "report"}},
                {(ObjectKind.AGENT, 1)},
            ),
        ],
    )
    def test_agent_watch_rules(self, rule, expected, tmp_path):
        """Rule 1, beside the scan-on-open rule, is one push per watchee, and logs as the reference.

        ``expected`` is the set of (watchee kind, width) of rule 1's pushes.
        """
        doc = self.watching_doc()
        doc["watchers"].append(dict(doc["watchers"][0], **rule))
        scenario = load_scenario(doc)
        pushes = run_counting_pushes(Simulation(scenario, seed=2))
        assert {(cause[1], width) for _, cause, width in pushes if cause[0] == 1} == expected
        self.assert_same_as_queueing_every_scan(scenario, tmp_path, seed=2)

    @given(
        doc=st.sampled_from(COMBINATIONS).flatmap(lambda combo: scenario_docs(*combo)),
        reps=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_drawn_scenarios(self, doc, reps):
        with tempfile.TemporaryDirectory() as out_dir:
            self.assert_same_as_queueing_every_scan(
                load_scenario(doc), Path(out_dir), replications=reps
            )


class TestInvitations:
    def test_invitations_reach_exactly_the_listed_agents(self, minimal_doc):
        minimal_doc["groups"][0]["member_count"] = 5
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [1, 3],
        }
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        invited = [e["agent"] for e in events_of(sim, "invitation_sent")]
        assert invited == [1, 3]
        entered = [e["agent"] for e in events_of(sim, "agent_entered")]
        assert entered == [1, 3]

    def test_invitations_are_sent_in_id_order(self, minimal_doc):
        minimal_doc["groups"][0]["member_count"] = 5
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [4, 0, 2],
        }
        sim = Simulation(load_scenario(minimal_doc), seed=5)
        sim.run()
        assert [e["agent"] for e in events_of(sim, "invitation_sent")] == [0, 2, 4]
        assert [e["agent"] for e in events_of(sim, "agent_entered")] == [0, 2, 4]

    def test_uninvited_agent_never_enters(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [1],
        }
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        assert [e["agent"] for e in events_of(sim, "agent_entered")] == [1]
        # Lone invitee cannot reach quorum; the room closes without a session.
        assert [e.data["reason"] for e in sim.events if e.kind == "session_end"] == ["no_quorum"]

    def test_each_room_invite_run_pushes_the_invitee_scan_again(self, minimal_doc):
        # A rule sends room 0 one room_invite per watching agent when it
        # opens, and the engine sends its own: six runs, each pushing one
        # scan follow-up for invitee 1, so that cause's count grows with
        # the watchers.
        minimal_doc["groups"][0]["member_count"] = 5
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [1],
        }
        minimal_doc["watchers"] = [
            {
                "watcher": {"kind": "agent"},
                "watchee": {"kind": "meeting_room"},
                "trigger": {"watchee.state": "open"},
                "reaction": {"kind": "room_invite", "target": "watchee", "when": "same_tick"},
            }
        ]
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.scheduler.cascade_cap = 6
        sim.run()
        assert [e["agent"] for e in events_of(sim, "invitation_sent")] == [1] * 6
        assert [e["agent"] for e in events_of(sim, "agent_entered")] == [1]
        sim = Simulation(scenario, seed=5)
        sim.scheduler.cascade_cap = 5
        with pytest.raises(CascadeOverflowError) as exc:
            sim.run()
        assert str(exc.value) == (
            "more than 5 reactions from one cause (the cascade cap) in tick 1; "
            "the reaction over the cap was an engine follow-up agent_scan on 1"
        )


def opposed_doc(doc: dict) -> dict:
    """Two one-member groups that each value only their own issue, so both issues are rejected."""
    doc["criteria"] = [
        {"id": 0, "name": "x", "direction": "benefit"},
        {"id": 1, "name": "y", "direction": "benefit"},
    ]
    doc["issues"] = [
        {"id": 0, "name": "mine", "scores": [1.0, 0.0]},
        {"id": 1, "name": "yours", "scores": [0.0, 1.0]},
    ]
    doc["groups"] = [
        {"id": 0, "name": "xs", "member_count": 1, "bounds": [[1.0, 1.0], [0.0, 0.0]]},
        {"id": 1, "name": "ys", "member_count": 1, "bounds": [[0.0, 0.0], [1.0, 1.0]]},
    ]
    return doc


def agreeing_doc(doc: dict) -> dict:
    """Members that weigh two criteria differently; a one-round deadline accepts any issue."""
    doc["protocols"][0]["max_rounds"] = 1
    doc["criteria"].append({"id": 1, "name": "speed", "direction": "benefit"})
    doc["issues"] = [
        {"id": 0, "name": "left", "scores": [0.8, 0.2]},
        {"id": 1, "name": "right", "scores": [0.3, 0.7]},
    ]
    doc["groups"][0]["bounds"] = [[0.2, 0.9], [0.1, 0.8]]
    return doc


def lone_invitee_doc(doc: dict) -> dict:
    doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {"kind": "invitations", "agents": [1]}
    return doc


def closed_at(tick: int, edit=lambda doc: doc):
    def edited(doc: dict) -> dict:
        edit(doc)["rooms"][0]["schedule"].append({"action": "close", "at": tick})
        return doc

    return edited


def ended(status: str, reason: str | None, rounds: int, participants: list, ticks: int) -> dict:
    """The data of room 0's first session_end, with the zero payoffs of any ending but agreement."""
    return {
        "room": 0,
        "session": 0,
        "status": status,
        "reason": reason,
        "issue": None,
        "rounds": rounds,
        "participants": participants,
        "utilities": [0.0] * len(participants),
        "ticks_spanned": ticks,
    }


# How an opening can end: (scenario edit, its session_end data, the tick it is logged at).
# The session in the cases that start one starts at tick 2.
OPENING_ENDS = {
    "agreement": (agreeing_doc, ended("agreed", None, 1, [0, 1], 1), 2),
    "no_agreement": (opposed_doc, ended("failed", "no_agreement", 2, [0, 1], 2), 3),
    "no_quorum": (lone_invitee_doc, ended("failed", "no_quorum", 0, [1], 1), 2),
    "open_room_closed": (closed_at(1), ended("failed", "forced_close", 0, [0, 1], 1), 1),
    "session_closed": (
        closed_at(3, opposed_doc), ended("failed", "forced_close", 1, [0, 1], 3 - 2 + 1), 3
    ),
}


class TestLifecycleFromSchedule:
    @pytest.mark.parametrize("how", list(OPENING_ENDS))
    def test_session_end_records_how_the_opening_ended(self, how, minimal_doc):
        edit, expected, tick = OPENING_ENDS[how]
        expected = dict(expected)
        scenario = load_scenario(edit(minimal_doc))
        sim = Simulation(scenario, seed=5)
        sim.run()
        (end,) = [e for e in sim.events if e.kind == "session_end"]
        if how == "agreement":
            # The welfare argmax; only an agreement pays, each participant its own utility.
            agents = [sim.agents[p] for p in expected["participants"]]
            welfare = {i.id: sum(evaluate(a, i) for a in agents) for i in scenario.issues}
            issue = min(welfare, key=lambda i: (-welfare[i], i))
            expected["issue"] = issue
            expected["utilities"] = [evaluate(a, scenario.issues[issue]) for a in agents]
            assert expected["utilities"][0] != expected["utilities"][1]
        assert (end.tick, end.data) == (tick, expected)
        started = [e.tick for e in sim.events if e.kind == "session_started"]
        assert started == ([] if expected["rounds"] == 0 else [2])

    def test_no_quorum_when_nobody_is_admitted(self, minimal_doc):
        minimal_doc["watchers"] = []
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        quorum = events_of(sim, "session_no_quorum")
        assert len(quorum) == 1
        assert quorum[0]["attendees"] == []
        assert [e["reason"] for e in events_of(sim, "session_end")] == ["no_quorum"]

    def test_forced_close_fails_running_session(self, minimal_doc):
        # Opposing degenerate-bounds groups keep rejecting each other's
        # favorite, so the session is still active when the close fires.
        opposed_doc(minimal_doc)["protocols"][0]["max_rounds"] = 50
        minimal_doc["rooms"][0]["schedule"].append({"action": "close", "at": 3})
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        ends = events_of(sim, "session_end")
        assert len(ends) == 1
        assert ends[0]["reason"] == "forced_close"
        assert sim.rooms[0].room_state.value == "closed"

    def test_scheduled_close_on_closed_room_is_skipped(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"].append({"action": "close", "at": 7})
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        assert len(events_of(sim, "room_close_skipped")) == 1

    def test_room_reopens_and_sessions_accumulate(self, minimal_doc):
        first_open = minimal_doc["rooms"][0]["schedule"][0]
        second_open = copy.deepcopy(first_open)
        second_open["at"] = 5
        minimal_doc["rooms"][0]["schedule"].append(second_open)
        minimal_doc["ticks"] = 10
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=5)
        sim.run()
        assert [e["session"] for e in events_of(sim, "session_end")] == [0, 1]
        assert [e["sessions"] for e in events_of(sim, "room_closed")] == [1, 2]

    def test_open_of_a_room_in_session_is_skipped(self, scenario_dir):
        doc = yaml.safe_load((scenario_dir / "concurrent_rooms.yaml").read_text())
        first_open = doc["rooms"][0]["schedule"][0]
        second_open = copy.deepcopy(first_open)
        second_open["at"] = 3
        doc["rooms"][0]["schedule"].append(second_open)
        sim = Simulation(load_scenario(doc))
        sim.run()
        assert sim.now == sim.ticks + 1
        skipped = [e for e in sim.events if e.kind == "room_open_skipped"]
        assert [(e.tick, e.data) for e in skipped] == [(3, {"room": 0, "state": "in_session"})]
        assert len(events_of(sim, "room_opened")) == 3
        assert sorted(e["room"] for e in events_of(sim, "room_closed")) == [0, 1, 2]


class TestPhaseNotifications:
    """Every agent notification names the phase the agent last had.

    At session start and at close the engine derives the attendees' old
    phase from the room state; a shadow of each agent's phase checks it.
    """

    @staticmethod
    def assert_old_phase_is_last_phase(
        scenario, monkeypatch, seed=1, old_phases=(AgentPhase.IN_ROOM, AgentPhase.NEGOTIATING)
    ):
        sim = Simulation(scenario, seed=seed)
        last = {aid: agent.phase for aid, agent in sim.agents.items()}
        notify = Simulation._notify_agent
        seen = set()

        def checked(self, agent, old_phase):
            assert old_phase is last[agent.id], (self.now, agent.id)
            last[agent.id] = agent.phase
            seen.add(old_phase)
            notify(self, agent, old_phase)

        with monkeypatch.context() as patched:
            patched.setattr(Simulation, "_notify_agent", checked)
            sim.run()
        assert last == {aid: agent.phase for aid, agent in sim.agents.items()}
        assert set(old_phases) <= seen

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_bundled_scenarios(self, name, monkeypatch):
        scenario = load_scenario_file(SCENARIO_DIR / name)
        self.assert_old_phase_is_last_phase(scenario, monkeypatch)

    def test_room_churn(self, tmp_path, monkeypatch):
        (path,) = benchmark_module("workloads").write_inputs("room_churn", 1, tmp_path)
        self.assert_old_phase_is_last_phase(load_scenario_file(path), monkeypatch)

    def test_room_closed_open_for_no_quorum(self, minimal_doc, monkeypatch):
        # A lone invitee sits IN_ROOM when its room closes without a session.
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [1],
        }
        self.assert_old_phase_is_last_phase(
            load_scenario(minimal_doc), monkeypatch, seed=5, old_phases={AgentPhase.IN_ROOM}
        )


class TestArtifacts:
    def test_written_files_roundtrip(self, minimal_doc, tmp_path):
        # The streamed log is checked against the buffer of a run held in
        # memory, not against itself read back.
        scenario = load_scenario(minimal_doc)
        artifacts = run(scenario, out_dir=tmp_path)[0]
        (in_memory,) = run(scenario)
        rep = tmp_path / "rep_000"
        assert artifacts.out_dir == rep
        assert (rep / "summary.csv").exists()
        assert (rep / "population.csv").exists()
        assert (rep / "events.log").read_bytes() == in_memory.events.text().encode("ascii")
        assert list(read_event_log(rep / "events.log")) == list(in_memory.events)

    def test_simulation_built_with_an_on_disk_log_has_written_its_set_up_records(
        self, scenario_dir, tmp_path
    ):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        path = tmp_path / "events.log"
        with open(path, "w", encoding="utf-8") as file:
            sim = Simulation(scenario, events=EventLog(file, path))
            assert len(sim.events) == 1 + len(scenario.groups)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        (in_memory,) = run(scenario)
        assert lines == in_memory.events.text().splitlines(keepends=True)[: len(lines)]
        assert [parse_event_line(line).kind for line in lines] == (
            ["scenario_loaded"] + ["population_spawned"] * len(scenario.groups)
        )

    def test_on_disk_result_keeps_counts_and_summary(self, scenario_dir, tmp_path):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        (on_disk,) = run(scenario, out_dir=tmp_path)
        (in_memory,) = run(scenario)
        assert on_disk.events.path == tmp_path / "rep_000" / "events.log"
        assert len(on_disk.events) == len(in_memory.events)
        assert list(on_disk.events) == list(in_memory.events)
        assert on_disk.summary == in_memory.summary
        assert on_disk.population == []

    def test_iterating_an_on_disk_log_does_not_grow_with_the_log(self, tmp_path):
        def peak_bytes(lines):
            # Written and detached as ``run`` leaves an on-disk replication.
            path = tmp_path / f"{lines}.log"
            with open(path, "w", encoding="utf-8") as file:
                log = EventLog(file, path)
                for n in range(lines):
                    data = {"accept": n % 3 == 0, "agent": n, "room": 2, "round": n // 100}
                    log.append(EventRecord(n // 1000, 50, "vote", data))
            log.detach()
            artifacts = runner.RunArtifacts(seed=0, events=log, summary=[], population=[])
            tracemalloc.start()
            try:
                assert sum(1 for _ in artifacts.events) == lines
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(20_000) <= 1.5 * peak_bytes(2_000)

    def test_write_artifacts_of_a_run_in_memory_equals_streamed_files(
        self, scenario_dir, tmp_path
    ):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        run(scenario, out_dir=tmp_path / "streamed")
        (in_memory,) = run(scenario)
        written = runner.write_artifacts(in_memory, tmp_path / "written")
        for name in ("events.log", "summary.csv", "population.csv"):
            assert (written / name).read_bytes() == (
                tmp_path / "streamed" / "rep_000" / name
            ).read_bytes()

    def test_population_csv_lists_all_agents(self, minimal_doc, tmp_path):
        scenario = load_scenario(minimal_doc)
        run(scenario, out_dir=tmp_path)
        lines = (tmp_path / "rep_000" / "population.csv").read_text().splitlines()
        assert lines[0] == "agent_id,group_id,w0"
        assert len(lines) == 1 + scenario.total_agents

    def test_population_rows_match_agents(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        sim = Simulation(scenario, seed=9)
        sim.run()
        rows = population_rows(sim)
        assert [r.agent_id for r in rows] == [0, 1]
        assert all(abs(sum(r.weights) - 1.0) <= 1e-9 for r in rows)

    def test_unwritable_output_path_raises(self, minimal_doc, tmp_path):
        from mnegoti.errors import CascadeOverflowError, OutputError

        blocker = tmp_path / "file"
        blocker.write_text("x")
        scenario = load_scenario(minimal_doc)
        with pytest.raises(OutputError):
            run(scenario, out_dir=blocker / "nested")

    def test_summary_csv_has_fixed_header(self, minimal_doc, tmp_path):
        scenario = load_scenario(minimal_doc)
        run(scenario, out_dir=tmp_path)
        first_line = (tmp_path / "rep_000" / "summary.csv").read_text().splitlines()[0]
        assert first_line == "room_id,session,status,issue_id,rounds,welfare,min_utility,nash_product"

    @staticmethod
    def two_rounds_per_tick(doc: dict) -> dict:
        """Two rooms of one opposed pair each, running two rounds a tick.

        Room 0's mediated session rejects both issues and ends on the second
        round of tick 2; room 1's concession session is forced closed at
        tick 3, after round 2 of its 8.
        """
        doc["protocols"] = [
            {"id": "main", "kind": "mediated_single_text", "max_rounds": 4, "rounds_per_tick": 2},
            {"id": "long", "kind": "monotonic_concession", "max_rounds": 8, "rounds_per_tick": 2},
        ]
        doc["criteria"] = [
            {"id": 0, "name": "x", "direction": "benefit"},
            {"id": 1, "name": "y", "direction": "benefit"},
        ]
        doc["issues"] = [
            {"id": 0, "name": "mine", "scores": [1.0, 0.0]},
            {"id": 1, "name": "yours", "scores": [0.0, 1.0]},
        ]
        doc["groups"] = [
            {"id": g, "name": f"g{g}", "member_count": 1, "bounds": bounds}
            for g, bounds in enumerate([[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]]] * 2)
        ]
        doc["rooms"] = [room_opening(0, 1, [0, 1]), room_opening(1, 1, [2, 3])]
        doc["rooms"][1]["schedule"][0]["agenda"]["protocol"] = "long"
        doc["rooms"][1]["schedule"].append({"action": "close", "at": 3})
        return doc

    # The round-block kinds each case must log: protection_strategies logs
    # every kind of a round and of an agent scan, supply_chain the only
    # elimination rounds.
    ENCODING_CASES = {
        "concurrent_rooms": {"offer", "vote", "candidate_rejected", "agreement"},
        "protection_strategies": {
            "watcher_fired", "offer", "vote", "acceptable_published", "agent_entered",
            "agent_watching", "candidate_rejected", "agreement",
        },
        "supply_chain": {"offer", "issue_eliminated", "agreement"},
        "two_rounds_per_tick": {"offer", "vote", "acceptable_published", "candidate_rejected"},
    }

    @pytest.mark.parametrize("case", sorted(ENCODING_CASES))
    def test_written_log_equals_reference_encoding(self, case, minimal_doc, tmp_path):
        if case == "two_rounds_per_tick":
            scenario = load_scenario(self.two_rounds_per_tick(minimal_doc))
        else:
            scenario = load_scenario_file(SCENARIO_DIR / f"{case}.yaml")
        run(scenario, out_dir=tmp_path)
        (in_memory,) = run(scenario)
        assert self.ENCODING_CASES[case] <= {e.kind for e in in_memory.events}
        if case == "two_rounds_per_tick":
            ends = [(e.tick, e.data["reason"], e.data["rounds"])
                    for e in in_memory.events if e.kind == "session_end"]
            assert ends == [(2, "no_agreement", 2), (3, "forced_close", 2)]
        assert_reference_log(in_memory.events, tmp_path / "rep_000" / "events.log")

    def test_fan_out_of_several_rules_equals_reference_encoding(self, minimal_doc, tmp_path):
        # One opening fires a same-tick scan, a next-tick scan in a set band,
        # an invitation aimed at the watchee by one group only, and a
        # room-watches-room rule; agents turning watching fire a fifth rule.
        # Every bundled scenario has a single rule.
        minimal_doc["groups"] = [
            {"id": g, "name": f"g{g}", "member_count": 4, "bounds": [[0.1 * g, 0.1 * g + 0.5]]}
            for g in range(3)
        ]
        minimal_doc["rooms"] = [
            room_opening(0, 1, [0]),
            room_opening(1, 1, [1], priority=120),
            room_opening(3, 3, [0, 1, 2]),
        ]
        invited = room_opening(2, 2, [])
        invited["schedule"][0]["agenda"]["admission"] = {"kind": "invitations", "agents": [8, 9]}
        minimal_doc["rooms"].insert(2, invited)
        opened = {"watchee": {"kind": "meeting_room"}, "trigger": {"watchee.state": "open"}}
        minimal_doc["watchers"] += [
            {
                **opened,
                "watcher": {"kind": "agent"},
                "reaction": {"kind": "agent_scan", "when": "next_tick", "priority": 7},
            },
            {
                **opened,
                "watcher": {"kind": "agent", "group_id": 2},
                "reaction": {"kind": "room_invite", "target": "watchee"},
            },
            {
                **opened,
                "watcher": {"kind": "meeting_room"},
                "reaction": {"kind": "room_invite", "when": "next_tick"},
            },
            {
                "watcher": {"kind": "agent", "group_id": 0},
                "watchee": {"kind": "agent"},
                "trigger": {"watchee.state": "watching"},
                "reaction": {"kind": "agent_scan", "target": "watchee", "when": "next_tick"},
            },
        ]
        scenario = load_scenario(minimal_doc)
        (in_memory,) = run(scenario)
        rules_by_change: dict[tuple, set[int]] = {}
        for e in in_memory.events:
            if e.kind == "watcher_fired":
                change = (e.tick, e.priority, e.data["watchee_kind"], e.data["watchee"])
                rules_by_change.setdefault(change, set()).add(e.data["rule"])
        assert max(len(rules) for rules in rules_by_change.values()) == 4
        assert {r for rules in rules_by_change.values() for r in rules} == set(range(5))
        run(scenario, out_dir=tmp_path)
        assert_reference_log(in_memory.events, tmp_path / "rep_000" / "events.log")


class TestPinnedLogLines:
    """Every line of the pinned runs is the reference encoding of its own parse.

    The golden digests pin the bytes of these logs; this pins the rule that
    made them, line by line: each line equals
    ``reference_line(parse_event_line(line))``.
    """

    @staticmethod
    def assert_lines_are_reference(logs: list[Path]) -> None:
        assert logs
        for log in logs:
            lines = log.read_text(encoding="utf-8").splitlines()
            assert lines
            for line in lines:
                assert line == reference_line(parse_event_line(line)), line

    @pytest.mark.parametrize(("name", "seed"), sorted(GOLDEN))
    def test_golden_scenario(self, name, seed, tmp_path):
        run(load_scenario_file(SCENARIO_DIR / name), seed=seed, out_dir=tmp_path)
        self.assert_lines_are_reference([tmp_path / "rep_000" / "events.log"])

    @pytest.mark.parametrize(("workload", "seed"), sorted(WORKLOAD_EVENTS_LOG))
    def test_pinned_workload(self, workload, seed, tmp_path):
        workloads = benchmark_module("workloads")
        replications = workloads.SWEEP_REPLICATIONS if workload == "sweep" else 1
        for path in workloads.write_inputs(workload, seed, tmp_path / "inputs"):
            run(load_scenario_file(path), replications=replications,
                out_dir=tmp_path / "artifacts" / path.stem)
        self.assert_lines_are_reference(sorted(tmp_path.glob("artifacts/*/rep_*/events.log")))


class StopReplication(Exception):
    """Raised by a patched ``Simulation.step`` to fail one replication midway."""


class TestRewriteInPlace:
    """A run into an out dir that holds files rewrites them in place, or leaves no trace."""

    @staticmethod
    def files(directory: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_shorter_run_leaves_no_stale_tail(self, minimal_doc, tmp_path):
        scenario = load_scenario(minimal_doc)
        out = tmp_path / "out"
        run(scenario, replications=3, out_dir=out)
        longer = self.files(out / "rep_000")
        run(scenario, out_dir=out, ticks=1)
        run(scenario, out_dir=tmp_path / "fresh", ticks=1)
        rewritten = self.files(out / "rep_000")
        assert rewritten == self.files(tmp_path / "fresh" / "rep_000")
        assert len(rewritten["events.log"]) < len(longer["events.log"])
        assert len(rewritten["summary.csv"]) < len(longer["summary.csv"])
        assert sorted(p.name for p in out.iterdir()) == ["rep_000", "rep_001", "rep_002"]

    @staticmethod
    def fail_at(monkeypatch, seed: int, tick: int) -> None:
        """Make the replication of ``seed`` raise once ``tick`` has run."""
        step = Simulation.step

        def failing(sim):
            step(sim)
            if sim.seed == seed and sim.now > tick:
                raise StopReplication(seed)

        monkeypatch.setattr(Simulation, "step", failing)

    def test_failed_run_removes_only_the_directories_it_wrote(
        self, minimal_doc, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        for name in ("rep_000", "rep_001", "rep_003"):
            (out / name).mkdir(parents=True)
            (out / name / "events.log").write_text(f"{name}\n")
        (out / "notes.txt").write_text("kept\n")
        self.fail_at(monkeypatch, seed=12, tick=2)
        with pytest.raises(StopReplication):
            run(load_scenario(minimal_doc), seed=10, replications=3, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "rep_003"]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert self.files(out / "rep_003") == {"events.log": b"rep_003\n"}

    def test_unwritable_log_raises_output_error(self, minimal_doc, tmp_path):
        out = tmp_path / "out"
        (out / "rep_001" / "events.log").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        with pytest.raises(OutputError, match="rep_001"):
            run(load_scenario(minimal_doc), replications=2, out_dir=out)
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_failed_run_removes_the_parents_it_created(self, minimal_doc, tmp_path, monkeypatch):
        self.fail_at(monkeypatch, seed=11, tick=2)
        with pytest.raises(StopReplication):
            run(load_scenario(minimal_doc), seed=10, replications=2,
                out_dir=tmp_path / "new" / "nested" / "out")
        assert list(tmp_path.iterdir()) == []


class TestReplicationMemory:
    """A finished on-disk replication leaves only counts and summary rows behind."""

    @staticmethod
    def rooms_of_300_agents():
        # concurrent_rooms.yaml with 100 agents in each of its three groups.
        doc = yaml.safe_load((SCENARIO_DIR / "concurrent_rooms.yaml").read_text())
        for group in doc["groups"]:
            group["member_count"] = 100
        return load_scenario(doc)

    @staticmethod
    def peak_above_start(scenario, replications: int, out_dir: Path) -> int:
        """tracemalloc's peak over one run, above the memory traced when it starts."""
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(scenario, replications=replications, out_dir=out_dir)
        return tracemalloc.get_traced_memory()[1] - start

    def test_eight_replications_peak_as_one(self, tmp_path):
        """With the cyclic collector off, a replication is freed only if
        reference counting frees it, so a kept ``Simulation`` or record list
        shows.

        The interpreter keeps freed tuples, dicts and lists on free lists,
        which stay traced. A traced two-replication warm-up fills them, so
        both peaks measure replications, not the free lists' fixed size.
        """
        scenario = self.rooms_of_300_agents()
        run(scenario, out_dir=tmp_path / "warm")  # first-use allocations
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            run(scenario, replications=2, out_dir=tmp_path / "traced_warm")
            one = self.peak_above_start(scenario, 1, tmp_path / "one")
            eight = self.peak_above_start(scenario, 8, tmp_path / "eight")
        finally:
            tracemalloc.stop()
            gc.enable()
        assert eight <= 1.1 * one, (one, eight)

    def test_finished_simulation_is_freed_without_a_collection(self, minimal_doc, tmp_path,
                                                               monkeypatch):
        built = []

        def construct(*args, **kwargs):
            sim = Simulation(*args, **kwargs)
            built.append(weakref.ref(sim))
            return sim

        monkeypatch.setattr(runner, "Simulation", construct)
        gc.disable()
        try:
            run(load_scenario(minimal_doc), replications=2, out_dir=tmp_path)
            assert [ref() for ref in built] == [None, None]
        finally:
            gc.enable()


INTS = st.integers(min_value=-(2**63), max_value=2**63)
IDS = st.integers(min_value=0, max_value=2**63)
ID_LISTS = st.one_of(st.just([]), st.lists(IDS, max_size=20))
OPTIONAL_ISSUE = st.one_of(st.none(), IDS)
UTILITIES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2]), st.floats(0.0, 1.0))
# Scenario-supplied text: quotes, backslashes, control characters and non-ASCII.
SCENARIO_TEXT = st.one_of(
    st.sampled_from(
        ['say "yes"', "back\\slash", "tab\tnul\x00\x1f\x7f", "Zürich ✓ 日本 \U0001f600"]
    ),
    st.text(),
)


def enum_values(enum) -> st.SearchStrategy[str]:
    return st.sampled_from([member.value for member in enum])


# The data each templated kind carries, as the engine logs it.
TEMPLATED_DATA = {
    "agent_entered": st.fixed_dictionaries({"agent": IDS, "room": IDS, "utility": UTILITIES}),
    "agent_watching": st.fixed_dictionaries({"agent": IDS}),
    "scenario_loaded": st.fixed_dictionaries(
        {
            key: IDS
            for key in ("seed", "ticks", "criteria", "issues", "groups", "agents", "rooms")
        }
    ),
    "population_spawned": st.fixed_dictionaries(
        {"group": IDS, "name": SCENARIO_TEXT, "members": ID_LISTS}
    ),
    "room_open_skipped": st.fixed_dictionaries({"room": IDS, "state": enum_values(RoomState)}),
    "room_opened": st.fixed_dictionaries(
        {
            "room": IDS,
            "issues": ID_LISTS,
            "protocol": SCENARIO_TEXT,
            "admission": enum_values(AdmissionKind),
            "deadline_rounds": IDS,
        }
    ),
    "invitation_sent": st.fixed_dictionaries({"room": IDS, "agent": IDS}),
    "session_no_quorum": st.fixed_dictionaries({"room": IDS, "attendees": ID_LISTS}),
    "session_started": st.fixed_dictionaries(
        {
            "room": IDS,
            "participants": ID_LISTS,
            "protocol": enum_values(ProtocolKind),
            "issues": ID_LISTS,
            "deadline_rounds": IDS,
        }
    ),
    "session_end": st.fixed_dictionaries(
        {
            "room": IDS,
            "session": IDS,
            "status": enum_values(SessionStatus),
            "reason": st.one_of(st.none(), enum_values(FailureReason)),
            "issue": OPTIONAL_ISSUE,
            "rounds": IDS,
            "participants": ID_LISTS,
            "utilities": st.lists(UTILITIES, max_size=20),
            "ticks_spanned": IDS,
        }
    ),
    "room_closed": st.fixed_dictionaries({"room": IDS, "sessions": IDS}),
    "room_close_skipped": st.fixed_dictionaries({"room": IDS}),
}


# One rule's run of fires within a state change: rule, reaction, at, band, watchers.
FIRED_RUNS = st.tuples(
    IDS, st.sampled_from(list(ActionKind)), IDS, INTS, st.lists(IDS, min_size=1, max_size=5)
)


# A protocol round as the engine logs it. An elimination round can both
# eliminate an issue and agree on the last one, so each of rejected,
# eliminated and agreed is drawn on its own.
ROUND_BLOCKS = st.builds(
    RoundBlock,
    round=IDS,
    offers=st.lists(st.builds(Offer, st.one_of(st.none(), IDS), IDS), max_size=5),
    votes=st.lists(st.tuples(IDS, st.booleans()), max_size=5),
    published=st.lists(
        st.tuples(IDS, st.one_of(st.just(()), st.lists(IDS, max_size=200).map(tuple))),
        max_size=5,
    ),
    rejected=OPTIONAL_ISSUE,
    eliminated=OPTIONAL_ISSUE,
    agreed=OPTIONAL_ISSUE,
)


class TestEventLine:
    """``event_line`` and the round and fan-out writers against the reference encoding."""

    def test_every_template_is_generated(self):
        assert set(TEMPLATED_DATA) == set(eventlog._TEMPLATES)

    @pytest.mark.parametrize("kind", sorted(TEMPLATED_DATA))
    @given(draw=st.data(), tick=IDS, priority=st.one_of(st.none(), INTS))
    @settings(max_examples=200, deadline=None)
    def test_template_equals_reference(self, kind, draw, tick, priority):
        record = EventRecord(tick, priority, kind, draw.draw(TEMPLATED_DATA[kind]))
        assert event_line(record) == reference_line(record)

    @given(
        tick=IDS,
        priority=st.one_of(st.none(), INTS),
        watchee_kind=st.sampled_from(list(ObjectKind)),
        watchee=IDS,
        runs=st.lists(FIRED_RUNS, min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_fan_out_equals_reference(self, tick, priority, watchee_kind, watchee, runs):
        # One entry per run of fires, as the scheduler queues them.
        fired = []
        for rule, reaction, at, band, watchers in runs:
            entry = ScheduledAction(reaction, start=at, priority=band, seq=0, targets=watchers)
            fired += [FiredReaction(rule, watcher, entry) for watcher in watchers]
        expected = [
            EventRecord(
                tick,
                priority,
                "watcher_fired",
                {
                    "rule": f.rule_id,
                    "watcher": f.watcher_id,
                    "watchee_kind": watchee_kind.value,
                    "watchee": watchee,
                    "reaction": f.action.kind.value,
                    "at": f.action.start,
                    "band": f.action.priority,
                },
            )
            for f in fired
        ]
        log = EventLog()
        log.log_fired(tick, priority, watchee_kind, watchee, fired)
        assert len(log) == len(fired)
        assert log.text() == "".join(reference_line(e) + "\n" for e in expected)

    @given(tick=IDS, band=st.one_of(st.none(), INTS), room=IDS, block=ROUND_BLOCKS)
    @settings(max_examples=200, deadline=None)
    def test_round_equals_reference(self, tick, band, room, block):
        def record(kind, **data):
            return EventRecord(tick, band, kind, {"room": room, "round": block.round, **data})

        expected = [
            record("offer", proposer="mediator" if p is None else p, issue=issue)
            for p, issue in block.offers
        ]
        expected += [record("vote", agent=a, accept=accept) for a, accept in block.votes]
        expected += [
            record("acceptable_published", agent=a, issues=list(issues))
            for a, issues in block.published
        ]
        expected += [
            record(kind, issue=issue)
            for kind, issue in (
                ("candidate_rejected", block.rejected),
                ("issue_eliminated", block.eliminated),
                ("agreement", block.agreed),
            )
            if issue is not None
        ]
        log = EventLog()
        log.log_round(tick, band, room, block)
        assert len(log) == len(expected)
        assert log.text() == "".join(reference_line(e) + "\n" for e in expected)

    def test_long_issue_list(self):
        log = EventLog()
        log.log_round(2, 50, 3, RoundBlock(round=7, published=[(11, tuple(range(500)))]))
        data = {"room": 3, "round": 7, "agent": 11, "issues": list(range(500))}
        assert log.text() == reference_line(EventRecord(2, 50, "acceptable_published", data)) + "\n"

    def test_golden_and_pinned_runs_never_call_the_reference_encoder(self, tmp_path, monkeypatch):
        encode = counting(eventlog._ENCODER.encode)
        monkeypatch.setattr(eventlog._ENCODER, "encode", encode)
        for name, seed in sorted(GOLDEN):
            run(load_scenario_file(SCENARIO_DIR / name), seed=seed, out_dir=tmp_path / name)
        workloads = benchmark_module("workloads")
        for workload, seed in sorted(WORKLOAD_EVENTS_LOG):
            replications = workloads.SWEEP_REPLICATIONS if workload == "sweep" else 1
            for path in workloads.write_inputs(workload, seed, tmp_path / "inputs"):
                run(load_scenario_file(path), replications=replications,
                    out_dir=tmp_path / "artifacts" / path.stem)
        assert encode.calls == 0
        # The patched encoder is the one a kind without a template reaches.
        event_line(EventRecord(0, None, "report", {"sessions_completed": 0}))
        assert encode.calls == 1

    def test_generic_kind_escapes_scenario_text(self):
        data = {"group": 0, "name": 'Zürich "x"\n', "members": [0, 1]}
        record = EventRecord(0, None, "population_spawned", data)
        line = event_line(record)
        assert line == reference_line(record)
        assert line.isascii() and "\\u00fc" in line


class TestTracerNames:
    """``benchmark/tracing.py`` patches program names; each one must still exist."""

    def test_tracer_installs_and_restores(self):
        tracing = benchmark_module("tracing")
        patched = (runner.Simulation, runner.write_artifacts, mnegoti.engine.run_round)
        with tracing.SetupTimer().installed():
            assert runner.Simulation is not patched[0]
        with tracing.Trace().installed():
            assert runner.write_artifacts is not patched[1]
        assert (runner.Simulation, runner.write_artifacts, mnegoti.engine.run_round) == patched

    def test_traced_run_gives_layer_metrics(self, tmp_path):
        # A traced run patches ``Simulation.context.query`` on every
        # simulation, and ``engine.build_same_group_projection`` and
        # ``rooms.evaluate`` on install; losing any of them fails here.
        tracing = benchmark_module("tracing")
        scenario = load_scenario_file(SCENARIO_DIR / "concurrent_rooms.yaml")
        trace = tracing.Trace()
        with trace.installed():
            (artifacts,) = run(scenario, out_dir=tmp_path)
        log_bytes = (artifacts.out_dir / "events.log").stat().st_size
        layers = tracing.layer_metrics(trace, len(artifacts.events), log_bytes, 1)
        assert set(layers) == set(tracing.LAYER_METRICS) - {"trace.wall_s", "trace.overhead"}
        assert layers["context.query_calls"] > 0
        assert layers["model.evaluate_calls"] > 0
        assert layers["engine.actions.agent_scan"] > 0
