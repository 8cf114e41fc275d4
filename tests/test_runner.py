"""End-to-end engine behavior, determinism, metrics, and artifacts."""

from __future__ import annotations

import copy
import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mnegoti.engine
from mnegoti import protocols, rooms, runner

from mnegoti.context import ObjectKind
from mnegoti.engine import EventRecord, Simulation
from mnegoti.model import AgentPhase
from mnegoti.runner import (
    SummaryRow,
    event_line,
    population_rows,
    read_event_log,
    run,
    summarize,
)
from mnegoti.scenario import load_scenario, load_scenario_file
from mnegoti.rooms import MeetingRoom
from mnegoti.scheduler import ActionKind, ScheduledAction

from conftest import SCENARIO_DIR, benchmark_module
from oracles import scan_every_room


def events_of(sim: Simulation, kind: str) -> list[dict]:
    return [e.data for e in sim.events if e.kind == kind]


def log_bytes(events) -> bytes:
    return "".join(event_line(e) + "\n" for e in events).encode()


def reference_line(record: EventRecord) -> str:
    """The events.log encoding that ``event_line`` must reproduce byte for byte."""
    doc = {"tick": record.tick, "priority": record.priority, "kind": record.kind, "data": record.data}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
        assert log_bytes(first.events) == log_bytes(second.events)

    def test_different_seed_differs(self, scenario_dir):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        first = Simulation(scenario, seed=42)
        second = Simulation(scenario, seed=43)
        first.run()
        second.run()
        assert log_bytes(first.events) != log_bytes(second.events)

    def test_replication_seeds_are_base_plus_offset(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        results = run(scenario, seed=100, replications=3)
        assert [a.seed for a in results] == [100, 101, 102]

    def test_replications_are_seed_isolated(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        alone = run(scenario, seed=101, replications=1)[0]
        batched = run(scenario, seed=100, replications=3)[1]
        assert log_bytes(alone.events) == log_bytes(batched.events)

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
        assert len(read) == len(sim.agents) * len(sim.issues)
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
        with monkeypatch.context() as patched:
            patched.setattr(Simulation, "_exec_agent_scan", scan_every_room)
            scanning = self.artifacts(scenario, tmp_path / "scanning", **kwargs)
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


class TestLifecycleFromSchedule:
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
        minimal_doc["protocols"][0]["max_rounds"] = 50
        minimal_doc["criteria"] = [
            {"id": 0, "name": "x", "direction": "benefit"},
            {"id": 1, "name": "y", "direction": "benefit"},
        ]
        minimal_doc["issues"] = [
            {"id": 0, "name": "mine", "scores": [1.0, 0.0]},
            {"id": 1, "name": "yours", "scores": [0.0, 1.0]},
        ]
        minimal_doc["groups"] = [
            {"id": 0, "name": "xs", "member_count": 1, "bounds": [[1.0, 1.0], [0.0, 0.0]]},
            {"id": 1, "name": "ys", "member_count": 1, "bounds": [[0.0, 0.0], [1.0, 1.0]]},
        ]
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
        scenario = load_scenario(minimal_doc)
        artifacts = run(scenario, out_dir=tmp_path)[0]
        rep = tmp_path / "rep_000"
        assert (rep / "events.log").exists()
        assert (rep / "summary.csv").exists()
        assert (rep / "population.csv").exists()
        reread = read_event_log(rep / "events.log")
        assert log_bytes(reread) == log_bytes(artifacts.events)

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
        from mnegoti.errors import OutputError

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

    def test_written_log_equals_reference_encoding(self, scenario_dir, tmp_path):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        artifacts = run(scenario, out_dir=tmp_path)[0]
        assert set(runner._TEMPLATES) <= {e.kind for e in artifacts.events}
        expected = "".join(reference_line(e) + "\n" for e in artifacts.events)
        assert (tmp_path / "rep_000" / "events.log").read_bytes() == expected.encode("ascii")


INTS = st.integers(min_value=-(2**63), max_value=2**63)
IDS = st.integers(min_value=0, max_value=2**63)
UTILITIES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2]), st.floats(0.0, 1.0))

# The data each templated kind carries, as the engine logs it.
TEMPLATED_DATA = {
    "watcher_fired": st.fixed_dictionaries(
        {
            "rule": IDS,
            "watcher": IDS,
            "watchee_kind": st.sampled_from([k.value for k in ObjectKind]),
            "watchee": IDS,
            "reaction": st.sampled_from([k.value for k in ActionKind]),
            "at": IDS,
            "band": INTS,
        }
    ),
    "offer": st.fixed_dictionaries(
        {
            "room": IDS,
            "round": IDS,
            "proposer": st.one_of(st.just("mediator"), IDS),
            "issue": IDS,
        }
    ),
    "vote": st.fixed_dictionaries(
        {"room": IDS, "round": IDS, "agent": IDS, "accept": st.booleans()}
    ),
    "acceptable_published": st.fixed_dictionaries(
        {
            "room": IDS,
            "round": IDS,
            "agent": IDS,
            "issues": st.one_of(st.just([]), st.lists(IDS, max_size=200)),
        }
    ),
    "agent_entered": st.fixed_dictionaries({"agent": IDS, "room": IDS, "utility": UTILITIES}),
    "agent_watching": st.fixed_dictionaries({"agent": IDS}),
}


class TestEventLine:
    """``event_line`` against the reference ``json.dumps`` encoding."""

    def test_every_template_is_generated(self):
        assert set(TEMPLATED_DATA) == set(runner._TEMPLATES)

    @pytest.mark.parametrize("kind", sorted(TEMPLATED_DATA))
    @given(draw=st.data(), tick=IDS, priority=st.one_of(st.none(), INTS))
    @settings(max_examples=200, deadline=None)
    def test_template_equals_reference(self, kind, draw, tick, priority):
        record = EventRecord(tick, priority, kind, draw.draw(TEMPLATED_DATA[kind]))
        assert event_line(record) == reference_line(record)

    def test_long_issue_list(self):
        data = {"room": 3, "round": 7, "agent": 11, "issues": list(range(500))}
        record = EventRecord(2, 50, "acceptable_published", data)
        assert event_line(record) == reference_line(record)

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
