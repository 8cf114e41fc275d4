"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from mnegoti.context import Context, ObjectKind
from mnegoti.engine import Simulation
from mnegoti.errors import DuplicateMemberError
from mnegoti.model import (
    AgentGroup,
    DistributionKind,
    DistributionSpec,
    PreferenceBounds,
    StrategyConfig,
    _sample_members,
    normalize_weights,
)
from mnegoti.protocols import ProtocolKind, _conceded
from mnegoti.runner import run
from mnegoti.scenario import load_scenario, load_scenario_file
from mnegoti.scheduler import ActionKind, ScheduledAction, Scheduler

from conftest import SCENARIO_DIR
from oracles import concession_oracle, mediated_oracle, naive_schedule_simulator
from test_protocols import UTILITY_GRID, make_session, run_to_completion


@contextmanager
def criterion(number: int, label: str, budget_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number:02d}] FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"[ACCEPTANCE {number:02d}] PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_bounds_containment():
    with criterion(1, "bounds containment: 100 scenarios x 100 agents, 0 violations", 5.0):
        rng = random.Random(1001)
        violations = 0
        for index in range(100):
            k = rng.randint(1, 5)
            rows = []
            for _ in range(k):
                lo = round(rng.uniform(0.0, 0.9), 3)
                hi = round(rng.uniform(lo, 1.0), 3)
                rows.append((lo, hi))
            if rng.random() < 0.5:
                distribution = DistributionSpec(kind=DistributionKind.UNIFORM)
            else:
                distribution = DistributionSpec(
                    kind=DistributionKind.TRUNCATED_NORMAL,
                    mean=rng.uniform(0.0, 1.0),
                    sd=rng.uniform(0.05, 1.0),
                )
            group = AgentGroup(
                id=0,
                name=f"random_{index}",
                bounds=PreferenceBounds(rows=tuple(rows)),
                distribution=distribution,
                member_count=100,
                strategy=StrategyConfig(),
            )
            samples = _sample_members(group, random.Random(index))
            assert len(samples) == 100
            for raw in samples:
                for value, (lo, hi) in zip(raw, rows):
                    if not lo <= value <= hi:
                        violations += 1
        assert violations == 0


def test_criterion_02_determinism(tmp_path):
    with criterion(2, "determinism: seed 42 twice byte-identical, seed 43 differs", 2.0):
        scenario = load_scenario_file(SCENARIO_DIR / "protection_strategies.yaml")
        run(scenario, seed=42, out_dir=tmp_path / "a")
        run(scenario, seed=42, out_dir=tmp_path / "b")
        run(scenario, seed=43, out_dir=tmp_path / "c")
        first = (tmp_path / "a" / "rep_000" / "events.log").read_bytes()
        second = (tmp_path / "b" / "rep_000" / "events.log").read_bytes()
        other = (tmp_path / "c" / "rep_000" / "events.log").read_bytes()
        assert first == second
        assert first != other


def test_criterion_03_scheduler_ordering_oracle():
    with criterion(3, "scheduler ordering: 1000 random schedules match (-priority, seq) sort"):
        rng = random.Random(3003)
        horizon = 12
        for _ in range(1000):
            specs = [
                (rng.randint(0, 9), rng.choice([0, 0, 1, 2, 3, 4]), rng.randint(-10, 10))
                for _ in range(rng.randint(1, 50))
            ]
            expected = naive_schedule_simulator(specs, horizon)

            scheduler = Scheduler()
            executed = []
            keys_by_tick: dict[int, list[tuple[int, int]]] = {}
            index_of = {}

            def executor(action):
                executed.append((scheduler.now, index_of[id(action)]))
                keys_by_tick.setdefault(scheduler.now, []).append(
                    (-action.priority, action.seq)
                )

            scheduler.executor = executor
            for index, (start, interval, priority) in enumerate(specs):
                action = scheduler.schedule(
                    ScheduledAction(
                        kind=ActionKind.REPORT, start=start, interval=interval, priority=priority
                    )
                )
                index_of[id(action)] = index
            for _ in range(horizon):
                scheduler.step()

            assert executed == expected
            for keys in keys_by_tick.values():
                assert keys == sorted(keys)


def test_criterion_04_watcher_semantics():
    with criterion(4, "watchers: 3 eligible agents enter on the opening tick, session next tick"):
        doc = {
            "version": 1,
            "seed": 12,
            "ticks": 8,
            "theta_in": 0.0,
            "criteria": [{"id": 0, "name": "value"}],
            "issues": [
                {"id": 0, "name": "a", "scores": [0.9]},
                {"id": 1, "name": "b", "scores": [0.4]},
            ],
            "groups": [
                {"id": 0, "name": "g", "member_count": 3, "bounds": [[0.2, 0.8]]}
            ],
            "protocols": [
                {"id": "m", "kind": "mediated_single_text", "max_rounds": 3}
            ],
            "rooms": [
                {
                    "id": 0,
                    "schedule": [
                        {
                            "action": "open",
                            "at": 2,
                            "agenda": {
                                "issues": [0, 1],
                                "admission": {"kind": "conditions"},
                                "protocol": "m",
                            },
                        }
                    ],
                }
            ],
            "watchers": [
                {
                    "watcher": {"kind": "agent"},
                    "watchee": {"kind": "meeting_room"},
                    "trigger": {"watchee.state": "open"},
                    "reaction": {"kind": "agent_scan", "when": "same_tick"},
                }
            ],
        }
        sim = Simulation(load_scenario(doc))
        sim.run()
        # Hand-traced oracle: open fires at tick 2 (band 100); the watcher
        # rule matches agents 0,1,2 whose scans run at band 99 the same
        # tick; the round action starts the session at tick 3.
        opened = [e for e in sim.events if e.kind == "room_opened"]
        fired = [e for e in sim.events if e.kind == "watcher_fired"]
        entered = [e for e in sim.events if e.kind == "agent_entered"]
        started = [e for e in sim.events if e.kind == "session_started"]
        assert [e.tick for e in opened] == [2]
        assert [(e.tick, e.data["watcher"]) for e in fired] == [(2, 0), (2, 1), (2, 2)]
        assert [(e.tick, e.data["agent"], e.priority) for e in entered] == [
            (2, 0, 99),
            (2, 1, 99),
            (2, 2, 99),
        ]
        assert [e.tick for e in started] == [3]
        assert started[0].data["participants"] == [0, 1, 2]


def _sample_instances(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        utils = [[rng.choice(UTILITY_GRID) for _ in range(m)] for _ in range(n)]
        betas = [rng.choice([0.5, 1.0, 2.0]) for _ in range(n)]
        max_rounds = rng.choice([1, 3, 5])
        yield utils, betas, max_rounds


def test_criterion_05_protocol_oracle_equivalence():
    with criterion(
        5, "protocol equivalence: 1200 instances match brute-force oracles exactly", 60.0
    ):
        count = 0
        for utils, betas, max_rounds in _sample_instances(1200, seed=5005):
            as_dicts = [dict(enumerate(u)) for u in utils]

            expected = mediated_oracle(as_dicts, max_rounds, betas)
            session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds, betas)
            assert run_to_completion(session) == expected

            expected = concession_oracle(as_dicts, max_rounds, betas)
            session = make_session(utils, ProtocolKind.MONOTONIC_CONCESSION, max_rounds, betas)
            assert run_to_completion(session) == expected
            count += 1
        assert count >= 1000


def test_criterion_06_elimination_termination():
    with criterion(6, "elimination bidding: agreed within |agenda|-1 rounds, 0 failures"):
        failures = 0
        for utils, betas, max_rounds in _sample_instances(1200, seed=6006):
            session = make_session(utils, ProtocolKind.ELIMINATION_BIDDING, max_rounds, betas)
            status, issue, rounds = run_to_completion(session)
            m = len(utils[0])
            if status != "agreed" or issue is None or rounds > m - 1:
                failures += 1
        assert failures == 0


def test_criterion_07_unanimity():
    with criterion(7, "unanimity: identical preferences agree in round 1 on the argmax"):
        rng = random.Random(7007)
        for _ in range(200):
            n = rng.randint(2, 4)
            m = rng.randint(2, 5)
            k = rng.randint(1, 4)
            weights = normalize_weights(tuple(rng.random() for _ in range(k)))
            scores = [[rng.random() for _ in range(k)] for _ in range(m)]
            utilities = [
                sum(w * s for w, s in zip(weights, scores[i])) for i in range(m)
            ]
            utils = [list(utilities) for _ in range(n)]
            argmax = min(range(m), key=lambda i: (-utilities[i], i))
            for kind in ProtocolKind:
                session = make_session(utils, kind, max_rounds=3)
                assert run_to_completion(session) == ("agreed", argmax, 1), kind


def test_criterion_08_concession_monotonicity():
    with criterion(8, "concession threshold: non-increasing, exact endpoints, 10^4 draws"):
        rng = random.Random(8008)
        for _ in range(10_000):
            m = rng.randint(1, 6)
            utilities = [rng.random() for _ in range(m)]
            beta = rng.uniform(0.1, 10.0)
            max_rounds = rng.randint(1, 12)
            u_max, u_min = max(utilities), min(utilities)
            values = [_conceded(u_max, u_min, t, max_rounds, beta) for t in range(1, max_rounds + 1)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert values[-1] == min(utilities)
            if max_rounds > 1:
                assert values[0] == max(utilities)


def test_criterion_09_concurrent_rooms():
    with criterion(9, "concurrent rooms: 3 disjoint sessions, ascending room order per tick"):
        scenario = load_scenario_file(SCENARIO_DIR / "concurrent_rooms.yaml")
        sim = Simulation(scenario)
        sim.run()
        started = [e for e in sim.events if e.kind == "session_started"]
        ended = [e for e in sim.events if e.kind == "session_end"]
        assert [e.data["room"] for e in started] == [0, 1, 2]
        assert len(ended) == 3
        # Disjoint participants across the three sessions.
        seen: set[int] = set()
        for event in started:
            participants = set(event.data["participants"])
            assert not participants & seen
            seen |= participants
        # Per tick, session-advancement records walk room ids in ascending order.
        advancement_kinds = {
            "session_started", "offer", "vote", "candidate_rejected",
            "agreement", "session_end", "room_closed",
        }
        by_tick: dict[int, list[int]] = {}
        for event in sim.events:
            if event.kind in advancement_kinds:
                by_tick.setdefault(event.tick, []).append(event.data["room"])
        assert by_tick, "no advancement events recorded"
        for tick, room_ids in by_tick.items():
            assert room_ids == sorted(room_ids), f"tick {tick}: {room_ids}"


def test_criterion_10_context_uniqueness():
    with criterion(10, "context uniqueness: duplicate adds error, set-up adds each member once"):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, None)
        try:
            ctx.add(ObjectKind.AGENT, 0, None)
            raise AssertionError("duplicate add did not error")
        except DuplicateMemberError:
            pass

        # Membership is fixed at set-up: after a run of each bundled scenario,
        # every agent and room is in the context exactly once.
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            sim = Simulation(load_scenario_file(path))
            sim.run()
            expected = {(ObjectKind.AGENT, i, id(a)) for i, a in sim.agents.items()}
            expected |= {(ObjectKind.MEETING_ROOM, i, id(r)) for i, r in sim.rooms.items()}
            members = list(sim.context.items())
            assert len({(kind, ident) for kind, ident, _ in members}) == len(members)
            assert {(kind, ident, id(obj)) for kind, ident, obj in members} == expected
            assert len(members) == len(expected)
