"""Micro-benchmarks of watcher dispatch: room openings through ``notify_state_change``.

The first times the notification of one room opening to 1 000 and 10 000
agents, half of them idle and half negotiating, under two rules: the
bundled open-scan rule (every agent scans when a room opens) and the same
rule for idle watchers only (``watcher.state: idle``). The second times
four openings in one band to 10 000 such agents under the open-scan rule,
each queued as one entry for all 10 000 scans. The third times one
opening to 10 000 agents and the ``step`` that runs its scans through an
executor that does nothing. The candidate list is built before timing and
each timed call starts from an empty queue, so the figure is the dispatch
itself, the queued reactions included. The fourth times one
``Simulation._execute`` of an agent scan for a negotiating agent, the
early return most scans of a room-churn run take. The ``bench`` marker
keeps them out of the default test run:

    PYTHONPATH=src python -m pytest -m bench tests/test_bench_scheduler.py
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable
"""

from __future__ import annotations

import functools

import pytest

from mnegoti.context import Context, ObjectKind, Query
from mnegoti.engine import Simulation
from mnegoti.model import Agent, AgentPhase
from mnegoti.rooms import MeetingRoom
from mnegoti.scenario import load_scenario_file
from mnegoti.scheduler import ActionKind, ScheduledAction, Scheduler, WatcherRule

from conftest import SCENARIO_DIR

pytestmark = pytest.mark.bench

# Rule name -> the state its watchers must be in, if any; every rule fires on an opening.
WATCHER_STATES = {"open_scan": None, "idle_watchers": "idle"}


def watched_rooms(
    agents: int, watcher_state: str | None, rooms: int = 1
) -> tuple[Scheduler, list[MeetingRoom]]:
    context = Context()
    for i in range(agents):
        agent = Agent(id=i, group_id=0, weights=(1.0,))
        if i % 2:
            agent.phase = AgentPhase.NEGOTIATING
        context.add(ObjectKind.AGENT, i, agent)
    opened = [MeetingRoom(i) for i in range(rooms)]
    for room in opened:
        context.add(ObjectKind.MEETING_ROOM, room.id, room)
    scheduler = Scheduler(context=context)
    scheduler.register_watcher(
        WatcherRule(
            watcher_query=Query(kind=ObjectKind.AGENT),
            watchee_query=Query(kind=ObjectKind.MEETING_ROOM),
            watchee_state="open",
            watcher_state=watcher_state,
        )
    )
    return scheduler, opened


@pytest.mark.parametrize("agents", [1_000, 10_000])
@pytest.mark.parametrize("rule", sorted(WATCHER_STATES))
def test_notify_room_opening(benchmark, rule, agents):
    scheduler, (room,) = watched_rooms(agents, WATCHER_STATES[rule])
    notify = functools.partial(
        scheduler.notify_state_change, ObjectKind.MEETING_ROOM, 0, "closed", "open", room
    )
    notify()  # builds the candidate list
    # Each step drains the queued reactions and restarts the tick's cascade counts.
    fired = benchmark.pedantic(notify, setup=scheduler.step, rounds=20)
    assert len(fired) == (agents if rule == "open_scan" else agents // 2)


def test_notify_four_same_band_openings(benchmark):
    agents = 10_000
    scheduler, rooms = watched_rooms(agents, WATCHER_STATES["open_scan"], rooms=4)

    def open_all():
        # As if four room_open actions of band 100 ran one after another.
        scheduler.current_band = 100
        fired = [
            f
            for room in rooms
            for f in scheduler.notify_state_change(
                ObjectKind.MEETING_ROOM, room.id, "closed", "open", room
            )
        ]
        scheduler.current_band = None
        return fired

    open_all()  # builds the candidate list
    fired = benchmark.pedantic(open_all, setup=scheduler.step, rounds=10)
    assert len(fired) == 4 * agents
    assert len({id(f.action) for f in fired}) == 4
    assert len(scheduler._heap) == 4


def test_notify_and_step_one_opening(benchmark):
    agents = 10_000
    scheduler, (room,) = watched_rooms(agents, WATCHER_STATES["open_scan"])
    executed = []
    scheduler.executor = lambda action: executed.append(action.target)

    def open_and_step():
        executed.clear()
        scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        scheduler.step()

    open_and_step()  # builds the candidate list
    benchmark.pedantic(open_and_step, rounds=20)
    assert executed == list(range(agents))


def test_execute_scan_of_negotiating_agent(benchmark):
    sim = Simulation(load_scenario_file(SCENARIO_DIR / "concurrent_rooms.yaml"))
    agent = sim.agents[0]
    agent.phase = AgentPhase.NEGOTIATING
    scan = ScheduledAction(kind=ActionKind.AGENT_SCAN, target=agent.id)
    logged = sim.events.count
    benchmark(sim._execute, scan)
    assert agent.phase is AgentPhase.NEGOTIATING
    assert sim.events.count == logged
