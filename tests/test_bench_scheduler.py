"""Micro-benchmark of watcher dispatch: one room opening through ``notify_state_change``.

It times the notification of one room opening to 1 000 and 10 000 agents,
half of them idle and half negotiating, under two rules: the bundled
open-scan rule (every agent scans when a room opens) and the same rule
for idle watchers only (``watcher.state: idle``). The candidate list is
built before timing and each timed call starts from an empty queue, so
the figure is the dispatch itself, the queued reactions included. The
``bench`` marker keeps it out of the default test run:

    PYTHONPATH=src python -m pytest -m bench tests/test_bench_scheduler.py
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable
"""

from __future__ import annotations

import functools

import pytest

from mnegoti.context import Context, ObjectKind, Query
from mnegoti.model import Agent, AgentPhase
from mnegoti.rooms import MeetingRoom
from mnegoti.scheduler import Scheduler, Trigger, WatcherRule

pytestmark = pytest.mark.bench

TRIGGERS = {
    "open_scan": Trigger(watchee_state="open"),
    "idle_watchers": Trigger(watcher_state="idle", watchee_state="open"),
}


def watched_room(agents: int, trigger: Trigger) -> tuple[Scheduler, MeetingRoom]:
    context = Context()
    for i in range(agents):
        agent = Agent(id=i, group_id=0, raw_prefs=(1.0,), weights=(1.0,))
        if i % 2:
            agent.phase = AgentPhase.NEGOTIATING
        context.add(ObjectKind.AGENT, i, agent)
    room = MeetingRoom(0)
    context.add(ObjectKind.MEETING_ROOM, 0, room)
    scheduler = Scheduler(context=context)
    scheduler.register_watcher(
        WatcherRule(
            watcher_query=Query(kind=ObjectKind.AGENT),
            watchee_query=Query(kind=ObjectKind.MEETING_ROOM),
            trigger=trigger,
        )
    )
    return scheduler, room


@pytest.mark.parametrize("agents", [1_000, 10_000])
@pytest.mark.parametrize("rule", sorted(TRIGGERS))
def test_notify_room_opening(benchmark, rule, agents):
    scheduler, room = watched_room(agents, TRIGGERS[rule])
    notify = functools.partial(
        scheduler.notify_state_change, ObjectKind.MEETING_ROOM, 0, "closed", "open", room
    )
    notify()  # builds the candidate list
    # Each step drains the queued reactions and restarts the tick's cascade count.
    fired = benchmark.pedantic(notify, setup=scheduler.step, rounds=20)
    assert len(fired) == (agents if rule == "open_scan" else agents // 2)
