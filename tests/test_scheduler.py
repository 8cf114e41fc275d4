"""Tick ordering, repetition, watchers, and reactions."""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti.context import Context, ObjectKind, Query
from mnegoti.errors import CascadeOverflowError, SchedulingError
from mnegoti.model import Agent, AgentPhase
from mnegoti.rooms import MeetingRoom, RoomState
from mnegoti.scheduler import (
    ActionKind,
    ReactionOffset,
    ScheduledAction,
    Scheduler,
    WatcherRule,
)

from oracles import (
    brute_force_notify,
    counting,
    naive_schedule_simulator,
    notify_one_action_per_fire,
    trigger_holds,
)


def recording_scheduler(context=None):
    executed = []
    scheduler = Scheduler(context=context)
    scheduler.executor = lambda action: executed.append((scheduler.now, action))
    return scheduler, executed


def run_ticks(scheduler, n):
    for _ in range(n):
        scheduler.step()


def make_agent(ident, phase=AgentPhase.IDLE, group=0):
    a = Agent(id=ident, group_id=group, weights=(1.0,))
    a.phase = phase
    return a


class TestScheduling:
    def test_one_shot_executes_exactly_once_at_start(self):
        scheduler, executed = recording_scheduler()
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, start=5))
        run_ticks(scheduler, 10)
        assert [tick for tick, _ in executed] == [5]

    def test_interval_two_from_zero_over_seven_ticks(self):
        scheduler, executed = recording_scheduler()
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, start=0, interval=2))
        run_ticks(scheduler, 7)
        assert [tick for tick, _ in executed] == [0, 2, 4, 6]

    def test_start_in_past_rejected(self):
        scheduler, _ = recording_scheduler()
        run_ticks(scheduler, 3)
        with pytest.raises(SchedulingError):
            scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, start=2))

    def test_priority_orders_within_tick(self):
        scheduler, executed = recording_scheduler()
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="low", start=0, priority=5))
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="high", start=0, priority=10))
        run_ticks(scheduler, 1)
        assert [a.target for _, a in executed] == ["high", "low"]

    def test_equal_priority_resolves_by_insertion_order(self):
        scheduler, executed = recording_scheduler()
        for name in ("first", "second", "third"):
            scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target=name, start=0, priority=7))
        run_ticks(scheduler, 1)
        assert [a.target for _, a in executed] == ["first", "second", "third"]

    def test_empty_queue_still_advances(self):
        scheduler, executed = recording_scheduler()
        scheduler.step()
        assert scheduler.now == 1
        assert executed == []

    def test_scheduling_into_passed_band_rejected(self):
        scheduler = Scheduler()
        failures = []

        def executor(action):
            if action.target == "spawner":
                try:
                    scheduler.schedule(
                        ScheduledAction(kind=ActionKind.REPORT, start=scheduler.now, priority=50)
                    )
                except SchedulingError as exc:
                    failures.append(exc)

        scheduler.executor = executor
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="spawner", start=0, priority=10))
        scheduler.step()
        assert len(failures) == 1

    def test_cancelled_action_neither_runs_nor_repeats(self):
        scheduler, executed = recording_scheduler()
        action = scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, start=1, interval=1))
        scheduler.cancel(action)
        run_ticks(scheduler, 4)
        assert executed == []

    def test_requeued_periodic_entry_keeps_its_one_member_and_one_seq(self):
        scheduler, executed = recording_scheduler()
        clock = scheduler.schedule(
            ScheduledAction(kind=ActionKind.NEGOTIATION_ROUND, target=3, start=0, interval=1)
        )
        scheduler.step()
        assert (clock.targets, clock.target, clock.start, clock.seq) == (None, 3, 1, 1)
        after = scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="after", start=1))
        assert after.seq == clock.seq + 1
        scheduler.step()
        assert [(tick, a.target) for tick, a in executed] == [(0, 3), (1, 3), (1, "after")]


class TestWatchers:
    @staticmethod
    def room_open_rule(**overrides):
        rule = WatcherRule(
            watcher_query=Query(kind=ObjectKind.AGENT),
            watchee_query=Query(kind=ObjectKind.MEETING_ROOM),
            watchee_state="open",
        )
        return replace(rule, **overrides)

    @staticmethod
    def population(n):
        ctx = Context()
        for i in range(n):
            ctx.add(ObjectKind.AGENT, i, make_agent(i))
        room = MeetingRoom(0)
        ctx.add(ObjectKind.MEETING_ROOM, 0, room)
        return ctx, room

    def test_noop_change_fires_nothing(self):
        ctx, room = self.population(3)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(self.room_open_rule())
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "open", "open", room)
        assert fired == []

    def test_three_matching_agents_fire_in_ascending_id_order(self):
        # Oracle: enumerate the query matches directly.
        ctx, room = self.population(3)
        expected_watchers = sorted(
            ident
            for kind, ident, obj in ctx.items()
            if Query(kind=ObjectKind.AGENT).matches(kind, ident, obj)
        )
        assert expected_watchers == [0, 1, 2]

        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(self.room_open_rule())
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert [f.watcher_id for f in fired] == expected_watchers
        assert all(f.action.kind is ActionKind.AGENT_SCAN for f in fired)

    def test_trigger_must_transition_from_false_to_true(self):
        ctx, room = self.population(1)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(self.room_open_rule())
        assert scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "open", "in_session", room) == []

    def test_constant_false_trigger_never_fires(self):
        ctx, room = self.population(2)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(
            self.room_open_rule(watchee_state="no_such_state")
        )
        for old, new in [("closed", "open"), ("open", "in_session"), ("in_session", "closed")]:
            assert scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, old, new, room) == []

    def test_watcher_state_constraint_filters_watchers(self):
        ctx, room = self.population(2)
        members = {(kind, ident): obj for kind, ident, obj in ctx.items()}
        members[ObjectKind.AGENT, 1].phase = AgentPhase.NEGOTIATING
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(
            self.room_open_rule(watcher_state="idle")
        )
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert [f.watcher_id for f in fired] == [0]

    def test_watcher_state_is_read_only_when_constrained(self):
        class Unreadable:
            group_id = 0

            @property
            def phase(self):
                raise AssertionError("watcher state read")

        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, Unreadable())
        room = MeetingRoom(0)
        ctx.add(ObjectKind.MEETING_ROOM, 0, room)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(self.room_open_rule())
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert [f.watcher_id for f in fired] == [0]
        scheduler.register_watcher(
            self.room_open_rule(watcher_state="idle")
        )
        with pytest.raises(AssertionError, match="watcher state read"):
            scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)

    def test_candidate_list_is_built_once_per_watcher_query(self, monkeypatch):
        ctx, room = self.population(3)
        queries = []
        query = Context.query

        def counted(context, q):
            queries.append(q)
            return query(context, q)

        monkeypatch.setattr(Context, "query", counted)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(self.room_open_rule())
        scheduler.register_watcher(self.room_open_rule())
        grouped = Query(kind=ObjectKind.AGENT, group_id=0)
        scheduler.register_watcher(self.room_open_rule(watcher_query=grouped))
        for old, new in [("closed", "open"), ("open", "closed"), ("closed", "open")]:
            scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, old, new, room)
        assert queries == [Query(kind=ObjectKind.AGENT), grouped]

    def test_kept_candidates_are_tested_on_their_current_state(self):
        # The kept list holds members, not states: a phase change between
        # two openings still decides which watchers fire.
        ctx, room = self.population(2)
        members = {(kind, ident): obj for kind, ident, obj in ctx.items()}
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(
            self.room_open_rule(watcher_state="idle")
        )
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert [f.watcher_id for f in fired] == [0, 1]
        members[ObjectKind.AGENT, 0].phase = AgentPhase.IN_ROOM
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert [f.watcher_id for f in fired] == [1]

    def test_two_rules_fire_in_rule_id_order(self):
        ctx, room = self.population(1)
        scheduler = Scheduler(context=ctx)
        first = scheduler.register_watcher(self.room_open_rule())
        second = scheduler.register_watcher(self.room_open_rule())
        assert (first, second) == (0, 1)
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert [f.rule_id for f in fired] == [first, second]

    def test_next_tick_reaction_lands_on_following_tick(self):
        ctx, room = self.population(1)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(
            self.room_open_rule(when=ReactionOffset.NEXT_TICK, priority=3)
        )
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        assert fired[0].action.start == scheduler.now + 1
        assert fired[0].action.priority == 3

    def test_cascade_cap_raises(self):
        scheduler = Scheduler(cascade_cap=10)
        for _ in range(10):
            scheduler.enqueue_reaction(ActionKind.AGENT_SCAN, 0)
        with pytest.raises(CascadeOverflowError) as exc:
            scheduler.enqueue_reaction(ActionKind.AGENT_SCAN, 0)
        message = str(exc.value)
        assert "more than 10 reactions" in message
        assert "tick 0" in message
        assert "engine follow-up agent_scan" in message

    def test_cascade_overflow_names_rule_and_watchee(self):
        # Rule 0 watches another room and never fires; rule 1's fan-outs to
        # three agents are one push each, and the room's fifth opening in
        # the tick is its fifth push, one over the cap.
        ctx, room = self.population(3)
        scheduler = Scheduler(context=ctx, cascade_cap=4)
        scheduler.register_watcher(
            self.room_open_rule(watchee_query=Query(kind=ObjectKind.MEETING_ROOM, ident=1))
        )
        scheduler.register_watcher(self.room_open_rule())
        for _ in range(4):
            scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        with pytest.raises(CascadeOverflowError) as exc:
            scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)
        message = str(exc.value)
        assert "more than 4 reactions" in message
        assert "tick 0" in message
        assert "watcher rule 1 on meeting_room 0" in message

    @given(
        phases=st.lists(st.sampled_from(list(AgentPhase)), min_size=1, max_size=6),
        watcher_state=st.sampled_from([None, "idle", "watching", "negotiating"]),
        watchee_state=st.sampled_from(["open", "closed", "in_session"]),
        old=st.sampled_from(["open", "closed", "in_session"]),
        new=st.sampled_from(["open", "closed", "in_session"]),
    )
    @settings(max_examples=300)
    def test_firing_matches_brute_force_reevaluation(
        self, phases, watcher_state, watchee_state, old, new
    ):
        ctx = Context()
        for i, phase in enumerate(phases):
            ctx.add(ObjectKind.AGENT, i, make_agent(i, phase=phase))
        room = MeetingRoom(0)
        ctx.add(ObjectKind.MEETING_ROOM, 0, room)
        rule = WatcherRule(
            watcher_query=Query(kind=ObjectKind.AGENT),
            watchee_query=Query(kind=ObjectKind.MEETING_ROOM),
            watchee_state=watchee_state,
            watcher_state=watcher_state,
        )
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(rule)
        fired = scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, old, new, room)

        # Brute force: re-evaluate the rule against every object directly.
        expected = []
        if old != new:
            for i, phase in enumerate(phases):
                before = trigger_holds(rule, phase.value, old)
                after = trigger_holds(rule, phase.value, new)
                if not before and after:
                    expected.append(i)
        assert [f.watcher_id for f in fired] == expected


AGENT_STATES = [p.value for p in AgentPhase]
ROOM_STATES = [s.value for s in RoomState]
ANY_STATE = [None, *AGENT_STATES, *ROOM_STATES]

queries = st.builds(
    Query,
    kind=st.sampled_from([None, ObjectKind.AGENT, ObjectKind.MEETING_ROOM]),
    ident=st.none() | st.integers(0, 5),
    group_id=st.none() | st.integers(0, 2),
)
agent_queries = st.builds(
    Query,
    kind=st.just(ObjectKind.AGENT),
    ident=st.none() | st.integers(0, 5),
    group_id=st.none() | st.integers(0, 2),
)
reaction_fields = dict(
    reaction_kind=st.sampled_from(list(ActionKind)),
    when=st.sampled_from(list(ReactionOffset)),
    priority=st.none() | st.integers(-5, 120),
    target_role=st.sampled_from(["watcher", "watchee"]),
)
any_rules = st.builds(
    WatcherRule,
    watcher_query=queries,
    watchee_query=queries,
    watchee_state=st.sampled_from(ANY_STATE[1:]),
    watcher_state=st.sampled_from(ANY_STATE),
    **reaction_fields,
)
# Agents watching rooms, as the bundled open-scan rule does.
room_watch_rules = st.builds(
    WatcherRule,
    watcher_query=agent_queries,
    watchee_query=st.builds(Query, kind=st.just(ObjectKind.MEETING_ROOM)),
    watchee_state=st.sampled_from(ROOM_STATES),
    watcher_state=st.none() | st.sampled_from(AGENT_STATES),
    **reaction_fields,
)
# Agents watching one agent, so the changed watchee may be its own watcher.
self_watch_rules = st.builds(
    WatcherRule,
    watcher_query=agent_queries,
    watchee_query=st.builds(Query, kind=st.just(ObjectKind.AGENT), ident=st.integers(0, 3)),
    watchee_state=st.sampled_from(AGENT_STATES),
    watcher_state=st.none() | st.sampled_from(AGENT_STATES),
    **reaction_fields,
)
STATES_OF = {
    ObjectKind.AGENT: (list(AgentPhase), "phase"),
    ObjectKind.MEETING_ROOM: (list(RoomState), "room_state"),
}


@st.composite
def join_orders(draw):
    """Agents (group, phase) and rooms (state), in a drawn interleaved join order.

    Agent and room ids both count from 0, so an agent and a room sharing an
    id join in either order.
    """
    agents = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(list(AgentPhase))),
            min_size=1,
            max_size=8,
        )
    )
    rooms = draw(st.lists(st.sampled_from(list(RoomState)), min_size=1, max_size=3))
    members = [(ObjectKind.AGENT, i, drawn) for i, drawn in enumerate(agents)]
    members += [(ObjectKind.MEETING_ROOM, i, state) for i, state in enumerate(rooms)]
    return draw(st.permutations(members))


# (operation, member draw, state draw, band while notifying)
operations = st.lists(
    st.tuples(
        st.sampled_from(["change", "change", "change", "step"]),
        st.integers(0, 63),
        st.integers(0, 63),
        st.none() | st.integers(-5, 120),
    ),
    min_size=3,
    max_size=12,
)


class TestNotifyOracle:
    """``notify_state_change`` against ``brute_force_notify``, reaction for reaction."""

    @given(
        joins=join_orders(),
        rules=st.lists(room_watch_rules | self_watch_rules | any_rules, min_size=1, max_size=3),
        ops=operations,
    )
    @settings(max_examples=400, deadline=None)
    def test_reactions_match_brute_force(self, joins, rules, ops):
        ctx = Context()
        for kind, ident, drawn in joins:
            if kind is ObjectKind.AGENT:
                group, phase = drawn
                ctx.add(kind, ident, make_agent(ident, phase, group))
            else:
                room = MeetingRoom(ident)
                room.room_state = drawn
                ctx.add(kind, ident, room)
        scheduler = Scheduler(context=ctx, cascade_cap=10**9)
        for rule in rules:
            scheduler.register_watcher(rule)
        # Changes favour members some watchee query can match and states the
        # triggers name, so that many of them fire.
        named = {r.watchee_state for r in rules}
        members = list(ctx.items())
        watched = [
            (k, i, o)
            for k, i, o in members
            if any(r.watchee_query.matches(k, i, o) for r in rules)
        ]
        pool = watched * 3 + members

        for op, a, b, band in ops:
            if op == "step":
                scheduler.step()
                continue
            kind, ident, obj = pool[a % len(pool)]
            states, attr = STATES_OF[kind]
            current = getattr(obj, attr)
            old = current.value
            others = [s for s in states if s is not current]
            choices = [s for s in others if s.value in named] + others
            new = choices[b % len(choices)]
            setattr(obj, attr, new)
            expected = brute_force_notify(
                members, rules, scheduler.now, band, kind, ident, old, new.value, obj
            )
            scheduler.current_band = band
            fired = scheduler.notify_state_change(kind, ident, old, new.value, obj)
            scheduler.current_band = None
            assert [
                (
                    f.rule_id,
                    f.watcher_id,
                    f.action.kind,
                    f.watcher_id if rules[f.rule_id].target_role == "watcher" else ident,
                    f.action.start,
                    f.action.priority,
                )
                for f in fired
            ] == expected


# What an executed action does next, in execution order: (effect, draw, draw).
effects = st.lists(
    st.tuples(
        st.sampled_from(["change", "change", "same_band", "follow_up", "next_tick", "nothing"]),
        st.integers(0, 63),
        st.integers(0, 63),
    ),
    max_size=40,
)


class TestOneActionPerFireOracle:
    """The executed order equals that of one queued action per fire.

    Drawn rules fan out from state changes made by drawn actions and by the
    reactions themselves, which also schedule into their own band, enqueue
    lower-band follow-ups and schedule into the next tick. The reference
    patches ``notify_one_action_per_fire`` in for ``notify_state_change``.
    """

    @staticmethod
    def executed(joins, rules, starts, script, reference):
        ctx = Context()
        for kind, ident, drawn in joins:
            if kind is ObjectKind.AGENT:
                group, phase = drawn
                ctx.add(kind, ident, make_agent(ident, phase, group))
            else:
                room = MeetingRoom(ident)
                room.room_state = drawn
                ctx.add(kind, ident, room)
        # Changes favour watched members and the states the triggers name, as
        # in TestNotifyOracle, so that many of them fire.
        named = {r.watchee_state for r in rules}
        members = list(ctx.items())
        watched = [
            (k, i, o)
            for k, i, o in members
            if any(r.watchee_query.matches(k, i, o) for r in rules)
        ]
        pool = watched * 3 + members
        scheduler = Scheduler(context=ctx, cascade_cap=10**9)
        oracle = counting(notify_one_action_per_fire)
        if reference:
            scheduler.notify_state_change = functools.partial(oracle, scheduler)
        for rule in rules:
            scheduler.register_watcher(rule)
        script = iter(script)
        executed = []
        changes = []

        def executor(action):
            now, band = scheduler.now, scheduler.current_band
            executed.append((now, band, action.kind, action.target))
            effect, a, b = next(script, ("nothing", 0, 0))
            if effect == "change":
                changes.append(action)
                kind, ident, obj = pool[a % len(pool)]
                states, attr = STATES_OF[kind]
                current = getattr(obj, attr)
                others = [s for s in states if s is not current]
                choices = [s for s in others if s.value in named] + others
                new = choices[b % len(choices)]
                setattr(obj, attr, new)
                scheduler.notify_state_change(kind, ident, current.value, new.value, obj)
            elif effect == "same_band":
                scheduler.schedule(
                    ScheduledAction(kind=ActionKind.REPORT, target=("own band", a), start=now, priority=band)
                )
            elif effect == "follow_up":
                priority = None if b % 3 == 0 else band - b
                scheduler.enqueue_reaction(ActionKind.ROOM_INVITE, ("follow-up", a), priority)
            elif effect == "next_tick":
                scheduler.schedule(
                    ScheduledAction(kind=ActionKind.REPORT, target=("next tick", a), start=now + 1, priority=b)
                )

        scheduler.executor = executor
        for index, (tick, band) in enumerate(starts):
            scheduler.schedule(
                ScheduledAction(kind=ActionKind.ROOM_OPEN, target=("start", index), start=tick, priority=band)
            )
        run_ticks(scheduler, 5)
        # The reference proves that its patch saw every change.
        assert oracle.calls == (len(changes) if reference else 0)
        return executed

    @given(
        joins=join_orders(),
        rules=st.lists(room_watch_rules | self_watch_rules | any_rules, min_size=1, max_size=3),
        starts=st.lists(st.tuples(st.integers(0, 2), st.integers(-5, 120)), min_size=1, max_size=4),
        script=effects,
    )
    @settings(max_examples=300, deadline=None)
    def test_execution_matches_one_action_per_fire(self, joins, rules, starts, script):
        executed = self.executed(joins, rules, starts, script, reference=False)
        assert executed == self.executed(joins, rules, starts, script, reference=True)


class TestReactionEntry:
    """One rule's reactions to one state change are one queue entry, run member by member."""

    OPENING_BAND = 100

    @staticmethod
    def watched_room(agents=3, rules=1, cascade_cap=10_000):
        """Agents scanning whenever the room opens, under ``rules`` copies of the rule."""
        ctx, room = TestWatchers.population(agents)
        scheduler = Scheduler(context=ctx, cascade_cap=cascade_cap)
        for _ in range(rules):
            scheduler.register_watcher(TestWatchers.room_open_rule())
        executed = []
        scheduler.executor = lambda action: executed.append(
            (scheduler.now, scheduler.current_band, action.kind, action.target)
        )
        return scheduler, executed, room

    def open_room(self, scheduler, room):
        """Notify the room opening as if an action of the opening band ran it."""
        scheduler.current_band = self.OPENING_BAND
        try:
            return scheduler.notify_state_change(ObjectKind.MEETING_ROOM, room.id, "closed", "open", room)
        finally:
            scheduler.current_band = None

    def test_one_entry_for_all_watchers(self):
        scheduler, _, room = self.watched_room()
        fired = self.open_room(scheduler, room)
        assert [f.watcher_id for f in fired] == [0, 1, 2]
        assert len({id(f.action) for f in fired}) == 1
        (entry,) = [a for _, _, _, a in scheduler._heap]
        assert entry is fired[0].action
        assert (entry.kind, entry.targets, entry.start, entry.priority) == (
            ActionKind.AGENT_SCAN, [0, 1, 2], 0, 99
        )

    def test_entry_takes_one_seq_per_member(self):
        scheduler, _, room = self.watched_room()
        (fire, *_) = self.open_room(scheduler, room)
        after = scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, priority=99))
        assert after.seq == fire.action.seq + 3

    def test_cancelled_entry_runs_none_of_its_members(self):
        # A reaction entry and a scheduled entry with members queue and cancel alike.
        scheduler, executed, room = self.watched_room()
        (fire, *_) = self.open_room(scheduler, room)
        members = scheduler.schedule(
            ScheduledAction(kind=ActionKind.REPORT, priority=99, targets=["a", "b"])
        )
        cancelled = scheduler.schedule(
            ScheduledAction(kind=ActionKind.REPORT, priority=99, targets=["c", "d"])
        )
        assert (members.seq, cancelled.seq) == (fire.action.seq + 3, fire.action.seq + 5)
        scheduler.cancel(fire.action)
        scheduler.cancel(cancelled)
        scheduler.step()
        assert [target for *_, target in executed] == ["a", "b"]

    def test_members_run_back_to_back_in_watcher_order(self):
        scheduler, executed, room = self.watched_room()
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="before", priority=99))
        self.open_room(scheduler, room)
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="after", priority=99))
        scheduler.step()
        assert [(band, target) for _, band, _, target in executed] == [
            (99, "before"), (99, 0), (99, 1), (99, 2), (99, "after")
        ]

    def test_same_band_schedule_from_a_member_runs_after_every_remaining_member(self):
        scheduler, executed, room = self.watched_room()
        self.open_room(scheduler, room)
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="queued", priority=99))

        def follow_up():
            scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="own band", priority=99))
            scheduler.enqueue_reaction(ActionKind.REPORT, "below")

        executor = scheduler.executor
        scheduler.executor = lambda action: executor(action) or (
            follow_up() if action.target == 0 else None
        )
        scheduler.step()
        assert [(band, target) for _, band, _, target in executed] == [
            (99, 0), (99, 1), (99, 2), (99, "queued"), (99, "own band"), (98, "below")
        ]

    def test_next_tick_fan_out_runs_on_the_following_tick(self):
        scheduler, executed, room = self.watched_room(agents=2)
        scheduler._rules[0] = TestWatchers.room_open_rule(when=ReactionOffset.NEXT_TICK, priority=7)
        self.open_room(scheduler, room)
        run_ticks(scheduler, 2)
        assert executed == [(1, 7, ActionKind.AGENT_SCAN, 0), (1, 7, ActionKind.AGENT_SCAN, 1)]

    def test_watchee_target_repeats_for_each_watcher(self):
        scheduler, executed, room = self.watched_room()
        scheduler._rules[0] = TestWatchers.room_open_rule(
            reaction_kind=ActionKind.ROOM_INVITE, target_role="watchee"
        )
        self.open_room(scheduler, room)
        scheduler.step()
        assert executed == [(0, 99, ActionKind.ROOM_INVITE, 0)] * 3

    def test_fan_out_is_one_push_for_its_cause(self):
        scheduler, _, room = self.watched_room(agents=3, rules=2)
        self.open_room(scheduler, room)
        assert scheduler._pushes_this_tick == {
            (0, ObjectKind.MEETING_ROOM, 0): 1, (1, ObjectKind.MEETING_ROOM, 0): 1
        }
        scheduler.enqueue_reaction(ActionKind.REPORT, None)
        assert scheduler._pushes_this_tick[ActionKind.REPORT, None] == 1
        scheduler.step()
        assert scheduler._pushes_this_tick == {}

    def test_follow_up_is_a_one_member_fan_out(self):
        scheduler, _, room = self.watched_room()
        (fire, *_) = self.open_room(scheduler, room)
        scheduler.current_band = self.OPENING_BAND
        follow_up = scheduler.enqueue_reaction(ActionKind.ROOM_INVITE, 7)
        scheduler.current_band = None
        assert follow_up.targets == [7]
        assert (follow_up.kind, follow_up.targets, follow_up.start, follow_up.priority) == (
            ActionKind.ROOM_INVITE, [7], 0, 99
        )
        assert follow_up.seq == fire.action.seq + 3
        assert scheduler._pushes_this_tick[ActionKind.ROOM_INVITE, 7] == 1
        after = scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, priority=99))
        assert after.seq == follow_up.seq + 1
        assert [a for *_, a in sorted(scheduler._heap)] == [fire.action, follow_up, after]

    def test_follow_up_over_the_cap_raises_and_queues_nothing(self):
        # Scans of agent 0 are one cause; a scan of agent 1 and an invite of
        # room 0 are causes of their own.
        scheduler, _, room = self.watched_room(cascade_cap=3)
        self.open_room(scheduler, room)
        for _ in range(3):
            scheduler.enqueue_reaction(ActionKind.AGENT_SCAN, 0)
        scheduler.enqueue_reaction(ActionKind.AGENT_SCAN, 1)
        scheduler.enqueue_reaction(ActionKind.ROOM_INVITE, 0)
        with pytest.raises(CascadeOverflowError) as exc:
            scheduler.enqueue_reaction(ActionKind.AGENT_SCAN, 0)
        assert str(exc.value) == (
            "more than 3 reactions from one cause (the cascade cap) in tick 0; "
            "the reaction over the cap was an engine follow-up agent_scan on 0"
        )
        assert len(scheduler._heap) == 6

    def test_fan_out_up_to_the_cap_is_queued(self):
        scheduler, executed, room = self.watched_room(agents=3, rules=2, cascade_cap=6)
        assert len(self.open_room(scheduler, room)) == 6
        scheduler.step()
        assert len(executed) == 6

    def test_overflowing_fan_out_raises_and_queues_nothing(self):
        # The rule fires on the room's first two openings; the third fan-out
        # is its third push, one over the cap of 2.
        scheduler, executed, room = self.watched_room(agents=3, cascade_cap=2)
        for _ in range(2):
            self.open_room(scheduler, room)
        with pytest.raises(CascadeOverflowError) as exc:
            self.open_room(scheduler, room)
        assert str(exc.value) == (
            "more than 2 reactions from one cause (the cascade cap) in tick 0; "
            "the reaction over the cap was fired by watcher rule 0 on meeting_room 0"
        )
        assert len(scheduler._heap) == 2
        scheduler.step()
        assert [target for *_, target in executed] == [0, 1, 2, 0, 1, 2]

    def test_fan_out_wider_than_the_cap_is_queued_and_runs(self):
        scheduler, executed, room = self.watched_room(agents=5, rules=2, cascade_cap=1)
        assert len(self.open_room(scheduler, room)) == 10
        scheduler.step()
        assert [target for *_, target in executed] == [0, 1, 2, 3, 4] * 2

    def test_watcher_causes_are_counted_apart(self):
        # Two rules, each firing on two rooms: four causes, each at the cap of 1.
        ctx, room = TestWatchers.population(2)
        other = MeetingRoom(1)
        ctx.add(ObjectKind.MEETING_ROOM, 1, other)
        scheduler = Scheduler(context=ctx, cascade_cap=1)
        for _ in range(2):
            scheduler.register_watcher(TestWatchers.room_open_rule())
        for watchee in (room, other):
            scheduler.notify_state_change(
                ObjectKind.MEETING_ROOM, watchee.id, "closed", "open", watchee
            )
        assert sorted(scheduler._pushes_this_tick.values()) == [1, 1, 1, 1]
        with pytest.raises(CascadeOverflowError, match="watcher rule 0 on meeting_room 1"):
            scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 1, "closed", "open", other)

    def test_counts_restart_at_the_next_tick(self):
        # Each tick takes the fire and the follow-up to the cap of 2.
        scheduler, executed, room = self.watched_room(agents=2, cascade_cap=2)
        for _ in range(3):
            for _ in range(2):
                self.open_room(scheduler, room)
                scheduler.enqueue_reaction(ActionKind.ROOM_INVITE, 0)
            scheduler.step()
        assert [now for now, *_ in executed] == [0] * 6 + [1] * 6 + [2] * 6

    def test_executor_that_re_enqueues_its_own_target_forever_raises(self):
        scheduler = Scheduler(cascade_cap=50)
        runs = []

        def executor(action):
            runs.append(action.target)
            assert len(runs) <= 51, "the cascade cap never tripped"
            scheduler.enqueue_reaction(action.kind, action.target)

        scheduler.executor = executor
        scheduler.schedule(ScheduledAction(kind=ActionKind.AGENT_SCAN, target=7, priority=0))
        with pytest.raises(CascadeOverflowError) as exc:
            scheduler.step()
        assert str(exc.value) == (
            "more than 50 reactions from one cause (the cascade cap) in tick 0; "
            "the reaction over the cap was an engine follow-up agent_scan on 7"
        )
        assert runs == [7] * 51

    def test_cancelling_the_entry_cancels_every_member(self):
        scheduler, executed, room = self.watched_room()
        (fire, *_) = self.open_room(scheduler, room)
        scheduler.cancel(fire.action)
        scheduler.step()
        assert executed == []

    def test_cancel_from_a_member_leaves_the_remaining_members_to_run(self):
        scheduler, executed, room = self.watched_room()
        (fire, *_) = self.open_room(scheduler, room)
        executor = scheduler.executor
        scheduler.executor = lambda action: executor(action) or scheduler.cancel(action)
        scheduler.step()
        assert [target for *_, target in executed] == [0, 1, 2]


class TestSameTickReactions:
    def test_reaction_band_zero_runs_after_all_positive_bands(self):
        # Hand-traced oracle for the two-action schedule: the priority-10
        # action spawns a band-0 reaction, so order is A(10), B(5), reaction.
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, make_agent(0))
        room = MeetingRoom(0)
        ctx.add(ObjectKind.MEETING_ROOM, 0, room)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(
            WatcherRule(
                watcher_query=Query(kind=ObjectKind.AGENT),
                watchee_query=Query(kind=ObjectKind.MEETING_ROOM),
                watchee_state="open",
                reaction_kind=ActionKind.AGENT_SCAN,
                priority=0,
            )
        )
        trace = []

        def executor(action):
            trace.append((action.kind, action.priority))
            if action.target == "opener":
                scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)

        scheduler.executor = executor
        scheduler.schedule(ScheduledAction(kind=ActionKind.ROOM_OPEN, target="opener", start=0, priority=10))
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, start=0, priority=5))
        scheduler.step()
        assert trace == [
            (ActionKind.ROOM_OPEN, 10),
            (ActionKind.REPORT, 5),
            (ActionKind.AGENT_SCAN, 0),
        ]

    def test_unconfigured_reaction_runs_one_band_below_current(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, make_agent(0))
        room = MeetingRoom(0)
        ctx.add(ObjectKind.MEETING_ROOM, 0, room)
        scheduler = Scheduler(context=ctx)
        scheduler.register_watcher(
            WatcherRule(
                watcher_query=Query(kind=ObjectKind.AGENT),
                watchee_query=Query(kind=ObjectKind.MEETING_ROOM),
                watchee_state="open",
            )
        )
        bands = []

        def executor(action):
            bands.append(action.priority)
            if action.target == "opener":
                scheduler.notify_state_change(ObjectKind.MEETING_ROOM, 0, "closed", "open", room)

        scheduler.executor = executor
        scheduler.schedule(ScheduledAction(kind=ActionKind.ROOM_OPEN, target="opener", start=0, priority=40))
        scheduler.step()
        assert bands == [40, 39]

    def test_configured_priority_never_raises_band_above_cap(self):
        scheduler = Scheduler()
        seen = []
        scheduler.executor = lambda action: seen.append(action.priority) or (
            scheduler.enqueue_reaction(ActionKind.REPORT, None, priority=99)
            if action.target == "spawner"
            else None
        )
        scheduler.schedule(ScheduledAction(kind=ActionKind.REPORT, target="spawner", start=0, priority=20))
        scheduler.step()
        assert seen == [20, 19]


action_specs = st.lists(
    st.tuples(
        st.integers(0, 9),  # start
        st.integers(0, 4),  # interval (0 = one-shot)
        st.integers(-10, 10),  # priority
    ),
    min_size=1,
    max_size=50,
)


class TestOrderingOracle:
    @given(specs=action_specs)
    @settings(max_examples=200, deadline=None)
    def test_execution_matches_naive_simulator(self, specs):
        horizon = 12
        expected = naive_schedule_simulator(specs, horizon)

        scheduler = Scheduler()
        executed = []
        actions = {}

        def executor(action):
            executed.append((scheduler.now, actions[id(action)]))

        scheduler.executor = executor
        for index, (start, interval, priority) in enumerate(specs):
            action = scheduler.schedule(
                ScheduledAction(kind=ActionKind.REPORT, start=start, interval=interval, priority=priority)
            )
            actions[id(action)] = index
        run_ticks(scheduler, horizon)
        assert executed == expected

    @given(specs=action_specs)
    @settings(max_examples=100, deadline=None)
    def test_per_tick_order_is_sorted_by_priority_then_seq(self, specs):
        scheduler = Scheduler()
        by_tick: dict[int, list[tuple[int, int]]] = {}
        scheduler.executor = lambda action: by_tick.setdefault(scheduler.now, []).append(
            (-action.priority, action.seq)
        )
        for start, interval, priority in specs:
            scheduler.schedule(
                ScheduledAction(kind=ActionKind.REPORT, start=start, interval=interval, priority=priority)
            )
        run_ticks(scheduler, 12)
        for keys in by_tick.values():
            assert keys == sorted(keys)
