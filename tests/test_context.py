"""Set semantics, insertion-ordered queries, and linear set-up memory."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti.context import Context, ObjectKind, Query
from mnegoti.engine import Simulation
from mnegoti.errors import DuplicateMemberError
from mnegoti.model import Agent
from mnegoti.rooms import MeetingRoom
from mnegoti.scenario import load_scenario


def agent(ident, group=0):
    return Agent(id=ident, group_id=group, weights=(1.0,))


def filled_context(n_agents=3):
    ctx = Context()
    for i in range(n_agents):
        ctx.add(ObjectKind.AGENT, i, agent(i))
    return ctx


class TestMembership:
    def test_add_single_member(self):
        ctx = Context()
        member = agent(0)
        ctx.add(ObjectKind.AGENT, 0, member)
        assert list(ctx.items()) == [(ObjectKind.AGENT, 0, member)]

    def test_duplicate_add_always_errors(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, agent(0))
        with pytest.raises(DuplicateMemberError):
            ctx.add(ObjectKind.AGENT, 0, agent(0))

    def test_same_id_different_kind_coexists_in_insertion_order(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, agent(0))
        ctx.add(ObjectKind.MEETING_ROOM, 0, MeetingRoom(0))
        keys = [(k, i) for k, i, _ in ctx.items()]
        assert keys == [(ObjectKind.AGENT, 0), (ObjectKind.MEETING_ROOM, 0)]


class TestQuery:
    def test_empty_query_returns_all_in_insertion_order(self):
        ctx = Context()
        for ident in (2, 0, 3, 1):
            ctx.add(ObjectKind.AGENT, ident, agent(ident))
        hits = ctx.query(Query())
        assert [ident for _, ident, _ in hits] == [2, 0, 3, 1]

    def test_query_matching_nothing_returns_empty(self):
        ctx = filled_context(4)
        assert ctx.query(Query(kind=ObjectKind.MEETING_ROOM)) == []
        assert ctx.query(Query(kind=ObjectKind.AGENT, ident=9)) == []

    def test_group_filter(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, agent(0, group=0))
        ctx.add(ObjectKind.AGENT, 1, agent(1, group=1))
        hits = ctx.query(Query(kind=ObjectKind.AGENT, group_id=1))
        assert [ident for _, ident, _ in hits] == [1]

    def test_group_filter_never_matches_rooms(self):
        ctx = Context()
        ctx.add(ObjectKind.MEETING_ROOM, 0, MeetingRoom(0))
        ctx.add(ObjectKind.AGENT, 1, agent(1, group=0))
        hits = ctx.query(Query(group_id=0))
        assert [(kind, ident) for kind, ident, _ in hits] == [(ObjectKind.AGENT, 1)]


class TestSetupMemory:
    def test_simulation_setup_memory_is_linear(self, minimal_doc):
        # One group of 1 000 agents: a stored same-group graph would hold
        # 499 500 edges and peak far above this bound.
        minimal_doc["groups"][0]["member_count"] = 1000
        scenario = load_scenario(minimal_doc)
        tracemalloc.start()
        try:
            sim = Simulation(scenario, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sim.agents) == 1000
        assert peak < 8 * 2**20

    def test_simulation_members_are_the_context_dicts(self, minimal_doc):
        # The context is the one member store: set-up keeps no second copy.
        sim = Simulation(load_scenario(minimal_doc))
        assert sim.agents is sim.context.agents and sim.rooms is sim.context.rooms
        assert list(sim.agents) == [0, 1] and list(sim.rooms) == [0]


# (kind, id) adds; agents and rooms share the id range, so both kinds can
# hold one id.
adds = st.lists(st.tuples(st.sampled_from(list(ObjectKind)), st.integers(0, 9)), max_size=80)


class TestSetSemanticsProperty:
    @given(adds=adds)
    @settings(max_examples=200)
    def test_multiplicity_never_exceeds_one(self, adds):
        ctx = Context()
        shadow: list[tuple[ObjectKind, int]] = []  # independent model of membership
        for kind, ident in adds:
            obj = agent(ident) if kind is ObjectKind.AGENT else MeetingRoom(ident)
            if (kind, ident) in shadow:
                with pytest.raises(DuplicateMemberError):
                    ctx.add(kind, ident, obj)
            else:
                ctx.add(kind, ident, obj)
                shadow.append((kind, ident))
            # The agents, then the rooms, each kind in insertion order.
            expected = [m for m in shadow if m[0] is ObjectKind.AGENT]
            expected += [m for m in shadow if m[0] is ObjectKind.MEETING_ROOM]
            assert [(k, i) for k, i, _ in ctx.items()] == expected
