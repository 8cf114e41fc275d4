"""Set semantics, insertion-ordered queries, and the same-group relation."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti.context import (
    Context,
    EdgeLabel,
    ObjectKind,
    Query,
    build_same_group_projection,
)
from mnegoti.engine import Simulation
from mnegoti.errors import DuplicateMemberError, NotFoundError
from mnegoti.model import Agent, AgentPhase
from mnegoti.rooms import MeetingRoom, Agenda, AdmissionPolicy, AdmissionKind
from mnegoti.scenario import load_scenario


def agent(ident, group=0, phase=AgentPhase.IDLE):
    a = Agent(id=ident, group_id=group, raw_prefs=(1.0,), weights=(1.0,))
    a.phase = phase
    return a


def filled_context(n_agents=3):
    ctx = Context()
    for i in range(n_agents):
        ctx.add(ObjectKind.AGENT, i, agent(i))
    return ctx


class TestMembership:
    def test_add_single_member(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, agent(0))
        assert (ObjectKind.AGENT, 0) in ctx
        assert len(ctx) == 1

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

    def test_version_counts_membership_changes_only(self):
        # A remove followed by an add leaves the length unchanged, so the
        # version, not ``len``, tells a member cache that it is stale.
        ctx = filled_context(2)
        assert ctx.version == 2
        ctx.remove(ObjectKind.AGENT, 1)
        ctx.add(ObjectKind.MEETING_ROOM, 1, MeetingRoom(1))
        assert (len(ctx), ctx.version) == (2, 4)
        ctx.get(ObjectKind.AGENT, 0).phase = AgentPhase.WATCHING
        ctx.query(Query(kind=ObjectKind.AGENT))
        with pytest.raises(DuplicateMemberError):
            ctx.add(ObjectKind.AGENT, 0, agent(0))
        with pytest.raises(NotFoundError):
            ctx.remove(ObjectKind.AGENT, 1)
        assert ctx.version == 4

    def test_remove_only_member_empties_context(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, agent(0))
        ctx.remove(ObjectKind.AGENT, 0)
        assert len(ctx) == 0

    def test_remove_absent_member_is_not_found(self):
        with pytest.raises(NotFoundError):
            Context().remove(ObjectKind.AGENT, 5)


class TestQuery:
    def test_open_room_filter(self):
        ctx = Context()
        open_room, closed_room = MeetingRoom(0), MeetingRoom(1)
        agenda = Agenda(
            issue_ids=(0,),
            admission=AdmissionPolicy(kind=AdmissionKind.CONDITIONS),
            protocol_id="p",
            deadline_rounds=1,
        )
        open_room.open(agenda)
        ctx.add(ObjectKind.MEETING_ROOM, 0, open_room)
        ctx.add(ObjectKind.MEETING_ROOM, 1, closed_room)
        hits = ctx.query(Query(kind=ObjectKind.MEETING_ROOM, state="open"))
        assert [ident for _, ident, _ in hits] == [0]

    def test_always_true_returns_all_in_insertion_order(self):
        ctx = filled_context(4)
        hits = ctx.query(lambda kind, ident, obj: True)
        assert [ident for _, ident, _ in hits] == [0, 1, 2, 3]

    def test_always_false_returns_empty(self):
        ctx = filled_context(4)
        assert ctx.query(lambda kind, ident, obj: False) == []

    def test_group_filter(self):
        ctx = Context()
        ctx.add(ObjectKind.AGENT, 0, agent(0, group=0))
        ctx.add(ObjectKind.AGENT, 1, agent(1, group=1))
        hits = ctx.query(Query(kind=ObjectKind.AGENT, group_id=1))
        assert [ident for _, ident, _ in hits] == [1]


class TestProjection:
    def test_same_group_projection_is_complete_graph(self):
        # Oracle: a complete graph K_n per group, n(n-1)/2 edges each, and
        # every member adjacent to exactly the other members of its group.
        for sizes in ([3], [1], [50], [3, 50], [1, 3], [50, 1]):
            groups, next_id = {}, 0
            for g, n in enumerate(sizes):
                # Listed out of order; neighbors must still come back ascending.
                groups[g] = list(reversed(range(next_id, next_id + n)))
                next_id += n
            ctx = filled_context(next_id)
            projection = build_same_group_projection(ctx, groups)
            expected_edges = sum(n * (n - 1) // 2 for n in sizes)
            assert projection.edge_count(EdgeLabel.SAME_GROUP) == expected_edges
            assert projection.edge_count() == expected_edges
            for ids in groups.values():
                for member in ids:
                    expected = sorted(set(ids) - {member})
                    assert projection.neighbors(member, EdgeLabel.SAME_GROUP) == expected
                    assert projection.neighbors(member) == expected

    def test_same_group_projection_needs_members_in_context(self):
        ctx = filled_context(2)
        with pytest.raises(NotFoundError):
            build_same_group_projection(ctx, {0: [0, 1, 2]})

    def test_remove_strips_same_group_edges(self):
        ctx = filled_context(7)
        projection = build_same_group_projection(ctx, {0: [0, 1, 2, 3], 1: [4, 5, 6]})
        assert projection.edge_count(EdgeLabel.SAME_GROUP) == 6 + 3
        ctx.remove(ObjectKind.AGENT, 2)
        assert projection.neighbors(2, EdgeLabel.SAME_GROUP) == []
        assert projection.neighbors(0, EdgeLabel.SAME_GROUP) == [1, 3]
        assert projection.neighbors(3, EdgeLabel.SAME_GROUP) == [0, 1]
        assert projection.neighbors(5, EdgeLabel.SAME_GROUP) == [4, 6]
        assert projection.edge_count(EdgeLabel.SAME_GROUP) == 3 + 3
        ctx.remove(ObjectKind.AGENT, 4)
        ctx.remove(ObjectKind.AGENT, 5)
        assert projection.neighbors(6, EdgeLabel.SAME_GROUP) == []
        assert projection.edge_count(EdgeLabel.SAME_GROUP) == 3

    def test_same_group_setup_memory_is_linear(self, minimal_doc):
        # A stored complete graph over 1 000 agents holds 499 500 edges and
        # peaks far above this bound; the implicit relation needs O(agents).
        minimal_doc["groups"][0]["member_count"] = 1000
        scenario = load_scenario(minimal_doc)
        tracemalloc.start()
        try:
            sim = Simulation(scenario, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sim.projections["same_group"].edge_count(EdgeLabel.SAME_GROUP) == 499_500
        assert peak < 8 * 2**20

ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 9)),
    min_size=1,
    max_size=80,
)


class TestSetSemanticsProperty:
    @given(ops=ops)
    @settings(max_examples=200)
    def test_multiplicity_never_exceeds_one(self, ops):
        ctx = Context()
        shadow: set[int] = set()  # independent model of membership
        for op, ident in ops:
            if op == "add":
                if ident in shadow:
                    with pytest.raises(DuplicateMemberError):
                        ctx.add(ObjectKind.AGENT, ident, agent(ident))
                else:
                    ctx.add(ObjectKind.AGENT, ident, agent(ident))
                    shadow.add(ident)
            else:
                if ident in shadow:
                    ctx.remove(ObjectKind.AGENT, ident)
                    shadow.remove(ident)
                else:
                    with pytest.raises(NotFoundError):
                        ctx.remove(ObjectKind.AGENT, ident)
            members = [i for _, i, _ in ctx.items()]
            assert len(members) == len(set(members))
            assert set(members) == shadow
