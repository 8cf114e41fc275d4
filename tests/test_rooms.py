"""Room lifecycle, admission policies, attendance, and session counts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti import protocols
from mnegoti.errors import ConfigurationError, InvalidTransitionError, RoomClosedError
from mnegoti.model import Agent, AgentPhase, Issue, StrategyConfig, StrategyKind
from mnegoti.protocols import ProtocolConfig, ProtocolKind, SessionStatus, run_round
from mnegoti.rooms import (
    AdmissionKind,
    AdmissionPolicy,
    Agenda,
    MeetingRoom,
    RoomState,
)

ISSUES = {
    0: Issue(id=0, name="a", scores=(0.9, 0.1)),
    1: Issue(id=1, name="b", scores=(0.2, 0.8)),
    2: Issue(id=2, name="c", scores=(0.55, 0.55)),
    3: Issue(id=3, name="d", scores=(0.0, 1.0)),
}

PROTOCOL = ProtocolConfig(id="p", kind=ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=4)


def conditions_agenda(issue_ids=(0, 1), groups=(), threshold=0.0, deadline=4):
    return Agenda(
        issues=tuple(ISSUES[i] for i in issue_ids),
        admission=AdmissionPolicy(
            kind=AdmissionKind.CONDITIONS, groups=tuple(groups), threshold=threshold
        ),
        protocol=PROTOCOL,
        deadline_rounds=deadline,
    )


def invitations_agenda(agents, issue_ids=(0, 1), threshold=0.0):
    return Agenda(
        issues=tuple(ISSUES[i] for i in issue_ids),
        admission=AdmissionPolicy(
            kind=AdmissionKind.INVITATIONS, agents=frozenset(agents), threshold=threshold
        ),
        protocol=PROTOCOL,
        deadline_rounds=4,
    )


def make_agent(ident, weights=(0.5, 0.5), group=0):
    return Agent(id=ident, group_id=group, weights=tuple(weights))


def admit(room, agent):
    """Seat the agent as the engine's scan does, once the room admits it."""
    assert room.check_admission(agent) is not None
    room.seat(agent)


class TestLifecycle:
    def test_open_closed_room(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda())
        assert room.room_state is RoomState.OPEN
        assert room.attendee_ids() == []
        assert room.sessions == 0

    def test_open_twice_is_invalid(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda())
        with pytest.raises(InvalidTransitionError):
            room.open(conditions_agenda())

    def test_close_closed_room_is_invalid(self):
        with pytest.raises(InvalidTransitionError):
            MeetingRoom(0).close()

    def test_close_releases_attendees_and_counts_the_session(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda())
        a, b = make_agent(1), make_agent(2)
        admit(room, b)
        admit(room, a)
        released = room.close()
        assert released == [1, 2]
        assert a.phase is AgentPhase.IDLE and b.phase is AgentPhase.IDLE
        assert room.room_state is RoomState.CLOSED
        assert room.attendee_ids() == [] and room.agenda is None
        assert room.sessions == 1

    def test_reopen_counts_every_session(self):
        room = MeetingRoom(0)
        for _ in range(3):
            room.open(conditions_agenda())
            room.close()
        assert room.sessions == 3


class TestAdmission:
    def test_invitation_list_membership(self):
        room = MeetingRoom(0)
        room.open(invitations_agenda([3, 7]))
        assert room.check_admission(make_agent(3)) == pytest.approx(0.5)
        assert room.check_admission(make_agent(7)) == pytest.approx(0.5)
        assert room.check_admission(make_agent(4)) is None

    @pytest.mark.parametrize("invited", [[5], [9, 2, 40]], ids=["single", "unsorted"])
    def test_only_the_list_decides(self, invited):
        # Weights (1, 0) give utility 0.2 on issue 1, the whole agenda, so
        # neither the group nor the interest threshold would admit anyone.
        room = MeetingRoom(0)
        room.open(invitations_agenda(invited, issue_ids=(1,), threshold=0.9))
        for ident in range(max(invited) + 2):
            agent = make_agent(ident, (1.0, 0.0), group=3)
            expected = pytest.approx(0.2) if ident in invited else None
            assert room.check_admission(agent) == expected

    def test_zero_threshold_admits_every_group_eligible_agent(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda(groups=(0,), threshold=0.0))
        assert room.check_admission(make_agent(1, group=0)) == pytest.approx(0.5)
        assert room.check_admission(make_agent(2, group=1)) is None

    def test_interest_threshold_uses_max_agenda_utility(self):
        # Oracle: max of evaluate over the agenda; weights (0.5, 0.5) give
        # utilities 0.5 on both agenda issues, short of 0.6.
        agent = make_agent(1)
        room = MeetingRoom(0)
        room.open(conditions_agenda(issue_ids=(0, 1), threshold=0.6))
        assert room.check_admission(agent) is None

        room2 = MeetingRoom(1)
        room2.open(conditions_agenda(issue_ids=(0, 1, 2), threshold=0.55))
        assert room2.check_admission(agent) == pytest.approx(0.55)

    def test_zero_utility_is_admitted(self):
        # Weights (1, 0) give utility 0.0 on issue 3, the whole agenda: an
        # admitted agent, told apart from a refused one only by None.
        agent = make_agent(1, (1.0, 0.0))
        for agenda in (conditions_agenda(issue_ids=(3,)), invitations_agenda([1], issue_ids=(3,))):
            room = MeetingRoom(0)
            room.open(agenda)
            assert room.check_admission(agent) == 0.0

    @pytest.mark.parametrize(
        "agenda",
        [
            conditions_agenda(groups=(1, 2)),
            conditions_agenda(threshold=0.6),
            invitations_agenda([2, 3]),
        ],
        ids=["wrong_group", "below_threshold", "not_invited"],
    )
    def test_each_refusal_is_none(self, agenda):
        room = MeetingRoom(0)
        room.open(agenda)
        assert room.check_admission(make_agent(1, group=0)) is None

    def test_agenda_is_walked_once_per_call(self):
        reads = []

        class RecordingTable(dict):
            """A utility table that records the issue id of each read."""

            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

        agent, outsider = make_agent(1), make_agent(2, group=1)
        agent.utilities, outsider.utilities = RecordingTable(), RecordingTable()
        room = MeetingRoom(0)
        room.open(conditions_agenda(issue_ids=(0, 1), threshold=0.5))
        assert room.check_admission(agent) == pytest.approx(0.5)
        assert reads == [0, 1]
        assert room.check_admission(agent) == pytest.approx(0.5)
        assert reads == [0, 1, 0, 1]
        room.close()
        room.open(conditions_agenda(issue_ids=(0, 1, 2), groups=(0,)))
        assert room.check_admission(agent) == pytest.approx(0.55)
        assert reads == [0, 1, 0, 1, 0, 1, 2]
        # A wrong group is refused before any utility is read.
        assert room.check_admission(outsider) is None
        assert reads == [0, 1, 0, 1, 0, 1, 2]

    def test_admission_on_closed_room_errors(self):
        with pytest.raises(RoomClosedError):
            MeetingRoom(0).check_admission(make_agent(1))


class TestSeat:
    def test_admitted_idle_agent_becomes_attendee(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda())
        agent = make_agent(1)
        admit(room, agent)
        assert room.attendee_ids() == [1]
        assert agent.phase is AgentPhase.IN_ROOM

    def test_seating_twice_keeps_one_attendee(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda())
        agent = make_agent(1)
        admit(room, agent)
        room.seat(agent)
        assert room.attendee_ids() == [1]

    def test_watching_agent_becomes_attendee(self):
        room = MeetingRoom(0)
        room.open(conditions_agenda())
        watcher, idle = make_agent(2), make_agent(1)
        watcher.phase = AgentPhase.WATCHING
        admit(room, watcher)
        admit(room, idle)
        assert room.attendee_ids() == [1, 2]
        assert watcher.phase is AgentPhase.IN_ROOM


class TestStartSession:
    def open_with(self, *agents):
        room = MeetingRoom(0)
        room.open(conditions_agenda(deadline=3))
        for agent in agents:
            admit(room, agent)
        return room

    def test_two_attendees_start_a_session(self):
        first, second = make_agent(1), make_agent(2, weights=(0.9, 0.1))
        room = self.open_with(first, second)
        session = room.start_session({}, tick=1)
        assert room.room_state is RoomState.IN_SESSION
        assert session.participants == (1, 2)
        assert session.deadline_rounds == 3  # agenda wins over protocol default
        assert first.phase is AgentPhase.NEGOTIATING
        assert second.phase is AgentPhase.NEGOTIATING

    def test_each_participant_takes_its_groups_strategy(self):
        # Group ids 0 and 1 are also agent ids: a map read by agent id would
        # give agent 1 group 1's strategy and agent 2 the default.
        trade_off = StrategyConfig(kind=StrategyKind.TRADE_OFF, beta=0.5)
        top_bid = StrategyConfig(kind=StrategyKind.TOP_BID, beta=2.0)
        room = self.open_with(
            make_agent(1, group=0), make_agent(2, group=0), make_agent(3, group=5)
        )
        session = room.start_session({0: trade_off, 1: top_bid}, tick=1)
        assert session.strategies == {1: trade_off, 2: trade_off, 3: StrategyConfig()}

    def test_invitation_session_fills_each_agenda_cell_once(self, monkeypatch):
        # Seated with no admission check, the invitees have read no utility,
        # so starting the session evaluates every participant's agenda
        # issues, and nothing else.
        evaluated = []
        evaluate = protocols.evaluate

        def counted(agent, issue):
            evaluated.append((agent.id, issue.id))
            return evaluate(agent, issue)

        monkeypatch.setattr(protocols, "evaluate", counted)
        invited, outsider = [make_agent(2), make_agent(1, weights=(0.9, 0.1))], make_agent(3)
        room = MeetingRoom(0)
        room.open(invitations_agenda([1, 2], issue_ids=(0, 2)))
        for agent in invited:
            room.seat(agent)
        assert evaluated == []
        session = room.start_session({}, tick=1)
        assert evaluated == [(1, 0), (1, 2), (2, 0), (2, 2)]
        cells = {(a.id, i) for a in (*invited, outsider) for i in a.utilities}
        assert cells == {(1, 0), (1, 2), (2, 0), (2, 2)}
        assert all(session.utilities[a.id] is a.utilities for a in invited)

    def test_single_attendee_cannot_start(self):
        room = self.open_with(make_agent(1))
        with pytest.raises(InvalidTransitionError):
            room.start_session({}, tick=1)

    def test_session_runs_to_recorded_outcome(self):
        room = self.open_with(make_agent(1, weights=(1.0, 0.0)), make_agent(2, weights=(0.0, 1.0)))
        session = room.start_session({}, tick=1)
        while session.status.value == "active":
            run_round(session)
        assert session.status is SessionStatus.FAILED and session.round == 2
        assert session.participants == (1, 2)
        assert room.close() == [1, 2]
        assert room.session is None and room.sessions == 1


class TestAgendaValidation:
    def test_empty_issue_list_rejected(self):
        with pytest.raises(ConfigurationError):
            Agenda(
                issues=(),
                admission=AdmissionPolicy(kind=AdmissionKind.CONDITIONS),
                protocol=PROTOCOL,
                deadline_rounds=1,
            )

    def test_zero_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            conditions_agenda(deadline=0)

    def test_empty_invitation_list_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(kind=AdmissionKind.INVITATIONS, agents=frozenset())

    def test_threshold_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionPolicy(kind=AdmissionKind.CONDITIONS, threshold=1.5)


class TestStateMachineProperty:
    """Random op sequences only ever reach legal states via legal transitions."""

    LEGAL = {
        (RoomState.CLOSED, RoomState.OPEN),
        (RoomState.OPEN, RoomState.IN_SESSION),
        (RoomState.OPEN, RoomState.CLOSED),
        (RoomState.IN_SESSION, RoomState.CLOSED),
    }

    @given(
        ops=st.lists(
            st.sampled_from(["open", "enter", "start", "close"]), min_size=1, max_size=40
        )
    )
    @settings(max_examples=200)
    def test_random_sequences(self, ops):
        room = MeetingRoom(0)
        agents = [make_agent(i, weights=(0.6, 0.4)) for i in range(1, 4)]
        transitions = []
        for op in ops:
            before = room.room_state
            try:
                if op == "open":
                    room.open(conditions_agenda())
                elif op == "enter":
                    for agent in agents:
                        if agent.phase is AgentPhase.IDLE and room.room_state is RoomState.OPEN:
                            admit(room, agent)
                elif op == "start":
                    room.start_session({}, tick=0)
                else:
                    room.close()
            except (InvalidTransitionError, RoomClosedError):
                assert room.room_state is before
                continue
            if room.room_state is not before:
                transitions.append((before, room.room_state))
        assert all(t in self.LEGAL for t in transitions)
        # An agent attends the room exactly while it is not idle.
        for agent in agents:
            assert (agent.id in room.attendees) is (agent.phase is not AgentPhase.IDLE)
