"""Meeting room lifecycle: open, admission, attendance, sessions.

A room cycles Closed -> Open -> InSession -> Closed (or Open -> Closed when
no session starts). Attendees are kept by id in entry order. ``seat`` makes
an agent an attendee; the engine seats an agent only after finding it idle
or watching and admitted, so no agent attends twice. A room counts its
completed openings in ``sessions``; what each one ended with is in the
run's ``session_end`` records.
``check_admission`` and ``seat``, run per scan and room, compare against
enum members bound to module names, as ``engine`` explains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf
from operator import attrgetter
from typing import Mapping

from .errors import ConfigurationError, InvalidTransitionError, RoomClosedError
from .model import Agent, AgentPhase, Issue, StrategyConfig, evaluate
from .protocols import NegotiationSession, ProtocolConfig, utility


class RoomState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    IN_SESSION = "in_session"


class AdmissionKind(str, Enum):
    CONDITIONS = "conditions"
    INVITATIONS = "invitations"


_OPEN = RoomState.OPEN
_CONDITIONS, _INVITATIONS = AdmissionKind.CONDITIONS, AdmissionKind.INVITATIONS
_IN_ROOM = AgentPhase.IN_ROOM


@dataclass(frozen=True)
class AdmissionPolicy:
    """Either group/interest conditions or an explicit invitation list.

    In conditions mode ``groups`` empty means any group; the loader gives a
    policy with no ``threshold`` the scenario-wide ``theta_in``.
    """

    kind: AdmissionKind
    groups: tuple[int, ...] = ()
    threshold: float = 0.0
    agents: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.kind is AdmissionKind.INVITATIONS and not self.agents:
            raise ConfigurationError("invitation admission needs a non-empty agent list")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"admission threshold {self.threshold} outside [0, 1]")


@dataclass(frozen=True)
class Agenda:
    """What one room opening is about and who may take part, resolved at load."""

    issues: tuple[Issue, ...]  # the scenario's own, by ascending id
    admission: AdmissionPolicy
    protocol: ProtocolConfig  # the scenario's own
    deadline_rounds: int

    def __post_init__(self) -> None:
        if not self.issues:
            raise ConfigurationError("agenda needs at least one issue")
        if self.deadline_rounds < 1:
            raise ConfigurationError("agenda deadline_rounds must be >= 1")


class MeetingRoom:
    """One negotiation venue; can be opened many times."""

    def __init__(self, room_id: int) -> None:
        self.id = room_id
        self.room_state = RoomState.CLOSED
        self.agenda: Agenda | None = None
        self.attendees: dict[int, Agent] = {}
        self.session: NegotiationSession | None = None
        self.sessions = 0

    def attendee_ids(self) -> list[int]:
        return sorted(self.attendees)

    def open(self, agenda: Agenda) -> None:
        if self.room_state is not RoomState.CLOSED:
            raise InvalidTransitionError(
                f"room {self.id} is {self.room_state.value}, cannot open"
            )
        self.agenda = agenda
        self.room_state = RoomState.OPEN

    def check_admission(self, agent: Agent) -> float | None:
        """The agent's best agenda utility if the room admits it, else None.

        One walk of the agenda reads the agent's utility table, fills each
        empty cell with ``evaluate`` and keeps the maximum.
        """
        if self.room_state is not _OPEN:
            raise RoomClosedError(f"room {self.id} is not open")
        agenda = self.agenda
        policy = agenda.admission
        if policy.kind is _INVITATIONS:
            if agent.id not in policy.agents:
                return None
        elif policy.groups and agent.group_id not in policy.groups:
            return None
        table = agent.utilities
        best = -inf
        for issue in agenda.issues:
            u = table.get(issue.id)
            if u is None:
                u = table[issue.id] = evaluate(agent, issue)
            if u > best:
                best = u
        if policy.kind is _CONDITIONS and best < policy.threshold:
            return None
        return best

    def seat(self, agent: Agent) -> None:
        """Seat the agent, unchecked: the caller found it idle or watching, and admitted."""
        self.attendees[agent.id] = agent
        agent.phase = _IN_ROOM

    def start_session(
        self, group_strategies: Mapping[int, StrategyConfig], tick: int
    ) -> NegotiationSession:
        """Start a session of the attendees on the agenda; each takes its group's strategy.

        Participants and issues are fixed in ascending id. The session reads
        each attendee's utility table in place, with every agenda cell
        still empty filled first; a group absent from ``group_strategies``
        takes ``StrategyConfig()``.
        """
        if self.room_state is not RoomState.OPEN:
            raise InvalidTransitionError(
                f"room {self.id} is {self.room_state.value}, cannot start a session"
            )
        attendees = sorted(self.attendees.values(), key=attrgetter("id"))
        if len(attendees) < 2:
            raise InvalidTransitionError(
                f"room {self.id} needs at least 2 attendees, has {len(attendees)}"
            )
        issues = sorted(self.agenda.issues, key=attrgetter("id"))
        for attendee in attendees:
            for issue in issues:
                utility(attendee, issue)
        session = NegotiationSession(
            issue_ids=tuple(issue.id for issue in issues),
            participants=tuple(a.id for a in attendees),
            utilities={a.id: a.utilities for a in attendees},
            strategies={
                a.id: group_strategies.get(a.group_id, StrategyConfig()) for a in attendees
            },
            protocol=self.agenda.protocol,
            deadline_rounds=self.agenda.deadline_rounds,
            started_tick=tick,
        )
        self.session = session
        self.room_state = RoomState.IN_SESSION
        for attendee in attendees:
            attendee.phase = AgentPhase.NEGOTIATING
        return session

    def close(self) -> list[int]:
        """Count the opening, release attendees to Idle, return their ids."""
        if self.room_state is RoomState.CLOSED:
            raise InvalidTransitionError(f"room {self.id} is already closed")
        released = self.attendee_ids()
        self.sessions += 1
        for agent in self.attendees.values():
            agent.phase = AgentPhase.IDLE
        self.attendees = {}
        self.agenda = None
        self.session = None
        self.room_state = RoomState.CLOSED
        return released
