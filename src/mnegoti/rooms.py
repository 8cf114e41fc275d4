"""Meeting room lifecycle: open, admission, attendance, sessions.

A room cycles Closed -> Open -> InSession -> Closed (or Open -> Closed when
no session starts). Attendees are kept by id in entry order. ``seat`` makes
an agent an attendee; the engine seats an agent only after finding it idle
or watching and ``check_admission`` true, so no agent attends twice. A room
counts its completed openings in ``sessions``; what each one ended with is
in the run's ``session_end`` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

from .errors import ConfigurationError, InvalidTransitionError, RoomClosedError
from .model import Agent, AgentPhase, Issue, StrategyConfig
from .model import evaluate  # noqa: F401  (kept importable: benchmark/tracing.py patches it)
from .protocols import NegotiationSession, ProtocolConfig, build_session, utility


class RoomState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    IN_SESSION = "in_session"


class AdmissionKind(str, Enum):
    CONDITIONS = "conditions"
    INVITATIONS = "invitations"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Either group/interest conditions or an explicit invitation list.

    In conditions mode ``groups`` empty means any group, and ``threshold``
    None falls back to the scenario-wide interest threshold.
    """

    kind: AdmissionKind
    groups: tuple[int, ...] = ()
    threshold: float | None = None
    agents: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is AdmissionKind.INVITATIONS and not self.agents:
            raise ConfigurationError("invitation admission needs a non-empty agent list")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(f"admission threshold {self.threshold} outside [0, 1]")

    @cached_property
    def invited(self) -> frozenset[int]:
        """``agents`` as a set, built on the first admission check."""
        return frozenset(self.agents)


@dataclass(frozen=True)
class Agenda:
    """What one room opening is about and who may take part."""

    issue_ids: tuple[int, ...]
    admission: AdmissionPolicy
    protocol_id: str
    deadline_rounds: int

    def __post_init__(self) -> None:
        if not self.issue_ids:
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
        # Each agent's agenda utility, for the current opening only.
        self._agenda_utilities: dict[int, float] = {}

    def attendee_ids(self) -> list[int]:
        return sorted(self.attendees)

    def open(self, agenda: Agenda) -> None:
        if self.room_state is not RoomState.CLOSED:
            raise InvalidTransitionError(
                f"room {self.id} is {self.room_state.value}, cannot open"
            )
        self.agenda = agenda
        self._agenda_utilities = {}
        self.room_state = RoomState.OPEN

    def agenda_utility(self, agent: Agent, issues_by_id: Mapping[int, Issue]) -> float:
        """The agent's best utility over the current agenda, computed once per opening."""
        if self.agenda is None:
            raise RoomClosedError(f"room {self.id} has no agenda")
        best = self._agenda_utilities.get(agent.id)
        if best is None:
            best = max(utility(agent, issues_by_id[i]) for i in self.agenda.issue_ids)
            self._agenda_utilities[agent.id] = best
        return best

    def check_admission(
        self,
        agent: Agent,
        issues_by_id: Mapping[int, Issue],
        default_threshold: float = 0.0,
    ) -> bool:
        if self.room_state is not RoomState.OPEN:
            raise RoomClosedError(f"room {self.id} is not open")
        policy = self.agenda.admission
        if policy.kind is AdmissionKind.INVITATIONS:
            return agent.id in policy.invited
        if policy.groups and agent.group_id not in policy.groups:
            return False
        threshold = (
            policy.threshold if policy.threshold is not None else default_threshold
        )
        return self.agenda_utility(agent, issues_by_id) >= threshold

    def seat(self, agent: Agent) -> None:
        """Make the agent an attendee, with no checks.

        For a caller that has already found the room open, the agent idle or
        watching, and ``check_admission`` true.
        """
        self.attendees[agent.id] = agent
        agent.phase = AgentPhase.IN_ROOM

    def start_session(
        self,
        issues_by_id: Mapping[int, Issue],
        protocol: ProtocolConfig,
        group_strategies: Mapping[int, StrategyConfig],
        tick: int,
    ) -> NegotiationSession:
        """Start a session of the attendees; each takes its group's strategy."""
        if self.room_state is not RoomState.OPEN:
            raise InvalidTransitionError(
                f"room {self.id} is {self.room_state.value}, cannot start a session"
            )
        attendees = list(self.attendees.values())
        if len(attendees) < 2:
            raise InvalidTransitionError(
                f"room {self.id} needs at least 2 attendees, has {len(attendees)}"
            )
        session = build_session(
            room_id=self.id,
            agents=attendees,
            issues=[issues_by_id[i] for i in self.agenda.issue_ids],
            protocol=protocol,
            group_strategies=group_strategies,
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
        self._agenda_utilities = {}
        self.session = None
        self.room_state = RoomState.CLOSED
        return released
