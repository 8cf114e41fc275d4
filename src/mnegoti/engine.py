"""The simulation engine: one seeded, single-threaded run of a scenario.

Wires the population context, meeting rooms, watcher rules and the tick
scheduler together, dispatches scheduled actions, and accumulates the
ordered event log. ``run`` steps ticks 0..ticks; ``step`` runs one tick
and does nothing once the last tick has run. Everything an action
mutates is notified to the scheduler so watcher rules can react; the
sequence of log records is a pure function of (scenario, seed).

An agent scan walks only the open rooms, and a watching agent whose last
scan found no room skips the walk until another room opens (see
``_exec_agent_scan``).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

import numpy as np

from .context import Context, ObjectKind
from .model import Agent, AgentPhase, StrategyConfig, spawn_members
from .protocols import (
    FailureReason,
    NegotiationOutcome,
    RoundBlock,
    SessionStatus,
    failed_outcome,
    run_round,
    session_outcome,
)
from .rooms import AdmissionKind, MeetingRoom, RoomState
from .scenario import Scenario
from .scheduler import ActionKind, ScheduledAction, Scheduler

# Default priority bands; larger runs earlier within a tick. Watcher
# reactions land one band below the action that fired them.
OPEN_PRIORITY = 100
CLOSE_PRIORITY = 90
SCAN_PRIORITY = 80
ROUND_PRIORITY = 50

# Kept importable only because benchmark/tracing.py patches this name;
# nothing calls it.
build_same_group_projection = None


@dataclass(frozen=True)
class EventRecord:
    """One line of the run's event log."""

    tick: int
    priority: int | None
    kind: str
    data: dict


@dataclass
class Simulation:
    scenario: Scenario
    seed: int | None = None
    ticks: int | None = None

    context: Context = field(init=False)
    scheduler: Scheduler = field(init=False)
    agents: dict[int, Agent] = field(init=False, default_factory=dict)
    rooms: dict[int, MeetingRoom] = field(init=False, default_factory=dict)
    events: list[EventRecord] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.seed is None:
            self.seed = self.scenario.seed
        if self.ticks is None:
            self.ticks = self.scenario.ticks
        self.rng = np.random.default_rng(self.seed)
        self.issues = self.scenario.normalized_issues()
        self.issues_by_id = {i.id: i for i in self.issues}
        self.strategies: dict[int, StrategyConfig] = {}
        self.context = Context()
        self.scheduler = Scheduler(executor=self._execute, context=self.context)
        self._round_actions: dict[int, ScheduledAction] = {}
        # Rooms in the OPEN state, by ascending id; openings so far; and, per
        # agent, the openings count at its last scan that found no room.
        self._open_rooms: list[MeetingRoom] = []
        self._openings = 0
        self._empty_scan_at: dict[int, int] = {}
        self._setup()

    # -- setup -----------------------------------------------------------

    def _setup(self) -> None:
        self._log(
            "scenario_loaded",
            seed=self.seed,
            ticks=self.ticks,
            criteria=len(self.scenario.criteria),
            issues=len(self.issues),
            groups=len(self.scenario.groups),
            agents=self.scenario.total_agents,
            rooms=len(self.scenario.rooms),
        )
        next_id = 0
        for group in self.scenario.groups:
            members = spawn_members(group, self.rng, next_id)
            next_id += group.member_count
            for agent in members:
                self.agents[agent.id] = agent
                self.strategies[agent.id] = group.strategy
                self.context.add(ObjectKind.AGENT, agent.id, agent)
            self._log(
                "population_spawned",
                group=group.id,
                name=group.name,
                members=[a.id for a in members],
            )

        for spec in sorted(self.scenario.rooms, key=lambda r: r.id):
            room = MeetingRoom(spec.id)
            self.rooms[spec.id] = room
            self.context.add(ObjectKind.MEETING_ROOM, spec.id, room)

        for rule in self.scenario.watchers:
            self.scheduler.register_watcher(rule)

        for spec in sorted(self.scenario.rooms, key=lambda r: r.id):
            for entry in spec.schedule:
                if entry.action == "open":
                    self.scheduler.schedule(
                        ScheduledAction(
                            kind=ActionKind.ROOM_OPEN,
                            target=spec.id,
                            start=entry.at,
                            priority=entry.priority if entry.priority is not None else OPEN_PRIORITY,
                            payload=entry.agenda,
                        )
                    )
                else:
                    self.scheduler.schedule(
                        ScheduledAction(
                            kind=ActionKind.ROOM_CLOSE,
                            target=spec.id,
                            start=entry.at,
                            priority=entry.priority if entry.priority is not None else CLOSE_PRIORITY,
                        )
                    )

    # -- run loop --------------------------------------------------------

    def run(self) -> list[EventRecord]:
        while self.now <= self.ticks:
            self.step()
        return self.events

    def step(self) -> None:
        """Run the current tick, unless the last tick has already run."""
        if self.now <= self.ticks:
            self.scheduler.step()

    @property
    def now(self) -> int:
        return self.scheduler.now

    # -- logging / notification ------------------------------------------

    def _log(self, kind: str, **data: Any) -> None:
        self.events.append(
            EventRecord(
                tick=self.scheduler.now,
                priority=self.scheduler.current_band,
                kind=kind,
                data=data,
            )
        )

    def _notify_agent(self, agent: Agent, old_phase: AgentPhase) -> None:
        fired = self.scheduler.notify_state_change(
            ObjectKind.AGENT, agent.id, old_phase.value, agent.phase.value, agent
        )
        self._log_fired(fired)

    def _notify_room(self, room: MeetingRoom, old_state: RoomState) -> None:
        fired = self.scheduler.notify_state_change(
            ObjectKind.MEETING_ROOM, room.id, old_state.value, room.room_state.value, room
        )
        self._log_fired(fired)

    def _log_fired(self, fired) -> None:
        for f in fired:
            self._log(
                "watcher_fired",
                rule=f.rule_id,
                watcher=f.watcher_id,
                watchee_kind=f.watchee_kind.value,
                watchee=f.watchee_id,
                reaction=f.action.kind.value,
                at=f.action.start,
                band=f.action.priority,
            )

    # -- action dispatch ---------------------------------------------------

    def _execute(self, action: ScheduledAction) -> None:
        if action.kind is ActionKind.ROOM_OPEN:
            self._exec_room_open(action)
        elif action.kind is ActionKind.ROOM_INVITE:
            self._exec_room_invite(action)
        elif action.kind is ActionKind.AGENT_SCAN:
            self._exec_agent_scan(action)
        elif action.kind is ActionKind.NEGOTIATION_ROUND:
            self._exec_negotiation_round(action)
        elif action.kind is ActionKind.ROOM_CLOSE:
            self._exec_room_close(action)
        elif action.kind is ActionKind.REPORT:
            self._exec_report(action)

    def _exec_room_open(self, action: ScheduledAction) -> None:
        room = self.rooms[action.target]
        agenda = action.payload
        old = room.room_state
        if old is not RoomState.CLOSED:
            self._log("room_open_skipped", room=room.id, state=old.value)
            return
        room.open(agenda)
        insort(self._open_rooms, room, key=attrgetter("id"))
        self._openings += 1
        self._log(
            "room_opened",
            room=room.id,
            issues=list(agenda.issue_ids),
            protocol=agenda.protocol_id,
            admission=agenda.admission.kind.value,
            deadline_rounds=agenda.deadline_rounds,
        )
        self._notify_room(room, old)
        if agenda.admission.kind is AdmissionKind.INVITATIONS:
            self.scheduler.enqueue_reaction(ActionKind.ROOM_INVITE, room.id)
        self._round_actions[room.id] = self.scheduler.schedule(
            ScheduledAction(
                kind=ActionKind.NEGOTIATION_ROUND,
                target=room.id,
                start=self.now + 1,
                interval=1,
                priority=ROUND_PRIORITY,
            )
        )

    def _exec_room_invite(self, action: ScheduledAction) -> None:
        room = self.rooms[action.target]
        if room.room_state is not RoomState.OPEN or room.agenda is None:
            return
        policy = room.agenda.admission
        if policy.kind is not AdmissionKind.INVITATIONS:
            return
        for agent_id in sorted(policy.agents):
            self._log("invitation_sent", room=room.id, agent=agent_id)
            agent = self.agents[agent_id]
            if agent.phase in (AgentPhase.IDLE, AgentPhase.WATCHING):
                self.scheduler.enqueue_reaction(ActionKind.AGENT_SCAN, agent_id)

    def _exec_agent_scan(self, action: ScheduledAction) -> None:
        """Enter the best admissible open room, or watch when none admits the agent.

        Admission depends only on the agent's fixed utilities and group and
        on the agenda of an open room, which stays fixed while the room is
        open. Rooms enter the OPEN state only by opening and leave it by
        starting a session or closing, so between two openings the set of
        open rooms can only shrink. A watching agent whose last scan found
        no room therefore finds none again until a room opens, and its scan
        is skipped without changing anything the run does.
        """
        agent = self.agents[action.target]
        if agent.phase not in (AgentPhase.IDLE, AgentPhase.WATCHING):
            return
        if (
            agent.phase is AgentPhase.WATCHING
            and self._empty_scan_at.get(agent.id) == self._openings
        ):
            return
        # Highest own max-utility over the agenda wins; lowest room id on ties.
        best = None
        best_utility = 0.0
        for room in self._open_rooms:
            if not room.check_admission(agent, self.issues_by_id, self.scenario.theta_in):
                continue
            u = room.agenda_utility(agent, self.issues_by_id)
            if best is None or u > best_utility:
                best, best_utility = room, u
        if best is None:
            self._empty_scan_at[agent.id] = self._openings
            if agent.phase is AgentPhase.IDLE:
                agent.phase = AgentPhase.WATCHING
                self._log("agent_watching", agent=agent.id)
                self._notify_agent(agent, AgentPhase.IDLE)
            return
        old_phase = agent.phase
        best.seat(agent)
        self._log("agent_entered", agent=agent.id, room=best.id, utility=best_utility)
        self._notify_agent(agent, old_phase)

    def _exec_negotiation_round(self, action: ScheduledAction) -> None:
        room = self.rooms[action.target]
        if room.room_state is RoomState.CLOSED:
            self.scheduler.cancel(action)
            return
        if room.room_state is RoomState.OPEN:
            attendees = room.attendee_ids()
            if len(attendees) < 2:
                self._log("session_no_quorum", room=room.id, attendees=attendees)
                self._close_room(room, failed_outcome(attendees, FailureReason.NO_QUORUM))
                return
            protocol = self.scenario.protocol(room.agenda.protocol_id)
            session = room.start_session(self.issues, protocol, self.strategies, self.now)
            self._open_rooms.remove(room)
            self._log(
                "session_started",
                room=room.id,
                participants=list(session.participants),
                protocol=protocol.kind.value,
                issues=list(session.issue_ids),
                deadline_rounds=session.deadline_rounds,
            )
            self._notify_room(room, RoomState.OPEN)
            for aid in session.participants:
                self._notify_agent(self.agents[aid], AgentPhase.IN_ROOM)
        session = room.session
        rounds_per_tick = session.protocol.rounds_per_tick
        for _ in range(rounds_per_tick):
            if session.status is not SessionStatus.ACTIVE:
                break
            block = run_round(session)
            self._log_round(room.id, block)
        if session.status is not SessionStatus.ACTIVE:
            session.ended_tick = self.now
            self._close_room(room, session_outcome(session))

    def _exec_room_close(self, action: ScheduledAction) -> None:
        room = self.rooms[action.target]
        if room.room_state is RoomState.CLOSED:
            self._log("room_close_skipped", room=room.id)
            return
        if room.room_state is RoomState.IN_SESSION:
            session = room.session
            session.force_fail(FailureReason.FORCED_CLOSE)
            session.ended_tick = self.now
            outcome = session_outcome(session)
        else:
            outcome = failed_outcome(room.attendee_ids(), FailureReason.FORCED_CLOSE)
        self._close_room(room, outcome)

    def _exec_report(self, action: ScheduledAction) -> None:
        phases: dict[str, int] = {}
        for agent in self.agents.values():
            phases[agent.phase.value] = phases.get(agent.phase.value, 0) + 1
        self._log(
            "report",
            rooms={str(rid): room.room_state.value for rid, room in sorted(self.rooms.items())},
            agent_phases={k: phases[k] for k in sorted(phases)},
            sessions_completed=sum(r.sessions for r in self.rooms.values()),
        )

    # -- shared close path -------------------------------------------------

    def _close_room(self, room: MeetingRoom, outcome: NegotiationOutcome) -> None:
        # Attendees sit IN_ROOM while the room is open and NEGOTIATING in session.
        old_state = room.room_state
        old_phase = AgentPhase.IN_ROOM if old_state is RoomState.OPEN else AgentPhase.NEGOTIATING
        released = room.close()
        if old_state is RoomState.OPEN:
            self._open_rooms.remove(room)
        round_action = self._round_actions.pop(room.id, None)
        if round_action is not None:
            self.scheduler.cancel(round_action)
        self._log(
            "session_end",
            room=room.id,
            session=room.sessions - 1,
            status=outcome.status.value,
            reason=outcome.reason.value if outcome.reason else None,
            issue=outcome.agreed_issue,
            rounds=outcome.rounds_used,
            participants=list(outcome.participants),
            utilities=list(outcome.utilities),
            ticks_spanned=outcome.ticks_spanned,
        )
        self._log("room_closed", room=room.id, sessions=room.sessions)
        self._notify_room(room, old_state)
        for aid in released:
            self._notify_agent(self.agents[aid], old_phase)

    def _log_round(self, room_id: int, block: RoundBlock) -> None:
        for offer in block.offers:
            self._log(
                "offer",
                room=room_id,
                round=block.round,
                proposer="mediator" if offer.proposer is None else offer.proposer,
                issue=offer.issue_id,
            )
        for agent_id, accept in block.votes:
            self._log("vote", room=room_id, round=block.round, agent=agent_id, accept=accept)
        for agent_id, issues in block.published:
            self._log(
                "acceptable_published",
                room=room_id,
                round=block.round,
                agent=agent_id,
                issues=list(issues),
            )
        if block.rejected is not None:
            self._log("candidate_rejected", room=room_id, round=block.round, issue=block.rejected)
        if block.eliminated is not None:
            self._log("issue_eliminated", room=room_id, round=block.round, issue=block.eliminated)
        if block.agreed is not None:
            self._log("agreement", room=room_id, round=block.round, issue=block.agreed)
