"""The simulation engine: one seeded, single-threaded run of a scenario.

Wires the population context, meeting rooms, watcher rules and the tick
scheduler together, dispatches scheduled actions, and accumulates the
ordered event log. ``run`` steps ticks 0..ticks; ``step`` runs one tick
and does nothing once the last tick has run. Every state change an
action makes goes through ``_notify``, which reports it to the scheduler
so watcher rules can react and logs what fired; the sequence of log
records is a pure function of (scenario, seed).

An agent scan makes one ``check_admission`` call per open room, and a
watching agent whose last scan found no room skips the walk until another
room opens (see ``_exec_agent_scan``). The scans one room opening fires
run as one queue entry with a ``targets`` list; an agent that several
openings of one band fire a scan for runs each of them, and every scan
after its first returns at once. Log records are plain named tuples,
built positionally.

A room closes when its session ends, for want of a quorum or by its
schedule, always through ``_close_room``: it writes the opening's
``session_end`` from the room's session, or its attendees if none started.

Records go to ``Simulation.events``, an ``EventLog``, which writes each
as its events.log line: to a buffer in memory by default, or to the file
of the log an on-disk run builds the simulation with. The set-up records
are logged while the simulation is built, at tick 0 with no band.

The per-event paths compare against enum members bound to module names,
since a ``Kind.MEMBER`` read costs about ten global reads on CPython 3.10
and 3.11; notifications pass the members, not their ``.value``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

import numpy as np

from .context import Context, ObjectKind
from .eventlog import EventLog, EventRecord
from .model import Agent, AgentPhase, spawn_members
from .protocols import FailureReason, SessionStatus, run_round
from .rooms import AdmissionKind, MeetingRoom, RoomState
from .scenario import Scenario
from .scheduler import ActionKind, ScheduledAction, Scheduler

# Default priority bands; larger runs earlier within a tick. Watcher
# reactions land one band below the action that fired them.
OPEN_PRIORITY = 100
CLOSE_PRIORITY = 90
ROUND_PRIORITY = 50

# Kept importable only because benchmark/tracing.py patches this name;
# nothing calls it.
build_same_group_projection = None

# Bound once. ``EnumType`` defines ``__getattr__``, so on CPython 3.10 and
# 3.11 every ``Kind.MEMBER`` read takes the slow attribute hook: about
# 100 ns against 10 ns for a module global.
_AGENT_SCAN, _NEGOTIATION_ROUND = ActionKind.AGENT_SCAN, ActionKind.NEGOTIATION_ROUND
_IDLE, _WATCHING, _IN_ROOM = AgentPhase.IDLE, AgentPhase.WATCHING, AgentPhase.IN_ROOM
_CLOSED, _OPEN = RoomState.CLOSED, RoomState.OPEN
_ACTIVE = SessionStatus.ACTIVE
_AGENT, _MEETING_ROOM = ObjectKind.AGENT, ObjectKind.MEETING_ROOM


@dataclass
class Simulation:
    scenario: Scenario
    seed: int | None = None
    ticks: int | None = None
    events: EventLog = field(default_factory=EventLog)

    context: Context = field(init=False)
    scheduler: Scheduler = field(init=False)
    # The context's own member dicts, by id: the simulation's one store.
    agents: dict[int, Agent] = field(init=False)
    rooms: dict[int, MeetingRoom] = field(init=False)

    def __post_init__(self) -> None:
        if self.seed is None:
            self.seed = self.scenario.seed
        if self.ticks is None:
            self.ticks = self.scenario.ticks
        self.group_strategies = {g.id: g.strategy for g in self.scenario.groups}
        self.context = Context()
        self.agents = self.context.agents
        self.rooms = self.context.rooms
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
            issues=len(self.scenario.issues),
            groups=len(self.scenario.groups),
            agents=self.scenario.total_agents,
            rooms=len(self.scenario.rooms),
        )
        rng = np.random.default_rng(self.seed)
        next_id = 0
        for group in self.scenario.groups:
            members = spawn_members(group, rng, next_id)
            next_id += group.member_count
            for agent in members:
                self.context.add(ObjectKind.AGENT, agent.id, agent)
            self._log(
                "population_spawned",
                group=group.id,
                name=group.name,
                members=[a.id for a in members],
            )

        specs = sorted(self.scenario.rooms, key=lambda r: r.id)
        for spec in specs:
            self.context.add(ObjectKind.MEETING_ROOM, spec.id, MeetingRoom(spec.id))

        for rule in self.scenario.watchers:
            self.scheduler.register_watcher(rule)

        for spec in specs:
            for entry in spec.schedule:
                if entry.action == "open":
                    kind, band = ActionKind.ROOM_OPEN, OPEN_PRIORITY
                else:
                    kind, band = ActionKind.ROOM_CLOSE, CLOSE_PRIORITY
                self.scheduler.schedule(
                    ScheduledAction(
                        kind=kind,
                        target=spec.id,
                        start=entry.at,
                        priority=entry.priority if entry.priority is not None else band,
                        payload=entry.agenda,
                    )
                )

    # -- run loop --------------------------------------------------------

    def run(self) -> EventLog:
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
        scheduler = self.scheduler
        self.events.append(EventRecord(scheduler.now, scheduler.current_band, kind, data))

    def _notify_agent(self, agent: Agent, old_phase: AgentPhase) -> None:
        self._notify(_AGENT, agent.id, old_phase, agent.phase, agent)

    def _notify_room(self, room: MeetingRoom, old_state: RoomState) -> None:
        self._notify(_MEETING_ROOM, room.id, old_state, room.room_state, room)

    def _notify(self, kind: ObjectKind, ident: int, old: str, new: str, obj: Any) -> None:
        """Report a state change to the watcher rules and log what fired: the one place for both.

        ``old`` and ``new`` arrive as ``str`` Enum members, phases or room
        states. Each is a ``str`` equal to its value with the same hash, so
        the rules' state names compare with them as with the values.
        """
        scheduler = self.scheduler
        fired = scheduler.notify_state_change(kind, ident, old, new, obj)
        if fired:
            self.events.log_fired(scheduler.now, scheduler.current_band, kind, ident, fired)

    # -- action dispatch ---------------------------------------------------

    def _execute(self, action: ScheduledAction) -> None:
        # The most frequent kinds first. Each handler is looked up on self,
        # so a handler patched on the class is the one that runs.
        kind = action.kind
        if kind is _AGENT_SCAN:
            self._exec_agent_scan(action)
        elif kind is _NEGOTIATION_ROUND:
            self._exec_negotiation_round(action)
        elif kind is ActionKind.ROOM_OPEN:
            self._exec_room_open(action)
        elif kind is ActionKind.ROOM_INVITE:
            self._exec_room_invite(action)
        elif kind is ActionKind.ROOM_CLOSE:
            self._exec_room_close(action)
        elif kind is ActionKind.REPORT:
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
            issues=[issue.id for issue in agenda.issues],
            protocol=agenda.protocol.id,
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
            if agent.phase in (_IDLE, _WATCHING):
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

        So a scan that repeats one run earlier in its band, with only scans
        of other agents between them, does nothing: those scans change only
        their own agents, and rooms have no capacity, so the agent is now
        seated or busy, or watching with no room opened since.
        """
        agent = self.agents[action.target]
        phase = agent.phase
        if phase is not _IDLE and phase is not _WATCHING:
            return
        if phase is _WATCHING and self._empty_scan_at.get(agent.id) == self._openings:
            return
        # Highest own max-utility over the agenda wins; lowest room id on ties.
        best = None
        best_utility = 0.0
        for room in self._open_rooms:
            u = room.check_admission(agent)
            if u is not None and (best is None or u > best_utility):
                best, best_utility = room, u
        if best is None:
            self._empty_scan_at[agent.id] = self._openings
            if phase is _IDLE:
                agent.phase = _WATCHING
                self._log("agent_watching", agent=agent.id)
                self._notify_agent(agent, _IDLE)
            return
        best.seat(agent)
        self._log("agent_entered", agent=agent.id, room=best.id, utility=best_utility)
        self._notify_agent(agent, phase)

    def _exec_negotiation_round(self, action: ScheduledAction) -> None:
        room = self.rooms[action.target]
        state = room.room_state
        if state is _CLOSED:
            # Only a negotiation_round reaction gets here: closing cancels the round clock.
            return
        if state is _OPEN:
            attendees = room.attendee_ids()
            if len(attendees) < 2:
                self._log("session_no_quorum", room=room.id, attendees=attendees)
                self._close_room(room, FailureReason.NO_QUORUM)
                return
            session = room.start_session(self.group_strategies, self.now)
            self._open_rooms.remove(room)
            self._log(
                "session_started",
                room=room.id,
                participants=list(session.participants),
                protocol=session.protocol.kind.value,
                issues=list(session.issue_ids),
                deadline_rounds=session.deadline_rounds,
            )
            self._notify_room(room, _OPEN)
            for aid in session.participants:
                self._notify_agent(self.agents[aid], _IN_ROOM)
        session = room.session
        for _ in range(session.protocol.rounds_per_tick):
            if session.status is not _ACTIVE:
                break
            block = run_round(session)
            self.events.log_round(self.now, self.scheduler.current_band, room.id, block)
        if session.status is not _ACTIVE:
            self._close_room(room)

    def _exec_room_close(self, action: ScheduledAction) -> None:
        room = self.rooms[action.target]
        if room.room_state is RoomState.CLOSED:
            self._log("room_close_skipped", room=room.id)
            return
        self._close_room(room, FailureReason.FORCED_CLOSE)

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

    def _close_room(self, room: MeetingRoom, reason: FailureReason | None = None) -> None:
        """Close the room and log what its opening ended with as ``session_end``.

        An opening with no session fails for ``reason`` after 0 rounds in 1
        tick, its attendees the participants. A session still active fails
        for ``reason``; one that has ended keeps its own status and reason.
        Only an agreement pays: each participant gets its utility of the
        agreed issue, and otherwise every participant gets 0.0.
        """
        session = room.session
        if session is None:
            status, issue, rounds, spanned = SessionStatus.FAILED, None, 0, 1
            participants = room.attendee_ids()
        else:
            session.force_fail(reason)
            status, reason = session.status, session.failure_reason
            issue, rounds = session.agreed_issue, session.round
            spanned = max(1, self.now - session.started_tick + 1)
            participants = list(session.participants)
        utilities = [0.0 if issue is None else session.utility(p, issue) for p in participants]
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
            status=status.value,
            reason=reason.value if reason else None,
            issue=issue,
            rounds=rounds,
            participants=participants,
            utilities=utilities,
            ticks_spanned=spanned,
        )
        self._log("room_closed", room=room.id, sessions=room.sessions)
        self._notify_room(room, old_state)
        for aid in released:
            self._notify_agent(self.agents[aid], old_phase)
