"""Discrete-tick clock, priority-ordered action queue, and watcher rules.

Within a tick, actions execute in lexicographic (-priority, seq) order:
larger priority first, insertion order breaking ties. The clock advances
only once every action of the tick has run, including same-tick watcher
reactions, which always land on a strictly lower priority band than the
action that fired them. A per-tick cap bounds reaction cascades.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .context import Context, Key, ObjectKind, Query, _state_name
from .errors import (
    CascadeOverflowError,
    InvalidTransitionError,
    SchedulingError,
)

REACTION_CASCADE_CAP = 10_000


class ActionKind(str, Enum):
    ROOM_OPEN = "room_open"
    ROOM_INVITE = "room_invite"
    AGENT_SCAN = "agent_scan"
    NEGOTIATION_ROUND = "negotiation_round"
    ROOM_CLOSE = "room_close"
    REPORT = "report"


class ReactionOffset(str, Enum):
    SAME_TICK = "same_tick"
    NEXT_TICK = "next_tick"


class RunStatus(str, Enum):
    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"


class TickClock:
    """Non-negative tick counter; advances by exactly 1, never decrements."""

    def __init__(self) -> None:
        self.now = 0

    def advance(self) -> int:
        self.now += 1
        return self.now


@dataclass
class RunControl:
    status: RunStatus = RunStatus.RUNNING
    stop_at: int | None = None


@dataclass
class ScheduledAction:
    """One queue entry; interval 0 means one-shot, > 0 re-enqueues after running."""

    kind: ActionKind
    target: Any = None
    start: int = 0
    interval: int = 0
    priority: int = 0
    payload: Any = None
    seq: int = -1  # assigned at each insertion
    cancelled: bool = False


@dataclass(frozen=True)
class Trigger:
    """Conjunction of state-equality tests over (watcher, watchee)."""

    watcher_state: str | None = None
    watchee_state: str | None = None

    def evaluate(self, watcher_state: str | None, watchee_state: str | None) -> bool:
        if self.watcher_state is not None and watcher_state != self.watcher_state:
            return False
        if self.watchee_state is not None and watchee_state != self.watchee_state:
            return False
        return True


@dataclass
class WatcherRule:
    """Who watches whom, the firing condition, and the scheduled reaction.

    The reaction fires for each matching watcher when the trigger flips
    from false to true across a watchee state change. ``priority`` caps the
    same-tick reaction band; when unset the reaction runs one band below
    the action that caused the change.
    """

    watcher_query: Query
    watchee_query: Query
    trigger: Trigger
    reaction_kind: ActionKind = ActionKind.AGENT_SCAN
    when: ReactionOffset = ReactionOffset.SAME_TICK
    priority: int | None = None
    target_role: str = "watcher"  # "watcher" or "watchee"
    rule_id: int = -1


@dataclass(frozen=True)
class FiredReaction:
    rule_id: int
    watcher_id: int
    watchee_kind: ObjectKind
    watchee_id: int
    action: ScheduledAction


@dataclass
class TickReport:
    """Immutable record of one completed tick, safe to hand across threads."""

    tick: int
    executed: list[ScheduledAction] = field(default_factory=list)


class Scheduler:
    """Single-threaded action queue driving one simulation run."""

    def __init__(
        self,
        executor: Callable[[ScheduledAction], None] | None = None,
        context: Context | None = None,
        cascade_cap: int = REACTION_CASCADE_CAP,
    ) -> None:
        self.clock = TickClock()
        self.control = RunControl()
        self.executor = executor
        self.context = context
        self.cascade_cap = cascade_cap
        self._heap: list[tuple[int, int, int, ScheduledAction]] = []
        self._seq_counter = 0
        self._rules: list[WatcherRule] = []
        self._current_band: int | None = None
        self._in_step = False
        self._reactions_this_tick = 0

    @property
    def now(self) -> int:
        return self.clock.now

    @property
    def current_band(self) -> int | None:
        """Priority of the action being executed, None between actions."""
        return self._current_band

    # -- queue ---------------------------------------------------------

    def schedule(self, action: ScheduledAction) -> ScheduledAction:
        if action.start < self.clock.now:
            raise SchedulingError(
                f"cannot schedule at tick {action.start}, clock is at {self.clock.now}"
            )
        if (
            self._in_step
            and action.start == self.clock.now
            and self._current_band is not None
            and action.priority > self._current_band
        ):
            raise SchedulingError(
                f"priority band {action.priority} already passed at tick {self.clock.now}"
            )
        self._push(action, action.start)
        return action

    def cancel(self, action: ScheduledAction) -> None:
        action.cancelled = True

    def _push(self, action: ScheduledAction, tick: int) -> None:
        action.start = tick
        action.seq = self._seq_counter
        self._seq_counter += 1
        heapq.heappush(self._heap, (tick, -action.priority, action.seq, action))

    # -- watchers ------------------------------------------------------

    def register_watcher(self, rule: WatcherRule) -> WatcherRule:
        rule.rule_id = len(self._rules)
        self._rules.append(rule)
        return rule

    def notify_state_change(
        self,
        kind: ObjectKind,
        ident: int,
        old_state: str | None,
        new_state: str | None,
        obj: Any = None,
    ) -> list[FiredReaction]:
        """Evaluate all rules against one state change; enqueue and return reactions."""
        if old_state == new_state:
            return []
        if obj is None and self.context is not None and (kind, ident) in self.context:
            obj = self.context.get(kind, ident)
        fired: list[FiredReaction] = []
        for rule in self._rules:
            if not rule.watchee_query.matches(kind, ident, obj):
                continue
            if rule.when is ReactionOffset.NEXT_TICK:
                start = self.clock.now + 1
                priority = rule.priority if rule.priority is not None else 0
            else:
                start = self.clock.now
                priority = self._same_tick_band(rule.priority)
            watchers = self._match_watchers(rule.watcher_query)
            for watcher_id, watcher_obj in watchers:
                w_state = _state_name(watcher_obj)
                if rule.trigger.evaluate(w_state, old_state):
                    continue  # already true before the change
                if not rule.trigger.evaluate(w_state, new_state):
                    continue
                target = watcher_id if rule.target_role == "watcher" else ident
                action = self._react(
                    rule.reaction_kind, target, start, priority, rule, (kind, ident)
                )
                fired.append(FiredReaction(rule.rule_id, watcher_id, kind, ident, action))
        return fired

    def _match_watchers(self, query: Query) -> list[tuple[int, Any]]:
        if self.context is None:
            return []
        found = [(i, o) for _, i, o in self.context.query(query)]
        return sorted(found, key=lambda pair: pair[0])

    def enqueue_reaction(
        self, kind: ActionKind, target: Any, priority: int | None = None
    ) -> ScheduledAction:
        """Engine hook for direct same-tick follow-ups (e.g. invitation scans)."""
        return self._react(kind, target, self.clock.now, self._same_tick_band(priority))

    def _react(
        self,
        kind: ActionKind,
        target: Any,
        start: int,
        priority: int,
        rule: WatcherRule | None = None,
        watchee: Key | None = None,
    ) -> ScheduledAction:
        """Queue one reaction, counted against the per-tick cascade cap.

        ``rule`` and ``watchee`` are given for a watcher reaction and left
        out for an engine follow-up; they only name the cause on overflow.
        """
        self._reactions_this_tick += 1
        if self._reactions_this_tick > self.cascade_cap:
            if rule is None:
                cause = f"an engine follow-up {kind.value}"
            else:
                cause = f"fired by watcher rule {rule.rule_id} on {watchee[0].value} {watchee[1]}"
            raise CascadeOverflowError(
                f"more than {self.cascade_cap} reactions (the cascade cap) in tick "
                f"{self.clock.now}; the reaction over the cap was {cause}"
            )
        action = ScheduledAction(kind=kind, target=target, start=start, priority=priority)
        self._push(action, start)
        return action

    def _same_tick_band(self, configured: int | None) -> int:
        # Reactions always land strictly below the band being executed; a
        # configured priority may lower the band further but never raise it.
        if self._current_band is None:
            return configured if configured is not None else 0
        cap = self._current_band - 1
        if configured is None:
            return cap
        return min(configured, cap)

    # -- execution -----------------------------------------------------

    def step(self) -> TickReport | None:
        """Run every action of the current tick, then advance the clock.

        Returns None without executing anything unless status is Running.
        """
        if self.control.status is not RunStatus.RUNNING:
            return None
        tick = self.clock.now
        self._in_step = True
        self._reactions_this_tick = 0
        executed: list[ScheduledAction] = []
        try:
            while self._heap and self._heap[0][0] == tick:
                _, _, _, action = heapq.heappop(self._heap)
                if action.cancelled:
                    continue
                self._current_band = action.priority
                executed.append(action)
                if self.executor is not None:
                    self.executor(action)
                self._current_band = None
                if action.interval > 0 and not action.cancelled:
                    self._push(action, tick + action.interval)
        finally:
            self._current_band = None
            self._in_step = False
        self.clock.advance()
        if self.control.stop_at is not None and tick >= self.control.stop_at:
            self.control.status = RunStatus.STOPPED
        return TickReport(tick=tick, executed=executed)

    # -- run control ---------------------------------------------------

    def stop(self, at: int | None = None) -> None:
        """Halt after completing tick ``at`` (current tick when not given)."""
        if at is None:
            if self._in_step:
                self.control.stop_at = self.clock.now
            else:
                self.control.status = RunStatus.STOPPED
            return
        if at < self.clock.now and not self._in_step:
            self.control.status = RunStatus.STOPPED
            return
        self.control.stop_at = at

    def pause(self) -> None:
        if self.control.status is RunStatus.STOPPED:
            raise InvalidTransitionError("cannot pause a stopped run")
        self.control.status = RunStatus.PAUSED

    def resume(self) -> None:
        if self.control.status is RunStatus.STOPPED:
            raise InvalidTransitionError("cannot resume a stopped run")
        self.control.status = RunStatus.RUNNING
