"""Priority-ordered action queue, tick counter, and watcher rules.

Within a tick, actions execute in lexicographic (-priority, seq) order:
larger priority first, insertion order breaking ties. ``step`` runs one
tick and then advances ``now``, so every action of the tick has run
first, including same-tick watcher reactions, which always land on a
strictly lower priority band than the action that fired them. A per-tick
cap bounds reaction cascades. The scheduler has no run bound of its own:
``Simulation`` decides how many ticks to step.

A state change costs each rule one test of its watchee side, and only a
rule whose trigger flips goes on to its watchers. Those come from a
candidate list per watcher query, built on first use from the parts of
the query that never change (kind, id, group) and never rebuilt: the
context's membership is fixed once ``Simulation`` is constructed. A
watcher's state is read only when the query or the trigger constrains it.

An agent scan reaction that would only repeat a scan already queued for
the same agent, tick and band, with nothing but scans queued there in
between, is merged into that scan (see ``_react``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, NamedTuple

from .context import Context, ObjectKind, Query, _state_name
from .errors import CascadeOverflowError, SchedulingError

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


@dataclass(slots=True)
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


@dataclass(frozen=True)
class WatcherRule:
    """Who watches whom, the firing condition, and the scheduled reaction.

    The reaction fires for each matching watcher when the trigger flips
    from false to true across a watchee state change. ``priority`` caps the
    same-tick reaction band; when unset the reaction runs one band below
    the action that caused the change. A rule's id is its registration
    index in the scheduler.
    """

    watcher_query: Query
    watchee_query: Query
    trigger: Trigger
    reaction_kind: ActionKind = ActionKind.AGENT_SCAN
    when: ReactionOffset = ReactionOffset.SAME_TICK
    priority: int | None = None
    target_role: str = "watcher"  # "watcher" or "watchee"


class FiredReaction(NamedTuple):
    """One watcher's reaction to one state change; ``action`` is the queued action."""

    rule_id: int
    watcher_id: int
    watchee_kind: ObjectKind
    watchee_id: int
    action: ScheduledAction


class Scheduler:
    """Single-threaded action queue driving one simulation run.

    ``now`` is the tick the next ``step`` runs; ``current_band`` is the
    priority of the action being executed, None between actions.
    """

    def __init__(
        self,
        executor: Callable[[ScheduledAction], None] | None = None,
        context: Context | None = None,
        cascade_cap: int = REACTION_CASCADE_CAP,
    ) -> None:
        self.now = 0
        self.current_band: int | None = None
        self.executor = executor
        self.context = context
        self.cascade_cap = cascade_cap
        self._heap: list[tuple[int, int, int, ScheduledAction]] = []
        self._seq_counter = 0
        self._rules: list[WatcherRule] = []
        self._reactions_this_tick = 0
        # Agent scan reactions not yet run, by target; and, per tick and band,
        # the seq of the last push that is not an agent scan.
        self._pending_scans: dict[Any, ScheduledAction] = {}
        self._other_pushes: dict[int, dict[int, int]] = {}
        # Watcher query -> its candidates, built on first use.
        self._candidates: dict[Query, list[tuple[int, Any]]] = {}

    # -- queue ---------------------------------------------------------

    def schedule(self, action: ScheduledAction) -> ScheduledAction:
        if action.start < self.now:
            raise SchedulingError(
                f"cannot schedule at tick {action.start}, clock is at {self.now}"
            )
        if (
            action.start == self.now
            and self.current_band is not None
            and action.priority > self.current_band
        ):
            raise SchedulingError(
                f"priority band {action.priority} already passed at tick {self.now}"
            )
        self._push(action, action.start)
        return action

    def cancel(self, action: ScheduledAction) -> None:
        action.cancelled = True

    def _push(self, action: ScheduledAction, tick: int) -> None:
        action.start = tick
        action.seq = seq = self._seq_counter
        self._seq_counter += 1
        if action.kind is not ActionKind.AGENT_SCAN:
            self._other_pushes.setdefault(tick, {})[action.priority] = seq
        heapq.heappush(self._heap, (tick, -action.priority, seq, action))

    # -- watchers ------------------------------------------------------

    def register_watcher(self, rule: WatcherRule) -> int:
        """Add a rule; its id, the registration index, is returned."""
        self._rules.append(rule)
        return len(self._rules) - 1

    def notify_state_change(
        self,
        kind: ObjectKind,
        ident: int,
        old_state: str | None,
        new_state: str | None,
        obj: Any,
    ) -> list[FiredReaction]:
        """Evaluate all rules against one change of ``obj``; enqueue and return reactions.

        A rule fires for each matching watcher whose trigger is false before
        the change and true after it. The watcher's state is the same on both
        sides, so the flip must come from the watchee: the rule fires only when
        ``old_state != watchee_state == new_state``, and a trigger with no
        ``watchee_state`` never fires.
        """
        if old_state == new_state:
            return []
        fired: list[FiredReaction] = []
        for rule_id, rule in enumerate(self._rules):
            watchee_state = rule.trigger.watchee_state
            if watchee_state is None or new_state != watchee_state:
                continue
            if not rule.watchee_query.matches(kind, ident, obj):
                continue
            # The one state a watcher must be in, if the query or the trigger
            # names one; no watcher can be in two.
            wanted = rule.trigger.watcher_state
            if wanted is None:
                wanted = rule.watcher_query.state
            elif rule.watcher_query.state not in (None, wanted):
                continue
            if rule.when is ReactionOffset.NEXT_TICK:
                start = self.now + 1
                priority = rule.priority if rule.priority is not None else 0
            else:
                start = self.now
                priority = self._same_tick_band(rule.priority)
            for watcher_id, watcher_obj in self._watcher_candidates(rule.watcher_query):
                if wanted is not None and _state_name(watcher_obj) != wanted:
                    continue
                target = watcher_id if rule.target_role == "watcher" else ident
                action = self._react(
                    rule.reaction_kind, target, start, priority, rule_id, (kind, ident)
                )
                fired.append(FiredReaction(rule_id, watcher_id, kind, ident, action))
        return fired

    def _watcher_candidates(self, query: Query) -> list[tuple[int, Any]]:
        """Members matching ``query`` but for its state, by ascending id.

        A query with no kind can match an agent and a room of the same id;
        the sort is stable and the context yields agents before rooms, so
        the agent always comes first. Their order is not observable anyway:
        both fires log the same ``watcher_fired`` record, which names the
        watcher's id but not its kind, and queue the same reaction on the
        same target id. The list is built on first use and kept for the
        run: no member joins or leaves the context after set-up, and kind,
        id and group never change.
        """
        if self.context is None:
            return []
        candidates = self._candidates.get(query)
        if candidates is None:
            found = [(i, o) for _, i, o in self.context.query(replace(query, state=None))]
            candidates = self._candidates[query] = sorted(found, key=lambda pair: pair[0])
        return candidates

    def enqueue_reaction(
        self, kind: ActionKind, target: Any, priority: int | None = None
    ) -> ScheduledAction:
        """Engine hook for direct same-tick follow-ups (e.g. invitation scans)."""
        return self._react(kind, target, self.now, self._same_tick_band(priority))

    def _react(
        self,
        kind: ActionKind,
        target: Any,
        start: int,
        priority: int,
        rule_id: int | None = None,
        watchee: tuple[ObjectKind, int] | None = None,
    ) -> ScheduledAction:
        """Queue one reaction, counted against the per-tick cascade cap.

        ``rule_id`` and ``watchee`` are given for a watcher reaction and left
        out for an engine follow-up; they only name the cause on overflow.

        An agent scan of agent x is merged into x's pending scan, which is
        returned in place of a new action, when that scan is not cancelled,
        has the same ``(start, priority)``, and every action pushed at that
        tick and band since it is an agent scan. The merged scan would have
        done nothing. Between the pending scan and the merged one only scans
        of other agents run, and their reactions land below the band or on
        the next tick. A scan changes only its own agent's phase and seat;
        rooms have no capacity, and admission does not read attendees. So
        when the merged scan would have run, x is either seated or busy, and
        the scan returns at once, or x is watching and no room has opened
        since its scan found none, and the scan is skipped. A merge never
        spans a ``room_close``, ``negotiation_round``, ``room_invite`` or
        ``report`` in the band, so the event log is unchanged. A merged
        reaction still counts against the cap.
        """
        self._reactions_this_tick += 1
        if self._reactions_this_tick > self.cascade_cap:
            if rule_id is None:
                cause = f"an engine follow-up {kind.value}"
            else:
                cause = f"fired by watcher rule {rule_id} on {watchee[0].value} {watchee[1]}"
            raise CascadeOverflowError(
                f"more than {self.cascade_cap} reactions (the cascade cap) in tick "
                f"{self.now}; the reaction over the cap was {cause}"
            )
        scan = kind is ActionKind.AGENT_SCAN
        if scan:
            pending = self._pending_scans.get(target)
            if (
                pending is not None
                and not pending.cancelled
                and pending.start == start
                and pending.priority == priority
            ):
                others = self._other_pushes.get(start)
                if others is None or others.get(priority, -1) < pending.seq:
                    return pending
        action = ScheduledAction(kind=kind, target=target, start=start, priority=priority)
        self._push(action, start)
        if scan:
            self._pending_scans[target] = action
        return action

    def _same_tick_band(self, configured: int | None) -> int:
        # Reactions always land strictly below the band being executed; a
        # configured priority may lower the band further but never raise it.
        if self.current_band is None:
            return configured if configured is not None else 0
        cap = self.current_band - 1
        if configured is None:
            return cap
        return min(configured, cap)

    # -- execution -----------------------------------------------------

    def step(self) -> None:
        """Run every action of the current tick, then advance ``now``."""
        tick = self.now
        self._reactions_this_tick = 0
        pending_scans = self._pending_scans
        while self._heap and self._heap[0][0] == tick:
            _, _, _, action = heapq.heappop(self._heap)
            if action.kind is ActionKind.AGENT_SCAN and pending_scans.get(action.target) is action:
                del pending_scans[action.target]
            if action.cancelled:
                continue
            self.current_band = action.priority
            if self.executor is not None:
                self.executor(action)
            self.current_band = None
            if action.interval > 0 and not action.cancelled:
                self._push(action, tick + action.interval)
        self._other_pushes.pop(tick, None)
        self.now += 1
