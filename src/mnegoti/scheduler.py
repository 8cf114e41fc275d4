"""Priority-ordered action queue, tick counter, and watcher rules.

Within a tick, actions execute in lexicographic (-priority, seq) order:
larger priority first, insertion order breaking ties. ``step`` runs one
tick and then advances ``now``, so every action of the tick has run
first, including same-tick watcher reactions, which always land on a
strictly lower priority band than the action that fired them. A cap per
cause and tick bounds reaction cascades (see ``_push_reactions``). The
scheduler has no run bound of its own: ``Simulation`` decides how many
ticks to step.

A rule names each side's state once: the watchee state it fires on and,
if any, the state its watchers must be in. Its queries select members by
what never changes (kind, id, group). A state change costs each rule one
test of its watchee side, and only a rule whose watchee enters its
watchee state goes on to its watchers. Those come from a candidate list
per watcher query, built on first use and never rebuilt: the context's
membership is fixed once ``Simulation`` is constructed. A watcher's state
is read only when the rule names one.

Every queue entry is a ``ScheduledAction``. The reactions one rule fires
on one state change are one entry whose ``targets`` hold the watchers'
targets in watcher order, not one action per watcher as in the Repast
Simphony watcher model, and ``step`` runs its members back to back from
one pop. That is the order one action per watcher would run in: a push
made while a member runs lands in the same band or below, so it sorts
after every remaining member either way. An entry takes one seq per
member, a contiguous range, so every later seq is the one it would be
with one action per watcher. Every reaction, an engine follow-up too, is
one push for its cause (see ``_push_reactions``). A duplicate agent scan
runs like any other reaction; the engine's scan then returns at once
(see ``Simulation._exec_agent_scan``).
A fire's ``FiredReaction`` records are built in C, by ``tuple.__new__``
mapped over its watchers, and ``_reaction_slot``, run per push, compares
against an enum member bound to a module name, as ``engine`` explains.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
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
    """One queue entry; interval 0 is one-shot, > 0 re-enqueues after running.

    The entry runs once per member of ``targets``, in order, with ``target``
    set to each, and takes one seq per member; ``targets`` None is one
    member, ``target`` itself. Cancelling the entry cancels every member.
    """

    kind: ActionKind
    target: Any = None
    start: int = 0
    interval: int = 0
    priority: int = 0
    payload: Any = None
    seq: int = -1  # assigned at each insertion
    cancelled: bool = False
    targets: list[Any] | None = None


@dataclass(frozen=True)
class WatcherRule:
    """Who watches whom, the firing condition, and the scheduled reaction.

    The reaction fires when a watchee matching ``watchee_query`` changes
    into ``watchee_state``, once for each watcher matching ``watcher_query``
    that is in ``watcher_state``, or in any state when that is None.
    ``priority`` caps the same-tick reaction band; when unset the reaction
    runs one band below the action that caused the change. A rule's id is
    its registration index in the scheduler.
    """

    watcher_query: Query
    watchee_query: Query
    watchee_state: str
    watcher_state: str | None = None
    reaction_kind: ActionKind = ActionKind.AGENT_SCAN
    when: ReactionOffset = ReactionOffset.SAME_TICK
    priority: int | None = None
    target_role: str = "watcher"  # "watcher" or "watchee"


class FiredReaction(NamedTuple):
    """One watcher's reaction to the caller's state change; ``action`` is the rule's entry."""

    rule_id: int
    watcher_id: int
    action: ScheduledAction


# ``FiredReaction((rule_id, watcher_id, action))`` built without a Python call.
_fired_reaction = partial(tuple.__new__, FiredReaction)
_NEXT_TICK = ReactionOffset.NEXT_TICK


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
        # Cause -> pushes made for it this tick.
        self._pushes_this_tick: dict[tuple, int] = {}
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
        """Queue ``action`` at ``tick``, taking one seq per member."""
        action.start = tick
        action.seq = seq = self._seq_counter
        self._seq_counter += 1 if action.targets is None else len(action.targets)
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

        A rule fires when ``old_state != new_state == rule.watchee_state``
        and its watchee query matches ``obj``, for each watcher matching its
        watcher query that is in ``rule.watcher_state``, if it names one.
        Each rule that fires queues one entry, one push against the cascade
        cap for the cause (rule id, watchee kind, watchee id); one
        ``FiredReaction`` is returned per watcher.
        """
        if old_state == new_state:
            return []
        fired: list[FiredReaction] = []
        for rule_id, rule in enumerate(self._rules):
            if new_state != rule.watchee_state:
                continue
            if not rule.watchee_query.matches(kind, ident, obj):
                continue
            candidates = self._watcher_candidates(rule.watcher_query)
            wanted = rule.watcher_state
            if wanted is None:
                watchers = [i for i, _ in candidates]
            else:
                watchers = [i for i, o in candidates if _state_name(o) == wanted]
            if not watchers:
                continue
            targets = watchers if rule.target_role == "watcher" else [ident] * len(watchers)
            entry = self._push_reactions(
                rule.reaction_kind, targets, rule.when, rule.priority, (rule_id, kind, ident)
            )
            fired += map(_fired_reaction, zip(repeat(rule_id), watchers, repeat(entry)))
        return fired

    def _watcher_candidates(self, query: Query) -> list[tuple[int, Any]]:
        """Members matching ``query``, by ascending id.

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
            found = [(i, o) for _, i, o in self.context.query(query)]
            candidates = self._candidates[query] = sorted(found, key=lambda pair: pair[0])
        return candidates

    def enqueue_reaction(
        self, kind: ActionKind, target: Any, priority: int | None = None
    ) -> ScheduledAction:
        """Engine hook for direct same-tick follow-ups (e.g. invitation scans).

        Each follow-up is an entry whose ``targets`` is ``[target]``, one
        push for its cause ``(kind, target)``.
        """
        return self._push_reactions(
            kind, [target], ReactionOffset.SAME_TICK, priority, (kind, target)
        )

    def _push_reactions(
        self, kind: ActionKind, targets: list[Any], when: ReactionOffset,
        configured: int | None, cause: tuple,
    ) -> ScheduledAction:
        """Count one push for ``cause``, then queue ``targets`` as one entry.

        ``cause`` is a watcher fire's (rule id, watchee kind, watchee id) or
        an engine follow-up's (kind, target). The push that takes one cause
        past the cascade cap in a tick raises and queues nothing, however
        many targets it holds. A runaway cascade pushes without end from
        finitely many causes, so it trips the cap; a fan-out that grows
        with the population stays one push.
        """
        pushes = self._pushes_this_tick.get(cause, 0) + 1
        if pushes > self.cascade_cap:
            if len(cause) == 2:
                described = f"an engine follow-up {kind.value} on {cause[1]}"
            else:
                rule_id, watchee_kind, watchee = cause
                described = f"fired by watcher rule {rule_id} on {watchee_kind.value} {watchee}"
            raise CascadeOverflowError(
                f"more than {self.cascade_cap} reactions from one cause (the cascade cap) "
                f"in tick {self.now}; the reaction over the cap was {described}"
            )
        self._pushes_this_tick[cause] = pushes
        start, band = self._reaction_slot(when, configured)
        entry = ScheduledAction(kind, priority=band, targets=targets)
        self._push(entry, start)
        return entry

    def _reaction_slot(self, when: ReactionOffset, configured: int | None) -> tuple[int, int]:
        """The (start tick, band) of a reaction queued now with ``configured`` priority.

        A same-tick reaction always lands strictly below the band being
        executed; a configured priority may lower the band but never raise it.
        """
        band = configured if configured is not None else 0
        if when is _NEXT_TICK:
            return self.now + 1, band
        if self.current_band is None:
            return self.now, band
        cap = self.current_band - 1
        return self.now, cap if configured is None else min(configured, cap)

    # -- execution -----------------------------------------------------

    def step(self) -> None:
        """Run every action of the current tick, then advance ``now``.

        Each entry runs its members in order, each through the executor
        with ``target`` set to the member's target. An entry with an
        interval is queued again unless it was cancelled.
        """
        tick = self.now
        self._pushes_this_tick.clear()
        heap = self._heap
        while heap and heap[0][0] == tick:
            action = heapq.heappop(heap)[3]
            if action.cancelled:
                continue
            self.current_band = action.priority
            execute = self.executor
            if execute is not None:
                targets = action.targets
                for target in (action.target,) if targets is None else targets:
                    action.target = target
                    execute(action)
            if action.interval > 0 and not action.cancelled:
                self._push(action, tick + action.interval)
            self.current_band = None
        self.now += 1
