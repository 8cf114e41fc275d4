"""The simulation's one member store, and the query language.

The context keeps one dict per kind, ``agents`` and ``rooms``, each keyed
by id in insertion order, so it holds at most one member per kind and id;
``Simulation.agents`` and ``Simulation.rooms`` are those two dicts. Watcher
rules select their watchers and watchees from it with a ``Query`` on kind,
id and group, which walks the agents, then the rooms. Membership is fixed
once ``Simulation`` is constructed: agents and rooms are added during
set-up and never leave. The context holds no relation over its members:
groups are read from each agent's ``group_id``, and the scenario's
``social_edges`` are validated on load but not kept, since no strategy
or protocol reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

from .errors import DuplicateMemberError


class ObjectKind(str, Enum):
    AGENT = "agent"
    MEETING_ROOM = "meeting_room"


@dataclass(frozen=True)
class Query:
    """Closed predicate: conjunction of field = value tests over members.

    It tests only what never changes: kind, id and, for agents, group. A
    state to be in belongs to the watcher rule, not to its queries. Unset
    fields are unconstrained.
    """

    kind: ObjectKind | None = None
    ident: int | None = None
    group_id: int | None = None

    def matches(self, kind: ObjectKind, ident: int, obj: Any) -> bool:
        if self.kind is not None and kind is not self.kind:
            return False
        if self.ident is not None and ident != self.ident:
            return False
        if self.group_id is not None:
            if getattr(obj, "group_id", None) != self.group_id:
                return False
        return True


def _state_name(obj: Any) -> str | None:
    """An agent's phase or a room's lifecycle state, as its ``str`` Enum member.

    A member equals its value and hashes the same, so it compares with a
    rule's state name as the name itself would, without a ``.value`` read.
    """
    phase = getattr(obj, "phase", None)
    if phase is not None:
        return phase
    return getattr(obj, "room_state", None)


class Context:
    """Agents and rooms by id, one dict per kind; adding an id twice to one kind errors."""

    def __init__(self) -> None:
        self.agents: dict[int, Any] = {}
        self.rooms: dict[int, Any] = {}

    def add(self, kind: ObjectKind, ident: int, obj: Any) -> None:
        members = self.agents if kind is ObjectKind.AGENT else self.rooms
        if ident in members:
            raise DuplicateMemberError(f"{kind.value} {ident} already in context")
        members[ident] = obj

    def items(self) -> Iterator[tuple[ObjectKind, int, Any]]:
        """The agents, then the rooms, each kind in insertion order."""
        for ident, obj in self.agents.items():
            yield ObjectKind.AGENT, ident, obj
        for ident, obj in self.rooms.items():
            yield ObjectKind.MEETING_ROOM, ident, obj

    def query(self, query: Query) -> list[tuple[ObjectKind, int, Any]]:
        """Members matching the query: the agents, then the rooms, in insertion order."""
        return [(k, i, o) for k, i, o in self.items() if query.matches(k, i, o)]
