"""Set-semantics container for simulation objects.

The context holds at most one member per (kind, id) key and preserves
insertion order for deterministic queries; watcher rules select their
watchers and watchees from it with a ``Query``. It holds no relation
over its members: groups are read from each agent's ``group_id``, and
the scenario's ``social_edges`` are validated on load but not
materialised, since no strategy or protocol reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

from .errors import DuplicateMemberError, NotFoundError


class ObjectKind(str, Enum):
    AGENT = "agent"
    MEETING_ROOM = "meeting_room"


Key = tuple[ObjectKind, int]


@dataclass(frozen=True)
class Query:
    """Closed predicate: conjunction of field = value tests over members.

    ``state`` matches an object's phase/state name (e.g. "idle", "open");
    ``group_id`` applies to agents only. Unset fields are unconstrained.
    """

    kind: ObjectKind | None = None
    ident: int | None = None
    state: str | None = None
    group_id: int | None = None

    def matches(self, kind: ObjectKind, ident: int, obj: Any) -> bool:
        if self.kind is not None and kind is not self.kind:
            return False
        if self.ident is not None and ident != self.ident:
            return False
        if self.state is not None:
            if _state_name(obj) != self.state:
                return False
        if self.group_id is not None:
            if getattr(obj, "group_id", None) != self.group_id:
                return False
        return True


def _state_name(obj: Any) -> str | None:
    """Phase name for agents, lifecycle state name for rooms."""
    phase = getattr(obj, "phase", None)
    if phase is not None:
        return phase.value
    state = getattr(obj, "room_state", None)
    if state is not None:
        return state.value
    return None


class Context:
    """Population container; duplicate (kind, id) insertions always error.

    ``version`` counts membership changes: every ``add`` and ``remove``
    bumps it, so a cache of members can tell when it is stale.
    """

    def __init__(self) -> None:
        self._members: dict[Key, Any] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: Key) -> bool:
        return key in self._members

    def add(self, kind: ObjectKind, ident: int, obj: Any = None) -> None:
        key = (kind, ident)
        if key in self._members:
            raise DuplicateMemberError(f"{kind.value} {ident} already in context")
        self._members[key] = obj
        self.version += 1

    def remove(self, kind: ObjectKind, ident: int) -> None:
        key = (kind, ident)
        if key not in self._members:
            raise NotFoundError(f"{kind.value} {ident} not in context")
        del self._members[key]
        self.version += 1

    def get(self, kind: ObjectKind, ident: int) -> Any:
        try:
            return self._members[(kind, ident)]
        except KeyError:
            raise NotFoundError(f"{kind.value} {ident} not in context") from None

    def items(self) -> Iterator[tuple[ObjectKind, int, Any]]:
        # dicts preserve insertion order, which defines iteration order here.
        for (kind, ident), obj in self._members.items():
            yield kind, ident, obj

    def query(
        self, predicate: Query | Callable[[ObjectKind, int, Any], bool]
    ) -> list[tuple[ObjectKind, int, Any]]:
        """Members satisfying the predicate, in insertion order."""
        if isinstance(predicate, Query):
            test = predicate.matches
        else:
            test = predicate
        return [(k, i, o) for k, i, o in self.items() if test(k, i, o)]
