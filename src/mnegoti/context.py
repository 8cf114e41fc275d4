"""Set-semantics container for simulation objects plus relational projections.

The context holds at most one member per (kind, id) key and preserves
insertion order for deterministic queries. Projections attach to a context
and relate its agent members by labeled, undirected edges; removing a
member strips its edges from every attached projection.

A ``NetworkProjection`` stores explicit edges (the scenario's social
edges). The same-group relation is implicit in ``group_id``: two agents
share a SAME_GROUP edge exactly when their groups are equal, so a
``GroupProjection`` keeps each group's sorted member ids and answers
queries from them, in O(agents) time and memory rather than one stored
edge per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator

from .errors import (
    ConfigurationError,
    DuplicateMemberError,
    InvalidEdgeError,
    NotFoundError,
)


class ObjectKind(str, Enum):
    AGENT = "agent"
    MEETING_ROOM = "meeting_room"


class EdgeLabel(str, Enum):
    SAME_GROUP = "same_group"
    SOCIAL = "social"


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

    @classmethod
    def from_document(cls, doc: dict, path: str) -> "Query":
        allowed = {"kind", "id", "state", "group_id"}
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigurationError(f"{path}: unknown query field(s) {sorted(unknown)}")
        kind = None
        if "kind" in doc:
            try:
                kind = ObjectKind(doc["kind"])
            except ValueError:
                raise ConfigurationError(f"{path}: unknown kind {doc['kind']!r}") from None
        return cls(
            kind=kind,
            ident=doc.get("id"),
            state=doc.get("state"),
            group_id=doc.get("group_id"),
        )

    def to_document(self) -> dict:
        doc: dict = {}
        if self.kind is not None:
            doc["kind"] = self.kind.value
        if self.ident is not None:
            doc["id"] = self.ident
        if self.state is not None:
            doc["state"] = self.state
        if self.group_id is not None:
            doc["group_id"] = self.group_id
        return doc


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
    """Population container; duplicate (kind, id) insertions always error."""

    def __init__(self) -> None:
        self._members: dict[Key, Any] = {}
        self._projections: list[Projection] = []

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: Key) -> bool:
        return key in self._members

    def add(self, kind: ObjectKind, ident: int, obj: Any = None) -> None:
        key = (kind, ident)
        if key in self._members:
            raise DuplicateMemberError(f"{kind.value} {ident} already in context")
        self._members[key] = obj

    def remove(self, kind: ObjectKind, ident: int) -> None:
        key = (kind, ident)
        if key not in self._members:
            raise NotFoundError(f"{kind.value} {ident} not in context")
        del self._members[key]
        for projection in self._projections:
            projection._drop_endpoint(ident if kind is ObjectKind.AGENT else None)

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

    def attach(self, projection: "Projection") -> None:
        projection._context = self
        self._projections.append(projection)

    @property
    def projections(self) -> list["Projection"]:
        return list(self._projections)


@dataclass
class NetworkProjection:
    """Undirected labeled edges over the agents of an attached context."""

    name: str
    _context: Context | None = None
    _edges: set[tuple[int, int, EdgeLabel]] = field(default_factory=set)

    def _check_endpoint(self, agent_id: int) -> None:
        if self._context is None:
            return
        if (ObjectKind.AGENT, agent_id) not in self._context:
            raise NotFoundError(f"agent {agent_id} not in attached context")

    def add_edge(self, a: int, b: int, label: EdgeLabel = EdgeLabel.SOCIAL) -> None:
        if a == b:
            raise InvalidEdgeError(f"self-edge on agent {a}")
        self._check_endpoint(a)
        self._check_endpoint(b)
        lo, hi = (a, b) if a < b else (b, a)
        self._edges.add((lo, hi, label))

    def neighbors(self, a: int, label: EdgeLabel | None = None) -> list[int]:
        """Adjacent agent ids, ascending."""
        found = set()
        for lo, hi, lab in self._edges:
            if label is not None and lab is not label:
                continue
            if lo == a:
                found.add(hi)
            elif hi == a:
                found.add(lo)
        return sorted(found)

    def edge_count(self, label: EdgeLabel | None = None) -> int:
        if label is None:
            return len(self._edges)
        return sum(1 for e in self._edges if e[2] is label)

    def _drop_endpoint(self, agent_id: int | None) -> None:
        if agent_id is None:
            return
        self._edges = {e for e in self._edges if agent_id not in (e[0], e[1])}


class GroupProjection:
    """The SAME_GROUP relation: a complete graph per group, held implicitly.

    Stores each group's ascending member ids and each agent's group:
    building costs O(agents), ``neighbors`` and removal O(group size), and
    no edge is ever materialized.
    """

    name = "same_group"

    def __init__(self, members_by_group: dict[int, list[int]]) -> None:
        self._context: Context | None = None
        self._members = {g: sorted(ids) for g, ids in members_by_group.items()}
        self._group_of = {a: g for g, ids in self._members.items() for a in ids}

    def neighbors(self, a: int, label: EdgeLabel | None = None) -> list[int]:
        """Adjacent agent ids, ascending."""
        if label not in (None, EdgeLabel.SAME_GROUP) or a not in self._group_of:
            return []
        return [b for b in self._members[self._group_of[a]] if b != a]

    def edge_count(self, label: EdgeLabel | None = None) -> int:
        if label not in (None, EdgeLabel.SAME_GROUP):
            return 0
        return sum(len(ids) * (len(ids) - 1) // 2 for ids in self._members.values())

    def _drop_endpoint(self, agent_id: int | None) -> None:
        group = self._group_of.pop(agent_id, None)
        if group is not None:
            self._members[group].remove(agent_id)


Projection = NetworkProjection | GroupProjection


def build_same_group_projection(
    context: Context, members_by_group: dict[int, list[int]]
) -> GroupProjection:
    """Complete graph per group, labeled SAME_GROUP, without storing its edges."""
    for ids in members_by_group.values():
        for a in ids:
            if (ObjectKind.AGENT, a) not in context:
                raise NotFoundError(f"agent {a} not in attached context")
    projection = GroupProjection(members_by_group)
    context.attach(projection)
    return projection
