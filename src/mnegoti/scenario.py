"""Scenario documents: parsing, schema and validation.

A scenario is one YAML (or JSON) document with the top-level keys
version, seed, ticks, theta_in, criteria, issues, groups, social_edges,
protocols, rooms and watchers. The document is built in one pass over the
parser's node graph; a graph outside the plain-data subset (string-keyed
mappings, lists, and str, int, float, bool and null scalars) is built by
PyYAML's own constructor instead. Loading validates every cross-reference
and bound, naming the offending path on failure. Issues are normalized at
load: a score on a cost criterion is flipped to 1 - score, so
``Scenario.issues`` holds every score in benefit direction. An agenda holds
the scenario's own issue and protocol objects, and ``theta_in`` is the
threshold of a conditions policy that gives none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .context import ObjectKind, Query
from .errors import ValidationError
from .model import (
    AgentGroup,
    AgentPhase,
    Criterion,
    Direction,
    DistributionKind,
    DistributionSpec,
    Issue,
    PreferenceBounds,
    StrategyConfig,
    StrategyKind,
)
from .protocols import ProtocolConfig, ProtocolKind
from .rooms import AdmissionKind, AdmissionPolicy, Agenda, RoomState
from .scheduler import ActionKind, ReactionOffset, WatcherRule

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "version",
    "seed",
    "ticks",
    "theta_in",
    "criteria",
    "issues",
    "groups",
    "social_edges",
    "protocols",
    "rooms",
    "watchers",
}

# libyaml's parser when PyYAML was built with it; both build the same document.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The node tags of a string, a mapping and a sequence.
_STR = "tag:yaml.org,2002:str"
_MAP = "tag:yaml.org,2002:map"
_SEQ = "tag:yaml.org,2002:seq"

# The states each object kind takes; a query with no kind may name any.
_STATES_BY_KIND = {
    ObjectKind.AGENT: frozenset(p.value for p in AgentPhase),
    ObjectKind.MEETING_ROOM: frozenset(s.value for s in RoomState),
}
_STATE_NAMES = frozenset().union(*_STATES_BY_KIND.values())

# The object kind each reaction acts on; a ``report`` reaction ignores its
# target and a ``room_open`` reaction has no agenda, so neither is listed.
_REACTION_TARGET_KIND = {
    ActionKind.AGENT_SCAN: ObjectKind.AGENT,
    ActionKind.ROOM_INVITE: ObjectKind.MEETING_ROOM,
    ActionKind.ROOM_CLOSE: ObjectKind.MEETING_ROOM,
    ActionKind.NEGOTIATION_ROUND: ObjectKind.MEETING_ROOM,
}


@dataclass(frozen=True)
class ScheduleEntry:
    action: str  # "open" or "close"
    at: int
    agenda: Agenda | None = None
    priority: int | None = None


@dataclass(frozen=True)
class RoomSpec:
    id: int
    schedule: tuple[ScheduleEntry, ...]


@dataclass(frozen=True)
class Scenario:
    version: int
    seed: int
    ticks: int
    theta_in: float
    criteria: tuple[Criterion, ...]
    issues: tuple[Issue, ...]  # direction-normalized
    groups: tuple[AgentGroup, ...]
    protocols: tuple[ProtocolConfig, ...]
    rooms: tuple[RoomSpec, ...]
    watchers: tuple[WatcherRule, ...]

    @property
    def total_agents(self) -> int:
        return sum(g.member_count for g in self.groups)


# -- primitive checks ---------------------------------------------------


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ValidationError(path, f"missing required key {key!r}")
    return doc[key]


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected a mapping, got {type(value).__name__}")
    return value

def _sequence(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected a list, got {type(value).__name__}")
    return value


def _int(value, path: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be >= {minimum}, got {value}")
    return value


def _float(value, path: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(path, f"expected a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise ValidationError(path, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValidationError(path, f"must be <= {hi}, got {value}")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {value!r}")
    return value


def _no_unknown_keys(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValidationError(path, f"unknown key(s) {sorted(unknown)}")


def _records(raw, path: str, keys: set[str], required: str | None = None):
    """Yield (path, mapping) for each item of a list of mappings with only ``keys``.

    ``required`` names an item when the list must hold at least one.
    """
    items = _sequence(raw, path)
    if required is not None and not items:
        raise ValidationError(path, f"at least one {required} is required")
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(doc, keys, p)
        yield p, doc


def _unique(seen: set, value, path: str, what: str) -> None:
    if value in seen:
        raise ValidationError(path, f"duplicate {what} {value!r}")
    seen.add(value)


def _enum(cls, raw, path: str, what: str):
    try:
        return cls(raw)
    except ValueError:
        raise ValidationError(path, f"unknown {what} {raw!r}") from None


# -- section parsers -----------------------------------------------------


def _parse_criteria(raw, path: str) -> tuple[Criterion, ...]:
    criteria = []
    names: set[str] = set()
    records = _records(raw, path, {"id", "name", "direction"}, "criterion")
    for k, (p, doc) in enumerate(records):
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        if ident != k:
            raise ValidationError(
                f"{p}.id", f"criterion ids must be contiguous; expected {k}, got {ident}"
            )
        name = _str(_require(doc, "name", p), f"{p}.name")
        _unique(names, name, f"{p}.name", "criterion name")
        direction = _enum(Direction, doc.get("direction", "benefit"), f"{p}.direction", "direction")
        criteria.append(Criterion(id=ident, name=name, direction=direction))
    return tuple(criteria)


def _parse_issues(raw, criteria: tuple[Criterion, ...], path: str) -> tuple[Issue, ...]:
    """The issues with each cost criterion's score flipped to 1 - score."""
    issues = []
    seen_ids: set[int] = set()
    names: set[str] = set()
    for p, doc in _records(raw, path, {"id", "name", "scores"}, "issue"):
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        _unique(seen_ids, ident, f"{p}.id", "issue id")
        name = _str(_require(doc, "name", p), f"{p}.name")
        _unique(names, name, f"{p}.name", "issue name")
        scores_raw = _sequence(_require(doc, "scores", p), f"{p}.scores")
        if len(scores_raw) != len(criteria):
            raise ValidationError(
                f"{p}.scores", f"expected {len(criteria)} scores, got {len(scores_raw)}"
            )
        scores = []
        for j, (s, criterion) in enumerate(zip(scores_raw, criteria)):
            s = _float(s, f"{p}.scores[{j}]", lo=0.0, hi=1.0)
            scores.append(1.0 - s if criterion.direction is Direction.COST else s)
        issues.append(Issue(id=ident, name=name, scores=tuple(scores)))
    return tuple(issues)


def _parse_distribution(raw, path: str) -> DistributionSpec:
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"kind", "mean", "sd"}, path)
    kind_raw = _str(_require(doc, "kind", path), f"{path}.kind")
    kind = _enum(DistributionKind, kind_raw, f"{path}.kind", "distribution")
    if kind is DistributionKind.UNIFORM:
        return DistributionSpec(kind=kind)
    mean = _float(doc.get("mean", 0.5), f"{path}.mean", lo=0.0, hi=1.0)
    sd = _float(doc.get("sd", 0.25), f"{path}.sd")
    if sd <= 0.0:
        raise ValidationError(f"{path}.sd", f"must be > 0, got {sd}")
    return DistributionSpec(kind=kind, mean=mean, sd=sd)


def _parse_strategy(raw, path: str) -> StrategyConfig:
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"kind", "beta"}, path)
    kind_raw = _str(_require(doc, "kind", path), f"{path}.kind")
    kind = _enum(StrategyKind, kind_raw, f"{path}.kind", "strategy")
    beta = _float(doc.get("beta", 1.0), f"{path}.beta")
    if beta <= 0.0:
        raise ValidationError(f"{path}.beta", f"must be > 0, got {beta}")
    return StrategyConfig(kind=kind, beta=beta)


def _parse_groups(raw, n_criteria: int, path: str) -> tuple[AgentGroup, ...]:
    groups = []
    seen_ids: set[int] = set()
    names: set[str] = set()
    keys = {"id", "name", "bounds", "distribution", "member_count", "strategy"}
    for p, doc in _records(raw, path, keys, "group"):
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        _unique(seen_ids, ident, f"{p}.id", "group id")
        name = _str(_require(doc, "name", p), f"{p}.name")
        _unique(names, name, f"{p}.name", "group name")
        rows_raw = _sequence(_require(doc, "bounds", p), f"{p}.bounds")
        if len(rows_raw) != n_criteria:
            raise ValidationError(
                f"{p}.bounds", f"expected {n_criteria} rows, got {len(rows_raw)}"
            )
        rows = []
        for j, row in enumerate(rows_raw):
            rp = f"{p}.bounds[{j}]"
            pair = _sequence(row, rp)
            if len(pair) != 2:
                raise ValidationError(rp, f"expected [lower, upper], got {row!r}")
            lo = _float(pair[0], f"{rp}[0]", lo=0.0, hi=1.0)
            hi = _float(pair[1], f"{rp}[1]", lo=0.0, hi=1.0)
            if lo > hi:
                raise ValidationError(rp, f"lower > upper ({lo} > {hi})")
            rows.append((lo, hi))
        distribution = (
            _parse_distribution(doc["distribution"], f"{p}.distribution")
            if "distribution" in doc
            else DistributionSpec()
        )
        strategy = (
            _parse_strategy(doc["strategy"], f"{p}.strategy")
            if "strategy" in doc
            else StrategyConfig()
        )
        member_count = _int(_require(doc, "member_count", p), f"{p}.member_count", minimum=1)
        groups.append(
            AgentGroup(
                id=ident,
                name=name,
                bounds=PreferenceBounds(rows=tuple(rows)),
                distribution=distribution,
                member_count=member_count,
                strategy=strategy,
            )
        )
    return tuple(groups)


def _parse_social_edges(raw, total_agents: int, path: str) -> None:
    """Validate the edges; nothing reads them, so the scenario does not keep them."""
    for k, item in enumerate(_sequence(raw, path)):
        p = f"{path}[{k}]"
        pair = _sequence(item, p)
        if len(pair) != 2:
            raise ValidationError(p, f"expected [a, b], got {item!r}")
        a = _int(pair[0], f"{p}[0]", minimum=0)
        b = _int(pair[1], f"{p}[1]", minimum=0)
        if a == b:
            raise ValidationError(p, f"self-edge on agent {a}")
        for side, value in (("[0]", a), ("[1]", b)):
            if value >= total_agents:
                raise ValidationError(
                    f"{p}{side}", f"agent {value} does not exist (population is {total_agents})"
                )


def _parse_protocols(raw, path: str) -> tuple[ProtocolConfig, ...]:
    protocols = []
    seen: set[str] = set()
    for p, doc in _records(raw, path, {"id", "kind", "max_rounds", "rounds_per_tick"}):
        ident = _str(_require(doc, "id", p), f"{p}.id")
        _unique(seen, ident, f"{p}.id", "protocol id")
        kind_raw = _str(_require(doc, "kind", p), f"{p}.kind")
        protocols.append(
            ProtocolConfig(
                id=ident,
                kind=_enum(ProtocolKind, kind_raw, f"{p}.kind", "protocol"),
                max_rounds=_int(doc.get("max_rounds", 10), f"{p}.max_rounds", minimum=1),
                rounds_per_tick=_int(
                    doc.get("rounds_per_tick", 1), f"{p}.rounds_per_tick", minimum=1
                ),
            )
        )
    return tuple(protocols)


def _parse_admission(
    raw, group_ids: set[int], total_agents: int, theta_in: float, path: str
) -> AdmissionPolicy:
    doc = _mapping(raw, path)
    kind_raw = _str(_require(doc, "kind", path), f"{path}.kind")
    kind = _enum(AdmissionKind, kind_raw, f"{path}.kind", "admission kind")
    if kind is AdmissionKind.INVITATIONS:
        _no_unknown_keys(doc, {"kind", "agents"}, path)
        agents_raw = _sequence(_require(doc, "agents", path), f"{path}.agents")
        if not agents_raw:
            raise ValidationError(f"{path}.agents", "invitation list must not be empty")
        seen: set[int] = set()
        for j, a in enumerate(agents_raw):
            aid = _int(a, f"{path}.agents[{j}]", minimum=0)
            if aid >= total_agents:
                raise ValidationError(
                    f"{path}.agents[{j}]",
                    f"agent {aid} does not exist (population is {total_agents})",
                )
            _unique(seen, aid, f"{path}.agents[{j}]", "agent")
        return AdmissionPolicy(kind=kind, agents=frozenset(seen))
    _no_unknown_keys(doc, {"kind", "groups", "threshold"}, path)
    groups = []
    for j, g in enumerate(_sequence(doc.get("groups", []), f"{path}.groups")):
        gid = _int(g, f"{path}.groups[{j}]", minimum=0)
        if gid not in group_ids:
            raise ValidationError(f"{path}.groups[{j}]", f"group {gid} does not exist")
        groups.append(gid)
    threshold = theta_in
    if doc.get("threshold") is not None:
        threshold = _float(doc["threshold"], f"{path}.threshold", lo=0.0, hi=1.0)
    return AdmissionPolicy(kind=kind, groups=tuple(groups), threshold=threshold)


def _parse_rooms(
    raw,
    issues: tuple[Issue, ...],
    group_ids: set[int],
    protocols: tuple[ProtocolConfig, ...],
    total_agents: int,
    theta_in: float,
    path: str,
) -> tuple[RoomSpec, ...]:
    issue_by_id = {i.id: i for i in issues}
    protocol_by_id = {p.id: p for p in protocols}
    rooms = []
    seen: set[int] = set()
    for p, doc in _records(raw, path, {"id", "schedule"}):
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        _unique(seen, ident, f"{p}.id", "room id")
        entries = []
        for j, entry_raw in enumerate(_sequence(_require(doc, "schedule", p), f"{p}.schedule")):
            ep = f"{p}.schedule[{j}]"
            edoc = _mapping(entry_raw, ep)
            action = _str(_require(edoc, "action", ep), f"{ep}.action")
            if action not in ("open", "close"):
                raise ValidationError(f"{ep}.action", f"expected 'open' or 'close', got {action!r}")
            at = _int(_require(edoc, "at", ep), f"{ep}.at", minimum=0)
            priority = None
            if edoc.get("priority") is not None:
                priority = _int(edoc["priority"], f"{ep}.priority")
            if action == "close":
                _no_unknown_keys(edoc, {"action", "at", "priority"}, ep)
                entries.append(ScheduleEntry(action=action, at=at, priority=priority))
                continue
            _no_unknown_keys(edoc, {"action", "at", "priority", "agenda"}, ep)
            ap = f"{ep}.agenda"
            adoc = _mapping(_require(edoc, "agenda", ep), ap)
            _no_unknown_keys(
                adoc, {"issues", "admission", "protocol", "deadline_rounds"}, ap
            )
            agenda_issue_ids: set[int] = set()
            for m, iid_raw in enumerate(_sequence(_require(adoc, "issues", ap), f"{ap}.issues")):
                iid = _int(iid_raw, f"{ap}.issues[{m}]", minimum=0)
                if iid not in issue_by_id:
                    raise ValidationError(f"{ap}.issues[{m}]", f"issue {iid} does not exist")
                _unique(agenda_issue_ids, iid, f"{ap}.issues[{m}]", "issue")
            if not agenda_issue_ids:
                raise ValidationError(f"{ap}.issues", "agenda must name at least one issue")
            protocol_id = _str(_require(adoc, "protocol", ap), f"{ap}.protocol")
            if protocol_id not in protocol_by_id:
                raise ValidationError(f"{ap}.protocol", f"protocol {protocol_id!r} does not exist")
            protocol = protocol_by_id[protocol_id]
            admission = _parse_admission(
                _require(adoc, "admission", ap), group_ids, total_agents, theta_in,
                f"{ap}.admission",
            )
            deadline = adoc.get("deadline_rounds")
            if deadline is None:
                deadline = protocol.max_rounds
            else:
                deadline = _int(deadline, f"{ap}.deadline_rounds", minimum=1)
            agenda = Agenda(
                issues=tuple(issue_by_id[i] for i in sorted(agenda_issue_ids)),
                admission=admission,
                protocol=protocol,
                deadline_rounds=deadline,
            )
            entries.append(ScheduleEntry(action=action, at=at, agenda=agenda, priority=priority))
        rooms.append(RoomSpec(id=ident, schedule=tuple(entries)))
    return tuple(rooms)


def _state(raw, kind: ObjectKind | None, path: str) -> str:
    """A state name that an object of ``kind`` can take; any state if no kind."""
    state = _str(raw, path)
    if state not in _STATE_NAMES:
        raise ValidationError(path, f"unknown state {state!r}")
    if kind is not None and state not in _STATES_BY_KIND[kind]:
        raise ValidationError(path, f"a {kind.value} is never {state!r}, so this rule never fires")
    return state


def _parse_trigger(raw, watcher: Query, watchee: Query, path: str) -> dict[str, str]:
    """The state the trigger names for each side, "watcher" or "watchee", that has one."""
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"watcher.state", "watchee.state"}, path)
    return {
        side: _state(doc[f"{side}.state"], query.kind, f"{path}.{side}.state")
        for side, query in (("watcher", watcher), ("watchee", watchee))
        if f"{side}.state" in doc
    }


def _parse_query(raw, group_ids: set[int], path: str) -> tuple[Query, str | None]:
    """The query, and the state it names, if any."""
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"kind", "id", "state", "group_id"}, path)
    kind = None
    if "kind" in doc:
        kind = _enum(ObjectKind, _str(doc["kind"], f"{path}.kind"), f"{path}.kind", "kind")
    ident = _int(doc["id"], f"{path}.id", minimum=0) if "id" in doc else None
    state = _state(doc["state"], kind, f"{path}.state") if "state" in doc else None
    group_id = None
    if "group_id" in doc:
        group_id = _int(doc["group_id"], f"{path}.group_id", minimum=0)
        if kind is ObjectKind.MEETING_ROOM:
            raise ValidationError(
                f"{path}.group_id", "a meeting_room has no group, so this query never matches"
            )
        if group_id not in group_ids:
            raise ValidationError(f"{path}.group_id", f"group {group_id} does not exist")
    return Query(kind=kind, ident=ident, group_id=group_id), state


def _parse_watchers(raw, group_ids: set[int], path: str) -> tuple[WatcherRule, ...]:
    watchers = []
    for p, doc in _records(raw, path, {"watcher", "watchee", "trigger", "reaction"}):
        (watcher, watcher_state), (watchee, watchee_state) = (
            _parse_query(_require(doc, side, p), group_ids, f"{p}.{side}")
            for side in ("watcher", "watchee")
        )
        trigger = _parse_trigger(_require(doc, "trigger", p), watcher, watchee, f"{p}.trigger")
        rp = f"{p}.reaction"
        rdoc = _mapping(_require(doc, "reaction", p), rp)
        _no_unknown_keys(rdoc, {"kind", "when", "priority", "target"}, rp)
        kind_raw = _str(_require(rdoc, "kind", rp), f"{rp}.kind")
        kind = _enum(ActionKind, kind_raw, f"{rp}.kind", "action kind")
        if kind is ActionKind.ROOM_OPEN:
            raise ValidationError(
                f"{rp}.kind", "room_open cannot be a reaction: a reaction carries no agenda"
            )
        when_raw = rdoc.get("when", "same_tick")
        try:
            when = ReactionOffset(when_raw)
        except ValueError:
            raise ValidationError(
                f"{rp}.when", f"expected same_tick or next_tick, got {when_raw!r}"
            ) from None
        priority = None
        if rdoc.get("priority") is not None:
            priority = _int(rdoc["priority"], f"{rp}.priority")
        target_role = rdoc.get("target", "watcher")
        if target_role not in ("watcher", "watchee"):
            raise ValidationError(
                f"{rp}.target", f"expected watcher or watchee, got {target_role!r}"
            )
        needed = _REACTION_TARGET_KIND.get(kind)
        target = watcher if target_role == "watcher" else watchee
        if needed is not None and target.kind is not needed:
            raise ValidationError(
                f"{p}.{target_role}.kind",
                f"{kind.value} acts on the {target_role}, so it must select kind: {needed.value}",
            )
        # The rule fires when its watchee changes into trigger.watchee.state. A
        # query state must be its side's trigger state, or stands in for it.
        if "watchee" not in trigger:
            raise ValidationError(
                f"{p}.trigger", "no watchee.state is set, so this rule never fires"
            )
        for side, state in (("watchee", watchee_state), ("watcher", watcher_state)):
            if state is not None and trigger.setdefault(side, state) != state:
                raise ValidationError(
                    f"{p}.{side}.state",
                    f"{state!r} is not the trigger's {side}.state {trigger[side]!r}, "
                    "so this rule never fires",
                )
        watchers.append(
            WatcherRule(
                watcher_query=watcher,
                watchee_query=watchee,
                watchee_state=trigger["watchee"],
                watcher_state=trigger.get("watcher"),
                reaction_kind=kind,
                when=when,
                priority=priority,
                target_role=target_role,
            )
        )
    return tuple(watchers)


# -- public API ----------------------------------------------------------


def load_scenario(document) -> Scenario:
    """Validate a parsed scenario document and build the typed Scenario."""
    doc = _mapping(document, "scenario")
    _no_unknown_keys(doc, _TOP_KEYS, "scenario")
    version = _int(_require(doc, "version", "scenario"), "version")
    if version != SCHEMA_VERSION:
        raise ValidationError("version", f"unsupported schema version {version}")
    seed = _int(_require(doc, "seed", "scenario"), "seed", minimum=0)
    ticks = _int(_require(doc, "ticks", "scenario"), "ticks", minimum=0)
    theta_in = _float(doc.get("theta_in", 0.0), "theta_in", lo=0.0, hi=1.0)

    criteria = _parse_criteria(_require(doc, "criteria", "scenario"), "criteria")
    issues = _parse_issues(_require(doc, "issues", "scenario"), criteria, "issues")
    groups = _parse_groups(_require(doc, "groups", "scenario"), len(criteria), "groups")
    total_agents = sum(g.member_count for g in groups)
    group_ids = {g.id for g in groups}

    _parse_social_edges(doc.get("social_edges", []), total_agents, "social_edges")
    protocols = _parse_protocols(doc.get("protocols", []), "protocols")
    rooms = _parse_rooms(
        doc.get("rooms", []), issues, group_ids, protocols, total_agents, theta_in, "rooms"
    )
    watchers = _parse_watchers(doc.get("watchers", []), group_ids, "watchers")

    return Scenario(
        version=version,
        seed=seed,
        ticks=ticks,
        theta_in=theta_in,
        criteria=criteria,
        issues=issues,
        groups=groups,
        protocols=protocols,
        rooms=rooms,
        watchers=watchers,
    )


class _NotPlain(Exception):
    """A node outside the plain-data subset ``_build_document`` builds itself."""


def _build_document(loader, root):
    """The document of ``root``, built in one pass over its node graph.

    The plain-data subset is built here: mappings whose keys are plain
    strings, sequences, and scalars tagged str, int, float, bool or null.
    As in PyYAML, a string is its node's own value, the other scalars go
    through the loader's converters, and a repeated key keeps its first
    place and its last value. A graph with any other node, such as a node
    reached twice (an alias), a merge key, a timestamp or a custom tag, is
    constructed whole by PyYAML. The pass keeps its own stack of unfilled
    collections, so depth is no limit.
    """
    convert = {
        "tag:yaml.org,2002:int": loader.construct_yaml_int,
        "tag:yaml.org,2002:float": loader.construct_yaml_float,
        "tag:yaml.org,2002:bool": loader.construct_yaml_bool,
        "tag:yaml.org,2002:null": loader.construct_yaml_null,
    }
    seen = set()
    unfilled = []

    def build(node):
        tag = node.tag
        if tag == _STR:
            return node.value
        if node in seen:
            raise _NotPlain
        seen.add(node)
        if tag in convert:
            return convert[tag](node)
        if tag == _MAP:
            value = {}
        elif tag == _SEQ:
            value = []
        else:
            raise _NotPlain
        unfilled.append((node, value))
        return value

    try:
        document = build(root)
        while unfilled:
            node, value = unfilled.pop()
            if type(value) is list:
                value.extend(map(build, node.value))
            else:
                for key, item in node.value:
                    if key.tag != _STR:
                        raise _NotPlain
                    value[key.value] = build(item)
    except _NotPlain:
        return loader.construct_document(root)
    return document


def read_document(text: str):
    """The parsed document of a scenario text, before validation."""
    loader = YAML_LOADER(text)
    try:
        root = loader.get_single_node()
        return None if root is None else _build_document(loader, root)
    except yaml.YAMLError as exc:
        raise ValidationError("scenario", f"not a well-formed document: {exc}") from None
    except RecursionError:  # PyYAML's pure-Python parser recurses once per level
        raise ValidationError("scenario", "nested too deeply to parse") from None
    finally:
        loader.dispose()


def parse_scenario_text(text: str) -> Scenario:
    return load_scenario(read_document(text))


def load_scenario_file(path: str | Path) -> Scenario:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"))

