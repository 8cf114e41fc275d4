"""Scenario documents: schema, validation, and canonical serialization.

A scenario is one YAML (or JSON) document with the top-level keys
version, seed, ticks, theta_in, criteria, issues, groups, social_edges,
protocols, rooms and watchers. Loading validates every cross-reference
and bound, naming the offending path on failure; ``serialize_scenario``
emits the fully explicit canonical form, which reloads to an equal value.
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
from .scheduler import ActionKind, ReactionOffset, Trigger, WatcherRule

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
class IssueSpec:
    """An issue as authored: raw scores, before direction normalization."""

    id: int
    name: str
    raw_scores: tuple[float, ...]


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
    issues: tuple[IssueSpec, ...]
    groups: tuple[AgentGroup, ...]
    social_edges: tuple[tuple[int, int], ...]
    protocols: tuple[ProtocolConfig, ...]
    rooms: tuple[RoomSpec, ...]
    watchers: tuple[WatcherRule, ...]

    @property
    def total_agents(self) -> int:
        return sum(g.member_count for g in self.groups)

    def protocol(self, protocol_id: str) -> ProtocolConfig:
        for p in self.protocols:
            if p.id == protocol_id:
                return p
        raise KeyError(protocol_id)

    def normalized_issues(self) -> list[Issue]:
        """Issues with cost-direction scores flipped to benefit direction."""
        out = []
        for spec in self.issues:
            scores = tuple(
                1.0 - s if c.direction is Direction.COST else s
                for s, c in zip(spec.raw_scores, self.criteria)
            )
            out.append(Issue(id=spec.id, name=spec.name, scores=scores))
        return out


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


# -- section parsers -----------------------------------------------------


def _parse_criteria(raw, path: str) -> tuple[Criterion, ...]:
    items = _sequence(raw, path)
    if not items:
        raise ValidationError(path, "at least one criterion is required")
    criteria = []
    names = set()
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(doc, {"id", "name", "direction"}, p)
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        if ident != k:
            raise ValidationError(f"{p}.id", f"criterion ids must be contiguous; expected {k}, got {ident}")
        name = _str(_require(doc, "name", p), f"{p}.name")
        if name in names:
            raise ValidationError(f"{p}.name", f"duplicate criterion name {name!r}")
        names.add(name)
        direction_raw = doc.get("direction", "benefit")
        try:
            direction = Direction(direction_raw)
        except ValueError:
            raise ValidationError(f"{p}.direction", f"unknown direction {direction_raw!r}") from None
        criteria.append(Criterion(id=ident, name=name, direction=direction))
    return tuple(criteria)


def _parse_issues(raw, n_criteria: int, path: str) -> tuple[IssueSpec, ...]:
    items = _sequence(raw, path)
    if not items:
        raise ValidationError(path, "at least one issue is required")
    issues = []
    seen_ids: set[int] = set()
    names = set()
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(doc, {"id", "name", "scores"}, p)
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        if ident in seen_ids:
            raise ValidationError(f"{p}.id", f"duplicate issue id {ident}")
        seen_ids.add(ident)
        name = _str(_require(doc, "name", p), f"{p}.name")
        if name in names:
            raise ValidationError(f"{p}.name", f"duplicate issue name {name!r}")
        names.add(name)
        scores_raw = _sequence(_require(doc, "scores", p), f"{p}.scores")
        if len(scores_raw) != n_criteria:
            raise ValidationError(
                f"{p}.scores", f"expected {n_criteria} scores, got {len(scores_raw)}"
            )
        scores = tuple(
            _float(s, f"{p}.scores[{j}]", lo=0.0, hi=1.0) for j, s in enumerate(scores_raw)
        )
        issues.append(IssueSpec(id=ident, name=name, raw_scores=scores))
    return tuple(issues)


def _parse_distribution(raw, path: str) -> DistributionSpec:
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"kind", "mean", "sd"}, path)
    kind_raw = _str(_require(doc, "kind", path), f"{path}.kind")
    try:
        kind = DistributionKind(kind_raw)
    except ValueError:
        raise ValidationError(f"{path}.kind", f"unknown distribution {kind_raw!r}") from None
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
    try:
        kind = StrategyKind(kind_raw)
    except ValueError:
        raise ValidationError(f"{path}.kind", f"unknown strategy {kind_raw!r}") from None
    beta = _float(doc.get("beta", 1.0), f"{path}.beta")
    if beta <= 0.0:
        raise ValidationError(f"{path}.beta", f"must be > 0, got {beta}")
    return StrategyConfig(kind=kind, beta=beta)


def _parse_groups(raw, n_criteria: int, path: str) -> tuple[AgentGroup, ...]:
    items = _sequence(raw, path)
    if not items:
        raise ValidationError(path, "at least one group is required")
    groups = []
    seen_ids: set[int] = set()
    names = set()
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(
            doc, {"id", "name", "bounds", "distribution", "member_count", "strategy"}, p
        )
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        if ident in seen_ids:
            raise ValidationError(f"{p}.id", f"duplicate group id {ident}")
        seen_ids.add(ident)
        name = _str(_require(doc, "name", p), f"{p}.name")
        if name in names:
            raise ValidationError(f"{p}.name", f"duplicate group name {name!r}")
        names.add(name)
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


def _parse_social_edges(raw, total_agents: int, path: str) -> tuple[tuple[int, int], ...]:
    items = _sequence(raw, path)
    edges = []
    for k, item in enumerate(items):
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
        edges.append((a, b))
    return tuple(edges)


def _parse_protocols(raw, path: str) -> tuple[ProtocolConfig, ...]:
    items = _sequence(raw, path)
    protocols = []
    seen = set()
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(doc, {"id", "kind", "max_rounds", "rounds_per_tick"}, p)
        ident = _str(_require(doc, "id", p), f"{p}.id")
        if ident in seen:
            raise ValidationError(f"{p}.id", f"duplicate protocol id {ident!r}")
        seen.add(ident)
        kind_raw = _str(_require(doc, "kind", p), f"{p}.kind")
        try:
            kind = ProtocolKind(kind_raw)
        except ValueError:
            raise ValidationError(f"{p}.kind", f"unknown protocol {kind_raw!r}") from None
        protocols.append(
            ProtocolConfig(
                id=ident,
                kind=kind,
                max_rounds=_int(doc.get("max_rounds", 10), f"{p}.max_rounds", minimum=1),
                rounds_per_tick=_int(
                    doc.get("rounds_per_tick", 1), f"{p}.rounds_per_tick", minimum=1
                ),
            )
        )
    return tuple(protocols)


def _parse_admission(
    raw, group_ids: set[int], total_agents: int, path: str
) -> AdmissionPolicy:
    doc = _mapping(raw, path)
    kind_raw = _str(_require(doc, "kind", path), f"{path}.kind")
    try:
        kind = AdmissionKind(kind_raw)
    except ValueError:
        raise ValidationError(f"{path}.kind", f"unknown admission kind {kind_raw!r}") from None
    if kind is AdmissionKind.INVITATIONS:
        _no_unknown_keys(doc, {"kind", "agents"}, path)
        agents_raw = _sequence(_require(doc, "agents", path), f"{path}.agents")
        if not agents_raw:
            raise ValidationError(f"{path}.agents", "invitation list must not be empty")
        agents = []
        for j, a in enumerate(agents_raw):
            aid = _int(a, f"{path}.agents[{j}]", minimum=0)
            if aid >= total_agents:
                raise ValidationError(
                    f"{path}.agents[{j}]",
                    f"agent {aid} does not exist (population is {total_agents})",
                )
            agents.append(aid)
        return AdmissionPolicy(kind=kind, agents=tuple(agents))
    _no_unknown_keys(doc, {"kind", "groups", "threshold"}, path)
    groups = []
    for j, g in enumerate(_sequence(doc.get("groups", []), f"{path}.groups")):
        gid = _int(g, f"{path}.groups[{j}]", minimum=0)
        if gid not in group_ids:
            raise ValidationError(f"{path}.groups[{j}]", f"group {gid} does not exist")
        groups.append(gid)
    threshold = None
    if doc.get("threshold") is not None:
        threshold = _float(doc["threshold"], f"{path}.threshold", lo=0.0, hi=1.0)
    return AdmissionPolicy(kind=kind, groups=tuple(groups), threshold=threshold)


def _parse_rooms(
    raw,
    issue_ids: set[int],
    group_ids: set[int],
    protocols: tuple[ProtocolConfig, ...],
    total_agents: int,
    path: str,
) -> tuple[RoomSpec, ...]:
    items = _sequence(raw, path)
    protocol_by_id = {p.id: p for p in protocols}
    rooms = []
    seen = set()
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(doc, {"id", "schedule"}, p)
        ident = _int(_require(doc, "id", p), f"{p}.id", minimum=0)
        if ident in seen:
            raise ValidationError(f"{p}.id", f"duplicate room id {ident}")
        seen.add(ident)
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
            agenda_issue_ids = []
            for m, iid_raw in enumerate(_sequence(_require(adoc, "issues", ap), f"{ap}.issues")):
                iid = _int(iid_raw, f"{ap}.issues[{m}]", minimum=0)
                if iid not in issue_ids:
                    raise ValidationError(f"{ap}.issues[{m}]", f"issue {iid} does not exist")
                if iid in agenda_issue_ids:
                    raise ValidationError(f"{ap}.issues[{m}]", f"duplicate issue {iid}")
                agenda_issue_ids.append(iid)
            if not agenda_issue_ids:
                raise ValidationError(f"{ap}.issues", "agenda must name at least one issue")
            protocol_id = _str(_require(adoc, "protocol", ap), f"{ap}.protocol")
            if protocol_id not in protocol_by_id:
                raise ValidationError(f"{ap}.protocol", f"protocol {protocol_id!r} does not exist")
            admission = _parse_admission(
                _require(adoc, "admission", ap), group_ids, total_agents, f"{ap}.admission"
            )
            deadline = adoc.get("deadline_rounds")
            if deadline is None:
                deadline = protocol_by_id[protocol_id].max_rounds
            else:
                deadline = _int(deadline, f"{ap}.deadline_rounds", minimum=1)
            agenda = Agenda(
                issue_ids=tuple(sorted(agenda_issue_ids)),
                admission=admission,
                protocol_id=protocol_id,
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


def _parse_trigger(raw, watcher: Query, watchee: Query, path: str) -> Trigger:
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"watcher.state", "watchee.state"}, path)
    watcher_state = watchee_state = None
    if "watcher.state" in doc:
        watcher_state = _state(doc["watcher.state"], watcher.kind, f"{path}.watcher.state")
    if "watchee.state" in doc:
        watchee_state = _state(doc["watchee.state"], watchee.kind, f"{path}.watchee.state")
    return Trigger(watcher_state=watcher_state, watchee_state=watchee_state)


def _parse_query(raw, group_ids: set[int], path: str) -> Query:
    doc = _mapping(raw, path)
    _no_unknown_keys(doc, {"kind", "id", "state", "group_id"}, path)
    kind = None
    if "kind" in doc:
        kind_raw = _str(doc["kind"], f"{path}.kind")
        try:
            kind = ObjectKind(kind_raw)
        except ValueError:
            raise ValidationError(f"{path}.kind", f"unknown kind {kind_raw!r}") from None
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
    return Query(kind=kind, ident=ident, state=state, group_id=group_id)


def _parse_watchers(raw, group_ids: set[int], path: str) -> tuple[WatcherRule, ...]:
    items = _sequence(raw, path)
    watchers = []
    for k, item in enumerate(items):
        p = f"{path}[{k}]"
        doc = _mapping(item, p)
        _no_unknown_keys(doc, {"watcher", "watchee", "trigger", "reaction"}, p)
        watcher = _parse_query(_require(doc, "watcher", p), group_ids, f"{p}.watcher")
        watchee = _parse_query(_require(doc, "watchee", p), group_ids, f"{p}.watchee")
        trigger = _parse_trigger(_require(doc, "trigger", p), watcher, watchee, f"{p}.trigger")
        rdoc = _mapping(_require(doc, "reaction", p), f"{p}.reaction")
        _no_unknown_keys(rdoc, {"kind", "when", "priority", "target"}, f"{p}.reaction")
        kind_raw = _str(_require(rdoc, "kind", f"{p}.reaction"), f"{p}.reaction.kind")
        try:
            kind = ActionKind(kind_raw)
        except ValueError:
            raise ValidationError(
                f"{p}.reaction.kind", f"unknown action kind {kind_raw!r}"
            ) from None
        if kind is ActionKind.ROOM_OPEN:
            raise ValidationError(
                f"{p}.reaction.kind", "room_open cannot be a reaction: a reaction carries no agenda"
            )
        when_raw = rdoc.get("when", "same_tick")
        try:
            when = ReactionOffset(when_raw)
        except ValueError:
            raise ValidationError(
                f"{p}.reaction.when", f"expected same_tick or next_tick, got {when_raw!r}"
            ) from None
        priority = None
        if rdoc.get("priority") is not None:
            priority = _int(rdoc["priority"], f"{p}.reaction.priority")
        target_role = rdoc.get("target", "watcher")
        if target_role not in ("watcher", "watchee"):
            raise ValidationError(
                f"{p}.reaction.target", f"expected watcher or watchee, got {target_role!r}"
            )
        needed = _REACTION_TARGET_KIND.get(kind)
        target = watcher if target_role == "watcher" else watchee
        if needed is not None and target.kind is not needed:
            raise ValidationError(
                f"{p}.{target_role}.kind",
                f"{kind.value} acts on the {target_role}, so it must select kind: {needed.value}",
            )
        watchers.append(
            WatcherRule(
                watcher_query=watcher,
                watchee_query=watchee,
                trigger=trigger,
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
    issues = _parse_issues(_require(doc, "issues", "scenario"), len(criteria), "issues")
    groups = _parse_groups(_require(doc, "groups", "scenario"), len(criteria), "groups")
    total_agents = sum(g.member_count for g in groups)
    group_ids = {g.id for g in groups}
    issue_ids = {i.id for i in issues}

    social_edges = _parse_social_edges(doc.get("social_edges", []), total_agents, "social_edges")
    protocols = _parse_protocols(doc.get("protocols", []), "protocols")
    rooms = _parse_rooms(
        doc.get("rooms", []), issue_ids, group_ids, protocols, total_agents, "rooms"
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
        social_edges=social_edges,
        protocols=protocols,
        rooms=rooms,
        watchers=watchers,
    )


def parse_scenario_text(text: str) -> Scenario:
    try:
        document = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError("scenario", f"not a well-formed document: {exc}") from None
    return load_scenario(document)


def load_scenario_file(path: str | Path) -> Scenario:
    return parse_scenario_text(Path(path).read_text(encoding="utf-8"))


def serialize_scenario(scenario: Scenario) -> dict:
    """Canonical, fully explicit document form of a scenario."""
    return {
        "version": scenario.version,
        "seed": scenario.seed,
        "ticks": scenario.ticks,
        "theta_in": scenario.theta_in,
        "criteria": [
            {"id": c.id, "name": c.name, "direction": c.direction.value}
            for c in scenario.criteria
        ],
        "issues": [
            {"id": i.id, "name": i.name, "scores": list(i.raw_scores)}
            for i in scenario.issues
        ],
        "groups": [
            {
                "id": g.id,
                "name": g.name,
                "bounds": [[lo, hi] for lo, hi in g.bounds.rows],
                "distribution": _distribution_doc(g.distribution),
                "member_count": g.member_count,
                "strategy": {"kind": g.strategy.kind.value, "beta": g.strategy.beta},
            }
            for g in scenario.groups
        ],
        "social_edges": [[a, b] for a, b in scenario.social_edges],
        "protocols": [
            {
                "id": p.id,
                "kind": p.kind.value,
                "max_rounds": p.max_rounds,
                "rounds_per_tick": p.rounds_per_tick,
            }
            for p in scenario.protocols
        ],
        "rooms": [
            {"id": r.id, "schedule": [_entry_doc(e) for e in r.schedule]}
            for r in scenario.rooms
        ],
        "watchers": [_watcher_doc(w) for w in scenario.watchers],
    }


def _distribution_doc(d: DistributionSpec) -> dict:
    if d.kind is DistributionKind.UNIFORM:
        return {"kind": d.kind.value}
    return {"kind": d.kind.value, "mean": d.mean, "sd": d.sd}


def _entry_doc(entry: ScheduleEntry) -> dict:
    doc: dict = {"action": entry.action, "at": entry.at}
    if entry.priority is not None:
        doc["priority"] = entry.priority
    if entry.agenda is not None:
        admission = entry.agenda.admission
        if admission.kind is AdmissionKind.INVITATIONS:
            admission_doc: dict = {"kind": admission.kind.value, "agents": list(admission.agents)}
        else:
            admission_doc = {"kind": admission.kind.value, "groups": list(admission.groups)}
            if admission.threshold is not None:
                admission_doc["threshold"] = admission.threshold
        doc["agenda"] = {
            "issues": list(entry.agenda.issue_ids),
            "admission": admission_doc,
            "protocol": entry.agenda.protocol_id,
            "deadline_rounds": entry.agenda.deadline_rounds,
        }
    return doc


def _watcher_doc(w: WatcherRule) -> dict:
    trigger: dict = {}
    if w.trigger.watcher_state is not None:
        trigger["watcher.state"] = w.trigger.watcher_state
    if w.trigger.watchee_state is not None:
        trigger["watchee.state"] = w.trigger.watchee_state
    reaction: dict = {"kind": w.reaction_kind.value, "when": w.when.value}
    if w.priority is not None:
        reaction["priority"] = w.priority
    if w.target_role != "watcher":
        reaction["target"] = w.target_role
    return {
        "watcher": _query_doc(w.watcher_query),
        "watchee": _query_doc(w.watchee_query),
        "trigger": trigger,
        "reaction": reaction,
    }


def _query_doc(query: Query) -> dict:
    doc: dict = {}
    if query.kind is not None:
        doc["kind"] = query.kind.value
    if query.ident is not None:
        doc["id"] = query.ident
    if query.state is not None:
        doc["state"] = query.state
    if query.group_id is not None:
        doc["group_id"] = query.group_id
    return doc
