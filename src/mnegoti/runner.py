"""Replication driver, session summary, and artifact persistence.

Replication r runs its own engine instance with seed = base_seed + r, so
replications are independent and individually reproducible. Each one
yields three files: events.log (one JSON record per line, in execution
order), summary.csv (one row per completed session, derived from the
log's session_end records alone) and population.csv (sampled agent
weights).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .engine import EventRecord, Simulation
from .errors import OutputError
from .protocols import SessionStatus
from .scenario import Scenario

SUMMARY_HEADER = "room_id,session,status,issue_id,rounds,welfare,min_utility,nash_product"


@dataclass(frozen=True)
class SummaryRow:
    room_id: int
    session: int
    status: str
    issue_id: int | None
    rounds: int
    welfare: float
    min_utility: float
    nash_product: float

    def to_csv(self) -> str:
        issue = "" if self.issue_id is None else str(self.issue_id)
        return (
            f"{self.room_id},{self.session},{self.status},{issue},{self.rounds},"
            f"{self.welfare!r},{self.min_utility!r},{self.nash_product!r}"
        )


@dataclass(frozen=True)
class PopulationRow:
    agent_id: int
    group_id: int
    weights: tuple[float, ...]


@dataclass
class RunArtifacts:
    seed: int
    events: list[EventRecord]
    summary: list[SummaryRow]
    population: list[PopulationRow]
    out_dir: Path | None = None


def summarize(events: Sequence[EventRecord]) -> list[SummaryRow]:
    """One row per completed session, from its session_end record, by (room, session).

    Disagreement scores zero welfare, minimum utility and Nash product.
    """
    rows = []
    for record in events:
        if record.kind != "session_end":
            continue
        data = record.data
        utilities = data["utilities"]
        agreed = data["status"] == SessionStatus.AGREED.value
        if agreed and utilities:
            welfare = math.fsum(utilities)
            min_u = min(utilities)
            nash = math.prod(utilities)
        else:
            welfare, min_u, nash = 0.0, 0.0, 0.0
        rows.append(
            SummaryRow(
                room_id=data["room"],
                session=data["session"],
                status="agreed" if agreed else data["reason"],
                issue_id=data["issue"],
                rounds=data["rounds"],
                welfare=welfare,
                min_utility=min_u,
                nash_product=nash,
            )
        )
    return sorted(rows, key=lambda r: (r.room_id, r.session))


def population_rows(sim: Simulation) -> list[PopulationRow]:
    return [
        PopulationRow(agent_id=a.id, group_id=a.group_id, weights=a.weights)
        for a in (sim.agents[i] for i in sorted(sim.agents))
    ]


# The reference encoding of one record, and the encoder of every kind that
# has no template below.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _priority(record: EventRecord) -> int | str:
    return "null" if record.priority is None else record.priority


def _watcher_fired(r: EventRecord) -> str:
    d = r.data
    return (
        f'{{"data":{{"at":{d["at"]},"band":{d["band"]},"reaction":"{d["reaction"]}",'
        f'"rule":{d["rule"]},"watchee":{d["watchee"]},"watchee_kind":"{d["watchee_kind"]}",'
        f'"watcher":{d["watcher"]}}},"kind":"watcher_fired","priority":{_priority(r)},'
        f'"tick":{r.tick}}}'
    )


def _offer(r: EventRecord) -> str:
    d = r.data
    proposer = d["proposer"]
    if isinstance(proposer, str):
        proposer = _ENCODER.encode(proposer)
    return (
        f'{{"data":{{"issue":{d["issue"]},"proposer":{proposer},"room":{d["room"]},'
        f'"round":{d["round"]}}},"kind":"offer","priority":{_priority(r)},"tick":{r.tick}}}'
    )


def _vote(r: EventRecord) -> str:
    d = r.data
    accept = "true" if d["accept"] else "false"
    return (
        f'{{"data":{{"accept":{accept},"agent":{d["agent"]},"room":{d["room"]},'
        f'"round":{d["round"]}}},"kind":"vote","priority":{_priority(r)},"tick":{r.tick}}}'
    )


def _acceptable_published(r: EventRecord) -> str:
    d = r.data
    issues = ",".join(map(str, d["issues"]))
    return (
        f'{{"data":{{"agent":{d["agent"]},"issues":[{issues}],"room":{d["room"]},'
        f'"round":{d["round"]}}},"kind":"acceptable_published","priority":{_priority(r)},'
        f'"tick":{r.tick}}}'
    )


def _agent_entered(r: EventRecord) -> str:
    d = r.data
    return (
        f'{{"data":{{"agent":{d["agent"]},"room":{d["room"]},'
        f'"utility":{float.__repr__(d["utility"])}}},"kind":"agent_entered",'
        f'"priority":{_priority(r)},"tick":{r.tick}}}'
    )


def _agent_watching(r: EventRecord) -> str:
    return (
        f'{{"data":{{"agent":{r.data["agent"]}}},"kind":"agent_watching",'
        f'"priority":{_priority(r)},"tick":{r.tick}}}'
    )


# One template per fixed-shape kind: the data of these kinds holds only
# ints, bools, finite floats, "mediator" and enum values, in the shape the
# engine logs them.
_TEMPLATES = {
    "watcher_fired": _watcher_fired,
    "offer": _offer,
    "vote": _vote,
    "acceptable_published": _acceptable_published,
    "agent_entered": _agent_entered,
    "agent_watching": _agent_watching,
}


def event_line(record: EventRecord) -> str:
    """One events.log line, without its newline.

    The line is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
    ``{"tick", "priority", "kind", "data"}``: keys sorted at both levels,
    ASCII only, floats as ``float.__repr__``. The fixed-shape kinds are
    formatted by a template; ``tests/test_runner.py::TestEventLine`` checks
    each template against that reference encoding.
    """
    template = _TEMPLATES.get(record.kind)
    if template is not None:
        return template(record)
    return _ENCODER.encode(
        {"tick": record.tick, "priority": record.priority, "kind": record.kind, "data": record.data}
    )


def parse_event_line(line: str) -> EventRecord:
    doc = json.loads(line)
    if not isinstance(doc, dict) or not isinstance(doc.get("data"), dict):
        raise ValueError(f"not an event record: {line[:80]!r}")
    return EventRecord(
        tick=doc["tick"], priority=doc["priority"], kind=doc["kind"], data=doc["data"]
    )


def read_event_log(path: str | Path) -> list[EventRecord]:
    lines = Path(path).read_text().splitlines()
    return [parse_event_line(line) for line in lines if line.strip()]


def write_artifacts(artifacts: RunArtifacts, directory: str | Path) -> Path:
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "events.log", "w", encoding="utf-8") as log:
            for record in artifacts.events:
                log.write(event_line(record) + "\n")

        summary_lines = [SUMMARY_HEADER] + [row.to_csv() for row in artifacts.summary]
        (out / "summary.csv").write_text("\n".join(summary_lines) + "\n")

        n_weights = len(artifacts.population[0].weights) if artifacts.population else 0
        header = "agent_id,group_id," + ",".join(f"w{k}" for k in range(n_weights))
        pop_lines = [header] + [
            f"{row.agent_id},{row.group_id}," + ",".join(repr(w) for w in row.weights)
            for row in artifacts.population
        ]
        (out / "population.csv").write_text("\n".join(pop_lines) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write artifacts under {out}: {exc}") from exc
    return out


def run(
    scenario: Scenario,
    seed: int | None = None,
    replications: int = 1,
    out_dir: str | Path | None = None,
    ticks: int | None = None,
) -> list[RunArtifacts]:
    """Run the scenario ``replications`` times with seeds base, base+1, ...

    Nothing is written until every replication has run, so a replication
    that raises leaves no artifacts of the earlier ones behind.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    base_seed = seed if seed is not None else scenario.seed
    results = []
    for r in range(replications):
        sim = Simulation(scenario, seed=base_seed + r, ticks=ticks)
        sim.run()
        artifacts = RunArtifacts(
            seed=base_seed + r,
            events=list(sim.events),
            summary=summarize(sim.events),
            population=population_rows(sim),
        )
        results.append(artifacts)
    if out_dir is not None:
        for r, artifacts in enumerate(results):
            artifacts.out_dir = write_artifacts(artifacts, Path(out_dir) / f"rep_{r:03d}")
    return results
