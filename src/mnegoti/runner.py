"""Replication driver, outcome metrics, and artifact persistence.

Replication r runs its own engine instance with seed = base_seed + r, so
replications are independent and individually reproducible. Each one
yields three files: events.log (one JSON record per line, in execution
order), summary.csv (one row per completed session) and population.csv
(sampled agent weights).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .engine import EventRecord, Simulation
from .errors import OutputError
from .protocols import NegotiationOutcome, SessionStatus
from .scenario import Scenario

SUMMARY_HEADER = "room_id,session,status,issue_id,rounds,welfare,min_utility,nash_product"


@dataclass(frozen=True)
class Metrics:
    social_welfare: float
    min_utility: float
    nash_product: float


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


def outcome_metrics(outcome: NegotiationOutcome) -> Metrics:
    """Welfare triple of a terminated session; disagreement scores all zeros."""
    if outcome.status is not SessionStatus.AGREED or not outcome.utilities:
        return Metrics(0.0, 0.0, 0.0)
    return Metrics(
        social_welfare=math.fsum(outcome.utilities),
        min_utility=min(outcome.utilities),
        nash_product=math.prod(outcome.utilities),
    )


def _status_label(outcome: NegotiationOutcome) -> str:
    if outcome.status is SessionStatus.AGREED:
        return "agreed"
    return outcome.reason.value if outcome.reason else "failed"


def summarize(sim: Simulation) -> list[SummaryRow]:
    rows = []
    for room_id in sorted(sim.rooms):
        for index, record in enumerate(sim.rooms[room_id].history):
            m = outcome_metrics(record.outcome)
            rows.append(
                SummaryRow(
                    room_id=room_id,
                    session=index,
                    status=_status_label(record.outcome),
                    issue_id=record.outcome.agreed_issue,
                    rounds=record.outcome.rounds_used,
                    welfare=m.social_welfare,
                    min_utility=m.min_utility,
                    nash_product=m.nash_product,
                )
            )
    return rows


def summary_from_events(events: Sequence[EventRecord]) -> list[SummaryRow]:
    """Recompute the summary table from session_end records alone."""
    rows = []
    for record in events:
        if record.kind != "session_end":
            continue
        data = record.data
        utilities = tuple(data["utilities"])
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


def event_line(record: EventRecord) -> str:
    doc = {
        "tick": record.tick,
        "priority": record.priority,
        "kind": record.kind,
        "data": record.data,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
        events_text = "".join(event_line(e) + "\n" for e in artifacts.events)
        (out / "events.log").write_text(events_text)

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
    """Run the scenario ``replications`` times with seeds base, base+1, ..."""
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
            summary=summarize(sim),
            population=population_rows(sim),
        )
        if out_dir is not None:
            artifacts.out_dir = write_artifacts(
                artifacts, Path(out_dir) / f"rep_{r:03d}"
            )
        results.append(artifacts)
    return results
