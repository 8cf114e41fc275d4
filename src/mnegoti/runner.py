"""Replication driver, session summary, and artifact persistence.

Replication r runs its own engine instance with seed = base_seed + r, so
replications are independent and individually reproducible. Each one
yields three files: events.log (one JSON record per line, in execution
order), summary.csv (one row per completed session, derived from the
log's session_end records alone) and population.csv (sampled agent
weights). An on-disk run streams events.log as the engine logs it and
keeps nothing of a finished replication but its counts and summary rows.

The engine hands its records to ``_LogWriter`` through three calls:
``append`` for one record, ``log_round`` for a negotiation round, whose
lines are formatted from its ``RoundBlock`` with one tail per kind shared
by the round, and ``log_fired`` for one state change's watcher fan-out,
whose lines share one formatted prefix and differ only in the watcher id.
Each line is written as it is formatted; a round or a fan-out is never
joined into one string.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .engine import EventRecord, Simulation, closing_records
from .errors import OutputError
from .protocols import RoundBlock, SessionStatus
from .scenario import Scenario
from .scheduler import FiredReaction

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
    """One replication's results.

    An on-disk replication keeps only counts and summary rows: its
    ``events`` is an ``EventLog`` that reads events.log back, and its
    ``population`` is empty (population.csv holds the rows).
    """

    seed: int
    events: list[EventRecord] | EventLog
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


def _line_end(tick: int, priority: int | None) -> str:
    """A templated line after its kind, without the newline."""
    priority = "null" if priority is None else priority
    return f',"priority":{priority},"tick":{tick}}}'


def _fired_head(
    at: int, band: int, reaction: str, rule: int, watchee: int, watchee_kind: str
) -> str:
    """A ``watcher_fired`` line up to its watcher id."""
    return (
        f'{{"data":{{"at":{at},"band":{band},"reaction":"{reaction}","rule":{rule},'
        f'"watchee":{watchee},"watchee_kind":"{watchee_kind}","watcher":'
    )


def _fired_tail(tick: int, priority: int | None) -> str:
    """A ``watcher_fired`` line after its watcher id, without the newline."""
    return '},"kind":"watcher_fired"' + _line_end(tick, priority)


def _watcher_fired(r: EventRecord) -> str:
    d = r.data
    head = _fired_head(
        d["at"], d["band"], d["reaction"], d["rule"], d["watchee"], d["watchee_kind"]
    )
    return head + str(d["watcher"]) + _fired_tail(r.tick, r.priority)


# A round's lines: a head of the line's own data keys, then the keys the
# round shares (``_round_middle``), the kind and ``_line_end``.


def _offer_head(issue: int, proposer: int | None) -> str:
    """An offer line up to its room; a proposer of None is the mediator."""
    proposer = '"mediator"' if proposer is None else proposer
    return f'{{"data":{{"issue":{issue},"proposer":{proposer},'


# A vote line up to its agent id, by its accept value.
_ACCEPT_HEAD = '{"data":{"accept":true,"agent":'
_REJECT_HEAD = '{"data":{"accept":false,"agent":'


def _published_head(agent: int, issues: Sequence[int]) -> str:
    """An ``acceptable_published`` line up to its room."""
    return f'{{"data":{{"agent":{agent},"issues":[{",".join(map(str, issues))}],'


def _round_middle(room: int, round_: int) -> str:
    """A round's lines after their heads, up to the kind."""
    return f'"room":{room},"round":{round_}}},"kind":'


def _round_tail(r: EventRecord) -> str:
    """The line of a round's record after its head, without the newline."""
    middle = _round_middle(r.data["room"], r.data["round"])
    return f'{middle}"{r.kind}"' + _line_end(r.tick, r.priority)


def _offer(r: EventRecord) -> str:
    d = r.data
    proposer = None if d["proposer"] == "mediator" else d["proposer"]
    return _offer_head(d["issue"], proposer) + _round_tail(r)


def _vote(r: EventRecord) -> str:
    d = r.data
    head = _ACCEPT_HEAD if d["accept"] else _REJECT_HEAD
    return f"{head}{d['agent']}," + _round_tail(r)


def _acceptable_published(r: EventRecord) -> str:
    return _published_head(r.data["agent"], r.data["issues"]) + _round_tail(r)


def _agent_entered(r: EventRecord) -> str:
    d = r.data
    return (
        f'{{"data":{{"agent":{d["agent"]},"room":{d["room"]},'
        f'"utility":{float.__repr__(d["utility"])}}},"kind":"agent_entered"'
        + _line_end(r.tick, r.priority)
    )


def _agent_watching(r: EventRecord) -> str:
    head = f'{{"data":{{"agent":{r.data["agent"]}}},"kind":"agent_watching"'
    return head + _line_end(r.tick, r.priority)


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


class EventLog:
    """The ``events`` of an on-disk replication: its record count and its file.

    ``len`` is the number of records the run logged; iterating reads
    events.log back, one parsed record per line.
    """

    def __init__(self, path: Path, length: int) -> None:
        self.path = path
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(read_event_log(self.path))


class _LogWriter:
    """Stands in for ``Simulation.events`` while an on-disk replication runs.

    It takes the engine's three sink calls and writes each line at once,
    one write per line: ``append`` formats a record with ``event_line``;
    ``log_round`` formats each offer, vote and published set of a round as
    its own head and the tail its kind shares in that round; and
    ``log_fired`` formats each fire as a shared prefix, the watcher id and
    a shared suffix. Neither of the last two builds a record, and nothing
    is joined per round or fan-out, so the only memory a run holds here is
    the count and the session_end records, which summary.csv is made from
    and which come only through ``append``.
    """

    def __init__(self, file: TextIO) -> None:
        self._write = file.write
        self.count = 0
        self.session_ends: list[EventRecord] = []

    def append(self, record: EventRecord) -> None:
        self.count += 1
        if record.kind == "session_end":
            self.session_ends.append(record)
        self._write(event_line(record) + "\n")

    def log_round(self, tick: int, band: int | None, room_id: int, block: RoundBlock) -> None:
        """Write a round's lines, then what closed it, if anything, through ``append``.

        The round's middle and end are formatted once, and each kind's tail
        from them once per round.
        """
        offers, votes, published = block.offers, block.votes, block.published
        self.count += len(offers) + len(votes) + len(published)
        write = self._write
        middle = _round_middle(room_id, block.round)
        end = _line_end(tick, band) + "\n"
        tail = middle + '"offer"' + end
        for offer in offers:
            write(_offer_head(offer.issue_id, offer.proposer) + tail)
        tail = middle + '"vote"' + end
        for agent, accept in votes:
            write(f"{_ACCEPT_HEAD if accept else _REJECT_HEAD}{agent},{tail}")
        tail = middle + '"acceptable_published"' + end
        for agent, issues in published:
            write(_published_head(agent, issues) + tail)
        for record in closing_records(tick, band, room_id, block):
            self.append(record)

    def log_fired(self, tick: int, priority: int | None, fired: Sequence[FiredReaction]) -> None:
        """Write the fires of one state change; they share its watchee.

        The prefix is formatted again only when the rule, reaction, ``at``
        or ``band`` differs from the previous fire's.
        """
        self.count += len(fired)
        write = self._write
        tail = _fired_tail(tick, priority) + "\n"
        key = head = None
        for rule, watcher, watchee_kind, watchee, action in fired:
            fire_key = (rule, action.kind, action.start, action.priority)
            if fire_key != key:
                key = fire_key
                head = _fired_head(
                    action.start, action.priority, action.kind.value, rule, watchee,
                    watchee_kind.value
                )
            write(head + str(watcher) + tail)


@contextlib.contextmanager
def _rewritten(path: Path) -> Iterator[TextIO]:
    """``path`` open for writing from its first byte, cut at the written length on exit.

    An existing file is overwritten in place, not truncated to zero first
    nor replaced by a new file: on a file system that discards freed
    blocks, freeing them costs more than the write. On ext4 mounted with
    ``discard`` (2-vCPU VM), rewriting 540 small files in place took 15 ms
    against 65 ms truncated and rewritten.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as file:
        yield file
        file.truncate()


def write_artifacts(artifacts: RunArtifacts, directory: str | Path) -> Path:
    """Write the replication's three files under ``directory``, each rewritten in place.

    An events.log that ``run`` has streamed to this directory is already
    complete and is left as it is.
    """
    out = Path(directory)
    log = out / "events.log"
    try:
        out.mkdir(parents=True, exist_ok=True)
        events = artifacts.events
        if not (isinstance(events, EventLog) and events.path == log):
            with _rewritten(log) as file:
                for record in events:
                    file.write(event_line(record) + "\n")

        summary_lines = [SUMMARY_HEADER] + [row.to_csv() for row in artifacts.summary]
        with _rewritten(out / "summary.csv") as file:
            file.write("\n".join(summary_lines) + "\n")

        n_weights = len(artifacts.population[0].weights) if artifacts.population else 0
        header = "agent_id,group_id," + ",".join(f"w{k}" for k in range(n_weights))
        pop_lines = [header] + [
            f"{row.agent_id},{row.group_id}," + ",".join(repr(w) for w in row.weights)
            for row in artifacts.population
        ]
        with _rewritten(out / "population.csv") as file:
            file.write("\n".join(pop_lines) + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write artifacts under {out}: {exc}") from exc
    return out


def _replicate(
    scenario: Scenario, seed: int, ticks: int | None, directory: Path | None
) -> RunArtifacts:
    """One replication, streamed to ``directory/events.log`` when there is a directory.

    The set-up records are written after ``Simulation`` is built, so its
    construction does no file I/O.
    """
    sim = Simulation(scenario, seed=seed, ticks=ticks)
    if directory is None:
        sim.run()
        events = session_ends = sim.events
    else:
        log = directory / "events.log"
        try:
            directory.mkdir(parents=True, exist_ok=True)
            with _rewritten(log) as file:
                writer = _LogWriter(file)
                for record in sim.events:
                    writer.append(record)
                sim.events = writer
                sim.run()  # the engine does no I/O: an OSError here is the writer's
        except OSError as exc:
            raise OutputError(f"cannot write artifacts under {directory}: {exc}") from exc
        events, session_ends = EventLog(log, writer.count), writer.session_ends
    # The scheduler's executor is a bound method of ``sim``: cutting that
    # cycle frees the finished run now, not at the next cyclic collection.
    sim.scheduler.executor = None
    artifacts = RunArtifacts(
        seed=seed,
        events=events,
        summary=summarize(session_ends),
        population=population_rows(sim),
    )
    if directory is not None:
        artifacts.out_dir = write_artifacts(artifacts, directory)
        artifacts.population = []
    return artifacts


def _outermost_missing(path: Path) -> Path | None:
    """The outermost directory that ``path.mkdir(parents=True)`` would create."""
    if path.exists():
        return None
    while path.parent != path and not path.parent.exists():
        path = path.parent
    return path


def run(
    scenario: Scenario,
    seed: int | None = None,
    replications: int = 1,
    out_dir: str | Path | None = None,
    ticks: int | None = None,
) -> list[RunArtifacts]:
    """Run the scenario ``replications`` times with seeds base, base+1, ...

    With ``out_dir``, replication r writes ``out_dir/rep_<r:03d>`` while it
    runs: each record goes to events.log as it is logged, and summary.csv
    and population.csv follow when the replication ends. Existing files
    are rewritten in place. If a replication raises, the run removes
    ``out_dir`` when it created it, and otherwise the rep_* directories it
    wrote, so it leaves no partial artifacts.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    base_seed = seed if seed is not None else scenario.seed
    out = None if out_dir is None else Path(out_dir)
    created = None if out is None else _outermost_missing(out)
    written: list[Path] = []
    results = []
    try:
        for r in range(replications):
            directory = None
            if out is not None:
                directory = out / f"rep_{r:03d}"
                written.append(directory)
            results.append(_replicate(scenario, base_seed + r, ticks, directory))
    except BaseException:
        for path in [created] if created is not None else written:
            shutil.rmtree(path, ignore_errors=True)
        raise
    return results
