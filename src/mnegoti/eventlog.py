"""The event log of a run: the one encoder of events.log lines, and the log that holds them.

A line is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
``{"tick", "priority", "kind", "data"}``: keys sorted at both levels,
ASCII only, floats as ``float.__repr__``. Every kind the engine logs is
formatted from a template of its fixed shape, except ``report``, whose
nested maps go through the reference encoder, as does any kind without a
template.

``EventLog`` writes every line of a run, to an in-memory buffer or to an
open events.log, through three calls: ``append`` for one record,
``log_round`` for a negotiation round, whose lines are formatted from its
``RoundBlock`` with one tail per kind shared by the round, and
``log_fired`` for one state change's watcher fires, whose lines share
one formatted prefix per queued entry and differ only in the watcher id.
Each line is written as it is formatted; a round or a fan-out is never
joined into one string, and no record of either is built.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence, TextIO

from .context import ObjectKind
from .protocols import RoundBlock
from .scheduler import FiredReaction


class EventRecord(NamedTuple):
    """One line of the run's event log."""

    tick: int
    priority: int | None
    kind: str
    data: dict


# The reference encoding of one record, and the encoder of every kind that
# has no template below.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line_end(tick: int, priority: int | None) -> str:
    """A templated line after its kind, without the newline."""
    priority = "null" if priority is None else priority
    return f',"priority":{priority},"tick":{tick}}}'


def _ints(values: Sequence[int]) -> str:
    """A JSON array of ints."""
    return f'[{",".join(map(str, values))}]'


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
    return f'{{"data":{{"agent":{agent},"issues":{_ints(issues)},'


def _round_middle(room: int, round_: int) -> str:
    """A round's lines after their heads, up to the kind."""
    return f'"room":{room},"round":{round_}}},"kind":'


def _quoted(value: str | None) -> str:
    """An enum value in quotes, or null."""
    return "null" if value is None else f'"{value}"'


# A template for every kind the engine logs through ``append`` but
# ``report``: the kind's data object, keys sorted. Ids, counts and issues
# are ints, utilities finite floats, and enum values ASCII identifiers,
# quoted as they are; the only scenario text, a group's name and a
# protocol's id, is escaped as the reference encoder escapes it.
_TEMPLATES = {
    "agent_entered": lambda d: (
        f'{{"agent":{d["agent"]},"room":{d["room"]},"utility":{float.__repr__(d["utility"])}}}'
    ),
    "agent_watching": lambda d: f'{{"agent":{d["agent"]}}}',
    "invitation_sent": lambda d: f'{{"agent":{d["agent"]},"room":{d["room"]}}}',
    "population_spawned": lambda d: (
        f'{{"group":{d["group"]},"members":{_ints(d["members"])},'
        f'"name":{encode_basestring_ascii(d["name"])}}}'
    ),
    "room_close_skipped": lambda d: f'{{"room":{d["room"]}}}',
    "room_closed": lambda d: f'{{"room":{d["room"]},"sessions":{d["sessions"]}}}',
    "room_open_skipped": lambda d: f'{{"room":{d["room"]},"state":"{d["state"]}"}}',
    "room_opened": lambda d: (
        f'{{"admission":"{d["admission"]}","deadline_rounds":{d["deadline_rounds"]},'
        f'"issues":{_ints(d["issues"])},"protocol":{encode_basestring_ascii(d["protocol"])},'
        f'"room":{d["room"]}}}'
    ),
    "scenario_loaded": lambda d: (
        f'{{"agents":{d["agents"]},"criteria":{d["criteria"]},"groups":{d["groups"]},'
        f'"issues":{d["issues"]},"rooms":{d["rooms"]},"seed":{d["seed"]},"ticks":{d["ticks"]}}}'
    ),
    "session_end": lambda d: (
        f'{{"issue":{"null" if d["issue"] is None else d["issue"]},'
        f'"participants":{_ints(d["participants"])},"reason":{_quoted(d["reason"])},'
        f'"room":{d["room"]},"rounds":{d["rounds"]},"session":{d["session"]},'
        f'"status":"{d["status"]}","ticks_spanned":{d["ticks_spanned"]},'
        f'"utilities":[{",".join(map(float.__repr__, d["utilities"]))}]}}'
    ),
    "session_no_quorum": lambda d: f'{{"attendees":{_ints(d["attendees"])},"room":{d["room"]}}}',
    "session_started": lambda d: (
        f'{{"deadline_rounds":{d["deadline_rounds"]},"issues":{_ints(d["issues"])},'
        f'"participants":{_ints(d["participants"])},"protocol":"{d["protocol"]}",'
        f'"room":{d["room"]}}}'
    ),
}


def event_line(record: EventRecord) -> str:
    """One events.log line, without its newline.

    ``tests/test_runner.py::TestEventLine`` checks each template against
    the reference encoding.
    """
    tick, priority, kind, data = record
    template = _TEMPLATES.get(kind)
    if template is None:
        return _ENCODER.encode({"tick": tick, "priority": priority, "kind": kind, "data": data})
    return f'{{"data":{template(data)},"kind":"{kind}"{_line_end(tick, priority)}'


def parse_event_line(line: str) -> EventRecord:
    doc = json.loads(line)
    if not isinstance(doc, dict) or not isinstance(doc.get("data"), dict):
        raise ValueError(f"not an event record: {line[:80]!r}")
    return EventRecord(
        tick=doc["tick"], priority=doc["priority"], kind=doc["kind"], data=doc["data"]
    )


def read_event_log(path: str | Path) -> Iterator[EventRecord]:
    """The records of the events.log at ``path``, each parsed when iteration reaches its line.

    A line that is not an event record raises ``ValueError`` naming its number.
    """
    with open(path, encoding="utf-8") as file:
        for number, line in enumerate(file, 1):
            if line.strip():
                try:
                    yield parse_event_line(line)
                except (ValueError, KeyError) as exc:
                    raise ValueError(f"line {number}: {exc}") from exc


class EventLog:
    """A run's event log: each line is written at once, one write per line.

    The lines go to ``file``, an on-disk run's open events.log at ``path``,
    or, with no file, to an in-memory buffer. ``len`` is the number of lines
    written; iterating parses them back, a record per line as the iteration
    reaches it, from the buffer or from ``path``. The only records kept are
    the session_end ones, which summary.csv is made from and which come
    only through ``append``.
    """

    def __init__(self, file: TextIO | None = None, path: Path | None = None) -> None:
        self._file = io.StringIO() if file is None else file
        self._write = self._file.write
        self.path = path
        self.count = 0
        self.session_ends: list[EventRecord] = []

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[EventRecord]:
        if self.path is None:
            return map(parse_event_line, io.StringIO(self.text()))
        return read_event_log(self.path)

    def detach(self) -> None:
        """Let go of the file and the session_end records of a finished on-disk run.

        The log keeps its count and reads its lines back from ``path``.
        """
        self._file = self._write = None
        self.session_ends = []

    def text(self) -> str:
        """Every line written, each ending in a newline."""
        if self.path is None:
            return self._file.getvalue()
        return self.path.read_text(encoding="utf-8")

    def append(self, record: EventRecord) -> None:
        self.count += 1
        if record.kind == "session_end":
            self.session_ends.append(record)
        self._write(event_line(record) + "\n")

    def log_round(self, tick: int, band: int | None, room_id: int, block: RoundBlock) -> None:
        """Write a round's offers, votes and published sets, then what closed it, if anything.

        The round's middle and end are formatted once, and each kind's tail
        from them once per round. An elimination round can both eliminate
        an issue and agree on the last one, so each closing record is written.
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
        for kind, issue in (
            ("candidate_rejected", block.rejected),
            ("issue_eliminated", block.eliminated),
            ("agreement", block.agreed),
        ):
            if issue is not None:
                self.count += 1
                write(f'{{"data":{{"issue":{issue},{middle}"{kind}"{end}')

    def log_fired(
        self, tick: int, priority: int | None, watchee_kind: ObjectKind, watchee: int,
        fired: Sequence[FiredReaction],
    ) -> None:
        """Write one ``watcher_fired`` line per fire of one change of ``watchee``.

        Only the kind, ``start`` and ``priority`` of a fire's ``action`` are
        read; the scheduler's fires of one rule share one queue entry there.
        The prefix is formatted again only when the rule or the entry, by
        identity, differs from the previous fire's.
        """
        self.count += len(fired)
        write = self._write
        tail = _fired_tail(tick, priority) + "\n"
        rule = entry = head = None
        for rule_id, watcher, action in fired:
            if action is not entry or rule_id != rule:
                rule, entry = rule_id, action
                head = _fired_head(
                    action.start, action.priority, action.kind.value, rule_id, watchee,
                    watchee_kind.value
                )
            write(head + str(watcher) + tail)
