"""Checks of one replication's artifacts against independent recomputation.

Everything here is derived from the scenario document and the three
artifact files alone; no program object is consulted:

- utilities are recomputed with ``math.fsum`` from the weights in
  ``population.csv`` and the direction-normalised scores of the scenario;
- mediated and concession sessions are replayed by the brute-force
  oracles in ``tests/oracles.py``;
- every elimination is recomputed from the round's ``offer`` records;
- ``summary.csv`` is recomputed from the ``session_end`` records;
- weights are non-negative and sum to 1;
- every ``agent_entered`` was admissible, and no agent is in two rooms.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class CheckError(Exception):
    """An artifact disagrees with its independent recomputation."""


@functools.cache
def _oracles():
    """The brute-force oracles of the repository's tests."""
    spec = importlib.util.spec_from_file_location("mnegoti_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class Model:
    """The scenario's agents, issues and room schedules, recomputed independently."""

    def __init__(self, doc: dict, population_csv: Path) -> None:
        cost = [c.get("direction", "benefit") == "cost" for c in doc["criteria"]]
        self.scores = {
            issue["id"]: tuple(1.0 - s if flip else s for s, flip in zip(issue["scores"], cost))
            for issue in doc["issues"]
        }
        self.theta_in = doc.get("theta_in", 0.0)
        self.max_rounds = {p["id"]: p.get("max_rounds", 10) for p in doc.get("protocols", [])}
        self.kinds = {p["id"]: p["kind"] for p in doc.get("protocols", [])}
        self.opens = {
            (room["id"], entry["at"]): entry["agenda"]
            for room in doc.get("rooms", [])
            for entry in room["schedule"]
            if entry["action"] == "open"
        }
        group_of, beta_of = [], {}
        for group in doc["groups"]:
            group_of += [group["id"]] * group["member_count"]
            beta_of[group["id"]] = group.get("strategy", {}).get("beta", 1.0)
        self.group = group_of
        self.beta = [beta_of[g] for g in group_of]
        self.weights = self._read_population(population_csv)
        self._utility: dict[tuple[int, int], float] = {}

    def _read_population(self, path: Path) -> list[tuple[float, ...]]:
        lines = path.read_text().splitlines()
        _require(len(lines) == len(self.group) + 1, f"{path.name}: {len(lines) - 1} agents, "
                 f"scenario declares {len(self.group)}")
        weights = []
        for expected_id, line in enumerate(lines[1:]):
            fields = line.split(",")
            agent, group = int(fields[0]), int(fields[1])
            w = tuple(float(x) for x in fields[2:])
            _require(agent == expected_id and group == self.group[agent],
                     f"{path.name}: row {expected_id} is agent {agent} of group {group}")
            _require(all(x >= 0.0 for x in w), f"agent {agent}: negative weight {w}")
            _require(abs(math.fsum(w) - 1.0) <= 1e-12, f"agent {agent}: weights sum to {math.fsum(w)}")
            weights.append(w)
        return weights

    def utility(self, agent: int, issue: int) -> float:
        key = (agent, issue)
        if key not in self._utility:
            u = math.fsum(w * s for w, s in zip(self.weights[agent], self.scores[issue]))
            self._utility[key] = min(1.0, max(0.0, u))
        return self._utility[key]

    def best(self, agent: int, issues) -> float:
        return max(self.utility(agent, i) for i in issues)


class Session:
    def __init__(self, record: dict, protocol: str, deadline: int) -> None:
        self.participants = record["participants"]
        self.issues = record["issues"]
        self.protocol = protocol
        self.deadline = deadline
        self.candidates = list(self.issues)
        self.bids: dict[int, list[int]] = {}
        self.agreed: int | None = None


def _check_elimination_round(session: Session, data: dict, kind: str) -> None:
    bids = session.bids.get(data["round"], [])
    _require(len(bids) == len(session.participants),
             f"round {data['round']}: {len(bids)} offers from {len(session.participants)} bidders")
    if kind == "issue_eliminated":
        _require(len(set(bids)) > 1, f"round {data['round']}: unanimous bids but an elimination")
        counts = Counter(bids)
        expected = min(session.candidates, key=lambda i: (counts[i], i))
        _require(data["issue"] == expected,
                 f"round {data['round']}: eliminated {data['issue']}, fewest bids on {expected}")
        session.candidates.remove(expected)
    else:  # agreement
        unanimous = len(set(bids)) == 1 and bids[0] == data["issue"]
        last = session.candidates == [data["issue"]]
        _require(unanimous or last, f"round {data['round']}: agreement on {data['issue']} "
                 "without unanimous bids or a single remaining candidate")


def _check_session_end(model: Model, session: Session | None, data: dict) -> None:
    status, rounds, utilities = data["status"], data["rounds"], data["utilities"]
    participants = data["participants"]
    _require(len(utilities) == len(participants), f"room {data['room']}: utilities misaligned")
    if status == "agreed":
        for p, u in zip(participants, utilities):
            _require(u == model.utility(p, data["issue"]),
                     f"room {data['room']}: agent {p} utility {u!r} != recomputed "
                     f"{model.utility(p, data['issue'])!r}")
    else:
        _require(all(u == 0.0 for u in utilities), f"room {data['room']}: disagreement pays non-zero")
    if session is None:
        _require(status == "failed" and rounds == 0, f"room {data['room']}: no session but {data}")
        return
    if session.protocol == "elimination_bidding":
        _require(rounds <= len(session.issues) - 1 or len(session.issues) == 1,
                 f"room {data['room']}: elimination took {rounds} rounds over "
                 f"{len(session.issues)} issues")
        if status == "agreed":
            _require(session.agreed == data["issue"], f"room {data['room']}: end disagrees with log")
        return
    utils = [{i: model.utility(p, i) for i in session.issues} for p in participants]
    betas = [model.beta[p] for p in participants]
    if session.protocol == "mediated_single_text":
        expected = _oracles().mediated_oracle(utils, session.deadline, betas)
    else:
        expected = _oracles().concession_oracle(utils, session.deadline, betas)
    if data["reason"] == "forced_close":
        _require(status == "failed" and rounds < expected[2],
                 f"room {data['room']}: forced close after {rounds} rounds, oracle ends at "
                 f"round {expected[2]}")
        return
    got = (status, data["issue"], rounds)
    _require(got == expected, f"room {data['room']}: session ended {got}, oracle {expected}")


def _summary_row(data: dict) -> str:
    utilities = data["utilities"]
    agreed = data["status"] == "agreed"
    if agreed and utilities:
        welfare, min_u, nash = math.fsum(utilities), min(utilities), math.prod(utilities)
    else:
        welfare, min_u, nash = 0.0, 0.0, 0.0
    issue = "" if data["issue"] is None else str(data["issue"])
    status = "agreed" if agreed else data["reason"]
    return (f"{data['room']},{data['session']},{status},{issue},{data['rounds']},"
            f"{welfare!r},{min_u!r},{nash!r}")


def check_replication(doc: dict, directory: Path) -> None:
    """Raise CheckError unless the artifacts under ``directory`` are correct."""
    model = Model(doc, directory / "population.csv")
    agenda: dict[int, dict] = {}  # room -> agenda of the current opening
    members: dict[int, set[int]] = {}  # room -> attendees
    room_of: dict[int, int] = {}  # agent -> room
    sessions: dict[int, Session] = {}
    ended: Counter[int] = Counter()
    rows = []
    last_tick = 0
    with open(directory / "events.log") as log:
        for line in log:
            record = json.loads(line)
            kind, data, tick = record["kind"], record["data"], record["tick"]
            _require(tick >= last_tick, f"tick {tick} after tick {last_tick}")
            last_tick = tick
            room = data.get("room")
            if kind == "room_opened":
                _require(room not in agenda, f"room {room} opened twice")
                spec = model.opens.get((room, tick))
                _require(spec is not None, f"room {room} opened at tick {tick} off schedule")
                _require(data["issues"] == sorted(spec["issues"]) and
                         data["protocol"] == spec["protocol"],
                         f"room {room}: opened with {data}, scheduled {spec}")
                agenda[room] = spec
                members[room] = set()
            elif kind == "agent_entered":
                agent = data["agent"]
                _require(room in agenda and room not in sessions,
                         f"agent {agent} entered room {room}, which is not open")
                _require(agent not in room_of,
                         f"agent {agent} entered room {room} while in room {room_of.get(agent)}")
                admission = agenda[room]["admission"]
                best = model.best(agent, agenda[room]["issues"])
                _require(data["utility"] == best,
                         f"agent {agent}: logged utility {data['utility']!r} != recomputed {best!r}")
                if admission["kind"] == "invitations":
                    _require(agent in admission["agents"], f"agent {agent} uninvited in room {room}")
                else:
                    groups = admission.get("groups") or []
                    threshold = admission.get("threshold")
                    if threshold is None:
                        threshold = model.theta_in
                    _require(not groups or model.group[agent] in groups,
                             f"agent {agent} of group {model.group[agent]} not allowed in room {room}")
                    _require(best >= threshold,
                             f"agent {agent}: utility {best} under threshold {threshold}")
                members[room].add(agent)
                room_of[agent] = room
            elif kind == "session_started":
                spec = agenda[room]
                _require(data["participants"] == sorted(members[room]),
                         f"room {room}: session participants differ from attendees")
                _require(data["issues"] == sorted(spec["issues"]), f"room {room}: agenda differs")
                protocol = model.kinds[spec["protocol"]]
                deadline = spec.get("deadline_rounds") or model.max_rounds[spec["protocol"]]
                _require(data["protocol"] == protocol and data["deadline_rounds"] == deadline,
                         f"room {room}: session {data} differs from its agenda {spec}")
                sessions[room] = Session(data, protocol, deadline)
            elif kind == "offer" and sessions[room].protocol == "elimination_bidding":
                sessions[room].bids.setdefault(data["round"], []).append(data["issue"])
            elif kind in ("issue_eliminated", "agreement") and \
                    sessions[room].protocol == "elimination_bidding":
                _check_elimination_round(sessions[room], data, kind)
                if kind == "agreement":
                    sessions[room].agreed = data["issue"]
            elif kind == "session_no_quorum":
                _require(len(members[room]) < 2, f"room {room}: no quorum with {members[room]}")
            elif kind == "session_end":
                _require(data["participants"] == sorted(members[room]),
                         f"room {room}: session_end participants differ from attendees")
                _require(data["session"] == ended[room], f"room {room}: session index out of order")
                ended[room] += 1
                _check_session_end(model, sessions.pop(room, None), data)
                rows.append((room, data["session"], _summary_row(data)))
            elif kind == "room_closed":
                for agent in members.pop(room):
                    del room_of[agent]
                del agenda[room]
            elif kind == "room_close_skipped":
                _require(room not in agenda, f"room {room}: close skipped while open")
    summary = (directory / "summary.csv").read_text().splitlines()
    expected = [row for _, _, row in sorted(rows)]
    _require(summary[1:] == expected, f"summary.csv differs from session_end records: "
             f"{summary[1:3]} vs {expected[:2]}")
