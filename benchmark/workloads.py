"""Seeded generators for the benchmark's scenario files.

Each generator turns a seed into scenario documents in the repository's
YAML schema. The sizes are fixed per workload; the seed only draws the
preference bounds, issue scores, strategies, admission rules and room
schedules, so every seed exercises the same layers with about the same
amount of work. The program under test only ever sees the files written
by ``write_inputs``.
"""

from __future__ import annotations

import random
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "scenarios"

# Bundled scenarios replayed by the sweep workload, and replications of each.
SWEEP_SCENARIOS = ("concurrent_rooms", "protection_strategies", "supply_chain")
SWEEP_REPLICATIONS = 60

STRATEGIES = ("time_dependent", "trade_off", "top_bid")
BETAS = (0.25, 0.5, 1.0, 2.0, 4.0)

# The watcher rule every generated scenario uses: when a room opens, every
# agent scans the open rooms in the same tick.
OPEN_SCAN_RULE = {
    "watcher": {"kind": "agent"},
    "watchee": {"kind": "meeting_room"},
    "trigger": {"watchee.state": "open"},
    "reaction": {"kind": "agent_scan", "when": "same_tick"},
}


def _criteria(rng: random.Random, count: int) -> list[dict]:
    return [
        {"id": k, "name": f"c{k}", "direction": rng.choice(("benefit", "cost"))}
        for k in range(count)
    ]


def _issues(rng: random.Random, count: int, criteria: list[dict]) -> list[dict]:
    """Issues near a Pareto front: normalised scores sum to about the same total.

    Hardly any issue is better than another on every criterion, so no issue
    is the best one for every agent of a group.
    """
    issues = []
    for i in range(count):
        draws = [rng.random() + 0.05 for _ in criteria]
        total = sum(draws)
        normalised = [round(0.5 * len(criteria) * d / total, 4) for d in draws]
        scores = [
            min(1.0, s) if c["direction"] == "benefit" else round(1.0 - min(1.0, s), 4)
            for s, c in zip(normalised, criteria)
        ]
        issues.append({"id": i, "name": f"issue{i}", "scores": scores})
    return issues


def _bounds(rng: random.Random, n_criteria: int) -> list[list[float]]:
    rows = []
    for _ in range(n_criteria):
        lo = round(rng.uniform(0.0, 0.4), 3)
        hi = round(rng.uniform(lo + 0.5, 1.0), 3)
        rows.append([lo, hi])
    return rows


def _group(
    rng: random.Random, ident: int, members: int, n_criteria: int, strategy: str,
    beta: float | None = None,
) -> dict:
    return {
        "id": ident,
        "name": f"g{ident}",
        "member_count": members,
        "bounds": _bounds(rng, n_criteria),
        "strategy": {"kind": strategy, "beta": beta if beta is not None else rng.choice(BETAS)},
    }


def _doc(seed: int, ticks: int, criteria, issues, groups, protocols, rooms) -> dict:
    return {
        "version": 1,
        "seed": seed,
        "ticks": ticks,
        "theta_in": 0.0,
        "criteria": criteria,
        "issues": issues,
        "groups": groups,
        "social_edges": [],
        "protocols": protocols,
        "rooms": rooms,
        "watchers": [OPEN_SCAN_RULE],
    }


def town_hall(seed: int) -> dict:
    """4 groups x 500 agents; 4 conditions rooms open at tick 1.

    Every room opening scans all 2 000 agents: 8 000 same-tick reactions,
    under the cascade cap of 10 000 whatever the seed. Every agent holds
    out (beta 0.01), so each mediated session rejects three candidates and
    agrees on the fourth at its deadline, whatever the seed.
    """
    rng = random.Random(seed)
    n_criteria, n_issues = 4, 8
    criteria = _criteria(rng, n_criteria)
    issues = _issues(rng, n_issues, criteria)
    groups = [_group(rng, g, 500, n_criteria, "time_dependent", beta=0.01) for g in range(4)]
    protocols = [{"id": "vote", "kind": "mediated_single_text", "max_rounds": 4}]
    rooms = []
    for r in range(4):
        agenda = sorted(rng.sample(range(n_issues), 4))
        rooms.append({
            "id": r,
            "schedule": [{
                "action": "open",
                "at": 1,
                "agenda": {
                    "issues": agenda,
                    "admission": {"kind": "conditions", "groups": [r],
                                  "threshold": round(rng.uniform(0.1, 0.3), 3)},
                    "protocol": "vote",
                },
            }],
        })
    return _doc(rng.randrange(2**31), 8, criteria, issues, groups, protocols, rooms)


def summit(seed: int) -> dict:
    """60 groups x 10 agents split between two long-agenda rooms.

    Room 0 runs monotonic concession and room 1 elimination bidding, each
    over 30 issues with 300 participants of mixed strategies. Every group
    holds out (beta 0.01), so concession runs to the deadline and the work
    does not vary from seed to seed.
    """
    rng = random.Random(seed)
    n_criteria, n_issues, n_groups = 4, 30, 60
    criteria = _criteria(rng, n_criteria)
    issues = _issues(rng, n_issues, criteria)
    groups = [
        _group(rng, g, 10, n_criteria, STRATEGIES[g % len(STRATEGIES)], beta=0.01)
        for g in range(n_groups)
    ]
    protocols = [
        {"id": "concede", "kind": "monotonic_concession", "max_rounds": 30},
        {"id": "bid", "kind": "elimination_bidding", "max_rounds": 30},
    ]
    rooms = []
    for r, protocol in enumerate(("concede", "bid")):
        rooms.append({
            "id": r,
            "schedule": [{
                "action": "open",
                "at": 1,
                "agenda": {
                    "issues": list(range(n_issues)),
                    "admission": {"kind": "conditions",
                                  "groups": list(range(r, n_groups, 2))},
                    "protocol": protocol,
                },
            }],
        })
    return _doc(rng.randrange(2**31), 40, criteria, issues, groups, protocols, rooms)


def room_churn(seed: int) -> dict:
    """400 agents in 40 groups; 24 rooms open and close over 60 ticks.

    Each room opens twice on a staggered schedule and is closed on
    schedule before it reopens. Half the openings admit by conditions,
    half by invitation; the three protocols rotate over the rooms.
    """
    rng = random.Random(seed)
    n_criteria, n_issues, n_groups, per_group, n_rooms = 3, 12, 40, 10, 24
    n_agents = n_groups * per_group
    criteria = _criteria(rng, n_criteria)
    issues = _issues(rng, n_issues, criteria)
    groups = [
        _group(rng, g, per_group, n_criteria, STRATEGIES[g % len(STRATEGIES)])
        for g in range(n_groups)
    ]
    protocols = [
        {"id": "vote", "kind": "mediated_single_text", "max_rounds": 4},
        {"id": "concede", "kind": "monotonic_concession", "max_rounds": 5},
        {"id": "bid", "kind": "elimination_bidding", "max_rounds": 5},
    ]
    rooms = []
    for r in range(n_rooms):
        schedule = []
        at = 1 + r % 8 + rng.randrange(3)
        for opening in range(2):
            if (r + opening) % 2:
                admission = {"kind": "invitations",
                             "agents": sorted(rng.sample(range(n_agents), 20))}
            else:
                admission = {"kind": "conditions",
                             "groups": sorted(rng.sample(range(n_groups), 6)),
                             "threshold": round(rng.uniform(0.3, 0.5), 3)}
            schedule.append({
                "action": "open",
                "at": at,
                "agenda": {
                    "issues": sorted(rng.sample(range(n_issues), 4)),
                    "admission": admission,
                    "protocol": protocols[(r + opening) % 3]["id"],
                },
            })
            close = at + 4 + rng.randrange(4)
            schedule.append({"action": "close", "at": close})
            at = close + 1 + rng.randrange(6)
        rooms.append({"id": r, "schedule": schedule})
    return _doc(rng.randrange(2**31), 60, criteria, issues, groups, protocols, rooms)


def sweep(seed: int) -> list[dict]:
    """The bundled scenarios, each with a base seed drawn from ``seed``."""
    rng = random.Random(seed)
    docs = []
    for name in SWEEP_SCENARIOS:
        doc = yaml.safe_load((BUNDLED / f"{name}.yaml").read_text())
        doc["seed"] = rng.randrange(2**31)
        docs.append(doc)
    return docs


GENERATORS = {
    "town_hall": town_hall,
    "summit": summit,
    "room_churn": room_churn,
    "sweep": sweep,
}


def write_inputs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Generate the workload's scenario files under ``directory``."""
    docs = GENERATORS[workload](seed)
    if isinstance(docs, dict):
        docs = [docs]
    names = SWEEP_SCENARIOS if workload == "sweep" else (workload,)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in zip(names, docs):
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False, default_flow_style=None))
        paths.append(path)
    return paths
