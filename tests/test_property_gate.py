"""Property gate: small drawn scenarios, run end to end, checked independently.

Each example is a small scenario document. It goes through
``load_scenario`` and ``runner.run`` into a temporary directory, and every
replication's artifacts must pass ``benchmark/checks.check_replication``:
fsum utilities, the brute-force oracles, eliminations recomputed from
offers, ``summary.csv`` recomputed from ``session_end``, admissibility and
one room per agent.

Every protocol x strategy x admission kind x distribution is drawn: the
first group and the first opening of the first room take the parametrised
combination, everything else is drawn freely. Rooms may reopen, and extra
watcher rules with configured priorities react to rooms and agents with
``agent_scan``, ``room_invite``, ``room_close`` and ``negotiation_round``,
including reactions that land in the scan band.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mnegoti.runner import run
from mnegoti.scenario import load_scenario

from conftest import benchmark_module

PROTOCOLS = ("mediated_single_text", "monotonic_concession", "elimination_bidding")
STRATEGIES = ("time_dependent", "trade_off", "top_bid")
ADMISSIONS = ("conditions", "invitations")
DISTRIBUTIONS = ("uniform", "truncated_normal")

# Priorities around the engine's bands (open 100, close 90, scan 80,
# round 50), so configured reactions land in, above and below the scan band.
PRIORITIES = st.none() | st.sampled_from((95, 85, 80, 79, 60, 40))


CHECKS = benchmark_module("checks")

fraction = st.integers(0, 100).map(lambda k: k / 100)


@st.composite
def _group(draw, ident: int, n_criteria: int, strategy=None, distribution=None) -> dict:
    bounds = []
    for _ in range(n_criteria):
        lo = draw(st.integers(0, 60))
        hi = draw(st.integers(lo, 100))
        bounds.append([lo / 100, hi / 100])
    distribution = distribution or draw(st.sampled_from(DISTRIBUTIONS))
    dist = {"kind": distribution}
    if distribution == "truncated_normal":
        dist.update(mean=draw(fraction), sd=draw(st.sampled_from((0.1, 0.35, 1.0))))
    return {
        "id": ident,
        "name": f"g{ident}",
        "member_count": draw(st.integers(1, 4)),
        "bounds": bounds,
        "distribution": dist,
        "strategy": {
            "kind": strategy or draw(st.sampled_from(STRATEGIES)),
            "beta": draw(st.sampled_from((0.25, 1.0, 4.0))),
        },
    }


@st.composite
def _agenda(draw, n_issues: int, groups: list[dict], total: int, protocol=None, admission=None):
    issues = draw(
        st.lists(st.integers(0, n_issues - 1), min_size=1, max_size=n_issues, unique=True)
    )
    admission = admission or draw(st.sampled_from(ADMISSIONS))
    if admission == "invitations":
        agents = draw(
            st.lists(st.integers(0, total - 1), min_size=1, max_size=total, unique=True)
        )
        policy = {"kind": "invitations", "agents": agents}
    else:
        policy = {"kind": "conditions"}
        chosen = draw(st.lists(st.sampled_from([g["id"] for g in groups]), unique=True))
        if chosen:
            policy["groups"] = chosen
        if draw(st.booleans()):
            policy["threshold"] = draw(fraction)
    agenda = {
        "issues": issues,
        "admission": policy,
        "protocol": protocol or draw(st.sampled_from(PROTOCOLS)),
    }
    if draw(st.booleans()):
        agenda["deadline_rounds"] = draw(st.integers(1, 6))
    return agenda


@st.composite
def _room(draw, ident: int, n_issues: int, groups, total: int, first=None) -> dict:
    """A schedule of one or two openings, each maybe closed by the schedule."""
    opens = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=2, unique=True)))
    schedule = []
    for k, at in enumerate(opens):
        protocol, admission = first if (first and k == 0) else (None, None)
        entry = {
            "action": "open",
            "at": at,
            "agenda": draw(_agenda(n_issues, groups, total, protocol, admission)),
        }
        priority = draw(PRIORITIES)
        if priority is not None:
            entry["priority"] = priority
        schedule.append(entry)
        if draw(st.booleans()):
            close = {"action": "close", "at": at + draw(st.integers(0, 3))}
            priority = draw(PRIORITIES)
            if priority is not None:
                close["priority"] = priority
            schedule.append(close)
    return {"id": ident, "schedule": schedule}


# Rules beside the open-scan rule: (watcher, watchee, trigger, reaction).
EXTRA_RULES = (
    # Agents released by a closing room scan again.
    ({"kind": "agent"}, {"kind": "meeting_room"}, {"watchee.state": "closed"},
     {"kind": "agent_scan"}),
    # An agent back to idle scans again.
    ({"kind": "agent"}, {"kind": "agent"}, {"watchee.state": "idle"},
     {"kind": "agent_scan", "target": "watchee"}),
    # A session is cut short as soon as it starts.
    ({"kind": "meeting_room"}, {"kind": "meeting_room"}, {"watchee.state": "in_session"},
     {"kind": "room_close", "target": "watchee"}),
    # An opening room is closed again, or runs a round before anyone enters.
    ({"kind": "meeting_room"}, {"kind": "meeting_room"}, {"watchee.state": "open"},
     {"kind": "room_close", "target": "watchee"}),
    ({"kind": "meeting_room"}, {"kind": "meeting_room"}, {"watchee.state": "open"},
     {"kind": "negotiation_round", "target": "watchee"}),
    # An extra round as soon as a session starts.
    ({"kind": "meeting_room"}, {"kind": "meeting_room"}, {"watchee.state": "in_session"},
     {"kind": "negotiation_round", "target": "watchee"}),
    # Invitations sent again whenever an agent starts watching.
    ({"kind": "meeting_room"}, {"kind": "agent"}, {"watchee.state": "watching"},
     {"kind": "room_invite"}),
)


@st.composite
def _rule(draw, base: tuple, n_rooms: int) -> dict:
    watcher, watchee, trigger, reaction = (dict(part) for part in base)
    reaction["when"] = draw(st.sampled_from(("same_tick", "next_tick")))
    priority = draw(PRIORITIES)
    if priority is not None:
        reaction["priority"] = priority
    if watchee["kind"] == "meeting_room" and draw(st.booleans()):
        watchee["id"] = draw(st.integers(0, n_rooms - 1))
    return {"watcher": watcher, "watchee": watchee, "trigger": trigger, "reaction": reaction}


@st.composite
def scenario_docs(draw, protocol: str, strategy: str, admission: str, distribution: str):
    n_criteria = draw(st.integers(1, 3))
    n_issues = draw(st.integers(1, 5))
    criteria = [
        {"id": k, "name": f"c{k}", "direction": draw(st.sampled_from(("benefit", "cost")))}
        for k in range(n_criteria)
    ]
    if draw(st.booleans()):
        scores = [[draw(fraction) for _ in range(n_criteria)] for _ in range(n_issues)]
    else:
        # Each issue scores the same values on rotated criteria, so agents
        # that weigh the criteria differently disagree on the best issue.
        base = [draw(fraction) for _ in range(n_criteria)]
        scores = [base[i % n_criteria:] + base[:i % n_criteria] for i in range(n_issues)]
    issues = [{"id": i, "name": f"i{i}", "scores": s} for i, s in enumerate(scores)]
    groups = [draw(_group(0, n_criteria, strategy, distribution))]
    groups += [draw(_group(g, n_criteria)) for g in range(1, draw(st.integers(1, 3)))]
    total = sum(g["member_count"] for g in groups)
    protocols = [
        {
            "id": kind,
            "kind": kind,
            "max_rounds": draw(st.integers(1, 6)),
            "rounds_per_tick": draw(st.integers(1, 2)),
        }
        for kind in PROTOCOLS
    ]
    n_rooms = draw(st.integers(1, 3))
    rooms = [draw(_room(0, n_issues, groups, total, first=(protocol, admission)))]
    rooms += [draw(_room(r, n_issues, groups, total)) for r in range(1, n_rooms)]
    open_scan = {
        "watcher": {"kind": "agent"},
        "watchee": {"kind": "meeting_room"},
        "trigger": {"watchee.state": "open"},
        "reaction": {"kind": "agent_scan", "when": "same_tick"},
    }
    priority = draw(PRIORITIES)
    if priority is not None:
        open_scan["reaction"]["priority"] = priority
    extras = draw(st.lists(st.sampled_from(EXTRA_RULES), max_size=2))
    return {
        "version": 1,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "ticks": draw(st.integers(4, 10)),
        "theta_in": draw(st.sampled_from((0.0, 0.3, 0.6))),
        "criteria": criteria,
        "issues": issues,
        "groups": groups,
        "social_edges": [],
        "protocols": protocols,
        "rooms": rooms,
        "watchers": [open_scan] + [draw(_rule(rule, n_rooms)) for rule in extras],
    }


@pytest.mark.parametrize(
    ("protocol", "strategy", "admission", "distribution"),
    list(itertools.product(PROTOCOLS, STRATEGIES, ADMISSIONS, DISTRIBUTIONS)),
)
def test_drawn_scenario_passes_independent_checks(
    protocol, strategy, admission, distribution, tmp_path
):
    @given(doc=scenario_docs(protocol, strategy, admission, distribution), reps=st.integers(1, 2))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def check(doc, reps):
        for artifacts in run(load_scenario(doc), replications=reps, out_dir=tmp_path):
            CHECKS.check_replication(doc, artifacts.out_dir)

    check()
