"""Micro-benchmarks of population set-up and admission.

They time ``spawn_members`` for a 2 000-member group over 4 criteria, once
uniform (one generator call for the whole group) and once truncated normal
(rejection sampling per value), one ``check_admission`` of an agent
against an invitation list of 10 000 agents, one ``check_admission`` of a
fresh agent, whose utility table is still empty, on a 30-issue conditions
room over 4 criteria (the shape of the summit workload), and the construction of a
``Simulation`` of ``concurrent_rooms.yaml`` with 1 000 agents in each of its
three groups, whose traced bytes per agent are also checked. The ``bench``
marker keeps them out of the default test run:

    PYTHONPATH=src python -m pytest -m bench                      # timed
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable  # each once
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
import yaml

from mnegoti.engine import Simulation
from mnegoti.model import (
    Agent,
    AgentGroup,
    DistributionKind,
    DistributionSpec,
    Issue,
    PreferenceBounds,
    evaluate,
    spawn_members,
)
from mnegoti.protocols import ProtocolConfig, ProtocolKind
from mnegoti.rooms import AdmissionKind, AdmissionPolicy, Agenda, MeetingRoom
from mnegoti.scenario import load_scenario

from conftest import SCENARIO_DIR

pytestmark = pytest.mark.bench

MEMBERS = 2_000
INVITEES = 10_000
AGENDA_ISSUES = 30
SETUP_MEMBERS = 1_000
# A set-up agent holds its slotted object, its weights, its empty utility
# table, and its one entry in the context's agent dict, which the
# simulation shares: about 350 B on CPython 3.11.
SETUP_BYTES_PER_AGENT = 400
BOUNDS = PreferenceBounds(rows=((0.1, 0.9), (0.0, 1.0), (0.3, 0.3), (0.2, 0.6)))


@pytest.mark.parametrize("kind", list(DistributionKind), ids=lambda kind: kind.value)
def test_spawn_members(benchmark, kind):
    group = AgentGroup(
        id=0,
        name="g",
        bounds=BOUNDS,
        distribution=DistributionSpec(kind=kind),
        member_count=MEMBERS,
    )
    rng = np.random.default_rng(1)
    agents = benchmark(spawn_members, group, rng, 0)
    assert [a.id for a in agents] == list(range(MEMBERS))


def test_invitation_admission(benchmark):
    room = MeetingRoom(0)
    room.open(
        Agenda(
            issues=(Issue(id=0, name="a", scores=(0.5,)),),
            admission=AdmissionPolicy(
                kind=AdmissionKind.INVITATIONS, agents=frozenset(range(INVITEES))
            ),
            protocol=ProtocolConfig(id="p", kind=ProtocolKind.MEDIATED_SINGLE_TEXT),
            deadline_rounds=1,
        )
    )
    # One set lookup, however many agents are invited.
    agent = Agent(id=0, group_id=0, weights=(1.0,))
    assert benchmark(room.check_admission, agent) == 0.5


def test_conditions_admission_of_fresh_agent(benchmark):
    issues = tuple(
        Issue(id=i, name=f"i{i}", scores=tuple((i * 7 + c * 3) % 10 / 10 for c in range(4)))
        for i in range(AGENDA_ISSUES)
    )
    room = MeetingRoom(0)
    room.open(
        Agenda(
            issues=issues,
            admission=AdmissionPolicy(kind=AdmissionKind.CONDITIONS, threshold=0.5),
            protocol=ProtocolConfig(id="p", kind=ProtocolKind.MONOTONIC_CONCESSION),
            deadline_rounds=1,
        )
    )
    weights = (0.4, 0.3, 0.2, 0.1)

    def fresh_agent():
        return (Agent(id=0, group_id=0, weights=weights),), {}

    # Each call fills the agent's whole agenda row before it compares.
    best = benchmark.pedantic(room.check_admission, setup=fresh_agent, rounds=2_000)
    agent = fresh_agent()[0][0]
    assert best == max(evaluate(agent, issue) for issue in issues)


def test_setup_bytes_per_agent(benchmark):
    """Bytes a constructed ``Simulation`` holds, per agent, traced by tracemalloc.

    The timed constructions come first, so the interpreter's first-use
    allocations are not counted.
    """
    doc = yaml.safe_load((SCENARIO_DIR / "concurrent_rooms.yaml").read_text())
    for group in doc["groups"]:
        group["member_count"] = SETUP_MEMBERS
    scenario = load_scenario(doc)
    benchmark(Simulation, scenario)
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(scenario)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_agent = held / len(sim.agents)
    benchmark.extra_info["bytes_per_agent"] = round(per_agent, 1)
    assert per_agent < SETUP_BYTES_PER_AGENT, per_agent
