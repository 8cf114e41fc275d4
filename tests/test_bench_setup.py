"""Micro-benchmarks of population set-up and invitation admission.

They time ``spawn_members`` for a 2 000-member group over 4 criteria, once
uniform (one generator call for the whole group) and once truncated normal
(rejection sampling per value), and one ``check_admission`` of an agent
against an invitation list of 10 000 agents. The ``bench`` marker keeps
them out of the default test run:

    PYTHONPATH=src python -m pytest -m bench                      # timed
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable  # each once
"""

from __future__ import annotations

import numpy as np
import pytest

from mnegoti.model import (
    Agent,
    AgentGroup,
    DistributionKind,
    DistributionSpec,
    PreferenceBounds,
    spawn_members,
)
from mnegoti.rooms import AdmissionKind, AdmissionPolicy, Agenda, MeetingRoom

pytestmark = pytest.mark.bench

MEMBERS = 2_000
INVITEES = 10_000
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
            issue_ids=(0,),
            admission=AdmissionPolicy(
                kind=AdmissionKind.INVITATIONS, agents=tuple(range(INVITEES - 1, -1, -1))
            ),
            protocol_id="p",
            deadline_rounds=1,
        )
    )
    # The last agent of a descending list: a linear search would scan it all.
    agent = Agent(id=0, group_id=0, raw_prefs=(1.0,), weights=(1.0,))
    assert benchmark(room.check_admission, agent, {}) is True
