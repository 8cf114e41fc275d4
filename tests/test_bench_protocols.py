"""Micro-benchmarks of utilities, thresholds and protocol rounds.

They time ``evaluate``, the concession threshold ``_conceded`` of a
30-issue agenda's best and worst utility, one ``run_round`` of each
protocol for each proposal strategy with P = 100 and 1 000 participants
over I = 30 issues, and one whole session of each with P = 300. The timed
round is round 2, so ``trade_off`` proposals follow the round-1 offers; the
whole session also shows costs that build up over later rounds. The
``bench`` marker keeps them out of the default test run:

    PYTHONPATH=src python -m pytest -m bench                      # timed
    PYTHONPATH=src python -m pytest -m bench --benchmark-disable  # each once
"""

from __future__ import annotations

import random

import pytest

from mnegoti.model import Agent, Issue, StrategyConfig, StrategyKind, evaluate
from mnegoti.protocols import (
    NegotiationSession,
    ProtocolConfig,
    ProtocolKind,
    SessionStatus,
    _conceded,
    run_round,
)

pytestmark = pytest.mark.bench

ISSUES = 30
DEADLINE = 30


def test_evaluate(benchmark):
    agent = Agent(id=0, group_id=0, weights=(0.2, 0.3, 0.5))
    issue = Issue(id=0, name="i", scores=(0.9, 0.1, 0.4))
    assert 0.0 <= benchmark(evaluate, agent, issue) <= 1.0


def test_concession_threshold(benchmark):
    rng = random.Random(1)
    utilities = [rng.random() for _ in range(ISSUES)]
    u_max, u_min = max(utilities), min(utilities)
    assert benchmark(_conceded, u_max, u_min, 7, DEADLINE, 0.5) <= u_max


def new_session(
    participants: int, protocol: ProtocolKind, strategy: StrategyKind
) -> NegotiationSession:
    rng = random.Random(participants)
    session = NegotiationSession(
        issue_ids=tuple(range(ISSUES)),
        participants=tuple(range(participants)),
        utilities={p: {i: rng.random() for i in range(ISSUES)} for p in range(participants)},
        strategies={p: StrategyConfig(kind=strategy, beta=0.01) for p in range(participants)},
        protocol=ProtocolConfig(id="p", kind=protocol, max_rounds=DEADLINE),
        deadline_rounds=DEADLINE,
    )
    return session


def session_after_round_one(
    participants: int, protocol: ProtocolKind, strategy: StrategyKind
) -> NegotiationSession:
    session = new_session(participants, protocol, strategy)
    run_round(session)
    assert session.status is SessionStatus.ACTIVE
    return session


@pytest.mark.parametrize("participants", [100, 1_000])
@pytest.mark.parametrize("strategy", list(StrategyKind), ids=lambda k: k.value)
@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda k: k.value)
def test_run_round(benchmark, protocol, strategy, participants):
    def setup():
        return (session_after_round_one(participants, protocol, strategy),), {}

    block = benchmark.pedantic(run_round, setup=setup, rounds=5)
    assert block.round == 2


def run_session(session: NegotiationSession) -> NegotiationSession:
    while session.status is SessionStatus.ACTIVE:
        run_round(session)
    return session


@pytest.mark.parametrize("strategy", list(StrategyKind), ids=lambda k: k.value)
@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda k: k.value)
def test_run_session(benchmark, protocol, strategy):
    def setup():
        return (new_session(300, protocol, strategy),), {}

    session = benchmark.pedantic(run_session, setup=setup, rounds=5)
    assert session.status is not SessionStatus.ACTIVE
