"""Concession curves, strategies, the three protocols, and oracle equivalence."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti.errors import NotTerminatedError, ProtocolError
from mnegoti.model import StrategyConfig, StrategyKind
from mnegoti.protocols import (
    FailureReason,
    NegotiationSession,
    ProtocolConfig,
    ProtocolKind,
    SessionStatus,
    acceptable_set,
    concession_threshold,
    failed_outcome,
    propose,
    run_round,
    session_outcome,
)

from oracles import concession_oracle, elimination_oracle, mediated_oracle, session_oracle

UTILITY_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
BETAS = [0.01, 0.5, 1.0, 4.0]


def make_session(
    utils: list[list[float]],
    kind: ProtocolKind,
    max_rounds: int = 5,
    betas: list[float] | None = None,
    strategy_kind: StrategyKind | None = None,
) -> NegotiationSession:
    """Participants 0..n-1 over issues 0..m-1 with an explicit utility matrix."""
    n = len(utils)
    m = len(utils[0])
    betas = betas if betas is not None else [1.0] * n
    if strategy_kind is None:
        strategy_kind = (
            StrategyKind.TOP_BID
            if kind is ProtocolKind.ELIMINATION_BIDDING
            else StrategyKind.TIME_DEPENDENT
        )
    return NegotiationSession(
        room_id=0,
        issue_ids=tuple(range(m)),
        participants=tuple(range(n)),
        utilities={a: {i: utils[a][i] for i in range(m)} for a in range(n)},
        strategies={a: StrategyConfig(kind=strategy_kind, beta=betas[a]) for a in range(n)},
        protocol=ProtocolConfig(id="p", kind=kind, max_rounds=max_rounds),
        deadline_rounds=max_rounds,
    )


def run_to_completion(session: NegotiationSession) -> tuple[str, int | None, int]:
    while session.status is SessionStatus.ACTIVE:
        run_round(session)
    return (session.status.value, session.agreed_issue, session.round)


class TestConcessionThreshold:
    def test_first_round_is_best_utility(self):
        assert concession_threshold([0.3, 0.8, 0.5], 1, 7, 2.0) == 0.8

    def test_deadline_round_is_worst_utility(self):
        assert concession_threshold([0.3, 0.8, 0.5], 7, 7, 2.0) == 0.3

    def test_single_round_deadline_starts_at_worst(self):
        assert concession_threshold([0.3, 0.8], 1, 1, 1.0) == 0.3

    def test_linear_midpoint(self):
        assert concession_threshold([1.0, 0.0], 6, 11, 1.0) == pytest.approx(0.5)

    def test_round_out_of_range_rejected(self):
        with pytest.raises(ProtocolError):
            concession_threshold([0.5], 0, 5, 1.0)
        with pytest.raises(ProtocolError):
            concession_threshold([0.5], 6, 5, 1.0)

    @given(
        utilities=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
        beta=st.floats(0.1, 10.0),
        max_rounds=st.integers(1, 20),
    )
    @settings(max_examples=300)
    def test_non_increasing_with_exact_endpoints(self, utilities, beta, max_rounds):
        values = [
            concession_threshold(utilities, t, max_rounds, beta)
            for t in range(1, max_rounds + 1)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == min(utilities)
        if max_rounds > 1:
            assert values[0] == max(utilities)


class TestAcceptableSet:
    def test_zero_threshold_admits_full_agenda(self):
        utils = {0: 0.2, 1: 0.5, 2: 0.9}
        assert acceptable_set(utils, 0.0) == [0, 1, 2]

    def test_max_threshold_keeps_argmax(self):
        utils = {0: 0.2, 1: 0.5, 2: 0.9}
        assert acceptable_set(utils, 0.9) == [2]

    def test_direct_filter(self):
        utils = {0: 0.2, 1: 0.5, 2: 0.9}
        assert acceptable_set(utils, 0.5) == [1, 2]

    @given(
        values=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        lo=st.floats(0.0, 1.0),
        hi=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_monotone_as_threshold_decreases(self, values, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        utils = dict(enumerate(values))
        assert set(acceptable_set(utils, hi)) <= set(acceptable_set(utils, lo))


class TestPropose:
    def test_time_dependent_round_one_is_argmax(self):
        session = make_session([[0.9, 0.4]], ProtocolKind.MONOTONIC_CONCESSION)
        assert propose(session, 0).issue_id == 0

    def test_tied_utilities_pick_lowest_id(self):
        session = make_session([[0.7, 0.7]], ProtocolKind.MONOTONIC_CONCESSION)
        assert propose(session, 0).issue_id == 0

    def test_top_bid_ignores_threshold(self):
        session = make_session(
            [[0.1, 0.8, 0.3]], ProtocolKind.ELIMINATION_BIDDING, strategy_kind=StrategyKind.TOP_BID
        )
        assert propose(session, 0).issue_id == 1

    def test_trade_off_follows_most_frequent_prior_offer(self):
        # Oracle: frequency count over the prior-round offers of others —
        # issue 2 proposed twice, issue 1 once, so issue 2 wins.
        utils = [
            [0.0, 0.68, 0.7],
            [0.0, 0.9, 0.2],
            [0.0, 0.3, 0.8],
            [0.0, 0.5, 0.6],
        ]
        session = make_session(
            utils,
            ProtocolKind.MONOTONIC_CONCESSION,
            max_rounds=9,
            strategy_kind=StrategyKind.TRADE_OFF,
        )
        run_round(session)  # round 1: everyone falls back to own argmax
        prior = [o.issue_id for o in session.transcript[0].offers if o.proposer != 0]
        assert sorted(prior) == [1, 2, 2]
        theta = session.threshold(0, 2)
        acceptable = [i for i in session.candidates if session.utilities[0][i] >= theta]
        assert set(acceptable) >= {1, 2}
        assert propose(session, 0).issue_id == 2

    def test_trade_off_tie_breaks_by_own_utility_then_id(self):
        utils = [
            [0.5, 0.9, 0.0],
            [0.0, 0.8, 0.8],
            [0.9, 0.0, 0.9],
        ]
        session = make_session(
            utils,
            ProtocolKind.MONOTONIC_CONCESSION,
            max_rounds=9,
            strategy_kind=StrategyKind.TRADE_OFF,
        )
        run_round(session)
        # Others proposed issues 1 (agent 1) and 0 (agent 2): one vote each;
        # agent 0 prefers issue 1 (0.9 > 0.5).
        prior = sorted(o.issue_id for o in session.transcript[0].offers if o.proposer != 0)
        assert prior == [0, 1]
        assert propose(session, 0).issue_id == 1


class TestMediatedSingleText:
    def test_two_by_two_instance_matches_exhaustive_trace(self):
        # Oracle: exhaustive enumeration of the 2x2 instance with T=1 —
        # welfare ties at 1.0, issue 0 proposed, thresholds are both
        # u_min = 0 at the deadline, so both accept.
        utils = [[1.0, 0.0], [0.0, 1.0]]
        assert mediated_oracle(
            [dict(enumerate(u)) for u in utils], 1, [1.0, 1.0]
        ) == ("agreed", 0, 1)

        session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=1)
        assert run_to_completion(session) == ("agreed", 0, 1)

    def test_rejection_removes_candidate(self):
        utils = [[0.9, 0.5], [0.1, 0.9]]
        session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=3)
        block = run_round(session)
        assert block.offers[0].proposer is None
        assert block.rejected == 1  # welfare 1.4 > 1.0, but agent 0 holds out
        assert session.candidates == [0]

    def test_candidate_exhaustion_fails_before_deadline(self):
        utils = [[0.9, 0.1], [0.1, 0.9]]
        session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=9)
        status, issue, rounds = run_to_completion(session)
        assert (status, issue) == ("failed", None)
        assert rounds == 2
        assert session.failure_reason is FailureReason.NO_AGREEMENT

    def test_round_past_deadline_rejected(self):
        session = make_session([[0.5, 0.4], [0.4, 0.5]], ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=1)
        run_to_completion(session)
        with pytest.raises(ProtocolError):
            run_round(session)


class TestEliminationBidding:
    def test_fewest_bids_eliminated_first(self):
        # Oracle: direct bid count — bids {0: 2, 1: 1, 2: 0} eliminate issue 2.
        utils = [
            [0.9, 0.1, 0.5],
            [0.8, 0.2, 0.6],
            [0.1, 0.9, 0.5],
        ]
        bids = [max(range(3), key=lambda i: (u[i], -i)) for u in utils]
        assert [bids.count(i) for i in range(3)] == [2, 1, 0]

        session = make_session(utils, ProtocolKind.ELIMINATION_BIDDING)
        block = run_round(session)
        assert block.eliminated == 2
        assert session.candidates == [0, 1]

    def test_unanimous_bids_agree_immediately(self):
        utils = [[0.2, 0.9], [0.1, 0.8]]
        session = make_session(utils, ProtocolKind.ELIMINATION_BIDDING)
        assert run_to_completion(session) == ("agreed", 1, 1)

    def test_terminates_within_issue_count_minus_one_rounds(self):
        rng = random.Random(4242)
        for _ in range(300):
            n = rng.randint(2, 4)
            m = rng.randint(2, 5)
            utils = [[rng.choice(UTILITY_GRID) for _ in range(m)] for _ in range(n)]
            session = make_session(utils, ProtocolKind.ELIMINATION_BIDDING, max_rounds=1)
            status, issue, rounds = run_to_completion(session)
            assert status == "agreed"
            assert issue is not None
            assert rounds <= m - 1

    def test_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(2, 4)
            m = rng.randint(2, 5)
            utils = [[rng.choice(UTILITY_GRID) for _ in range(m)] for _ in range(n)]
            expected = elimination_oracle([dict(enumerate(u)) for u in utils])
            session = make_session(utils, ProtocolKind.ELIMINATION_BIDDING)
            assert run_to_completion(session) == expected


class TestOracleEquivalence:
    @staticmethod
    def random_instance(rng):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        utils = [[rng.choice(UTILITY_GRID) for _ in range(m)] for _ in range(n)]
        betas = [rng.choice([0.5, 1.0, 2.0]) for _ in range(n)]
        max_rounds = rng.choice([1, 3, 5])
        return utils, betas, max_rounds

    def test_mediated_matches_oracle(self):
        rng = random.Random(2718)
        for _ in range(400):
            utils, betas, max_rounds = self.random_instance(rng)
            expected = mediated_oracle([dict(enumerate(u)) for u in utils], max_rounds, betas)
            session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds, betas)
            assert run_to_completion(session) == expected

    def test_concession_matches_oracle(self):
        rng = random.Random(3141)
        for _ in range(400):
            utils, betas, max_rounds = self.random_instance(rng)
            expected = concession_oracle([dict(enumerate(u)) for u in utils], max_rounds, betas)
            session = make_session(utils, ProtocolKind.MONOTONIC_CONCESSION, max_rounds, betas)
            assert run_to_completion(session) == expected


@st.composite
def mixed_sessions(draw):
    """P 1-12 participants over I 1-8 issues, mixed strategies, any protocol.

    Utilities come mostly from a coarse grid, so ties are frequent.
    """
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    value = st.one_of(st.sampled_from(UTILITY_GRID), st.floats(0.0, 1.0))
    utils = [[draw(value) for _ in range(m)] for _ in range(n)]
    strategies = [
        (draw(st.sampled_from(list(StrategyKind))), draw(st.sampled_from(BETAS)))
        for _ in range(n)
    ]
    kind = draw(st.sampled_from(list(ProtocolKind)))
    deadline = draw(st.integers(1, 6))
    return utils, strategies, kind, deadline


class TestTranscriptOracle:
    @given(instance=mixed_sessions())
    @settings(max_examples=300, deadline=None)
    def test_every_round_matches_oracle(self, instance):
        utils, strategies, kind, deadline = instance
        n, m = len(utils), len(utils[0])
        session = NegotiationSession(
            room_id=0,
            issue_ids=tuple(range(m)),
            participants=tuple(range(n)),
            utilities={a: {i: utils[a][i] for i in range(m)} for a in range(n)},
            strategies={a: StrategyConfig(kind=k, beta=b) for a, (k, b) in enumerate(strategies)},
            protocol=ProtocolConfig(id="p", kind=kind, max_rounds=deadline),
            deadline_rounds=deadline,
        )
        outcome = run_to_completion(session)
        got = [
            {
                "offers": [(o.proposer, o.issue_id) for o in block.offers],
                "votes": block.votes,
                "published": block.published,
                "rejected": block.rejected,
                "eliminated": block.eliminated,
                "agreed": block.agreed,
            }
            for block in session.transcript
        ]
        expected_rounds, expected_outcome = session_oracle(
            [dict(enumerate(u)) for u in utils],
            [(k.value, b) for k, b in strategies],
            kind.value,
            deadline,
        )
        assert got == expected_rounds
        assert outcome == expected_outcome
        assert [b.round for b in session.transcript] == list(range(1, len(got) + 1))
        if kind is ProtocolKind.MONOTONIC_CONCESSION:
            # At the deadline every threshold is the participant's worst
            # agenda utility, so every agenda issue is acceptable to all.
            assert outcome[0] == "agreed" and outcome[2] <= deadline


class TestUnanimity:
    @given(
        values=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=5),
        n=st.integers(2, 4),
        kind=st.sampled_from(list(ProtocolKind)),
    )
    @settings(max_examples=200)
    def test_identical_preferences_agree_round_one_on_common_argmax(self, values, n, kind):
        utils = [list(values) for _ in range(n)]
        argmax = min(range(len(values)), key=lambda i: (-values[i], i))
        session = make_session(utils, kind, max_rounds=4)
        status, issue, rounds = run_to_completion(session)
        assert (status, issue, rounds) == ("agreed", argmax, 1)


class TestTranscriptDeterminism:
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(list(ProtocolKind)))
    @settings(max_examples=100)
    def test_identical_inputs_identical_transcripts(self, seed, kind):
        rng = random.Random(seed)
        utils, betas, max_rounds = TestOracleEquivalence.random_instance(rng)
        first = make_session(utils, kind, max_rounds, betas)
        second = make_session(utils, kind, max_rounds, betas)
        run_to_completion(first)
        run_to_completion(second)
        assert first.transcript == second.transcript
        assert first.status == second.status


class TestOutcome:
    def test_agreed_outcome_carries_participant_utilities(self):
        utils = [[0.8, 0.2], [0.6, 0.4]]
        session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=1)
        run_to_completion(session)
        outcome = session_outcome(session)
        assert outcome.status is SessionStatus.AGREED
        assert outcome.agreed_issue == 0
        assert outcome.utilities == (0.8, 0.6)
        assert outcome.rounds_used <= session.deadline_rounds

    def test_failed_outcome_has_zero_utilities(self):
        utils = [[0.9, 0.1], [0.1, 0.9]]
        session = make_session(utils, ProtocolKind.MEDIATED_SINGLE_TEXT, max_rounds=9)
        run_to_completion(session)
        outcome = session_outcome(session)
        assert outcome.status is SessionStatus.FAILED
        assert outcome.agreed_issue is None
        assert outcome.utilities == (0.0, 0.0)

    def test_active_session_has_no_outcome(self):
        session = make_session([[0.9, 0.1], [0.1, 0.9]], ProtocolKind.MEDIATED_SINGLE_TEXT)
        with pytest.raises(NotTerminatedError):
            session_outcome(session)

    def test_no_quorum_outcome_shape(self):
        outcome = failed_outcome([4], FailureReason.NO_QUORUM)
        assert outcome.status is SessionStatus.FAILED
        assert outcome.reason is FailureReason.NO_QUORUM
        assert outcome.participants == (4,)
        assert outcome.utilities == (0.0,)
