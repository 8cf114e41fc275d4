"""Concession curves, strategies, the three protocols, and oracle equivalence."""

from __future__ import annotations

import random
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti.errors import ProtocolError
from mnegoti.model import StrategyConfig, StrategyKind
from mnegoti.protocols import (
    FailureReason,
    NegotiationSession,
    Offer,
    ProtocolConfig,
    ProtocolKind,
    RoundBlock,
    SessionStatus,
    _conceded,
    propose,
    run_round,
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
        issue_ids=tuple(range(m)),
        participants=tuple(range(n)),
        utilities={a: {i: utils[a][i] for i in range(m)} for a in range(n)},
        strategies={a: StrategyConfig(kind=strategy_kind, beta=betas[a]) for a in range(n)},
        protocol=ProtocolConfig(id="p", kind=kind, max_rounds=max_rounds),
        deadline_rounds=max_rounds,
    )


def ending(session: NegotiationSession) -> tuple[str, int | None, int]:
    """A finished session's (status, agreed issue, rounds used)."""
    return (session.status.value, session.agreed_issue, session.round)


def run_rounds(session: NegotiationSession) -> list[RoundBlock]:
    """Run the session to its end and return every round's block, in order."""
    blocks = []
    while session.status is SessionStatus.ACTIVE:
        blocks.append(run_round(session))
    return blocks


def run_to_completion(session: NegotiationSession) -> tuple[str, int | None, int]:
    run_rounds(session)
    return ending(session)


def threshold(utilities, t, max_rounds, beta):
    """The concession threshold over an agenda with these utilities."""
    return _conceded(max(utilities), min(utilities), t, max_rounds, beta)


class TestConcessionThreshold:
    def test_first_round_is_best_utility(self):
        assert threshold([0.3, 0.8, 0.5], 1, 7, 2.0) == 0.8

    def test_deadline_round_is_worst_utility(self):
        assert threshold([0.3, 0.8, 0.5], 7, 7, 2.0) == 0.3

    def test_single_round_deadline_starts_at_worst(self):
        assert threshold([0.3, 0.8], 1, 1, 1.0) == 0.3

    def test_linear_midpoint(self):
        assert threshold([1.0, 0.0], 6, 11, 1.0) == pytest.approx(0.5)

    def test_round_out_of_range_rejected(self):
        with pytest.raises(ProtocolError):
            threshold([0.5], 0, 5, 1.0)
        with pytest.raises(ProtocolError):
            threshold([0.5], 6, 5, 1.0)

    @given(
        utilities=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
        beta=st.floats(0.1, 10.0),
        max_rounds=st.integers(1, 20),
    )
    @settings(max_examples=300)
    def test_non_increasing_with_exact_endpoints(self, utilities, beta, max_rounds):
        values = [threshold(utilities, t, max_rounds, beta) for t in range(1, max_rounds + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == min(utilities)
        if max_rounds > 1:
            assert values[0] == max(utilities)


def published_by_round(blocks: list[RoundBlock], participant: int) -> list[tuple[int, ...]]:
    return [dict(block.published)[participant] for block in blocks]


class TestPublishedSets:
    """A concession round publishes the issues clearing each threshold, ascending."""

    # Opposed preferences: the first round publishes disjoint sets.
    OPPOSED = [[0.1, 0.5, 0.9], [0.9, 0.5, 0.1]]

    def test_deadline_round_publishes_full_agenda(self):
        utils = [[0.1, 0.9], [0.9, 0.1]]
        session = make_session(utils, ProtocolKind.MONOTONIC_CONCESSION, max_rounds=3)
        blocks = run_rounds(session)
        assert ending(session) == ("agreed", 0, 3)
        assert published_by_round(blocks, 0) == [(1,), (1,), (0, 1)]

    def test_first_round_publishes_only_the_best(self):
        session = make_session(self.OPPOSED, ProtocolKind.MONOTONIC_CONCESSION, max_rounds=3)
        block = run_round(session)
        assert block.published == [(0, (2,)), (1, (0,))]

    def test_publishes_issues_at_or_above_threshold(self):
        session = make_session(self.OPPOSED, ProtocolKind.MONOTONIC_CONCESSION, max_rounds=3)
        run_round(session)
        assert session.threshold(0, 2) == 0.5
        assert run_round(session).published == [(0, (1, 2)), (1, (0, 1))]

    @given(
        values=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        beta=st.sampled_from(BETAS),
        max_rounds=st.integers(1, 8),
    )
    @settings(max_examples=200)
    def test_sets_filter_the_agenda_and_grow_as_thresholds_fall(self, values, beta, max_rounds):
        session = make_session(
            [values, values[::-1]], ProtocolKind.MONOTONIC_CONCESSION, max_rounds, [beta, beta]
        )
        blocks = run_rounds(session)
        for a in (0, 1):
            sets = published_by_round(blocks, a)
            for t, published in enumerate(sets, start=1):
                theta = session.threshold(a, t)
                assert published == tuple(i for i, u in session.utilities[a].items() if u >= theta)
            assert all(set(x) <= set(y) for x, y in zip(sets, sets[1:]))

    @pytest.mark.parametrize(
        "kind", [ProtocolKind.MEDIATED_SINGLE_TEXT, ProtocolKind.ELIMINATION_BIDDING],
        ids=lambda k: k.value,
    )
    def test_other_protocols_rank_no_agenda(self, kind):
        # Rankings exist only for published sets, so other sessions never hold them.
        session = make_session(self.OPPOSED, kind, max_rounds=3)
        run_to_completion(session)
        assert "rankings" not in vars(session)


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
        block = run_round(session)  # round 1: everyone falls back to own argmax
        prior = [o.issue_id for o in block.offers if o.proposer != 0]
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
        block = run_round(session)
        # Others proposed issues 1 (agent 1) and 0 (agent 2): one vote each;
        # agent 0 prefers issue 1 (0.9 > 0.5).
        prior = sorted(o.issue_id for o in block.offers if o.proposer != 0)
        assert prior == [0, 1]
        assert propose(session, 0).issue_id == 1

    def test_trade_off_own_offer_alone_does_not_outweigh_its_best(self):
        # Agent 0 offered issue 1 last round and nobody followed; the others'
        # issue 2 is below its threshold. Issues 0 and 1 then both count 0
        # offers by others, so the higher own utility, issue 0, wins.
        utils = [[0.9, 0.8, 0.0], [0.0, 0.1, 0.9], [0.0, 0.1, 0.9]]
        session = make_session(
            utils,
            ProtocolKind.MONOTONIC_CONCESSION,
            max_rounds=3,
            strategy_kind=StrategyKind.TRADE_OFF,
        )
        session.last_block = RoundBlock(round=1, offers=[Offer(0, 1), Offer(1, 2), Offer(2, 2)])
        session.round = 1
        assert session.threshold(0, 2) == 0.45
        assert propose(session, 0) == Offer(0, 0)


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
            issue_ids=tuple(range(m)),
            participants=tuple(range(n)),
            utilities={a: {i: utils[a][i] for i in range(m)} for a in range(n)},
            strategies={a: StrategyConfig(kind=k, beta=b) for a, (k, b) in enumerate(strategies)},
            protocol=ProtocolConfig(id="p", kind=kind, max_rounds=deadline),
            deadline_rounds=deadline,
        )
        blocks = run_rounds(session)
        outcome = ending(session)
        got = [
            {
                "offers": [(o.proposer, o.issue_id) for o in block.offers],
                "votes": block.votes,
                "published": block.published,
                "rejected": block.rejected,
                "eliminated": block.eliminated,
                "agreed": block.agreed,
            }
            for block in blocks
        ]
        expected_rounds, expected_outcome = session_oracle(
            [dict(enumerate(u)) for u in utils],
            [(k.value, b) for k, b in strategies],
            kind.value,
            deadline,
        )
        assert got == expected_rounds
        assert outcome == expected_outcome
        assert [b.round for b in blocks] == list(range(1, len(got) + 1))
        if kind is ProtocolKind.MONOTONIC_CONCESSION:
            # At the deadline every threshold is the participant's worst
            # agenda utility, so every agenda issue is acceptable to all.
            assert outcome[0] == "agreed" and outcome[2] <= deadline

    @given(instance=mixed_sessions(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_holding_other_issues_match_oracle_on_the_agenda(self, instance, data):
        """A participant's row may hold issues off the agenda; no round reads them.

        The agenda takes the odd ids and the other issues the even ids
        around them, each above every agenda utility of its row or below it.
        """
        utils, strategies, kind, deadline = instance
        n, m = len(utils), len(utils[0])
        agenda = tuple(range(1, 2 * m, 2))
        rows = {}
        for a in range(n):
            other = st.sampled_from([max(utils[a]) + 1.0, min(utils[a]) - 1.0])
            rows[a] = {
                i: utils[a][i // 2] if i % 2 else data.draw(other) for i in range(2 * m + 1)
            }
        session = NegotiationSession(
            issue_ids=agenda,
            participants=tuple(range(n)),
            utilities=rows,
            strategies={a: StrategyConfig(kind=k, beta=b) for a, (k, b) in enumerate(strategies)},
            protocol=ProtocolConfig(id="p", kind=kind, max_rounds=deadline),
            deadline_rounds=deadline,
        )
        blocks = run_rounds(session)
        expected_rounds, expected_outcome = session_oracle(
            [dict(zip(agenda, u)) for u in utils],
            [(k.value, b) for k, b in strategies],
            kind.value,
            deadline,
        )
        assert transcript_rounds(blocks) == expected_rounds
        assert ending(session) == expected_outcome


def transcript_rounds(blocks: list[RoundBlock]) -> list[dict]:
    """A session's round blocks in the shape ``session_oracle`` returns."""
    return [
        {
            "offers": [(o.proposer, o.issue_id) for o in block.offers],
            "votes": block.votes,
            "published": block.published,
            "rejected": block.rejected,
            "eliminated": block.eliminated,
            "agreed": block.agreed,
        }
        for block in blocks
    ]


def assert_matches_oracle(
    utils: list[list[float]],
    strategies: list[tuple[StrategyKind, float]],
    kind: ProtocolKind,
    deadline: int,
) -> tuple[NegotiationSession, list[RoundBlock]]:
    """Run a session of participants 0..P-1 to its end and compare every round."""
    n, m = len(utils), len(utils[0])
    session = NegotiationSession(
        issue_ids=tuple(range(m)),
        participants=tuple(range(n)),
        utilities={a: {i: utils[a][i] for i in range(m)} for a in range(n)},
        strategies={a: StrategyConfig(kind=k, beta=b) for a, (k, b) in enumerate(strategies)},
        protocol=ProtocolConfig(id="p", kind=kind, max_rounds=deadline),
        deadline_rounds=deadline,
    )
    blocks = run_rounds(session)
    expected_rounds, expected_outcome = session_oracle(
        [dict(enumerate(u)) for u in utils],
        [(k.value, b) for k, b in strategies],
        kind.value,
        deadline,
    )
    assert transcript_rounds(blocks) == expected_rounds
    assert ending(session) == expected_outcome
    return session, blocks


def best_issue_eliminated(blocks: list[RoundBlock]) -> bool:
    """Whether some participant's round-1 offer was eliminated before the last round."""
    first = {o.issue_id for o in blocks[0].offers}
    return any(block.eliminated in first for block in blocks[:-1])


@st.composite
def long_sessions(draw):
    """P 2-40 participants over I 2-30 issues with deadlines up to 30 rounds.

    Utilities come mostly from the coarse grid, so ties are frequent.
    Elimination runs up to I - 1 rounds, and once the issues nobody bids on
    are gone, each elimination removes some participant's best issue while
    the session goes on.
    """
    n = draw(st.integers(2, 40))
    m = draw(st.integers(2, 30))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    utils = [
        [rng.choice(UTILITY_GRID) if rng.random() < 0.8 else rng.random() for _ in range(m)]
        for _ in range(n)
    ]
    strategies = [(rng.choice(list(StrategyKind)), rng.choice(BETAS)) for _ in range(n)]
    kind = draw(st.sampled_from(list(ProtocolKind)))
    deadline = draw(st.integers(1, 30))
    return utils, strategies, kind, deadline


def summit_utilities(participants: int, issues: int, seed: int) -> list[list[float]]:
    """Weighted sums of four criterion scores over issues near a Pareto front."""
    rng = random.Random(seed)
    scores = []
    for _ in range(issues):
        draws = [rng.random() + 0.05 for _ in range(4)]
        scores.append([2.0 * d / sum(draws) for d in draws])
    utils = []
    for _ in range(participants):
        raw = [rng.random() for _ in range(4)]
        weights = [w / sum(raw) for w in raw]
        utils.append([min(1.0, fsum(w * s for w, s in zip(weights, row))) for row in scores])
    return utils


class TestLongSessionOracle:
    """Whole sessions far longer than ``TestTranscriptOracle`` draws."""

    @given(instance=long_sessions())
    @settings(max_examples=100, deadline=None)
    def test_every_round_matches_oracle(self, instance):
        assert_matches_oracle(*instance)

    @pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda k: k.value)
    def test_summit_shaped_session_matches_oracle(self, kind):
        # Groups of ten share a strategy, as in the summit workload, and all
        # hold out (beta 0.01), so concession runs to the deadline.
        participants, issues, deadline = 60, 30, 30
        kinds = list(StrategyKind)
        strategies = [(kinds[(a // 10) % len(kinds)], 0.01) for a in range(participants)]
        utils = summit_utilities(participants, issues, seed=18)
        session, blocks = assert_matches_oracle(utils, strategies, kind, deadline)
        if kind is ProtocolKind.MONOTONIC_CONCESSION:
            assert session.round == deadline
        if kind is ProtocolKind.ELIMINATION_BIDDING:
            assert best_issue_eliminated(blocks)


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
        assert run_rounds(first) == run_rounds(second)
        assert first.status == second.status
