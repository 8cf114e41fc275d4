"""Multilateral negotiation protocols and strategies.

A session reads each participant's own utility table in place, always
through the agenda's issue ids, so a table may hold other issues too and
the protocol machinery is independent of how utilities were produced.
It keeps only the last round's block, the one that ``trade_off`` reads.
Participants and agenda are fixed for a session's life, so it computes what
they determine once: each participant's best and worst agenda utility when
it is built, each issue's welfare when a round first needs it, and each
participant's ranking of the agenda in its first concession round. It keeps
each participant's best issue in the pool until that issue leaves the pool,
and counts the previous round's offers once per round. A round then costs
a few lookups per participant, a bisection of the ranking per published
set, and a scan of the issues offered last round per ``trade_off``
proposal; only a best issue that left the pool is found again by a scan of
the pool.
All tie-breaks resolve to the lowest issue id (or ascending agent id), which
makes every round a pure function of the session inputs. A session ends
agreed or failed in its own fields, which the engine's ``session_end`` reads.
``run_round`` and ``propose``, run per round and participant, compare
against enum members bound to module names, as ``engine`` explains.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import inf
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ProtocolError
from .model import Agent, Issue, StrategyConfig, StrategyKind, evaluate


class ProtocolKind(str, Enum):
    MEDIATED_SINGLE_TEXT = "mediated_single_text"
    MONOTONIC_CONCESSION = "monotonic_concession"
    ELIMINATION_BIDDING = "elimination_bidding"


class SessionStatus(str, Enum):
    ACTIVE = "active"
    AGREED = "agreed"
    FAILED = "failed"


class FailureReason(str, Enum):
    NO_AGREEMENT = "no_agreement"
    NO_QUORUM = "no_quorum"
    FORCED_CLOSE = "forced_close"


_ACTIVE = SessionStatus.ACTIVE
_MEDIATED_SINGLE_TEXT = ProtocolKind.MEDIATED_SINGLE_TEXT
_MONOTONIC_CONCESSION = ProtocolKind.MONOTONIC_CONCESSION
_ELIMINATION_BIDDING = ProtocolKind.ELIMINATION_BIDDING
_TRADE_OFF = StrategyKind.TRADE_OFF


@dataclass(frozen=True)
class ProtocolConfig:
    id: str
    kind: ProtocolKind
    max_rounds: int = 10
    rounds_per_tick: int = 1

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ProtocolError(f"protocol {self.id!r}: max_rounds must be >= 1")
        if self.rounds_per_tick < 1:
            raise ProtocolError(f"protocol {self.id!r}: rounds_per_tick must be >= 1")


class Offer(NamedTuple):
    """One proposal; proposer None means the mediator."""

    proposer: int | None
    issue_id: int


@dataclass
class RoundBlock:
    """Everything that happened in one protocol round."""

    round: int
    offers: list[Offer] = field(default_factory=list)
    votes: list[tuple[int, bool]] = field(default_factory=list)
    published: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    rejected: int | None = None
    eliminated: int | None = None
    agreed: int | None = None


@dataclass
class NegotiationSession:
    """Protocol state machine over a fixed participant list and agenda."""

    issue_ids: tuple[int, ...]
    participants: tuple[int, ...]
    utilities: dict[int, dict[int, float]]  # participant -> its agent's utility table
    strategies: dict[int, StrategyConfig]
    protocol: ProtocolConfig
    deadline_rounds: int
    round: int = 0
    status: SessionStatus = SessionStatus.ACTIVE
    failure_reason: FailureReason | None = None
    agreed_issue: int | None = None
    last_block: RoundBlock | None = None
    candidates: list[int] = field(default_factory=list)  # shrinks only by drop_candidate
    started_tick: int = 0
    # participant -> (best, worst) utility over the agenda
    extremes: dict[int, tuple[float, float]] = field(init=False, repr=False, compare=False)
    # (issue -> count, proposer -> issue) of the last round's participant offers
    _last_offers: tuple[Counter, dict[int, int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # participant -> offer of its best issue in the pool, until that issue leaves
    _best: dict[int, Offer] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.candidates:
            self.candidates = list(self.issue_ids)
        self.extremes = {}
        for p in self.participants:
            utils = [self.utilities[p][i] for i in self.issue_ids]
            self.extremes[p] = (max(utils), min(utils))

    def utility(self, participant: int, issue_id: int) -> float:
        return self.utilities[participant][issue_id]

    def threshold(self, participant: int, t: int) -> float:
        u_max, u_min = self.extremes[participant]
        beta = self.strategies[participant].beta
        return _conceded(u_max, u_min, t, self.deadline_rounds, beta)

    @cached_property
    def welfare(self) -> dict[int, float]:
        """Each agenda issue's summed utility, added in participant order."""
        return {
            i: sum(self.utilities[p][i] for p in self.participants) for i in self.issue_ids
        }

    @cached_property
    def rankings(self) -> dict[int, _Ranking]:
        """Each participant's ranking of the agenda, for its published sets."""
        return {p: _Ranking(self.utilities[p], self.issue_ids) for p in self.participants}

    def best_offer(self, participant: int) -> Offer:
        """The participant's offer of its best issue in the pool, lowest id on ties.

        The pool only shrinks, so the best issue stays best while it is in the pool.
        """
        offer = self._best.get(participant)
        if offer is None:
            utils = self.utilities[participant]
            issue = min(self.candidates, key=lambda i: (-utils[i], i))
            offer = self._best[participant] = Offer(participant, issue)
        return offer

    def drop_candidate(self, issue_id: int) -> None:
        """Take the issue out of the pool and forget the best offers that named it."""
        self.candidates.remove(issue_id)
        for p in [p for p, o in self._best.items() if o.issue_id == issue_id]:
            del self._best[p]

    def last_round_offers(self) -> tuple[Counter, dict[int, int]]:
        """The last round's participant offers: count per pool issue, and each proposer's issue.

        Built once per round and shared by every trade-off proposal of the next.
        """
        if self._last_offers is None:
            offers = [o for o in self.last_block.offers if o.proposer is not None]
            pool = set(self.candidates)
            counts = Counter(o.issue_id for o in offers if o.issue_id in pool)
            self._last_offers = (counts, {o.proposer: o.issue_id for o in offers})
        return self._last_offers

    def force_fail(self, reason: FailureReason) -> None:
        if self.status is not SessionStatus.ACTIVE:
            return
        self.status = SessionStatus.FAILED
        self.failure_reason = reason


def _conceded(u_max: float, u_min: float, t: int, max_rounds: int, beta: float) -> float:
    """Minimum acceptable utility at round t of max_rounds.

    This is the polynomial time-dependent tactic of Faratin, Sierra &
    Jennings (1998), "Negotiation decision functions for autonomous
    agents": the threshold starts at the best agenda utility ``u_max`` and
    concedes toward the worst, ``u_min``, by
    ((t - 1) / (max_rounds - 1)) ** (1 / beta), reaching it exactly at the
    deadline; beta > 1 concedes early (a conceder), beta < 1 holds out
    (boulware). Endpoints are exact by construction.
    """
    if beta <= 0.0:
        raise ProtocolError(f"beta must be > 0, got {beta}")
    if t < 1 or t > max_rounds:
        raise ProtocolError(f"round {t} outside 1..{max_rounds}")
    if max_rounds == 1 or t == max_rounds:
        return u_min
    if t == 1:
        return u_max
    frac = ((t - 1) / (max_rounds - 1)) ** (1.0 / beta)
    return u_max - (u_max - u_min) * frac


class _Ranking:
    """One participant's agenda issues by descending utility, lowest id on ties.

    The issues whose utility clears a threshold are a prefix of the ranking,
    found by bisection; its ascending tuple and set are rebuilt only when
    the prefix length changes.
    """

    __slots__ = ("issues", "keys", "k", "published", "members")

    def __init__(self, utilities: Mapping[int, float], issue_ids: Sequence[int]) -> None:
        self.issues = sorted(issue_ids, key=lambda i: (-utilities[i], i))
        self.keys = [-utilities[i] for i in self.issues]
        self.k = -1

    def acceptable(self, threshold: float) -> tuple[tuple[int, ...], frozenset[int]]:
        """Issue ids whose utility clears the threshold, ascending, and as a set."""
        k = bisect_right(self.keys, -threshold)
        if k != self.k:
            self.k = k
            self.published = tuple(sorted(self.issues[:k]))
            self.members = frozenset(self.published)
        return self.published, self.members


def _welfare_argmax(session: NegotiationSession, pool: Iterable[int]) -> int:
    welfare = session.welfare
    return min(pool, key=lambda i: (-welfare[i], i))


def propose(session: NegotiationSession, participant: int) -> Offer:
    """The participant's next offer under its configured strategy."""
    t = session.round + 1
    strategy = session.strategies[participant]
    best = session.best_offer(participant)

    # Top-bid, time-dependent and round-1 trade-off offers are the pool's best
    # issue. A threshold would not change them: the best issue clears it
    # whenever any issue does.
    if strategy.kind is not _TRADE_OFF or session.last_block is None:
        return best

    # Trade-off: among the acceptable pool issues, or the whole pool if none
    # is acceptable, follow what the others proposed most often last round,
    # that is every participant's offers but this participant's own; then
    # the higher own utility, then the lower id. The best issue is
    # acceptable whenever any issue is, and it wins among the issues that no
    # other participant offered, so only it and the offered issues compete.
    utils = session.utilities[participant]
    theta = session.threshold(participant, min(t, session.deadline_rounds))
    floor = theta if utils[best.issue_id] >= theta else -inf
    counts, offered = session.last_round_offers()
    own = offered.get(participant)
    keys = [((i == own) - n, -utils[i], i) for i, n in counts.items() if utils[i] >= floor]
    keys.append((0, -utils[best.issue_id], best.issue_id))
    choice = min(keys)[2]
    return best if choice == best.issue_id else Offer(participant, choice)


def run_round(session: NegotiationSession) -> RoundBlock:
    """Advance the session by exactly one protocol round."""
    if session.status is not _ACTIVE:
        raise ProtocolError("session is not active")
    t = session.round + 1
    kind = session.protocol.kind
    if kind is not _ELIMINATION_BIDDING and t > session.deadline_rounds:
        raise ProtocolError(f"round {t} exceeds deadline {session.deadline_rounds}")

    if kind is _MEDIATED_SINGLE_TEXT:
        block = _mediated_round(session, t)
    elif kind is _MONOTONIC_CONCESSION:
        block = _concession_round(session, t)
    else:
        block = _elimination_round(session, t)

    session.round = t
    session.last_block = block
    session._last_offers = None
    return block


def _mediated_round(session: NegotiationSession, t: int) -> RoundBlock:
    block = RoundBlock(round=t)
    candidate = _welfare_argmax(session, session.candidates)
    block.offers.append(Offer(None, candidate))
    unanimous = True
    for p in session.participants:
        accept = session.utility(p, candidate) >= session.threshold(p, t)
        block.votes.append((p, accept))
        unanimous = unanimous and accept
    if unanimous:
        session.status = SessionStatus.AGREED
        session.agreed_issue = candidate
        block.agreed = candidate
        return block
    session.drop_candidate(candidate)
    block.rejected = candidate
    if not session.candidates or t >= session.deadline_rounds:
        session.status = SessionStatus.FAILED
        session.failure_reason = FailureReason.NO_AGREEMENT
    return block


def _concession_round(session: NegotiationSession, t: int) -> RoundBlock:
    """Agrees by the deadline, where every threshold is the worst agenda utility."""
    block = RoundBlock(round=t)
    for p in session.participants:
        block.offers.append(propose(session, p))
    rankings = session.rankings
    common: frozenset[int] | None = None
    for p in session.participants:
        accepted, members = rankings[p].acceptable(session.threshold(p, t))
        block.published.append((p, accepted))
        common = members if common is None else common & members
    if common:
        agreed = _welfare_argmax(session, common)
        session.status = SessionStatus.AGREED
        session.agreed_issue = agreed
        block.agreed = agreed
    return block


def _elimination_round(session: NegotiationSession, t: int) -> RoundBlock:
    block = RoundBlock(round=t)
    for p in session.participants:
        block.offers.append(propose(session, p))
    bids = [o.issue_id for o in block.offers]
    if len(set(bids)) == 1:
        session.status = SessionStatus.AGREED
        session.agreed_issue = bids[0]
        block.agreed = bids[0]
        return block
    counts = Counter(bids)
    loser = min(session.candidates, key=lambda i: (counts[i], i))
    session.drop_candidate(loser)
    block.eliminated = loser
    if len(session.candidates) == 1:
        remaining = session.candidates[0]
        session.status = SessionStatus.AGREED
        session.agreed_issue = remaining
        block.agreed = remaining
    return block


def utility(agent: Agent, issue: Issue) -> float:
    """The agent's utility for ``issue``; ``evaluate`` fills the table on first read."""
    table = agent.utilities
    u = table.get(issue.id)
    if u is None:
        u = table[issue.id] = evaluate(agent, issue)
    return u
