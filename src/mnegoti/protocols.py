"""Multilateral negotiation protocols, strategies, and outcomes.

Sessions operate on a per-participant utility table over the agenda issues,
so the protocol machinery is independent of how utilities were produced.
A session fixes each participant's best and worst agenda utility when it
is built and counts the previous round's offers once per round, so a
round costs O(participants x issues).
All tie-breaks resolve to the lowest issue id (or ascending agent id), which
makes every transcript a pure function of the session inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import NotTerminatedError, ProtocolError
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


@dataclass(frozen=True)
class Offer:
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


@dataclass(frozen=True)
class NegotiationOutcome:
    status: SessionStatus
    reason: FailureReason | None
    agreed_issue: int | None
    rounds_used: int
    participants: tuple[int, ...]
    utilities: tuple[float, ...]  # aligned with participants; 0 on disagreement
    ticks_spanned: int = 1


@dataclass
class NegotiationSession:
    """Protocol state machine over a fixed participant list and agenda."""

    room_id: int
    issue_ids: tuple[int, ...]
    participants: tuple[int, ...]
    utilities: dict[int, dict[int, float]]  # participant -> issue -> utility
    strategies: dict[int, StrategyConfig]
    protocol: ProtocolConfig
    deadline_rounds: int
    round: int = 0
    status: SessionStatus = SessionStatus.ACTIVE
    failure_reason: FailureReason | None = None
    agreed_issue: int | None = None
    transcript: list[RoundBlock] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)
    started_tick: int = 0
    ended_tick: int = 0
    # participant -> (best, worst) utility over the agenda
    extremes: dict[int, tuple[float, float]] = field(init=False, repr=False, compare=False)
    # (round, issue -> count, proposer -> issue) of that round's participant offers
    _last_offers: tuple[int, Counter, dict[int, int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def last_round_offers(self) -> tuple[Counter, dict[int, int]]:
        """The last round's participant offers: count per issue, and each proposer's issue.

        Built once per round and shared by every trade-off proposal of the next.
        """
        if self._last_offers is None or self._last_offers[0] != self.round:
            offers = [o for o in self.transcript[-1].offers if o.proposer is not None]
            counts = Counter(o.issue_id for o in offers)
            self._last_offers = (self.round, counts, {o.proposer: o.issue_id for o in offers})
        return self._last_offers[1], self._last_offers[2]

    def force_fail(self, reason: FailureReason) -> None:
        if self.status is not SessionStatus.ACTIVE:
            return
        self.status = SessionStatus.FAILED
        self.failure_reason = reason


def concession_threshold(
    utilities: Sequence[float], t: int, max_rounds: int, beta: float
) -> float:
    """Minimum acceptable utility at round t of max_rounds.

    This is the polynomial time-dependent tactic of Faratin, Sierra &
    Jennings (1998), "Negotiation decision functions for autonomous
    agents": the threshold starts at the best agenda utility and concedes
    toward the worst by ((t - 1) / (max_rounds - 1)) ** (1 / beta),
    reaching it exactly at the deadline; beta > 1 concedes early (a
    conceder), beta < 1 holds out (boulware). Endpoints are exact by
    construction.
    """
    return _conceded(max(utilities), min(utilities), t, max_rounds, beta)


def _conceded(u_max: float, u_min: float, t: int, max_rounds: int, beta: float) -> float:
    """``concession_threshold`` from the best and worst agenda utility."""
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


def acceptable_set(utilities: Mapping[int, float], threshold: float) -> list[int]:
    """Issue ids whose utility clears the threshold, ascending."""
    return sorted(i for i, u in utilities.items() if u >= threshold)


def _argmax_issue(utilities: Mapping[int, float], pool: Sequence[int]) -> int:
    """Highest-utility issue in the pool, lowest id on ties."""
    return min(pool, key=lambda i: (-utilities[i], i))


def _welfare_argmax(session: NegotiationSession, pool: Sequence[int]) -> int:
    def welfare(i: int) -> float:
        return sum(session.utilities[p][i] for p in session.participants)

    return min(pool, key=lambda i: (-welfare(i), i))


def propose(session: NegotiationSession, participant: int) -> Offer:
    """The participant's next offer under its configured strategy."""
    t = session.round + 1
    strategy = session.strategies[participant]
    utils = session.utilities[participant]
    pool = session.candidates

    if strategy.kind is StrategyKind.TOP_BID:
        choice = _argmax_issue(utils, pool)
        return Offer(proposer=participant, issue_id=choice)

    theta = session.threshold(participant, min(t, session.deadline_rounds))
    acceptable = [i for i in pool if utils[i] >= theta]
    candidates = acceptable if acceptable else list(pool)

    if strategy.kind is StrategyKind.TIME_DEPENDENT or t == 1 or not session.transcript:
        choice = _argmax_issue(utils, candidates)
        return Offer(proposer=participant, issue_id=choice)

    # Trade-off: follow what the others proposed most often last round,
    # that is every participant's offers but this participant's own.
    counts, offered = session.last_round_offers()
    own = offered.get(participant)
    choice = min(candidates, key=lambda i: (-(counts[i] - (i == own)), -utils[i], i))
    return Offer(proposer=participant, issue_id=choice)


def run_round(session: NegotiationSession) -> RoundBlock:
    """Advance the session by exactly one protocol round."""
    if session.status is not SessionStatus.ACTIVE:
        raise ProtocolError("session is not active")
    t = session.round + 1
    bounded = session.protocol.kind is not ProtocolKind.ELIMINATION_BIDDING
    if bounded and t > session.deadline_rounds:
        raise ProtocolError(f"round {t} exceeds deadline {session.deadline_rounds}")

    if session.protocol.kind is ProtocolKind.MEDIATED_SINGLE_TEXT:
        block = _mediated_round(session, t)
    elif session.protocol.kind is ProtocolKind.MONOTONIC_CONCESSION:
        block = _concession_round(session, t)
    else:
        block = _elimination_round(session, t)

    session.round = t
    session.transcript.append(block)
    return block


def _mediated_round(session: NegotiationSession, t: int) -> RoundBlock:
    block = RoundBlock(round=t)
    candidate = _welfare_argmax(session, session.candidates)
    block.offers.append(Offer(proposer=None, issue_id=candidate))
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
    session.candidates.remove(candidate)
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
    common: set[int] | None = None
    for p in session.participants:
        theta = session.threshold(p, t)
        accepted = acceptable_set(session.utilities[p], theta)
        block.published.append((p, tuple(accepted)))
        common = set(accepted) if common is None else common & set(accepted)
    if common:
        agreed = _welfare_argmax(session, sorted(common))
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
    session.candidates.remove(loser)
    block.eliminated = loser
    if len(session.candidates) == 1:
        remaining = session.candidates[0]
        session.status = SessionStatus.AGREED
        session.agreed_issue = remaining
        block.agreed = remaining
    return block


def session_outcome(session: NegotiationSession) -> NegotiationOutcome:
    """Assemble the outcome of a terminated session; disagreement pays 0."""
    if session.status is SessionStatus.ACTIVE:
        raise NotTerminatedError(f"room {session.room_id}: session still active")
    if session.status is SessionStatus.AGREED:
        utilities = tuple(
            session.utility(p, session.agreed_issue) for p in session.participants
        )
    else:
        utilities = tuple(0.0 for _ in session.participants)
    spanned = max(1, session.ended_tick - session.started_tick + 1)
    return NegotiationOutcome(
        status=session.status,
        reason=session.failure_reason,
        agreed_issue=session.agreed_issue,
        rounds_used=session.round,
        participants=session.participants,
        utilities=utilities,
        ticks_spanned=spanned,
    )


def failed_outcome(participants: Sequence[int], reason: FailureReason) -> NegotiationOutcome:
    """The outcome of an opening that ends before any session round: all zeros."""
    ordered = tuple(sorted(participants))
    return NegotiationOutcome(
        status=SessionStatus.FAILED,
        reason=reason,
        agreed_issue=None,
        rounds_used=0,
        participants=ordered,
        utilities=tuple(0.0 for _ in ordered),
    )


def utility(agent: Agent, issue: Issue) -> float:
    """The agent's utility for ``issue``; ``evaluate`` fills the table on first read."""
    table = agent.utilities
    u = table.get(issue.id)
    if u is None:
        u = table[issue.id] = evaluate(agent, issue)
    return u


def build_session(
    room_id: int,
    agents: Sequence[Agent],
    issues: Sequence[Issue],
    protocol: ProtocolConfig,
    strategies: Mapping[int, StrategyConfig] | None = None,
    deadline_rounds: int | None = None,
    started_tick: int = 0,
) -> NegotiationSession:
    """Create a session from live agents, fixing participants in ascending id order."""
    ordered = sorted(agents, key=lambda a: a.id)
    issue_ids = tuple(sorted(i.id for i in issues))
    by_id = {i.id: i for i in issues}
    utilities = {
        a.id: {iid: utility(a, by_id[iid]) for iid in issue_ids} for a in ordered
    }
    strategies = strategies or {}
    return NegotiationSession(
        room_id=room_id,
        issue_ids=issue_ids,
        participants=tuple(a.id for a in ordered),
        utilities=utilities,
        strategies={a.id: strategies.get(a.id, StrategyConfig()) for a in ordered},
        protocol=protocol,
        deadline_rounds=deadline_rounds if deadline_rounds is not None else protocol.max_rounds,
        started_tick=started_tick,
        ended_tick=started_tick,
    )
