"""Criteria, issues, agent groups and agents.

Agent groups act as factories: each group carries per-criterion preference
bounds and a sampling distribution, samples one raw preference vector per
member inside the bounds, and spawns agents whose criterion weights are
those vectors normalized. An agent's utility for an issue is the weighted
sum of the issue's normalized criterion scores.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError

# Rejection-sampling attempts before falling back to the interval midpoint.
TRUNCNORM_MAX_REJECTIONS = 64


class Direction(str, Enum):
    """Whether a larger criterion score is better (benefit) or worse (cost)."""

    BENEFIT = "benefit"
    COST = "cost"


class DistributionKind(str, Enum):
    UNIFORM = "uniform"
    TRUNCATED_NORMAL = "truncated_normal"


class AgentPhase(str, Enum):
    IDLE = "idle"
    WATCHING = "watching"
    IN_ROOM = "in_room"
    NEGOTIATING = "negotiating"


@dataclass(frozen=True)
class Criterion:
    """One evaluation dimension; ids are contiguous 0..K-1 within a scenario."""

    id: int
    name: str
    direction: Direction = Direction.BENEFIT


@dataclass(frozen=True)
class Issue:
    """A discrete negotiation alternative scored on every criterion.

    Scores are stored direction-normalized: cost criteria are flipped
    (1 - raw) at scenario load, so a larger score is always better.
    """

    id: int
    name: str
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        for k, s in enumerate(self.scores):
            if not 0.0 <= s <= 1.0:
                raise ConfigurationError(
                    f"issue {self.id!r} score[{k}]={s} outside [0, 1]"
                )


@dataclass(frozen=True)
class PreferenceBounds:
    """Per-criterion (lower, upper) preference bounds, all within [0, 1]."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for k, (lo, hi) in enumerate(self.rows):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ConfigurationError(
                    f"bounds row {k}: need 0 <= lower <= upper <= 1, got ({lo}, {hi})"
                )


@dataclass(frozen=True)
class DistributionSpec:
    """Sampling distribution applied independently per criterion within its bounds row.

    For the truncated normal, ``mean`` and ``sd`` are fractions of the
    bounds interval: the absolute mean is lower + mean * (upper - lower)
    and the absolute standard deviation is sd * (upper - lower).
    """

    kind: DistributionKind = DistributionKind.UNIFORM
    mean: float = 0.5
    sd: float = 0.25

    def __post_init__(self) -> None:
        if self.kind is DistributionKind.TRUNCATED_NORMAL:
            if self.sd <= 0.0:
                raise ConfigurationError(f"truncated normal sd must be > 0, got {self.sd}")
            if not 0.0 <= self.mean <= 1.0:
                raise ConfigurationError(
                    f"truncated normal mean must be in [0, 1], got {self.mean}"
                )


class StrategyKind(str, Enum):
    """Proposal strategy an agent uses inside a negotiation session."""

    TIME_DEPENDENT = "time_dependent"
    TRADE_OFF = "trade_off"
    TOP_BID = "top_bid"


@dataclass(frozen=True)
class StrategyConfig:
    """Static per-group strategy, loaded from the scenario file.

    ``beta`` shapes the time-dependent concession curve; it is also used
    by threshold-based protocols for agents whose proposal strategy is
    not time-dependent (default 1.0, linear concession).
    """

    kind: StrategyKind = StrategyKind.TIME_DEPENDENT
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0.0:
            raise ConfigurationError(f"strategy beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class AgentGroup:
    """Template for a population of agents sharing bounds, distribution and strategy."""

    id: int
    name: str
    bounds: PreferenceBounds
    distribution: DistributionSpec = field(default_factory=DistributionSpec)
    member_count: int = 1
    strategy: StrategyConfig = field(default_factory=StrategyConfig)

    def __post_init__(self) -> None:
        if self.member_count < 1:
            raise ConfigurationError(
                f"group {self.name!r}: member_count must be >= 1, got {self.member_count}"
            )


@dataclass(slots=True)
class Agent:
    """One negotiating agent; belongs to exactly one group.

    ``weights`` is the group's bounds-checked sample, normalized
    (non-negative, summing to 1). ``phase`` is the mutable state the
    watcher machinery observes; the room an agent sits in holds it among
    its ``attendees``. ``utilities`` is the agent's utility table, issue
    id -> ``evaluate`` value, filled on first read by
    ``protocols.utility``; issue ids must name the same issues for the
    agent's lifetime.
    """

    id: int
    group_id: int
    weights: tuple[float, ...]
    phase: AgentPhase = AgentPhase.IDLE
    utilities: dict[int, float] = field(default_factory=dict, repr=False, compare=False)


def _sample_members(group: AgentGroup, rng: np.random.Generator) -> list[tuple[float, ...]]:
    """The group's raw preference vectors, drawn member after member.

    A uniform group draws its whole members x K block of doubles in one
    ``rng.random`` call, row by row, and scales it as lo + (hi - lo) * double.
    That walks the stream and rounds exactly as one ``rng.uniform(lo, hi)``
    per criterion would, which NumPy computes the same way, and costs less
    than ``rng.uniform`` with array bounds even for a block of a few values.
    """
    rows = group.bounds.rows
    if group.distribution.kind is DistributionKind.UNIFORM:
        lows = np.array([lo for lo, _ in rows], dtype=np.float64)
        ranges = np.array([hi for _, hi in rows], dtype=np.float64) - lows
        block = lows + ranges * rng.random((group.member_count, len(rows)))
        return [tuple(row) for row in block.tolist()]
    return [_truncated_normal(group, rng) for _ in range(group.member_count)]


def _truncated_normal(group: AgentGroup, rng: np.random.Generator) -> tuple[float, ...]:
    """One member's truncated-normal sample; the draws per value vary.

    Each value is rejection-sampled inside its bounds row and falls back to
    the row's midpoint after TRUNCNORM_MAX_REJECTIONS failed draws.
    """
    out = []
    for lo, hi in group.bounds.rows:
        width = hi - lo
        loc = lo + group.distribution.mean * width
        scale = group.distribution.sd * width
        value = None
        for _ in range(TRUNCNORM_MAX_REJECTIONS):
            draw = float(rng.normal(loc, scale))
            if lo <= draw <= hi:
                value = draw
                break
        if value is None:
            value = lo + width / 2.0
        out.append(value)
    return tuple(out)


def normalize_weights(raw_prefs: tuple[float, ...]) -> tuple[float, ...]:
    """Scale a non-negative preference vector to sum to 1.

    An all-zero vector maps to uniform weights 1/K (degenerate but legal).
    """
    total = math.fsum(raw_prefs)
    if total <= 0.0:
        k = len(raw_prefs)
        return tuple(1.0 / k for _ in raw_prefs)
    return tuple(p / total for p in raw_prefs)


def spawn_members(
    group: AgentGroup, rng: np.random.Generator, starting_id: int
) -> list[Agent]:
    """Create the group's members with consecutive ids, sampled in id order.

    A uniform group draws its members x criteria block in one generator
    call, the same stream as one draw per criterion per member.
    """
    return [
        Agent(id=starting_id + offset, group_id=group.id, weights=normalize_weights(raw))
        for offset, raw in enumerate(_sample_members(group, rng))
    ]


def evaluate(agent: Agent, issue: Issue) -> float:
    """Weighted additive utility of an issue for an agent, in [0, 1]."""
    if len(agent.weights) != len(issue.scores):
        raise ConfigurationError(
            f"agent {agent.id} has {len(agent.weights)} weights but issue "
            f"{issue.id} has {len(issue.scores)} scores"
        )
    u = math.fsum(map(operator.mul, agent.weights, issue.scores))
    # Guard against float drift just past the unit interval: for every float,
    # min(1.0, max(0.0, u)) without the two calls (-0.0 and NaN give +0.0).
    return u if 0.0 < u < 1.0 else (1.0 if u >= 1.0 else 0.0)
