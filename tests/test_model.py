"""Tests for preference sampling, weight normalization, and utilities."""

from __future__ import annotations

import math
import operator
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti.errors import ConfigurationError
from mnegoti.model import (
    Agent,
    AgentGroup,
    AgentPhase,
    DistributionKind,
    DistributionSpec,
    Issue,
    PreferenceBounds,
    _sample_members,
    evaluate,
    normalize_weights,
    spawn_members,
)

from oracles import sample_one_draw_at_a_time


def make_group(rows, kind=DistributionKind.UNIFORM, member_count=1, mean=0.5, sd=0.25):
    return AgentGroup(
        id=0,
        name="g",
        bounds=PreferenceBounds(rows=tuple(tuple(r) for r in rows)),
        distribution=DistributionSpec(kind=kind, mean=mean, sd=sd),
        member_count=member_count,
    )


def one_member_prefs(group, rng):
    """One member's raw preferences, sampled as for a one-member group."""
    (raw,) = _sample_members(replace(group, member_count=1), rng)
    return raw


def make_agent(weights, agent_id=0):
    return Agent(id=agent_id, group_id=0, weights=tuple(weights))


# Finite weights and scores in [-1, 2], both zeros drawn often.
CLAMP_FLOATS = st.floats(-1.0, 2.0) | st.sampled_from([0.0, -0.0])

bounds_row = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
).map(lambda pair: (min(pair), max(pair)))
bounds_rows = st.lists(bounds_row, min_size=1, max_size=6)

# Groups drawn in turn from one generator: criteria rows (zero-width ones
# included), distribution, member count and truncated-normal sd.
group_runs = st.lists(
    st.tuples(
        st.lists(
            st.one_of(bounds_row, st.floats(0.0, 1.0, allow_nan=False).map(lambda x: (x, x))),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(list(DistributionKind)),
        st.integers(1, 50),
        st.sampled_from([0.1, 0.25, 3.0, 200.0]),
    ),
    min_size=1,
    max_size=4,
)


def bits(values):
    """Each value's exact bits, and that it is a Python float."""
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


class TestSamplePreferences:
    def test_degenerate_interval_uniform(self):
        group = make_group([(0.3, 0.3)])
        assert one_member_prefs(group, np.random.default_rng(0)) == (0.3,)

    def test_degenerate_interval_truncated_normal(self):
        group = make_group([(0.3, 0.3)], kind=DistributionKind.TRUNCATED_NORMAL)
        assert one_member_prefs(group, np.random.default_rng(0)) == (0.3,)

    def test_same_seed_reproducible_bitwise(self):
        group = make_group([(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)])
        first = one_member_prefs(group, np.random.default_rng(99))
        second = one_member_prefs(group, np.random.default_rng(99))
        assert first == second

    def test_uniform_empirical_mean_matches_monte_carlo_oracle(self):
        # Oracle: independent uniform generator over the same interval.
        oracle_rng = random.Random(20240817)
        oracle_mean = sum(oracle_rng.uniform(0.2, 0.4) for _ in range(10_000)) / 10_000
        assert 0.29 <= oracle_mean <= 0.31

        group = make_group([(0.2, 0.4)])
        rng = np.random.default_rng(5)
        samples = [one_member_prefs(group, rng)[0] for _ in range(10_000)]
        assert 0.29 <= sum(samples) / len(samples) <= 0.31

    def test_truncated_normal_stays_in_bounds(self):
        group = make_group([(0.4, 0.6)], kind=DistributionKind.TRUNCATED_NORMAL, sd=2.0)
        rng = np.random.default_rng(1)
        for _ in range(500):
            (value,) = one_member_prefs(group, rng)
            assert 0.4 <= value <= 0.6

    def test_uniform_mode_consumes_exactly_one_draw_per_criterion(self):
        rows = [(0.1, 0.4), (0.0, 1.0), (0.3, 0.3)]
        group = make_group(rows)
        used = np.random.default_rng(77)
        one_member_prefs(group, used)
        reference = np.random.default_rng(77)
        for lo, hi in rows:
            reference.uniform(lo, hi)
        assert used.bit_generator.state == reference.bit_generator.state

    def test_truncated_normal_midpoint_fallback_after_rejections(self):
        # A huge relative sd makes in-bounds draws rare enough that some
        # seeds exhaust all rejection attempts.
        group = make_group([(0.2, 0.4)], kind=DistributionKind.TRUNCATED_NORMAL, sd=200.0)
        values = {
            one_member_prefs(group, np.random.default_rng(seed))[0]
            for seed in range(40)
        }
        midpoint = 0.2 + (0.4 - 0.2) / 2.0
        assert midpoint in values  # some seed exhausted every rejection attempt
        assert all(0.2 <= v <= 0.4 for v in values)

    @given(rows=bounds_rows, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_bounds_containment_uniform(self, rows, seed):
        group = make_group(rows)
        sample = one_member_prefs(group, np.random.default_rng(seed))
        for value, (lo, hi) in zip(sample, rows):
            assert lo <= value <= hi

    @given(rows=bounds_rows, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_bounds_containment_truncated_normal(self, rows, seed):
        group = make_group(rows, kind=DistributionKind.TRUNCATED_NORMAL, sd=0.5)
        sample = one_member_prefs(group, np.random.default_rng(seed))
        for value, (lo, hi) in zip(sample, rows):
            assert lo <= value <= hi


class TestNormalizeWeights:
    def test_symmetric_pair(self):
        assert normalize_weights((0.2, 0.2)) == (0.5, 0.5)

    def test_all_zero_maps_to_uniform(self):
        assert normalize_weights((0.0, 0.0, 0.0)) == (1 / 3, 1 / 3, 1 / 3)

    def test_already_normalized(self):
        result = normalize_weights((0.1, 0.3, 0.6))
        assert result == pytest.approx((0.1, 0.3, 0.6))

    @given(raw=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_sums_to_one_and_preserves_argmax(self, raw):
        weights = normalize_weights(tuple(raw))
        assert abs(sum(weights) - 1.0) <= 1e-9
        assert all(w >= 0.0 for w in weights)
        if sum(raw) > 0:
            # The raw maximizer stays a maximizer (rounding may admit ties).
            assert weights[raw.index(max(raw))] == max(weights)


class TestSpawnMembers:
    def test_single_member_gets_starting_id(self):
        group = make_group([(0.1, 0.9)])
        agents = spawn_members(group, np.random.default_rng(0), starting_id=17)
        assert len(agents) == 1
        assert agents[0].id == 17
        assert agents[0].phase is AgentPhase.IDLE

    def test_degenerate_bounds_identical_weights(self):
        group = make_group([(0.5, 0.5), (0.5, 0.5)], member_count=5)
        agents = spawn_members(group, np.random.default_rng(0), starting_id=0)
        assert len(agents) == 5
        assert len({a.weights for a in agents}) == 1

    def test_same_seed_identical_populations(self):
        group = make_group([(0.0, 1.0), (0.2, 0.8)], member_count=4)
        first = spawn_members(group, np.random.default_rng(123), starting_id=0)
        second = spawn_members(group, np.random.default_rng(123), starting_id=0)
        assert [a.weights for a in first] == [a.weights for a in second]
        assert [a.id for a in first] == [0, 1, 2, 3]

    @given(rows=bounds_rows, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_spawned_agents_satisfy_bounds(self, rows, seed):
        group = make_group(rows, member_count=3)
        samples = _sample_members(group, np.random.default_rng(seed))
        agents = spawn_members(group, np.random.default_rng(seed), starting_id=0)
        for raw, agent in zip(samples, agents, strict=True):
            for value, (lo, hi) in zip(raw, rows):
                assert lo <= value <= hi
            assert agent.weights == normalize_weights(raw)
            assert abs(sum(agent.weights) - 1.0) <= 1e-9

    @given(runs=group_runs, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_one_draw_at_a_time(self, runs, seed):
        rng = np.random.default_rng(seed)
        sample_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        next_id = 0
        for group_id, (rows, kind, member_count, sd) in enumerate(runs):
            group = AgentGroup(
                id=group_id,
                name=f"g{group_id}",
                bounds=PreferenceBounds(rows=tuple(rows)),
                distribution=DistributionSpec(kind=kind, sd=sd),
                member_count=member_count,
            )
            agents = spawn_members(group, rng, next_id)
            samples = _sample_members(group, sample_rng)
            assert [a.id for a in agents] == list(range(next_id, next_id + member_count))
            next_id += member_count
            for agent, sample in zip(agents, samples, strict=True):
                raw = sample_one_draw_at_a_time(group, oracle_rng)
                assert agent.group_id == group_id
                assert bits(sample) == bits(raw)
                assert bits(agent.weights) == bits(normalize_weights(raw))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert sample_rng.bit_generator.state == oracle_rng.bit_generator.state
        single = one_member_prefs(group, rng)
        assert bits(single) == bits(sample_one_draw_at_a_time(group, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestEvaluate:
    def test_single_criterion_projection(self):
        agent = make_agent((1.0, 0.0))
        issue = Issue(id=0, name="x", scores=(0.7, 0.3))
        assert evaluate(agent, issue) == pytest.approx(0.7)

    def test_two_criteria(self):
        agent = make_agent((0.5, 0.5))
        issue = Issue(id=0, name="x", scores=(0.4, 0.8))
        assert evaluate(agent, issue) == pytest.approx(0.6)

    def test_three_criteria(self):
        agent = make_agent((0.2, 0.3, 0.5))
        issue = Issue(id=0, name="x", scores=(1.0, 0.0, 0.6))
        assert evaluate(agent, issue) == pytest.approx(0.5)

    def test_dimension_mismatch_is_configuration_error(self):
        agent = make_agent((0.5, 0.5))
        issue = Issue(id=0, name="x", scores=(0.4, 0.8, 0.1))
        with pytest.raises(ConfigurationError):
            evaluate(agent, issue)

    @given(
        weights=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
        scores=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=6, max_size=6),
    )
    @settings(max_examples=200)
    def test_result_in_unit_interval(self, weights, scores):
        k = len(weights)
        agent = make_agent(normalize_weights(tuple(weights)))
        issue = Issue(id=0, name="x", scores=tuple(scores[:k]))
        assert 0.0 <= evaluate(agent, issue) <= 1.0

    @given(
        scores=st.lists(st.floats(0.0, 0.9, allow_nan=False), min_size=2, max_size=5),
        bump=st.floats(0.01, 0.1),
        index=st.integers(0, 4),
    )
    @settings(max_examples=200)
    def test_monotone_in_positively_weighted_score(self, scores, bump, index):
        k = len(scores)
        index = index % k
        weights = normalize_weights(tuple(1.0 for _ in range(k)))
        agent = make_agent(weights)
        low = Issue(id=0, name="lo", scores=tuple(scores))
        raised = list(scores)
        raised[index] = min(1.0, raised[index] + bump)
        high = Issue(id=1, name="hi", scores=tuple(raised))
        assert evaluate(agent, high) > evaluate(agent, low)

    @staticmethod
    def assert_clamp_of_fsum(weights, scores):
        """``evaluate`` is the weighted sum clamped to [0, 1], bit for bit, sign of zero too.

        The issue is a stand-in, since ``Issue`` refuses scores outside [0, 1].
        """
        got = evaluate(make_agent(weights), SimpleNamespace(id=0, scores=tuple(scores)))
        want = min(1.0, max(0.0, math.fsum(map(operator.mul, weights, scores))))
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    @given(pairs=st.lists(st.tuples(CLAMP_FLOATS, CLAMP_FLOATS), min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_clamp_equals_min_max_of_fsum(self, pairs):
        weights, scores = zip(*pairs)
        self.assert_clamp_of_fsum(weights, scores)

    @pytest.mark.parametrize(
        ("weights", "scores"),
        [
            ((0.5, 0.5), (1.0, 1.0)),
            ((1.0,), (math.nextafter(1.0, 2.0),)),
            ((-0.0, 1.0), (1.0, 0.0)),
            ((-0.0,), (0.5,)),
        ],
        ids=["sum_exactly_one", "one_ulp_above_one", "negative_zero_weight", "negative_zero_sum"],
    )
    def test_clamp_edges(self, weights, scores):
        self.assert_clamp_of_fsum(weights, scores)


class TestValidation:
    def test_bounds_lower_above_upper_rejected(self):
        with pytest.raises(ConfigurationError):
            PreferenceBounds(rows=((0.6, 0.4),))

    def test_bounds_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PreferenceBounds(rows=((-0.1, 0.5),))

    def test_truncated_normal_needs_positive_sd(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec(kind=DistributionKind.TRUNCATED_NORMAL, sd=0.0)

    def test_truncated_normal_mean_is_interval_fraction(self):
        with pytest.raises(ConfigurationError):
            DistributionSpec(kind=DistributionKind.TRUNCATED_NORMAL, mean=1.5)

    def test_member_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            make_group([(0.0, 1.0)], member_count=0)

    def test_issue_scores_must_be_normalized(self):
        with pytest.raises(ConfigurationError):
            Issue(id=0, name="x", scores=(0.5, 1.2))
