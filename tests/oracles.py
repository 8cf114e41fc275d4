"""Independent brute-force simulators used to verify the protocol engine.

These re-derive every round from scratch with plain loops and no shared
state with the implementation; only the threshold formula is (necessarily)
the same expression, written out separately so float results match bit
for bit.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from mnegoti.errors import CascadeOverflowError
from mnegoti.model import TRUNCNORM_MAX_REJECTIONS, AgentPhase, DistributionKind
from mnegoti.context import _state_name
from mnegoti.rooms import RoomState
from mnegoti.scheduler import FiredReaction, ScheduledAction


def counting(oracle):
    """``oracle`` counting its calls in ``calls``, so a test can check that its patch ran."""

    @functools.wraps(oracle)
    def counted(*args, **kwargs):
        counted.calls += 1
        return oracle(*args, **kwargs)

    counted.calls = 0
    return counted


def oracle_threshold(utilities: list[float], t: int, max_rounds: int, beta: float) -> float:
    best = max(utilities)
    worst = min(utilities)
    if max_rounds == 1 or t == max_rounds:
        return worst
    if t == 1:
        return best
    return best - (best - worst) * ((t - 1) / (max_rounds - 1)) ** (1.0 / beta)


def mediated_oracle(
    utils: list[dict[int, float]], max_rounds: int, betas: list[float]
) -> tuple[str, int | None, int]:
    """Exhaustive single-text mediation: (status, issue, rounds_used)."""
    issue_ids = sorted(utils[0])
    rejected: list[int] = []
    for t in range(1, max_rounds + 1):
        pool = [i for i in issue_ids if i not in rejected]
        candidate = None
        candidate_welfare = None
        for i in pool:
            welfare = sum(u[i] for u in utils)
            if candidate is None or welfare > candidate_welfare:
                candidate = i
                candidate_welfare = welfare
        everyone = True
        for a, agent_utils in enumerate(utils):
            agenda_values = [agent_utils[i] for i in issue_ids]
            theta = oracle_threshold(agenda_values, t, max_rounds, betas[a])
            if agent_utils[candidate] < theta:
                everyone = False
        if everyone:
            return ("agreed", candidate, t)
        rejected.append(candidate)
        if len(rejected) == len(issue_ids):
            return ("failed", None, t)
        if t == max_rounds:
            return ("failed", None, t)
    raise AssertionError("unreachable")


def concession_oracle(
    utils: list[dict[int, float]], max_rounds: int, betas: list[float]
) -> tuple[str, int | None, int]:
    """Monotonic concession by full re-enumeration each round."""
    issue_ids = sorted(utils[0])
    for t in range(1, max_rounds + 1):
        common = set(issue_ids)
        for a, agent_utils in enumerate(utils):
            agenda_values = [agent_utils[i] for i in issue_ids]
            theta = oracle_threshold(agenda_values, t, max_rounds, betas[a])
            acceptable = {i for i in issue_ids if agent_utils[i] >= theta}
            common &= acceptable
        if common:
            choice = None
            choice_welfare = None
            for i in sorted(common):
                welfare = sum(u[i] for u in utils)
                if choice is None or welfare > choice_welfare:
                    choice = i
                    choice_welfare = welfare
            return ("agreed", choice, t)
    return ("failed", None, max_rounds)


def elimination_oracle(utils: list[dict[int, float]]) -> tuple[str, int | None, int]:
    """Iterated elimination voting with top-bid strategies."""
    active = sorted(utils[0])
    t = 0
    while True:
        t += 1
        bids = []
        for agent_utils in utils:
            best = active[0]
            for i in active[1:]:
                if agent_utils[i] > agent_utils[best]:
                    best = i
            bids.append(best)
        if len(set(bids)) == 1:
            return ("agreed", bids[0], t)
        fewest = active[0]
        for i in active[1:]:
            if bids.count(i) < bids.count(fewest):
                fewest = i
        active.remove(fewest)
        if len(active) == 1:
            return ("agreed", active[0], t)


def _best_issue(agent_utils: dict[int, float], pool: list[int]) -> int:
    """Highest utility in the pool, lowest id on ties."""
    best = None
    for i in sorted(pool):
        if best is None or agent_utils[i] > agent_utils[best]:
            best = i
    return best


def proposal_oracle(
    agent_utils: dict[int, float],
    strategy: tuple[str, float],
    pool: list[int],
    t: int,
    deadline: int,
    previous: list[tuple[int | None, int]],
    proposer: int,
) -> int:
    """One participant's offer, recomputed from scratch.

    ``strategy`` is (kind value, beta); ``pool`` the remaining candidates;
    ``previous`` the (proposer, issue) offers of the previous round, empty
    in round 1, with None for the mediator. The threshold's max and min
    over the agenda and the count of the others' offers are rebuilt on
    every call.
    """
    kind, beta = strategy
    if kind == "top_bid":
        return _best_issue(agent_utils, pool)
    agenda = [agent_utils[i] for i in sorted(agent_utils)]
    theta = oracle_threshold(agenda, min(t, deadline), deadline, beta)
    acceptable = [i for i in pool if agent_utils[i] >= theta]
    candidates = acceptable if acceptable else list(pool)
    if kind == "time_dependent" or not previous:
        return _best_issue(agent_utils, candidates)
    counts = Counter(
        issue for who, issue in previous if who is not None and who != proposer
    )
    choice = None
    for i in sorted(candidates):
        if choice is None:
            choice = i
        elif counts[i] > counts[choice]:
            choice = i
        elif counts[i] == counts[choice] and agent_utils[i] > agent_utils[choice]:
            choice = i
    return choice


def _welfare_best(utils: list[dict[int, float]], pool: list[int]) -> int:
    choice = None
    choice_welfare = None
    for i in sorted(pool):
        welfare = sum(u[i] for u in utils)
        if choice is None or welfare > choice_welfare:
            choice = i
            choice_welfare = welfare
    return choice


def elimination_round_oracle(
    bids: list[int], candidates: list[int]
) -> tuple[int | None, int | None]:
    """(eliminated, agreed) of one elimination round from its bids.

    Unanimous bids agree at once; otherwise the candidate with the fewest
    bids goes, lowest id on ties, and a last remaining candidate is agreed.
    """
    if all(b == bids[0] for b in bids):
        return None, bids[0]
    fewest = None
    for i in sorted(candidates):
        if fewest is None or bids.count(i) < bids.count(fewest):
            fewest = i
    remaining = [i for i in candidates if i != fewest]
    return fewest, remaining[0] if len(remaining) == 1 else None


def session_oracle(
    utils: list[dict[int, float]],
    strategies: list[tuple[str, float]],
    protocol: str,
    deadline: int,
) -> tuple[list[dict], tuple[str, int | None, int]]:
    """Every round of a session of participants 0..P-1, by brute force.

    Each round is a dict with ``offers`` [(proposer, issue)], ``votes``
    [(participant, accept)], ``published`` [(participant, issues)],
    ``rejected``, ``eliminated`` and ``agreed``; the outcome is
    (status, issue, rounds_used). ``strategies`` holds (kind value, beta)
    per participant; ``protocol`` is the protocol kind value.
    """
    issue_ids = sorted(utils[0])
    candidates = list(issue_ids)
    rounds: list[dict] = []
    previous: list[tuple[int | None, int]] = []
    t = 0
    while True:
        t += 1
        block = {"offers": [], "votes": [], "published": [],
                 "rejected": None, "eliminated": None, "agreed": None}
        rounds.append(block)

        def theta(a: int) -> float:
            agenda = [utils[a][i] for i in issue_ids]
            return oracle_threshold(agenda, t, deadline, strategies[a][1])

        if protocol == "mediated_single_text":
            candidate = _welfare_best(utils, candidates)
            block["offers"].append((None, candidate))
            votes = [(a, utils[a][candidate] >= theta(a)) for a in range(len(utils))]
            block["votes"] = votes
            if all(accept for _, accept in votes):
                block["agreed"] = candidate
                return rounds, ("agreed", candidate, t)
            candidates.remove(candidate)
            block["rejected"] = candidate
            if not candidates or t >= deadline:
                return rounds, ("failed", None, t)
            continue

        offers = [
            (a, proposal_oracle(utils[a], strategies[a], candidates, t, deadline, previous, a))
            for a in range(len(utils))
        ]
        block["offers"] = offers
        previous = offers
        if protocol == "monotonic_concession":
            common = set(issue_ids)
            for a in range(len(utils)):
                accepted = tuple(i for i in issue_ids if utils[a][i] >= theta(a))
                block["published"].append((a, accepted))
                common &= set(accepted)
            if common:
                agreed = _welfare_best(utils, sorted(common))
                block["agreed"] = agreed
                return rounds, ("agreed", agreed, t)
            if t >= deadline:
                return rounds, ("failed", None, t)
            continue

        eliminated, agreed = elimination_round_oracle([i for _, i in offers], candidates)
        block["eliminated"] = eliminated
        if eliminated is not None:
            candidates.remove(eliminated)
        if agreed is not None:
            block["agreed"] = agreed
            return rounds, ("agreed", agreed, t)


def naive_schedule_simulator(
    specs: list[tuple[int, int, int]], horizon: int
) -> list[tuple[int, int]]:
    """List-based re-sort-per-tick queue; specs are (start, interval, priority).

    Returns the executed (tick, spec_index) sequence. Insertion counters are
    assigned exactly in scheduling order, then in re-enqueue (execution)
    order, mirroring the contract without any shared code.
    """
    counter = 0
    pending: list[tuple[int, int, int, int]] = []  # (tick, priority, seq, spec_index)
    for index, (start, _interval, priority) in enumerate(specs):
        pending.append((start, priority, counter, index))
        counter += 1
    executed = []
    for tick in range(horizon):
        due = sorted(
            (entry for entry in pending if entry[0] == tick),
            key=lambda entry: (-entry[1], entry[2]),
        )
        for entry in due:
            pending.remove(entry)
            _, priority, _, index = entry
            executed.append((tick, index))
            interval = specs[index][1]
            if interval > 0:
                pending.append((tick + interval, priority, counter, index))
                counter += 1
    return executed


def _state_of(obj) -> str | None:
    for attr in ("phase", "room_state"):
        value = getattr(obj, attr, None)
        if value is not None:
            return value.value
    return None


def _query_holds(query, kind, ident, obj) -> bool:
    return (
        (query.kind is None or kind == query.kind)
        and (query.ident is None or ident == query.ident)
        and (query.group_id is None or getattr(obj, "group_id", None) == query.group_id)
    )


def trigger_holds(rule, watcher_state, watchee_state) -> bool:
    """Whether every state a watcher rule names equals the given one."""
    return (rule.watcher_state is None or watcher_state == rule.watcher_state) and (
        watchee_state == rule.watchee_state
    )


def brute_force_notify(members, rules, now, current_band, kind, ident, old_state, new_state, obj):
    """Every reaction that one state change fires, re-derived from every member.

    ``members`` are the context's (kind, id, object) triples in insertion
    order. For each rule, in rule id order, whose watchee query matches the
    changed object, every member is tested against the watcher query, the
    matches are sorted by id (stably, so insertion order breaks ties) and
    the trigger is evaluated per watcher before and after the change.
    Returns one (rule_id, watcher_id, reaction kind, target, start,
    priority) tuple per reaction, in firing order.
    """
    if old_state == new_state:
        return []
    fired = []
    for rule_id, rule in enumerate(rules):
        if not _query_holds(rule.watchee_query, kind, ident, obj):
            continue
        if rule.when == "next_tick":
            start = now + 1
            priority = 0 if rule.priority is None else rule.priority
        elif current_band is None:
            start = now
            priority = 0 if rule.priority is None else rule.priority
        else:
            start = now
            below = current_band - 1
            priority = below if rule.priority is None else min(rule.priority, below)
        watchers = sorted(
            ((i, o) for k, i, o in members if _query_holds(rule.watcher_query, k, i, o)),
            key=lambda pair: pair[0],
        )
        for watcher_id, watcher in watchers:
            state = _state_of(watcher)
            if trigger_holds(rule, state, old_state):
                continue
            if not trigger_holds(rule, state, new_state):
                continue
            target = watcher_id if rule.target_role == "watcher" else ident
            fired.append((rule_id, watcher_id, rule.reaction_kind, target, start, priority))
    return fired


def scan_every_room(sim, action) -> None:
    """``Simulation._exec_agent_scan`` without its shortcuts, to patch in its place.

    Every scan of an idle or watching agent sorts all rooms, tests each
    open one for admission, and seats the agent in the best one.
    """
    agent = sim.agents[action.target]
    if agent.phase not in (AgentPhase.IDLE, AgentPhase.WATCHING):
        return
    best = None
    best_utility = 0.0
    for _, room in sorted(sim.rooms.items()):
        if room.room_state is not RoomState.OPEN:
            continue
        u = room.check_admission(agent)
        if u is not None and (best is None or u > best_utility):
            best, best_utility = room, u
    if best is None:
        if agent.phase is AgentPhase.IDLE:
            agent.phase = AgentPhase.WATCHING
            sim._log("agent_watching", agent=agent.id)
            sim._notify_agent(agent, AgentPhase.IDLE)
        return
    old_phase = agent.phase
    best.seat(agent)
    sim._log("agent_entered", agent=agent.id, room=best.id, utility=best_utility)
    sim._notify_agent(agent, old_phase)


def queue_every_scan(scheduler, kind, targets, start, priority, cause):
    """One rule's fire queued as one action per target, counted as the scheduler counts it.

    The fire is one push against the cascade cap for its ``cause``, (rule
    id, watchee kind, watchee id), however many targets it has: the count
    is per cause and tick, as in ``Scheduler._push_reactions``, and a push
    over the cap raises and queues nothing. An agent scan that duplicates
    one already pending is queued all the same.
    """
    pushes = scheduler._pushes_this_tick.get(cause, 0) + 1
    if pushes > scheduler.cascade_cap:
        rule_id, watchee_kind, watchee = cause
        raise CascadeOverflowError(
            f"more than {scheduler.cascade_cap} reactions from one cause (the cascade cap) "
            f"in tick {scheduler.now}; the reaction over the cap was fired by watcher rule "
            f"{rule_id} on {watchee_kind.value} {watchee}"
        )
    scheduler._pushes_this_tick[cause] = pushes
    actions = []
    for target in targets:
        action = ScheduledAction(kind=kind, target=target, start=start, priority=priority)
        scheduler._push(action, start)
        actions.append(action)
    return actions


def notify_one_action_per_fire(scheduler, kind, ident, old_state, new_state, obj):
    """``Scheduler.notify_state_change`` as one action per fire, to patch in its place.

    The watcher model the paper builds on: each watcher's reaction is
    queued through ``queue_every_scan`` as a ``ScheduledAction`` of its own,
    and a duplicate agent scan is queued like any other reaction.
    """
    if old_state == new_state:
        return []
    fired = []
    for rule_id, rule in enumerate(scheduler._rules):
        if new_state != rule.watchee_state:
            continue
        if not rule.watchee_query.matches(kind, ident, obj):
            continue
        wanted = rule.watcher_state
        start, priority = scheduler._reaction_slot(rule.when, rule.priority)
        watchers = [
            watcher_id
            for watcher_id, watcher_obj in scheduler._watcher_candidates(rule.watcher_query)
            if wanted is None or _state_name(watcher_obj) == wanted
        ]
        if not watchers:
            continue
        targets = watchers if rule.target_role == "watcher" else [ident] * len(watchers)
        actions = queue_every_scan(
            scheduler, rule.reaction_kind, targets, start, priority, (rule_id, kind, ident)
        )
        fired += [FiredReaction(rule_id, w, a) for w, a in zip(watchers, actions)]
    return fired


def sample_one_draw_at_a_time(group, rng) -> tuple[float, ...]:
    """One member's raw preferences from a ``random.Random``, one criterion at a time.

    A uniform criterion is ``rng.uniform(lo, hi)``, documented as
    a + (b - a) * random(). A truncated-normal criterion rejection-samples
    loc + scale * z and falls back to the interval midpoint as the model
    does; z is the Box-Muller cosine deviate of two fresh uniforms u, v:
    the square root of -2 ln(1 - u), times cos(2 pi v).
    """
    out = []
    for lo, hi in group.bounds.rows:
        if group.distribution.kind is DistributionKind.UNIFORM:
            out.append(rng.uniform(lo, hi))
        else:
            width = hi - lo
            loc = lo + group.distribution.mean * width
            scale = group.distribution.sd * width
            value = None
            for _ in range(TRUNCNORM_MAX_REJECTIONS):
                u = rng.random()
                v = rng.random()
                radius = math.sqrt(-2.0 * math.log(1.0 - u))
                draw = loc + scale * (radius * math.cos(2.0 * math.pi * v))
                if lo <= draw <= hi:
                    value = draw
                    break
            if value is None:
                value = lo + width / 2.0
            out.append(value)
    return tuple(out)
