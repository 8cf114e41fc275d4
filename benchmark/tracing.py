"""Spans and counters around the calls into each layer of mnegoti.

The benchmark patches the program's public call sites for the duration
of one workload run and restores them afterwards; no program file is
changed. Each span is ``[name, start_ns, end_ns, parent]`` where
``parent`` indexes the enclosing span (-1 for the root). A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans of a run add up to the root span's duration.

``evaluate`` is a leaf called hundreds of thousands of times per run; a
span per call would cost more than the call, so the trace counts its
calls and leaves its time in the calling span (admission or session
start).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import mnegoti.engine
import mnegoti.protocols
import mnegoti.rooms
import mnegoti.runner
from mnegoti.model import StrategyKind
from mnegoti.protocols import ProtocolKind
from mnegoti.rooms import MeetingRoom
from mnegoti.scheduler import ActionKind

ACTION_KINDS = tuple(k.value for k in ActionKind if k is not ActionKind.REPORT)
PROTOCOLS = tuple(k.value for k in ProtocolKind)
STRATEGIES = tuple(k.value for k in StrategyKind)

_now = time.perf_counter_ns


class SetupTimer:
    """Times ``Simulation`` construction inside ``mnegoti.runner.run``.

    This is the only patch made with tracing off: two clock reads per
    replication, so ``setup_s`` can be taken apart from the tick loop.
    """

    def __init__(self) -> None:
        self.ns = 0

    def construct(self, simulation_cls, *args, **kwargs):
        start = _now()
        sim = simulation_cls(*args, **kwargs)
        self.ns += _now() - start
        return sim

    @contextlib.contextmanager
    def installed(self):
        original = mnegoti.runner.Simulation
        mnegoti.runner.Simulation = functools.partial(self.construct, original)
        try:
            yield self
        finally:
            mnegoti.runner.Simulation = original


class Trace:
    """Spans and counters of one traced workload run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._tick_reactions = 0
        self.peak_tick_reactions = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name):
        """``fn`` inside a span; ``name`` is a string or a function of the call's arguments."""
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(fixed or name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    # -- analysis ------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(self ns, calls) per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for (name, start, end, _), children in zip(self.spans, child_ns):
            self_ns[name] += end - start - children
            calls[name] += 1
        return self_ns, calls

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,name,start_ns,end_ns,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index},{name},{start},{end},{parent}\n")

    # -- instrumentation -----------------------------------------------

    def _instrument(self, sim) -> None:
        """Patch the instance attributes of a freshly built ``Simulation``."""
        scheduler = sim.scheduler
        execute = scheduler.executor

        def executor(action):
            kind = action.kind.value
            index = self.open(f"engine.dispatch.{kind}")
            try:
                if action.kind is not ActionKind.AGENT_SCAN:
                    return execute(action)
                agent = sim.agents[action.target]
                before = agent.phase
                execute(action)
                self.counts["engine.scans"] += 1
                if agent.phase is not before:
                    self.counts["engine.scans_changed_phase"] += 1
            finally:
                self.close(index)

        step = self.wrap(scheduler.step, "scheduler.step")

        def stepped():
            self._tick_reactions = 0
            report = step()
            self.peak_tick_reactions = max(self.peak_tick_reactions, self._tick_reactions)
            return report

        notify = self.wrap(scheduler.notify_state_change, "scheduler.notify")

        def notified(*args, **kwargs):
            fired = notify(*args, **kwargs)
            self._tick_reactions += len(fired)
            self.counts["scheduler.reactions"] += len(fired)
            return fired

        enqueue = self.wrap(scheduler.enqueue_reaction, "scheduler.enqueue")

        def enqueued(*args, **kwargs):
            self._tick_reactions += 1
            self.counts["scheduler.reactions"] += 1
            return enqueue(*args, **kwargs)

        scheduler.executor = executor
        scheduler.step = stepped
        scheduler.notify_state_change = notified
        scheduler.enqueue_reaction = enqueued
        sim.context.query = self.wrap(sim.context.query, "context.query")

    def _construct(self, simulation_cls, *args, **kwargs):
        with self.span("engine.setup"):
            sim = simulation_cls(*args, **kwargs)
        self._instrument(sim)
        return sim

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call site; restore them all on exit."""
        patches = [
            (mnegoti.runner, "Simulation",
             functools.partial(self._construct, mnegoti.runner.Simulation)),
            (mnegoti.runner, "summarize", self.wrap(mnegoti.runner.summarize, "runner.summarize")),
            (mnegoti.runner, "write_artifacts",
             self.wrap(mnegoti.runner.write_artifacts, "runner.write")),
            (mnegoti.engine, "spawn_members",
             self.wrap(mnegoti.engine.spawn_members, "model.spawn")),
            (mnegoti.engine, "build_same_group_projection",
             self.wrap(mnegoti.engine.build_same_group_projection, "context.projection")),
            (mnegoti.engine, "run_round",
             self.wrap(mnegoti.engine.run_round,
                       lambda session, *_a, **_k: f"protocols.round.{session.protocol.kind.value}")),
            (mnegoti.protocols, "propose",
             self.wrap(mnegoti.protocols.propose,
                       lambda session, participant, *_a, **_k:
                       f"protocols.propose.{session.strategies[participant].kind.value}")),
            (mnegoti.rooms, "evaluate", self.counted(mnegoti.rooms.evaluate, "model.evaluate")),
            (mnegoti.protocols, "evaluate",
             self.counted(mnegoti.protocols.evaluate, "model.evaluate")),
            (MeetingRoom, "check_admission",
             self.wrap(MeetingRoom.check_admission, "rooms.admission")),
            (MeetingRoom, "start_session",
             self.wrap(MeetingRoom.start_session, "rooms.start_session")),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


# Every per-layer metric: name -> (unit, better). Times are self times.
LAYER_METRICS = {
    "scenario.load_s": ("s", "lower"),
    "model.spawn_s": ("s", "lower"),
    "model.evaluate_calls": ("count", "lower"),
    "context.projection_s": ("s", "lower"),
    "context.query_calls": ("count", "lower"),
    "context.query_s": ("s", "lower"),
    "scheduler.notify_calls": ("count", "lower"),
    "scheduler.notify_s": ("s", "lower"),
    "scheduler.enqueue_s": ("s", "lower"),
    "scheduler.step_self_s": ("s", "lower"),
    "scheduler.reactions": ("count", "lower"),
    "scheduler.peak_tick_reactions": ("count", "lower"),
    "engine.setup_self_s": ("s", "lower"),
    **{f"engine.actions.{k}": ("count", "lower") for k in ACTION_KINDS},
    **{f"engine.dispatch_s.{k}": ("s", "lower") for k in ACTION_KINDS},
    "engine.scan_yield": ("ratio", "higher"),
    "rooms.admission_checks": ("count", "lower"),
    "rooms.admission_s": ("s", "lower"),
    "rooms.start_session_s": ("s", "lower"),
    **{f"protocols.rounds.{k}": ("count", "lower") for k in PROTOCOLS},
    **{f"protocols.round_s.{k}": ("s", "lower") for k in PROTOCOLS},
    **{f"protocols.propose_calls.{k}": ("count", "lower") for k in STRATEGIES},
    **{f"protocols.propose_s.{k}": ("s", "lower") for k in STRATEGIES},
    "runner.summarize_s": ("s", "lower"),
    "runner.write_s": ("s", "lower"),
    "runner.run_self_s": ("s", "lower"),
    "runner.events": ("count", "higher"),
    "runner.events_log_mb": ("MB", "lower"),
    "runner.replications": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# Span name -> the metric that holds its self time. Together they cover
# every span, so these metrics add up to the root span, trace.wall_s.
SELF_TIME_METRIC = {
    "workload": "runner.run_self_s",
    "scenario.load": "scenario.load_s",
    "engine.setup": "engine.setup_self_s",
    "model.spawn": "model.spawn_s",
    "context.projection": "context.projection_s",
    "context.query": "context.query_s",
    "scheduler.step": "scheduler.step_self_s",
    "scheduler.notify": "scheduler.notify_s",
    "scheduler.enqueue": "scheduler.enqueue_s",
    "rooms.admission": "rooms.admission_s",
    "rooms.start_session": "rooms.start_session_s",
    "runner.summarize": "runner.summarize_s",
    "runner.write": "runner.write_s",
    **{f"engine.dispatch.{k}": f"engine.dispatch_s.{k}" for k in ACTION_KINDS},
    **{f"protocols.round.{k}": f"protocols.round_s.{k}" for k in PROTOCOLS},
    **{f"protocols.propose.{k}": f"protocols.propose_s.{k}" for k in STRATEGIES},
}


def layer_metrics(trace: Trace, events: int, events_log_bytes: int, replications: int) -> dict:
    """Per-layer figures of one traced workload run, keyed by metric name."""
    self_ns, calls = trace.self_times()
    unmapped = set(self_ns) - set(SELF_TIME_METRIC)
    if unmapped:
        raise ValueError(f"spans with no per-layer metric: {sorted(unmapped)}")
    out = {metric: self_ns[span] / 1e9 for span, metric in SELF_TIME_METRIC.items()}
    scans = trace.counts["engine.scans"]
    out.update({
        "model.evaluate_calls": trace.counts["model.evaluate"],
        "context.query_calls": calls["context.query"],
        "scheduler.notify_calls": calls["scheduler.notify"],
        "scheduler.reactions": trace.counts["scheduler.reactions"],
        "scheduler.peak_tick_reactions": trace.peak_tick_reactions,
        "engine.scan_yield": trace.counts["engine.scans_changed_phase"] / scans if scans else 0.0,
        "rooms.admission_checks": calls["rooms.admission"],
        "runner.events": events,
        "runner.events_log_mb": events_log_bytes / 1e6,
        "runner.replications": replications,
    })
    for kind in ACTION_KINDS:
        out[f"engine.actions.{kind}"] = calls[f"engine.dispatch.{kind}"]
    for kind in PROTOCOLS:
        out[f"protocols.rounds.{kind}"] = calls[f"protocols.round.{kind}"]
    for kind in STRATEGIES:
        out[f"protocols.propose_calls.{kind}"] = calls[f"protocols.propose.{kind}"]
    return out
