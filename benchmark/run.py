#!/usr/bin/env python3
"""Benchmark of mnegoti: generate a workload, run it, check it, report metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload room_churn --seed 1 --seconds 30 --trace 0

One workload run reads the generated scenario file(s) and runs each through
``mnegoti.runner.run`` with ``out_dir``, as ``mnegoti run`` does. One
operation is one replication. Workload runs repeat, in this one process and
thread, until ``--seconds`` have passed, and every time is a median over
them. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, with times in
reference seconds (see hostspeed.py). With ``--trace 1`` untraced and traced
workload runs alternate; the metrics are the per-layer figures of the
traced runs and the tracing overhead, and the spans of the last traced run
are written to ``benchmark/out/<workload>/spans.csv``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("town_hall", "summit", "room_churn", "sweep")
ARTIFACTS = ("events.log", "summary.csv", "population.csv")
MIN_REPETITIONS = 3


def import_program() -> None:
    """Make ``import mnegoti`` load this checkout's ``src`` and nothing else."""
    if not (SRC / "mnegoti" / "__init__.py").is_file():
        sys.exit(f"benchmark: no mnegoti sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import mnegoti

    if Path(mnegoti.__file__).resolve().parent != SRC / "mnegoti":
        sys.exit(f"benchmark: mnegoti imported from {mnegoti.__file__}, not from {SRC}")


class WorkloadRun:
    """Timings and outputs of one run of every scenario file of a workload."""

    def __init__(self, wall_ns: int, setup_ns: int, events: int, directories: list[Path]):
        self.wall_s = wall_ns / 1e9
        self.setup_s = setup_ns / 1e9
        self.events = events
        self.directories = directories

    @property
    def events_per_s(self) -> float:
        return self.events / (self.wall_s - self.setup_s)


def run_workload(paths: list[Path], replications: int, out_dir: Path, trace=None) -> WorkloadRun:
    """Load and run each scenario file; ``trace`` records spans when given.

    ``setup_s`` is scenario loading plus ``Simulation`` construction; with
    tracing off the constructions are timed by ``SetupTimer``.
    """
    from mnegoti.runner import run
    from mnegoti.scenario import load_scenario_file
    from tracing import SetupTimer

    timer = SetupTimer()
    results = []
    start = time.perf_counter_ns()
    root = trace.open("workload") if trace else None
    with (trace or timer).installed():
        for path in paths:
            load_start = time.perf_counter_ns()
            if trace:
                with trace.span("scenario.load"):
                    scenario = load_scenario_file(path)
            else:
                scenario = load_scenario_file(path)
            timer.ns += time.perf_counter_ns() - load_start
            results += run(scenario, replications=replications, out_dir=out_dir / path.stem)
    if trace:
        trace.close(root)
        _, start, end, _ = trace.spans[root]
    else:
        end = time.perf_counter_ns()
    return WorkloadRun(
        wall_ns=end - start,
        setup_ns=timer.ns,
        events=sum(len(a.events) for a in results),
        directories=[a.out_dir for a in results],
    )


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((directory / name).read_bytes())
    return h.hexdigest()


class Verifier:
    """Checks every replication; repeats of verified bytes pass by digest.

    Every workload run of one benchmark run has the same inputs, and a run
    is a pure function of (scenario, seed), so once the first workload run
    has passed the full checks a later one passes exactly when its
    artifacts are byte-identical to the first one's.
    """

    def __init__(self, docs: dict[str, dict]) -> None:
        self.docs = docs
        self.verified: dict[Path, str] = {}

    def failures(self, run: WorkloadRun) -> int:
        from checks import CheckError, check_replication

        failed = 0
        for directory in run.directories:
            found = digest(directory)
            expected = self.verified.get(directory)
            if expected is not None:
                if found != expected:
                    print(f"FAIL {directory}: artifacts differ from the first run of the same "
                          "inputs", file=sys.stderr)
                    failed += 1
                continue
            try:
                check_replication(self.docs[directory.parent.name], directory)
            except (CheckError, KeyError, ValueError, IndexError) as exc:
                print(f"FAIL {directory}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                continue
            self.verified[directory] = found
        return failed


def end_to_end_metrics(runs: list[WorkloadRun], calibrations: list[float], peak_rss_mb: float) -> dict:
    """Medians over the workload runs, with times in reference seconds."""
    from hostspeed import REFERENCE_S

    scale = REFERENCE_S / statistics.median(calibrations)
    wall = statistics.median(r.wall_s for r in runs)
    print(f"measured median wall_s {wall} s, host scale {scale}", file=sys.stderr)
    return {
        "wall_s": {"value": wall * scale, "unit": "s"},
        "setup_s": {"value": statistics.median(r.setup_s for r in runs) * scale, "unit": "s"},
        "events_per_s": {"value": statistics.median(r.events_per_s for r in runs) / scale,
                         "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer_metrics(plain: list[WorkloadRun], traced: list[tuple[WorkloadRun, dict]]) -> dict:
    """Means over the traced runs, so the self times still add up to ``trace.wall_s``."""
    from tracing import LAYER_METRICS

    values = {
        name: statistics.fmean(layers[name] for _, layers in traced) for name in traced[0][1]
    }
    values["trace.wall_s"] = statistics.fmean(r.wall_s for r, _ in traced)
    values["trace.overhead"] = (
        statistics.median(r.wall_s for r, _ in traced) / statistics.median(r.wall_s for r in plain)
    )
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import yaml

    import workloads
    from hostspeed import calibrate
    from tracing import SELF_TIME_METRIC, Trace, layer_metrics

    out = OUT / args.workload
    paths = workloads.write_inputs(args.workload, args.seed, out / "inputs")
    verifier = Verifier({p.stem: yaml.safe_load(p.read_text()) for p in paths})
    replications = workloads.SWEEP_REPLICATIONS if args.workload == "sweep" else 1
    ops_per_run = replications * len(paths)

    attempted = failed = 0
    plain: list[WorkloadRun] = []
    calibrations: list[float] = []
    traced: list[tuple[WorkloadRun, dict]] = []
    last_trace = None
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + args.seconds
    while True:
        trace = Trace() if args.trace and len(plain) > len(traced) else None
        gc.collect()
        attempted += ops_per_run
        try:
            run = run_workload(paths, replications, out / "artifacts", trace)
        except Exception as exc:  # a raising replication fails its whole workload run
            print(f"FAIL workload run: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += ops_per_run
            break
        if not plain:
            # The first workload run comes before any check or calibration has allocated.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace is None:
            calibrations.append(calibrate())
        run_failed = verifier.failures(run)
        if trace is None:
            plain.append(run)
        else:
            layers = layer_metrics(
                trace,
                events=run.events,
                events_log_bytes=sum((d / "events.log").stat().st_size for d in run.directories),
                replications=len(run.directories),
            )
            self_sum = sum(layers[name] for name in SELF_TIME_METRIC.values())
            if abs(self_sum - run.wall_s) > 1e-9 * run.wall_s:
                print(f"FAIL self times add up to {self_sum} s, traced wall is {run.wall_s} s",
                      file=sys.stderr)
                run_failed = ops_per_run
            traced.append((run, layers))
            last_trace = trace
        failed += run_failed
        enough = len(plain) >= MIN_REPETITIONS and (not args.trace or len(traced) >= MIN_REPETITIONS)
        # Stop before a workload run that would end past the deadline.
        if enough and time.perf_counter() + run.wall_s > deadline:
            break

    metrics = {}
    if args.trace and traced:
        last_trace.write(out / "spans.csv")
        metrics = per_layer_metrics(plain, traced)
    elif not args.trace and plain:
        metrics = end_to_end_metrics(plain, calibrations, peak_rss_mb)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
