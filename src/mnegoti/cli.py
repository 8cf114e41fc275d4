"""Batch command-line interface: validate, run, inspect."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import MnegotiError, ValidationError
from .eventlog import read_event_log
from .runner import RunArtifacts, run
from .scenario import Scenario, load_scenario_file

OUT_ENV_VAR = "MNEGOTI_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnegoti",
        description="Deterministic multilateral negotiation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="path to the scenario file")

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("scenario", help="path to the scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--replications", type=int, default=1, help="number of replications")
    p_run.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_ENV_VAR} or ./out)",
    )
    p_run.add_argument("--ticks", type=int, default=None, help="override the scenario tick count")

    p_inspect = sub.add_parser("inspect", help="print a per-tick trace of an event log")
    p_inspect.add_argument("log", help="path to an events.log file")

    return parser


def _load(path: str) -> Scenario | None:
    """The scenario in ``path``, or None once the reason it cannot load is printed."""
    try:
        return load_scenario_file(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path} is not UTF-8 text: {exc.reason} at byte {exc.start}",
              file=sys.stderr)
    except ValidationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
    return None


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    print(
        f"ok: {len(scenario.criteria)} criteria, {len(scenario.issues)} issues, "
        f"{len(scenario.groups)} groups ({scenario.total_agents} agents), "
        f"{len(scenario.rooms)} rooms"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.replications < 1:
        print("error: --replications must be >= 1", file=sys.stderr)
        return 1
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 1
    if args.ticks is not None and args.ticks < 0:
        print("error: --ticks must be >= 0", file=sys.stderr)
        return 1
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    out_dir = args.out or os.environ.get(OUT_ENV_VAR) or "out"
    try:
        results = run(
            scenario,
            seed=args.seed,
            replications=args.replications,
            out_dir=out_dir,
            ticks=args.ticks,
        )
    except MnegotiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for artifacts in results:
        _print_summary(artifacts)
    print(f"artifacts written under {Path(out_dir)}")
    return 0


def _print_summary(artifacts: RunArtifacts) -> None:
    print(f"seed {artifacts.seed}: {len(artifacts.events)} events, "
          f"{len(artifacts.summary)} sessions")
    if not artifacts.summary:
        return
    header = f"  {'room':>4} {'session':>7} {'status':<14} {'issue':>5} {'rounds':>6} {'welfare':>9} {'min_u':>7} {'nash':>7}"
    print(header)
    for row in artifacts.summary:
        issue = "-" if row.issue_id is None else str(row.issue_id)
        print(
            f"  {row.room_id:>4} {row.session:>7} {row.status:<14} {issue:>5} "
            f"{row.rounds:>6} {row.welfare:>9.4f} {row.min_utility:>7.4f} {row.nash_product:>7.4f}"
        )


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Print the log record by record as it is read; a malformed line ends the trace there."""
    current_tick = None
    try:
        for record in read_event_log(args.log):
            if record.tick != current_tick:
                current_tick = record.tick
                print(f"tick {current_tick}:")
            band = "-" if record.priority is None else str(record.priority)
            details = " ".join(f"{k}={record.data[k]}" for k in sorted(record.data))
            print(f"  [{band:>4}] {record.kind} {details}")
    except BrokenPipeError:
        raise  # stdout closed, not the log: ``main`` ends quietly
    except FileNotFoundError:
        print(f"error: no such file: {args.log}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.log}: {exc.strerror}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: malformed event log {args.log}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {"validate": _cmd_validate, "run": _cmd_run, "inspect": _cmd_inspect}
    try:
        status = command[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`inspect LOG | head`): exit 0 quietly, with
        # stdout on os.devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
