#!/usr/bin/env python3
"""Run a bundled scenario and print its outcome summary and key events."""

from __future__ import annotations

import argparse
from pathlib import Path

from mnegoti import Simulation, load_scenario_file
from mnegoti.runner import summarize

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "scenario",
        nargs="?",
        default=str(SCENARIOS / "protection_strategies.yaml"),
        help="scenario file (default: bundled protection strategies example)",
    )
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    scenario = load_scenario_file(args.scenario)
    sim = Simulation(scenario, seed=args.seed)
    sim.run()

    print(f"scenario: {args.scenario}")
    print(f"seed:     {sim.seed}")
    print(f"agents:   {len(sim.agents)} in {len(scenario.groups)} groups")
    print()
    for event in sim.events:
        if event.kind in ("room_opened", "session_started", "agreement", "session_end"):
            details = " ".join(f"{k}={v}" for k, v in sorted(event.data.items()))
            print(f"tick {event.tick:>3}  {event.kind:<16} {details}")
    print()
    print("summary:")
    for row in summarize(sim.events.session_ends):
        print(
            f"  room {row.room_id} session {row.session}: {row.status}"
            f" issue={row.issue_id} rounds={row.rounds}"
            f" welfare={row.welfare:.3f} min_utility={row.min_utility:.3f}"
            f" nash={row.nash_product:.3f}"
        )


if __name__ == "__main__":
    main()
