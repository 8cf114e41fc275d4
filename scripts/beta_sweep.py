#!/usr/bin/env python3
"""Sweep the concession exponent and measure agreement speed and welfare.

Larger beta concedes earlier, so sessions should agree in fewer rounds at
some cost in the proposing side's utility. The sweep patches every group's
beta in a scenario template and averages outcomes over replications.
"""

from __future__ import annotations

import argparse
import copy
from pathlib import Path

from mnegoti import StrategyConfig, load_scenario
from mnegoti.runner import run
from mnegoti.scenario import read_document

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def sweep(template_path: str, betas: list[float], replications: int) -> None:
    template = read_document(Path(template_path).read_text(encoding="utf-8"))
    default_kind = StrategyConfig().kind.value
    print(f"template: {template_path}")
    print(f"{'beta':>6} {'agreed':>7} {'avg_rounds':>10} {'avg_welfare':>11} {'avg_nash':>9}")
    for beta in betas:
        document = copy.deepcopy(template)
        for group in document["groups"]:
            group.setdefault("strategy", {"kind": default_kind})["beta"] = beta
        scenario = load_scenario(document)
        agreed = 0
        total = 0
        rounds_sum = 0
        welfare_sum = 0.0
        nash_sum = 0.0
        for artifacts in run(scenario, replications=replications):
            for row in artifacts.summary:
                total += 1
                if row.status == "agreed":
                    agreed += 1
                    rounds_sum += row.rounds
                    welfare_sum += row.welfare
                    nash_sum += row.nash_product
        if agreed:
            print(
                f"{beta:>6.2f} {agreed:>4}/{total:<2} {rounds_sum / agreed:>10.2f}"
                f" {welfare_sum / agreed:>11.3f} {nash_sum / agreed:>9.3f}"
            )
        else:
            print(f"{beta:>6.2f} {agreed:>4}/{total:<2} {'-':>10} {'-':>11} {'-':>9}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario", default=str(SCENARIOS / "concurrent_rooms.yaml"), help="template scenario"
    )
    parser.add_argument(
        "--betas", type=float, nargs="+", default=[0.25, 0.5, 1.0, 2.0, 4.0]
    )
    parser.add_argument("--replications", type=int, default=20)
    args = parser.parse_args()
    sweep(args.scenario, args.betas, args.replications)


if __name__ == "__main__":
    main()
