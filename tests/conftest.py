"""Shared fixtures and scenario-document builders."""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BENCHMARK_DIR = SCENARIO_DIR.parent / "benchmark"


def benchmark_module(name: str):
    """``benchmark/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"mnegoti_{name}", BENCHMARK_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MINIMAL_DOC = {
    "version": 1,
    "seed": 3,
    "ticks": 8,
    "theta_in": 0.0,
    "criteria": [{"id": 0, "name": "value", "direction": "benefit"}],
    "issues": [
        {"id": 0, "name": "left", "scores": [0.8]},
        {"id": 1, "name": "right", "scores": [0.4]},
    ],
    "groups": [
        {
            "id": 0,
            "name": "everyone",
            "member_count": 2,
            "bounds": [[0.2, 0.9]],
            "strategy": {"kind": "time_dependent", "beta": 1.0},
        }
    ],
    "social_edges": [],
    "protocols": [
        {"id": "main", "kind": "mediated_single_text", "max_rounds": 4, "rounds_per_tick": 1}
    ],
    "rooms": [
        {
            "id": 0,
            "schedule": [
                {
                    "action": "open",
                    "at": 1,
                    "agenda": {
                        "issues": [0, 1],
                        "admission": {"kind": "conditions"},
                        "protocol": "main",
                    },
                }
            ],
        }
    ],
    "watchers": [
        {
            "watcher": {"kind": "agent"},
            "watchee": {"kind": "meeting_room"},
            "trigger": {"watchee.state": "open"},
            "reaction": {"kind": "agent_scan", "when": "same_tick"},
        }
    ],
}


@pytest.fixture
def minimal_doc() -> dict:
    return copy.deepcopy(MINIMAL_DOC)


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR
