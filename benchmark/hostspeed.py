"""Host-speed calibration of the end-to-end times.

The benchmark runs on shared machines whose speed drifts by tens of per
cent, and at times by a factor of two, over minutes: far more than any
bound worth gating on. After each untraced workload run the benchmark times
``calibrate()``, a fixed piece of work that shares no code with the
program: method calls, sorting and JSON on small objects, and a set of
150 000 small tuples, the two kinds of work the simulator does. The
end-to-end times are reported in reference seconds, the measured medians
times ``REFERENCE_S / median calibration time`` of the same benchmark run,
so a stretch in which the host runs slow slows the calibration too and
cancels out. A change to the program does not touch the calibration.
"""

from __future__ import annotations

import gc
import json
import time

# The calibration time that defines one reference second.
REFERENCE_S = 0.1


class _Record:
    __slots__ = ("tick", "kind", "data")

    def __init__(self, tick: int, kind: str, data: dict) -> None:
        self.tick = tick
        self.kind = kind
        self.data = data


def _interpreter_work() -> int:
    records = []
    index: dict[int, list[int]] = {}
    for i in range(6000):
        record = _Record(i // 50, "offer", {"room": i % 7, "issue": i % 13, "round": i % 5})
        records.append(record)
        index.setdefault(record.data["room"], []).append(i)
    ordered = sorted(records, key=lambda r: (-r.data["issue"], r.tick))
    text = "".join(
        json.dumps({"tick": r.tick, "kind": r.kind, "data": r.data},
                   sort_keys=True, separators=(",", ":"))
        for r in ordered[:3000]
    )
    return len(text) + len(index)


def _allocation_work() -> int:
    edges = set()
    for i in range(500):
        for j in range(300):
            edges.add((i, i + j, "edge"))
    return len(edges)


def calibrate() -> float:
    """Seconds the fixed calibration work takes now.

    The cyclic collector is off while it runs, so the time does not depend
    on how many objects the program keeps alive.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter_work()
        _allocation_work()
        return time.perf_counter() - start
    finally:
        gc.enable()
