"""Frozen sha256 digests of the artifacts of the bundled scenarios.

A run is a pure function of (scenario, seed), so a refactor must leave
``events.log``, ``summary.csv`` and ``population.csv`` byte-identical.
Comparing two runs of the same code cannot catch a change in output;
these digests were recorded once and pin the bytes themselves. Update
them only with a change that alters the output on purpose, and say so
in CHANGES.md.

The bundled scenarios never reach ``trade_off`` proposals, elimination
bidding with hundreds of bidders, invitations or ticks with thousands of
watcher reactions, so the inputs of the four benchmark workloads are
pinned as well: at seed 1 to the digests tabulated in
``benchmark/README.md``, and at seed 7, the other seed the benchmark's
smoke runs use.
"""

from __future__ import annotations

import hashlib
import importlib.util

import pytest

from mnegoti.runner import run
from mnegoti.scenario import load_scenario_file

from conftest import SCENARIO_DIR

BENCHMARK_DIR = SCENARIO_DIR.parent / "benchmark"

ARTIFACTS = ("events.log", "summary.csv", "population.csv")

# (scenario file, seed) -> sha256 of each file in ARTIFACTS, in order.
GOLDEN = {
    ("concurrent_rooms.yaml", 1): (
        "dafa1587fbed80dee5987f848f19fe27b874880861da1dd9b1f5218213b57337",
        "8e399f5a876dedc6edb6ae4de522da0a4e0f24f34d3076821018277ed0222828",
        "8f7f95524103101e9fb873c34c92c8c98f7981cb47b4ece0290e1d52449d2ad6",
    ),
    ("concurrent_rooms.yaml", 2): (
        "1d9f663ce2459fe7ed77403233c10a71218094937087c6948aeaf7fd598df824",
        "1604972de1f385677e7bd7e43f32a2801ed619999ce22842a9f688d7c6f0eb5a",
        "4a83dec6f5420a3a264241a7e92e8457c040ee67ba402c3883c68a5e93743d93",
    ),
    ("concurrent_rooms.yaml", 3): (
        "419119a87fc883f5ed62b81881059ed75aecf7e8351e5cc7ed5567fcc8d3ab92",
        "e9390f163927da55481e5410d51f8b6df8a0af17fc2033d635bdc4233b7d0a44",
        "83a0ac0130918b5cb9581c4740354c6e5b33797bac609e74c42bed25b35838ec",
    ),
    ("protection_strategies.yaml", 1): (
        "b600843ddd0eee38482d96cfeb7f6997098c3733da751f4b25e0b8cb18daf397",
        "93845cd0baa532118e9e859954687dd934e0a9c96077295962a4ef0fa3d8d4ec",
        "e886ee91ef9788c3337c3f292b06c00ed9136265895b0ca4dd62f9acc8bd70d6",
    ),
    ("protection_strategies.yaml", 2): (
        "06256ed0f10ec16ea96a4adc36966b25f65a391432115f7bcce4a92ded56db1d",
        "6e966057079852e70d685a4e520a7e5e17576f717ef891fc43b3cb75e7636766",
        "9c6a1afd96301ea962d51d5acd36fe7e805d07b3e13529d0cd0b3f4313cfaeea",
    ),
    ("protection_strategies.yaml", 3): (
        "90973eaead78ec59ffe3cb313ac810b2e0a43a0872f02b116a671c7ab559b8c3",
        "861b7532262ea8d50d057ef9f4ccd9cf348751f87afc9d2c6727fab13b79fce2",
        "0692f6667675a0077c407cb2073a20a8ab7c2eb7eb94016026bffdaa4d2700e7",
    ),
    ("supply_chain.yaml", 1): (
        "9f2c2a39f223484830b187ccab4ba1159d620d4d7cab95e6ba030540064f6ad3",
        "69ee765b78883239ad1a3fd98cfa50a09b84a9eb1a8ba4fbaff77479643777dd",
        "f0681ae2d12538d15705363117e2d480d4fbbe0cef2eedd8b5beae4186a04833",
    ),
    ("supply_chain.yaml", 2): (
        "66d36af5dc30adac2fd8d4158eff6d840158ab0596f5395c8194cfb8c9a89fc4",
        "caceab416bba1d78e00decac0a55d8aa705499691b9de93e57ce5e8fa7022a9d",
        "d6d37e73cc47561ac83e00653bb5db641444ada4fa4d59ba7bddcbdfb7a4a37a",
    ),
    ("supply_chain.yaml", 3): (
        "8d5cb54f336c87745327a328df1e11b5e1afcb3c6afbe95b95df751eb6031132",
        "3a6c4416c100a6981313172e58dea37b7ff96e0f15331cb4989f4bc7939dcbb9",
        "88100444011968d6f1e5507934a5d7f4b7290dc0baf982de01f138035aea0213",
    ),
}


def test_every_bundled_scenario_is_pinned():
    bundled = {p.name for p in SCENARIO_DIR.glob("*.yaml")}
    assert {name for name, _ in GOLDEN} == bundled


@pytest.mark.parametrize(("name", "seed"), sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, seed, tmp_path):
    scenario = load_scenario_file(SCENARIO_DIR / name)
    run(scenario, seed=seed, out_dir=tmp_path)
    rep = tmp_path / "rep_000"
    digests = tuple(hashlib.sha256((rep / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert dict(zip(ARTIFACTS, digests)) == dict(zip(ARTIFACTS, GOLDEN[(name, seed)]))


# (workload, seed) -> sha256 of its events.log files, concatenated in path
# order, as ``cat artifacts/*/rep_*/events.log`` in benchmark/README.md.
WORKLOAD_EVENTS_LOG = {
    ("town_hall", 1): "fec9b03103147190132fce839d0026fa451b0ed5d48c801e54256e7f49887904",
    ("summit", 1): "3499aa5c6cdff6b79151c4d3fab7a35547d4016f49ab52de25fa9dbeffbc1dbf",
    ("room_churn", 1): "6f5dedf018b27e29b4ffb14ac0523ef8dfc685331b8368b0c1a52c1f47daeeb7",
    ("sweep", 1): "d03e9c05df207cc9280df8db4973ebb1861e9430a111749bf86e57f2b4f6b56c",
    ("town_hall", 7): "5c53d347585dc47ba758eae052b288a8de74bc7f39cc9218dacafe58ff9c1f19",
    ("summit", 7): "aa896a5526455227deb5beb1616924ca46a42548fa223756e457dc03f49d9dd9",
    ("room_churn", 7): "b970765e94da78f5e01c6b4aec6d5aaf370134e5fea117c8781434d81cc584d1",
    ("sweep", 7): "143565234ff5ffa7b300ed8e903ad06de7e235c48db332e2a3992a13b84b347c",
}


def _workloads():
    """The benchmark's scenario generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "mnegoti_workloads", BENCHMARK_DIR / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(("workload", "seed"), sorted(WORKLOAD_EVENTS_LOG))
def test_benchmark_workload_events_log_matches_golden_digest(workload, seed, tmp_path):
    workloads = _workloads()
    replications = workloads.SWEEP_REPLICATIONS if workload == "sweep" else 1
    for path in workloads.write_inputs(workload, seed, tmp_path / "inputs"):
        scenario = load_scenario_file(path)
        run(scenario, replications=replications, out_dir=tmp_path / "artifacts" / path.stem)
    digest = hashlib.sha256()
    for log in sorted((tmp_path / "artifacts").glob("*/rep_*/events.log")):
        digest.update(log.read_bytes())
    assert digest.hexdigest() == WORKLOAD_EVENTS_LOG[(workload, seed)]
