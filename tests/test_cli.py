"""CLI subcommands: exit codes, artifact layout, determinism, inspection."""

from __future__ import annotations

import contextlib
import copy
import os
import subprocess
import sys
import tracemalloc

import yaml
import pytest

from mnegoti.cli import main
from mnegoti.engine import Simulation
from mnegoti.errors import MnegotiError
from mnegoti.eventlog import EventRecord, event_line

from conftest import MINIMAL_DOC, SCENARIO_DIR, benchmark_module

SRC_DIR = SCENARIO_DIR.parent / "src"


def write_doc(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.fixture
def scenario_path(scenario_dir):
    return str(scenario_dir / "protection_strategies.yaml")


class TestValidate:
    def test_bundled_scenario_is_valid(self, scenario_path, capsys):
        assert main(["validate", scenario_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_scenario_exits_one_with_stderr(self, minimal_doc, tmp_path, capsys):
        minimal_doc["groups"][0]["bounds"] = [[0.9, 0.1]]
        path = write_doc(tmp_path / "bad.yaml", minimal_doc)
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "groups[0].bounds[0]" in err

    def test_missing_file_exits_one(self, capsys):
        assert main(["validate", "/nonexistent/nowhere.yaml"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_deeply_nested_list_fails_validation(self, tmp_path, capsys):
        path = tmp_path / "deep.yaml"
        deep = "[" * 20_000 + "]" * 20_000
        path.write_text(f"version: 1\nseed: 1\nticks: 1\ncriteria: {deep}\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "invalid scenario: criteria[0]: expected a mapping, got list\n"


def crowded_doc() -> dict:
    """1 200 agents in 4 groups and 9 conditions rooms opening at tick 1.

    Every opening fires one scan per agent, 9 x 1 200 = 10 800 scans in
    tick 1, but each opening is one fan-out, one push for its cause.
    """
    doc = copy.deepcopy(MINIMAL_DOC)
    group = doc["groups"][0]
    doc["groups"] = [dict(group, id=g, name=f"g{g}", member_count=300) for g in range(4)]
    room = doc["rooms"][0]
    doc["rooms"] = [dict(room, id=r) for r in range(9)]
    return doc


def watching_cascade_doc(agents: int = 150) -> dict:
    """``agents`` agents; each one that starts watching makes every agent scan again.

    Under the agent-watches-agent rule 1, a tick may fire ``agents`` x
    ``agents`` reactions, 22 500 for 150 agents, in one fan-out per agent
    that starts watching.
    """
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["criteria"] = [
        {"id": 0, "name": "a", "direction": "benefit"},
        {"id": 1, "name": "b", "direction": "benefit"},
    ]
    doc["issues"] = [
        {"id": 0, "name": "left", "scores": [1.0, 0.0]},
        {"id": 1, "name": "right", "scores": [0.0, 1.0]},
    ]
    doc["groups"][0].update(member_count=agents, bounds=[[0.0, 1.0], [0.0, 1.0]])
    agenda = doc["rooms"][0]["schedule"][0]["agenda"]
    agenda["issues"] = [0]
    agenda["admission"]["threshold"] = 0.45
    doc["watchers"].append(
        {
            "watcher": {"kind": "agent"},
            "watchee": {"kind": "agent"},
            "trigger": {"watchee.state": "watching"},
            "reaction": {"kind": "agent_scan", "when": "same_tick"},
        }
    )
    return doc


class TestValidateIsQuiet:
    """``validate`` prints ``ok:`` and no warning on what ships with the project."""

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_bundled_scenarios(self, name, capsys):
        assert main(["validate", str(SCENARIO_DIR / name)]) == 0
        printed = capsys.readouterr()
        assert printed.out.startswith("ok:")
        assert printed.err == ""

    @pytest.mark.parametrize("workload", ["town_hall", "summit", "room_churn", "sweep"])
    def test_benchmark_workloads(self, workload, tmp_path, capsys):
        for path in benchmark_module("workloads").write_inputs(workload, 1, tmp_path):
            assert main(["validate", str(path)]) == 0
            printed = capsys.readouterr()
            assert printed.out.startswith("ok:")
            assert printed.err == ""


class TestPopulationScaleReactions:
    """Fan-out that grows with the population validates quietly and runs to the end."""

    @pytest.mark.parametrize(
        "doc, replications",
        [(crowded_doc(), 1), (watching_cascade_doc(), 3)],
        ids=["crowded_opening", "agents_watching_agents"],
    )
    def test_runs_and_passes_the_checks(self, doc, replications, tmp_path, capsys):
        path = write_doc(tmp_path / "scenario.yaml", doc)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().err == ""
        out = tmp_path / "reps"
        argv = ["run", path, "--seed", "2", "--replications", str(replications), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        reps = sorted(out.iterdir())
        assert len(reps) == replications
        checks = benchmark_module("checks")
        for rep in reps:
            checks.check_replication(doc, rep)


@pytest.mark.parametrize("command", ["validate", "run"])
class TestUnreadableScenario:
    @staticmethod
    def argv(command, path, out):
        return [command, str(path)] + (["--out", str(out)] if command == "run" else [])

    def test_directory_exits_one(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.argv(command, tmp_path, out)) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}")
        assert not out.exists()

    def test_non_utf8_file_exits_one(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("name: caf\xe9\n".encode("latin-1"))
        out = tmp_path / "out"
        assert main(self.argv(command, path, out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8")
        assert not out.exists()


class TestRun:
    def test_same_seed_twice_identical_outputs(self, scenario_path, tmp_path, capsys):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", scenario_path, "--seed", "42", "--out", str(first)]) == 0
        assert main(["run", scenario_path, "--seed", "42", "--out", str(second)]) == 0
        for name in ("events.log", "summary.csv", "population.csv"):
            assert (first / "rep_000" / name).read_bytes() == (
                second / "rep_000" / name
            ).read_bytes()

    def test_invalid_scenario_writes_nothing(self, minimal_doc, tmp_path, capsys):
        minimal_doc["seed"] = "nope"
        path = write_doc(tmp_path / "bad.yaml", minimal_doc)
        out = tmp_path / "artifacts"
        assert main(["run", path, "--out", str(out)]) == 1
        assert not out.exists()

    def test_replications_create_numbered_directories(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "reps"
        assert main(["run", scenario_path, "--replications", "3", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["rep_000", "rep_001", "rep_002"]

    def test_failed_replication_writes_nothing(self, minimal_doc, tmp_path, capsys, monkeypatch):
        # Seeds 2 and 3 run to the end; seed 4 fails once its first tick has run.
        step = Simulation.step

        def failing(sim):
            step(sim)
            if sim.seed == 4:
                raise MnegotiError("replication of seed 4 failed")

        monkeypatch.setattr(Simulation, "step", failing)
        path = write_doc(tmp_path / "scenario.yaml", minimal_doc)
        out = tmp_path / "reps"
        argv = ["run", path, "--seed", "2", "--replications", "3", "--out", str(out)]
        assert main(argv) == 1
        assert "error: replication of seed 4 failed" in capsys.readouterr().err
        assert not out.exists()

    def test_out_env_var_is_fallback(self, scenario_path, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("MNEGOTI_OUT", str(env_dir))
        assert main(["run", scenario_path]) == 0
        assert (env_dir / "rep_000" / "events.log").exists()

    def test_out_flag_beats_env_var(self, scenario_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MNEGOTI_OUT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        assert main(["run", scenario_path, "--out", str(chosen)]) == 0
        assert chosen.exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("flag", ["--ticks", "--seed"])
    def test_negative_seed_or_ticks_exits_one(self, flag, scenario_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", scenario_path, flag, "-3", "--out", str(out)]) == 1
        assert f"error: {flag} must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_ticks_override(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "short"
        assert main(["run", scenario_path, "--ticks", "0", "--out", str(out)]) == 0
        log = (out / "rep_000" / "events.log").read_text()
        assert "room_opened" not in log  # room opens at tick 1, after the stop

    def test_summary_table_printed(self, scenario_path, tmp_path, capsys):
        main(["run", scenario_path, "--out", str(tmp_path / "o")])
        printed = capsys.readouterr().out
        assert "seed 42" in printed
        assert "status" in printed


class TestInspect:
    def test_trace_grouped_by_tick(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "o"
        main(["run", scenario_path, "--out", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out / "rep_000" / "events.log")]) == 0
        printed = capsys.readouterr().out
        assert "tick 0:" in printed
        assert "room_opened" in printed
        assert "session_end" in printed

    def test_missing_log_exits_one(self, capsys):
        assert main(["inspect", "/nonexistent/events.log"]) == 1

    def test_closed_pipe_ends_quietly(self, scenario_path, tmp_path, capsys):
        # The pipe's read end is closed before the child starts, so its
        # first write to stdout fails with EPIPE.
        out = tmp_path / "o"
        main(["run", scenario_path, "--out", str(out)])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = subprocess.run(
                [sys.executable, "-m", "mnegoti.cli", "inspect",
                 str(out / "rep_000" / "events.log")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.stderr == b""
        assert child.returncode == 0

    def test_line_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text("[1,2]\n")
        assert main(["inspect", str(log)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed event log {log}: line 1:")

    def test_lines_before_a_malformed_one_stay_printed(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        records = [EventRecord(0, None, "report", {"n": n}) for n in range(2)]
        log.write_text("".join(event_line(r) + "\n" for r in records) + "\n{\"tick\": 1}\n")
        assert main(["inspect", str(log)]) == 1
        printed = capsys.readouterr()
        assert printed.out == "tick 0:\n  [   -] report n=0\n  [   -] report n=1\n"
        assert printed.err.startswith(f"error: malformed event log {log}: line 4:")

    def test_memory_does_not_grow_with_the_log(self, tmp_path):
        def peak_bytes(lines):
            log = tmp_path / f"{lines}.log"
            with open(log, "w", encoding="utf-8") as file:
                for n in range(lines):
                    data = {"accept": n % 3 == 0, "agent": n, "room": 2, "round": n // 100}
                    file.write(event_line(EventRecord(n // 1000, 50, "vote", data)) + "\n")
            with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
                tracemalloc.start()
                try:
                    assert main(["inspect", str(log)]) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak_bytes(20_000) <= 1.5 * peak_bytes(2_000)


class TestParsing:
    def test_unknown_flag_exits_two(self, scenario_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", scenario_path, "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2

    def test_no_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
