"""CLI subcommands: exit codes, artifact layout, determinism, inspection."""

from __future__ import annotations

import copy

import yaml
import pytest

from mnegoti.cli import main

from conftest import MINIMAL_DOC, SCENARIO_DIR, benchmark_module


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


def crowded_doc() -> dict:
    """1 200 agents in 4 groups and 9 conditions rooms opening at tick 1.

    Every opening fires one scan per agent, so tick 1 may fire
    9 x 1 200 = 10 800 reactions, over the cascade cap of 10 000.
    """
    doc = copy.deepcopy(MINIMAL_DOC)
    group = doc["groups"][0]
    doc["groups"] = [dict(group, id=g, name=f"g{g}", member_count=300) for g in range(4)]
    room = doc["rooms"][0]
    doc["rooms"] = [dict(room, id=r) for r in range(9)]
    return doc


class TestCascadeFanoutWarning:
    def test_crowded_opening_warns_and_still_validates(self, tmp_path, capsys):
        path = write_doc(tmp_path / "crowded.yaml", crowded_doc())
        assert main(["validate", path]) == 0
        printed = capsys.readouterr()
        assert printed.err == (
            "warning: tick 1: watcher rule 0 may fire up to 10800 reactions; "
            "the cascade cap is 10000\n"
        )
        assert printed.out.startswith("ok:")

    def test_crowded_opening_overflows_the_cap_when_run(self, tmp_path, capsys):
        path = write_doc(tmp_path / "crowded.yaml", crowded_doc())
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "the cascade cap) in tick 1" in capsys.readouterr().err

    def test_fanout_at_the_cap_does_not_warn(self, tmp_path, capsys):
        doc = crowded_doc()
        for group in doc["groups"]:
            group["member_count"] = 250  # 9 x 1 000 = 9 000
        doc["rooms"].append(dict(doc["rooms"][0], id=9))  # 10 x 1 000 = 10 000
        assert main(["validate", write_doc(tmp_path / "full.yaml", doc)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_bundled_scenarios_do_not_warn(self, name, capsys):
        assert main(["validate", str(SCENARIO_DIR / name)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("workload", ["town_hall", "summit", "room_churn", "sweep"])
    def test_benchmark_workloads_do_not_warn(self, workload, tmp_path, capsys):
        for path in benchmark_module("workloads").write_inputs(workload, 1, tmp_path):
            assert main(["validate", str(path)]) == 0
            assert capsys.readouterr().err == ""


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

    def test_failed_replication_writes_nothing(self, tmp_path, capsys):
        # Every agent that starts watching makes all 150 agents scan again.
        # Seeds 2 and 3 stay under the cascade cap; seed 4 sends enough
        # agents to watching to overflow it.
        doc = copy.deepcopy(MINIMAL_DOC)
        doc["criteria"] = [
            {"id": 0, "name": "a", "direction": "benefit"},
            {"id": 1, "name": "b", "direction": "benefit"},
        ]
        doc["issues"] = [
            {"id": 0, "name": "left", "scores": [1.0, 0.0]},
            {"id": 1, "name": "right", "scores": [0.0, 1.0]},
        ]
        doc["groups"][0].update(member_count=150, bounds=[[0.0, 1.0], [0.0, 1.0]])
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
        path = write_doc(tmp_path / "cascade.yaml", doc)
        out = tmp_path / "reps"
        argv = ["run", path, "--seed", "2", "--replications", "3", "--out", str(out)]
        assert main(argv) == 1
        assert "the cascade cap" in capsys.readouterr().err
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

    def test_line_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text("[1,2]\n")
        assert main(["inspect", str(log)]) == 1
        assert capsys.readouterr().err.startswith(f"error: malformed event log {log}")


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
