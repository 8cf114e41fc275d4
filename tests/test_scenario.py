"""Scenario validation and normalization."""

from __future__ import annotations

import copy
from collections import Counter

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti import scenario as scenario_module
from mnegoti.cli import main
from mnegoti.context import ObjectKind
from mnegoti.engine import Simulation
from mnegoti.errors import ValidationError
from mnegoti.model import Agent, Direction, DistributionKind, StrategyKind
from mnegoti.rooms import MeetingRoom
from mnegoti.runner import run
from mnegoti.scenario import (
    load_scenario,
    load_scenario_file,
    parse_scenario_text,
    read_document,
)

from conftest import MINIMAL_DOC, benchmark_module, run_counting_pushes, two_group_doc

SCENARIO_FILES = ["protection_strategies.yaml", "supply_chain.yaml", "concurrent_rooms.yaml"]
MALFORMED = "{version: 1, seed: ["


def path_of(exc: ValidationError) -> str:
    return exc.path


class TestLoading:
    def test_minimal_scenario_loads(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        assert scenario.total_agents == 2
        assert len(scenario.criteria) == 1
        assert len(scenario.issues) == 2
        assert scenario.rooms[0].schedule[0].agenda.protocol.id == "main"

    def test_agenda_holds_the_scenarios_own_objects(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["issues"] = [1, 0]
        scenario = load_scenario(minimal_doc)
        agenda = scenario.rooms[0].schedule[0].agenda
        assert [issue.id for issue in agenda.issues] == [0, 1]
        assert all(a is b for a, b in zip(agenda.issues, scenario.issues))
        assert agenda.protocol is scenario.protocols[0]

    @pytest.mark.parametrize(
        ("theta_in", "threshold", "admitted"),
        [(0.9, None, False), (0.3, None, True), (0.9, 0.25, True)],
    )
    def test_policy_without_threshold_takes_theta_in(
        self, minimal_doc, theta_in, threshold, admitted
    ):
        # The one criterion gives every agent utility 0.8 on issue 0, its best.
        minimal_doc["theta_in"] = theta_in
        if threshold is not None:
            minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"]["threshold"] = threshold
        agenda = load_scenario(minimal_doc).rooms[0].schedule[0].agenda
        assert agenda.admission.threshold == (theta_in if threshold is None else threshold)
        room = MeetingRoom(0)
        room.open(agenda)
        agent = Agent(id=0, group_id=0, weights=(1.0,))
        assert (room.check_admission(agent) is not None) is admitted

    def test_bundled_files_load(self, scenario_dir):
        for name in SCENARIO_FILES:
            scenario = load_scenario_file(scenario_dir / name)
            assert scenario.total_agents >= 2

    def test_member_id_blocks_follow_declaration_order(self, minimal_doc):
        minimal_doc["groups"].append(
            {
                "id": 5,
                "name": "second",
                "member_count": 3,
                "bounds": [[0.0, 1.0]],
            }
        )
        sim = Simulation(load_scenario(minimal_doc), seed=1)
        assert {a.id: a.group_id for a in sim.agents.values()} == {0: 0, 1: 0, 2: 5, 3: 5, 4: 5}

    def test_yaml_text_parses(self):
        text = """
version: 1
seed: 1
ticks: 2
criteria: [{id: 0, name: c}]
issues: [{id: 0, name: a, scores: [0.5]}, {id: 1, name: b, scores: [0.25]}]
groups: [{id: 0, name: g, member_count: 2, bounds: [[0.0, 1.0]]}]
"""
        scenario = parse_scenario_text(text)
        assert scenario.seed == 1
        assert scenario.rooms == ()

    def test_malformed_yaml_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_scenario_text(MALFORMED)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestYamlLoader:
    def test_libyaml_is_the_default_when_installed(self):
        assert scenario_module.YAML_LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_both_loaders_give_equal_scenarios(self, scenario_dir, name, monkeypatch):
        text = (scenario_dir / name).read_text(encoding="utf-8")
        fast = parse_scenario_text(text)
        monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)
        assert parse_scenario_text(text) == fast


class TestPurePythonLoader:
    @pytest.fixture(autouse=True)
    def pure_python_loader(self, monkeypatch):
        monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)

    def test_malformed_yaml_is_validation_error_at_scenario(self):
        with pytest.raises(ValidationError, match="not a well-formed document") as exc:
            parse_scenario_text(MALFORMED)
        assert path_of(exc.value) == "scenario"

    def test_cli_validate_reports_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(MALFORMED)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("invalid scenario:")

    def test_cli_refuses_deep_nesting(self, tmp_path, capsys):
        path = tmp_path / "deep.yaml"
        path.write_text("version: 1\nseed: 1\nticks: 1\n" + DEEP)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "invalid scenario: scenario: nested too deeply to parse\n"
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])

# Documents in the plain-data subset, at its edges; ``read_document`` builds
# them without PyYAML's constructor.
PLAIN_DOCUMENTS = {
    "scalars": (
        "octal: 010\nhex: 0x1F\nsexagesimal: 1:30\nunderscored: 1_000\ninfinity: .inf\n"
        "minus_infinity: -.inf\nnot_a_number: .nan\nexponent: 1.5e3\ntruthy: yes\n"
        "falsy: off\nword: true\ntilde: ~\nnull_word: null\nempty:\nquoted: '010'\n"
    ),
    "explicit_tags": "text: !!str 1\nnumber: !!float 1\n",
    "nested": "a: [{b: [1, [2, []]], c: {}}]\nd: 'x'\n",
    "duplicate_keys": "a: 1\nb: [2]\na: [3]\nb: 4\nc: {d: 5}\nc: {e: 6}\n",
}
# Documents that PyYAML's constructor builds whole.
OTHER_DOCUMENTS = {
    "alias": "shared: &s {k: [1, 2]}\nagain: *s\nnumber: &n 1000\nsame: *n\n",
    "merge_key": "base: &b {x: 1, y: 2}\nderived: {<<: *b, y: 3}\n",
    "timestamp": "at: 2001-12-14t21:59:43.10-05:00\nday: 2002-12-14\n",
    "int_key": "1: one\n2: two\n",
    "bool_key": "yes: 1\n",
}
# Texts that PyYAML refuses.
REFUSED_DOCUMENTS = {
    "two_documents": "a: 1\n---\nb: 2\n",
    "unhashable_key": "? [a, b]\n: 1\n",
}
DEEP = "criteria: " + "[" * 20_000 + "]" * 20_000 + "\n"


def nesting_depth(value) -> int:
    """The depth of a list holding one list at each level down to an empty one."""
    depth = 0
    while value:
        assert type(value) is list and len(value) == 1
        value, depth = value[0], depth + 1
    assert value == []
    return depth


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
class TestReadDocument:
    """``read_document`` gives ``yaml.load``'s document with each loader.

    Documents are compared by ``repr``, which tells 1, 1.0 and True apart
    and reads ``nan`` as equal to itself.
    """

    @pytest.fixture(autouse=True)
    def use_loader(self, loader, monkeypatch):
        monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)

    def plain_only(self, loader, monkeypatch):
        """Make PyYAML's constructor fail, so only the one-pass build can succeed."""

        def refuse(self, node):
            raise AssertionError("built by PyYAML's constructor")

        monkeypatch.setattr(loader, "construct_document", refuse)

    def assert_built_in_one_pass(self, loader, texts, monkeypatch):
        expected = [repr(yaml.load(text, Loader=loader)) for text in texts]
        self.plain_only(loader, monkeypatch)
        assert [repr(read_document(text)) for text in texts] == expected

    @pytest.mark.parametrize("name", sorted(PLAIN_DOCUMENTS))
    def test_plain_document(self, loader, name, monkeypatch):
        self.assert_built_in_one_pass(loader, [PLAIN_DOCUMENTS[name]], monkeypatch)

    @pytest.mark.parametrize("name", sorted(OTHER_DOCUMENTS))
    def test_other_document(self, loader, name):
        text = OTHER_DOCUMENTS[name]
        assert repr(read_document(text)) == repr(yaml.load(text, Loader=loader))

    def test_alias_stays_shared(self, loader):
        doc = read_document(OTHER_DOCUMENTS["alias"])
        assert doc["again"] is doc["shared"]
        assert doc["same"] is doc["number"]

    def test_empty_document_is_none(self, loader):
        assert yaml.load("", Loader=loader) is None
        assert read_document("") is None

    @pytest.mark.parametrize("name", sorted(REFUSED_DOCUMENTS))
    def test_refused_document_keeps_pyyaml_text(self, loader, name):
        text = REFUSED_DOCUMENTS[name]
        with pytest.raises(yaml.YAMLError) as expected:
            yaml.load(text, Loader=loader)
        with pytest.raises(ValidationError) as exc:
            read_document(text)
        assert path_of(exc.value) == "scenario"
        assert str(exc.value) == f"scenario: not a well-formed document: {expected.value}"

    def test_deep_nesting(self, loader, monkeypatch):
        if loader is yaml.SafeLoader:
            # PyYAML's pure-Python composer recurses once per level, so the
            # text is refused as a scenario rather than loaded.
            with pytest.raises(RecursionError):
                yaml.load(DEEP, Loader=loader)
            with pytest.raises(ValidationError) as exc:
                read_document(DEEP)
            assert str(exc.value) == "scenario: nested too deeply to parse"
            return
        expected = yaml.load(DEEP, Loader=loader)
        self.plain_only(loader, monkeypatch)
        doc = read_document(DEEP)
        assert list(doc) == list(expected) == ["criteria"]
        assert nesting_depth(doc["criteria"]) == nesting_depth(expected["criteria"]) == 19_999

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_bundled_scenario(self, loader, name, scenario_dir, monkeypatch):
        text = (scenario_dir / name).read_text(encoding="utf-8")
        self.assert_built_in_one_pass(loader, [text], monkeypatch)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("workload", ["town_hall", "summit", "room_churn", "sweep"])
    def test_workload_input(self, loader, workload, seed, tmp_path, monkeypatch):
        paths = benchmark_module("workloads").write_inputs(workload, seed, tmp_path)
        texts = [path.read_text(encoding="utf-8") for path in paths]
        self.assert_built_in_one_pass(loader, texts, monkeypatch)


class TestNormalization:
    def test_cost_criterion_scores_flip(self, minimal_doc):
        minimal_doc["criteria"] = [
            {"id": 0, "name": "benefit_c", "direction": "benefit"},
            {"id": 1, "name": "cost_c", "direction": "cost"},
        ]
        minimal_doc["issues"] = [{"id": 0, "name": "a", "scores": [0.8, 0.3]}]
        minimal_doc["groups"][0]["bounds"] = [[0.0, 1.0], [0.0, 1.0]]
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["issues"] = [0]
        scenario = load_scenario(minimal_doc)
        (issue,) = scenario.issues
        assert issue.scores == (0.8, 0.7)
        assert scenario.criteria[1].direction is Direction.COST

    def test_deadline_defaults_to_protocol_max_rounds(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        assert scenario.rooms[0].schedule[0].agenda.deadline_rounds == 4

    def test_explicit_deadline_wins(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["deadline_rounds"] = 2
        scenario = load_scenario(minimal_doc)
        assert scenario.rooms[0].schedule[0].agenda.deadline_rounds == 2


DEFAULTS_DOC = """
version: 1
seed: 1
ticks: 4
criteria: [{id: 0, name: c}]
issues: [{id: 0, name: a, scores: [0.5]}, {id: 1, name: b, scores: [0.25]}]
groups:
  - {id: 0, name: g, member_count: 2, bounds: [[0.0, 1.0]]}
  - {id: 1, name: h, member_count: 1, bounds: [[0.0, 1.0]],
     distribution: {kind: truncated_normal}, strategy: {kind: trade_off}}
protocols: [{id: p, kind: mediated_single_text}]
rooms:
  - id: 0
    schedule:
      - {action: open, at: 1, agenda: {issues: [0, 1], admission: {kind: conditions}, protocol: p}}
      - {action: close, at: 3}
watchers:
  - watcher: {kind: agent}
    watchee: {kind: meeting_room}
    trigger: {watchee.state: open}
    reaction: {kind: agent_scan}
"""


def test_defaults_of_optional_keys():
    """Each optional key left out takes the default the README documents."""
    scenario = parse_scenario_text(DEFAULTS_DOC)
    assert scenario.theta_in == 0.0
    assert scenario.criteria[0].direction is Direction.BENEFIT
    uniform, normal = (g.distribution for g in scenario.groups)
    assert uniform.kind is DistributionKind.UNIFORM
    assert (normal.kind, normal.mean, normal.sd) == (DistributionKind.TRUNCATED_NORMAL, 0.5, 0.25)
    assert [(g.strategy.kind, g.strategy.beta) for g in scenario.groups] == [
        (StrategyKind.TIME_DEPENDENT, 1.0),
        (StrategyKind.TRADE_OFF, 1.0),
    ]
    (protocol,) = scenario.protocols
    assert (protocol.max_rounds, protocol.rounds_per_tick) == (10, 1)
    opening, closing = scenario.rooms[0].schedule
    assert opening.agenda.deadline_rounds == protocol.max_rounds
    assert opening.priority is None and closing.priority is None
    (rule,) = scenario.watchers
    assert (rule.when.value, rule.target_role, rule.priority) == ("same_tick", "watcher", None)

    sim = Simulation(scenario)
    sim.run()
    priority = {e.kind: e.priority for e in sim.events}
    assert priority["room_opened"] == 100
    assert priority["room_close_skipped"] == 90  # the session closed the room at tick 2
    # An unset reaction priority runs one band below the opening that fired it.
    assert {e.data["band"] for e in sim.events if e.kind == "watcher_fired"} == {99}


class TestValidationErrors:
    def test_bounds_lower_above_upper(self, minimal_doc):
        minimal_doc["groups"][0]["bounds"] = [[0.6, 0.4]]
        with pytest.raises(ValidationError, match="lower > upper") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "groups[0].bounds[0]"

    def test_agenda_referencing_missing_issue(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["issues"] = [0, 9]
        with pytest.raises(ValidationError) as exc:
            load_scenario(minimal_doc)
        assert "issue 9" in str(exc.value)
        assert path_of(exc.value).startswith("rooms[0].schedule[0].agenda.issues")

    def test_unknown_top_level_key(self, minimal_doc):
        minimal_doc["extras"] = 1
        with pytest.raises(ValidationError, match="unknown key"):
            load_scenario(minimal_doc)

    def test_missing_seed(self, minimal_doc):
        del minimal_doc["seed"]
        with pytest.raises(ValidationError, match="seed"):
            load_scenario(minimal_doc)

    def test_wrong_version(self, minimal_doc):
        minimal_doc["version"] = 2
        with pytest.raises(ValidationError, match="version"):
            load_scenario(minimal_doc)

    def test_noncontiguous_criterion_ids(self, minimal_doc):
        minimal_doc["criteria"] = [{"id": 1, "name": "c"}]
        with pytest.raises(ValidationError, match="contiguous"):
            load_scenario(minimal_doc)

    def test_duplicate_issue_name(self, minimal_doc):
        minimal_doc["issues"][1]["name"] = minimal_doc["issues"][0]["name"]
        with pytest.raises(ValidationError, match="duplicate issue name"):
            load_scenario(minimal_doc)

    def test_score_vector_length_mismatch(self, minimal_doc):
        minimal_doc["issues"][0]["scores"] = [0.5, 0.5]
        with pytest.raises(ValidationError, match="expected 1 scores"):
            load_scenario(minimal_doc)

    def test_score_out_of_range(self, minimal_doc):
        minimal_doc["issues"][0]["scores"] = [1.5]
        with pytest.raises(ValidationError) as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "issues[0].scores[0]"

    def test_social_edge_to_missing_agent(self, minimal_doc):
        minimal_doc["social_edges"] = [[0, 99]]
        with pytest.raises(ValidationError, match="does not exist"):
            load_scenario(minimal_doc)

    def test_social_self_edge(self, minimal_doc):
        minimal_doc["social_edges"] = [[1, 1]]
        with pytest.raises(ValidationError, match="self-edge"):
            load_scenario(minimal_doc)

    def test_unknown_protocol_reference(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["protocol"] = "ghost"
        with pytest.raises(ValidationError, match="ghost"):
            load_scenario(minimal_doc)

    def test_invitation_of_missing_agent(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [0, 17],
        }
        with pytest.raises(ValidationError, match="agent 17"):
            load_scenario(minimal_doc)

    def test_empty_invitation_list(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "invitations",
            "agents": [],
        }
        with pytest.raises(ValidationError, match="must not be empty"):
            load_scenario(minimal_doc)

    def test_admission_group_must_exist(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["admission"] = {
            "kind": "conditions",
            "groups": [2],
        }
        with pytest.raises(ValidationError, match="group 2"):
            load_scenario(minimal_doc)

    def test_malformed_watcher_query_field(self, minimal_doc):
        minimal_doc["watchers"][0]["watcher"] = {"kind": "agent", "mood": "sunny"}
        with pytest.raises(ValidationError, match="mood"):
            load_scenario(minimal_doc)

    def test_watcher_query_id_must_be_an_integer(self, minimal_doc):
        minimal_doc["watchers"][0]["watcher"] = {"kind": "agent", "id": "3"}
        with pytest.raises(ValidationError, match="expected an integer") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "watchers[0].watcher.id"

    def test_watcher_query_id_must_not_be_negative(self, minimal_doc):
        minimal_doc["watchers"][0]["watchee"] = {"kind": "meeting_room", "id": -5}
        with pytest.raises(ValidationError, match=">= 0") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "watchers[0].watchee.id"

    def test_watcher_query_group_id_must_not_be_a_bool(self, minimal_doc):
        minimal_doc["groups"][0]["id"] = 1
        minimal_doc["watchers"][0]["watcher"] = {"kind": "agent", "group_id": True}
        with pytest.raises(ValidationError, match="expected an integer") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "watchers[0].watcher.group_id"

    def test_unknown_trigger_state(self, minimal_doc):
        minimal_doc["watchers"][0]["trigger"] = {"watchee.state": "ajar"}
        with pytest.raises(ValidationError, match="ajar"):
            load_scenario(minimal_doc)

    def test_unknown_trigger_field(self, minimal_doc):
        minimal_doc["watchers"][0]["trigger"] = {"watchee.colour": "red"}
        with pytest.raises(ValidationError, match="unknown key"):
            load_scenario(minimal_doc)

    def test_theta_in_bounds(self, minimal_doc):
        minimal_doc["theta_in"] = 1.2
        with pytest.raises(ValidationError, match="theta_in"):
            load_scenario(minimal_doc)

    def test_bad_distribution(self, minimal_doc):
        minimal_doc["groups"][0]["distribution"] = {"kind": "truncated_normal", "sd": 0}
        with pytest.raises(ValidationError, match="sd"):
            load_scenario(minimal_doc)

    def test_bad_strategy_beta(self, minimal_doc):
        minimal_doc["groups"][0]["strategy"] = {"kind": "time_dependent", "beta": -1}
        with pytest.raises(ValidationError, match="beta"):
            load_scenario(minimal_doc)

    def test_schedule_action_must_be_open_or_close(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["action"] = "lock"
        with pytest.raises(ValidationError, match="lock"):
            load_scenario(minimal_doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "place, path",
        [
            (lambda doc, v: doc["groups"][0]["bounds"][0].__setitem__(0, v), "groups[0].bounds[0][0]"),
            (lambda doc, v: doc.__setitem__("theta_in", v), "theta_in"),
            (lambda doc, v: doc["issues"][1]["scores"].__setitem__(0, v), "issues[1].scores[0]"),
            (
                lambda doc, v: doc["groups"][0].__setitem__(
                    "distribution", {"kind": "truncated_normal", "sd": v}
                ),
                "groups[0].distribution.sd",
            ),
            (
                lambda doc, v: doc["groups"][0]["strategy"].__setitem__("beta", v),
                "groups[0].strategy.beta",
            ),
        ],
        ids=["bounds", "theta_in", "score", "sd", "beta"],
    )
    def test_non_finite_number_rejected(self, minimal_doc, place, path, value):
        place(minimal_doc, value)
        with pytest.raises(ValidationError, match="expected a finite number") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == path


DROP = object()
AGENDA = ("rooms", 0, "schedule", 0, "agenda")
ADMISSION = AGENDA + ("admission",)
RULE = ("watchers", 0)


def at(keys: tuple, value=DROP):
    """A mutation of MINIMAL_DOC that sets the value at ``keys``, or deletes it."""

    def apply(doc: dict) -> None:
        *parents, last = keys
        for key in parents:
            doc = doc[key]
        if value is DROP:
            del doc[last]
        else:
            doc[last] = value

    return apply


# Each row is a mutation of MINIMAL_DOC (or a YAML text) and the full text of
# the error it raises; together they reach every ValidationError the loader raises.
ERROR_TEXT = [
    # primitive checks
    (at(("seed",)), "scenario: missing required key 'seed'"),
    (at(("groups", 0), 5), "groups[0]: expected a mapping, got int"),
    (at(("criteria",), "value"), "criteria: expected a list, got str"),
    (at(("seed",), "3"), "seed: expected an integer, got '3'"),
    (at(("ticks",), -1), "ticks: must be >= 0, got -1"),
    (at(("theta_in",), "high"), "theta_in: expected a number, got 'high'"),
    (at(("theta_in",), float("nan")), "theta_in: expected a finite number, got nan"),
    (at(("theta_in",), -0.5), "theta_in: must be >= 0.0, got -0.5"),
    (at(("theta_in",), 1.2), "theta_in: must be <= 1.0, got 1.2"),
    (at(("protocols", 0, "id"), 7), "protocols[0].id: expected a string, got 7"),
    (at(("extras",), 1), "scenario: unknown key(s) ['extras']"),
    ("- 1\n- 2\n", "scenario: expected a mapping, got list"),
    # top level, criteria and issues
    (at(("version",), 2), "version: unsupported schema version 2"),
    (at(("criteria",), []), "criteria: at least one criterion is required"),
    (
        at(("criteria", 0, "id"), 1),
        "criteria[0].id: criterion ids must be contiguous; expected 0, got 1",
    ),
    (
        at(("criteria",), [{"id": 0, "name": "value"}, {"id": 1, "name": "value"}]),
        "criteria[1].name: duplicate criterion name 'value'",
    ),
    (
        at(("criteria", 0, "direction"), "sideways"),
        "criteria[0].direction: unknown direction 'sideways'",
    ),
    (at(("issues",), []), "issues: at least one issue is required"),
    (at(("issues", 1, "id"), 0), "issues[1].id: duplicate issue id 0"),
    (at(("issues", 1, "name"), "left"), "issues[1].name: duplicate issue name 'left'"),
    (at(("issues", 0, "scores"), [0.5, 0.5]), "issues[0].scores: expected 1 scores, got 2"),
    # groups
    (at(("groups",), []), "groups: at least one group is required"),
    (
        lambda doc: doc["groups"].append(dict(doc["groups"][0], name="other")),
        "groups[1].id: duplicate group id 0",
    ),
    (
        lambda doc: doc["groups"].append(dict(doc["groups"][0], id=1)),
        "groups[1].name: duplicate group name 'everyone'",
    ),
    (
        at(("groups", 0, "bounds"), [[0.0, 1.0], [0.0, 1.0]]),
        "groups[0].bounds: expected 1 rows, got 2",
    ),
    (
        at(("groups", 0, "bounds"), [[0.1]]),
        "groups[0].bounds[0]: expected [lower, upper], got [0.1]",
    ),
    (at(("groups", 0, "bounds"), [[0.6, 0.4]]), "groups[0].bounds[0]: lower > upper (0.6 > 0.4)"),
    (
        at(("groups", 0, "distribution"), {"kind": "poisson"}),
        "groups[0].distribution.kind: unknown distribution 'poisson'",
    ),
    (
        at(("groups", 0, "distribution"), {"kind": "truncated_normal", "sd": 0}),
        "groups[0].distribution.sd: must be > 0, got 0.0",
    ),
    (
        at(("groups", 0, "strategy"), {"kind": "greedy"}),
        "groups[0].strategy.kind: unknown strategy 'greedy'",
    ),
    (
        at(("groups", 0, "strategy", "beta"), -1),
        "groups[0].strategy.beta: must be > 0, got -1.0",
    ),
    # social edges and protocols
    (at(("social_edges",), [[0]]), "social_edges[0]: expected [a, b], got [0]"),
    (at(("social_edges",), [[1, 1]]), "social_edges[0]: self-edge on agent 1"),
    (
        at(("social_edges",), [[0, 99]]),
        "social_edges[0][1]: agent 99 does not exist (population is 2)",
    ),
    (
        lambda doc: doc["protocols"].append(dict(doc["protocols"][0])),
        "protocols[1].id: duplicate protocol id 'main'",
    ),
    (at(("protocols", 0, "kind"), "auction"), "protocols[0].kind: unknown protocol 'auction'"),
    # rooms
    (
        lambda doc: doc["rooms"].append(copy.deepcopy(doc["rooms"][0])),
        "rooms[1].id: duplicate room id 0",
    ),
    (
        at(("rooms", 0, "schedule", 0, "action"), "lock"),
        "rooms[0].schedule[0].action: expected 'open' or 'close', got 'lock'",
    ),
    (
        at(AGENDA + ("issues",), [0, 9]),
        "rooms[0].schedule[0].agenda.issues[1]: issue 9 does not exist",
    ),
    (at(AGENDA + ("issues",), [0, 0]), "rooms[0].schedule[0].agenda.issues[1]: duplicate issue 0"),
    (
        at(AGENDA + ("issues",), []),
        "rooms[0].schedule[0].agenda.issues: agenda must name at least one issue",
    ),
    (
        at(AGENDA + ("protocol",), "ghost"),
        "rooms[0].schedule[0].agenda.protocol: protocol 'ghost' does not exist",
    ),
    (
        at(ADMISSION, {"kind": "lottery"}),
        "rooms[0].schedule[0].agenda.admission.kind: unknown admission kind 'lottery'",
    ),
    (
        at(ADMISSION, {"kind": "invitations", "agents": []}),
        "rooms[0].schedule[0].agenda.admission.agents: invitation list must not be empty",
    ),
    (
        at(ADMISSION, {"kind": "invitations", "agents": [0, 17]}),
        "rooms[0].schedule[0].agenda.admission.agents[1]: "
        "agent 17 does not exist (population is 2)",
    ),
    (
        at(ADMISSION, {"kind": "conditions", "groups": [2]}),
        "rooms[0].schedule[0].agenda.admission.groups[0]: group 2 does not exist",
    ),
    # watchers
    (
        at(RULE + ("trigger",), {"watchee.state": "ajar"}),
        "watchers[0].trigger.watchee.state: unknown state 'ajar'",
    ),
    (
        at(RULE + ("trigger",), {"watchee.state": "watching"}),
        "watchers[0].trigger.watchee.state: "
        "a meeting_room is never 'watching', so this rule never fires",
    ),
    (at(RULE + ("watcher",), {"kind": "robot"}), "watchers[0].watcher.kind: unknown kind 'robot'"),
    (
        at(RULE + ("watchee",), {"kind": "meeting_room", "group_id": 0}),
        "watchers[0].watchee.group_id: a meeting_room has no group, so this query never matches",
    ),
    (
        at(RULE + ("watcher",), {"kind": "agent", "group_id": 4}),
        "watchers[0].watcher.group_id: group 4 does not exist",
    ),
    (
        at(RULE + ("reaction",), {"kind": "dance"}),
        "watchers[0].reaction.kind: unknown action kind 'dance'",
    ),
    (
        at(RULE + ("reaction",), {"kind": "room_open"}),
        "watchers[0].reaction.kind: room_open cannot be a reaction: a reaction carries no agenda",
    ),
    (
        at(RULE + ("reaction",), {"kind": "agent_scan", "when": "later"}),
        "watchers[0].reaction.when: expected same_tick or next_tick, got 'later'",
    ),
    (
        at(RULE + ("reaction",), {"kind": "agent_scan", "target": "both"}),
        "watchers[0].reaction.target: expected watcher or watchee, got 'both'",
    ),
    (
        at(RULE + ("reaction",), {"kind": "room_close"}),
        "watchers[0].watcher.kind: "
        "room_close acts on the watcher, so it must select kind: meeting_room",
    ),
    (
        at(ADMISSION, {"kind": "invitations", "agents": [1, 1, 0]}),
        "rooms[0].schedule[0].agenda.admission.agents[1]: duplicate agent 1",
    ),
    (
        at(RULE + ("trigger",), {"watcher.state": "watching"}),
        "watchers[0].trigger: no watchee.state is set, so this rule never fires",
    ),
    (
        at(RULE + ("watchee",), {"kind": "meeting_room", "state": "in_session"}),
        "watchers[0].watchee.state: "
        "'in_session' is not the trigger's watchee.state 'open', so this rule never fires",
    ),
    (
        lambda doc: doc["watchers"][0].update(
            watcher={"kind": "agent", "state": "idle"},
            trigger={"watcher.state": "watching", "watchee.state": "open"},
        ),
        "watchers[0].watcher.state: "
        "'idle' is not the trigger's watcher.state 'watching', so this rule never fires",
    ),
    # the document itself; the pure-Python loader's message is the one pinned
    (
        MALFORMED,
        "scenario: not a well-formed document: while parsing a flow node\n"
        "expected the node content, but found '<stream end>'\n"
        '  in "<unicode string>", line 1, column 21:\n'
        "    {version: 1, seed: [\n"
        "                        ^",
    ),
]


@pytest.mark.parametrize(
    "mutation, expected", ERROR_TEXT, ids=[text.split(": ")[0] for _, text in ERROR_TEXT]
)
def test_error_text(mutation, expected, monkeypatch):
    monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)
    with pytest.raises(ValidationError) as exc:
        if isinstance(mutation, str):
            parse_scenario_text(mutation)
        else:
            doc = copy.deepcopy(MINIMAL_DOC)
            mutation(doc)
            load_scenario(doc)
    assert str(exc.value) == expected


STATES = ["idle", "watching", "in_room", "negotiating", "closed", "open", "in_session"]

AGENT_STATES = {"idle", "watching", "in_room", "negotiating"}
STATES_OF = {"agent": AGENT_STATES, "meeting_room": set(STATES) - AGENT_STATES, None: set(STATES)}

queries = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["agent", "meeting_room"]),
        "state": st.sampled_from(STATES),
        "group_id": st.just(0),
    },
)


class TestWatcherRuleKinds:
    """A reaction must act on the kind it needs; a state must be one its side takes."""

    @pytest.mark.parametrize(
        "watcher, watchee, target, side",
        [
            ({"kind": "meeting_room"}, {"kind": "meeting_room"}, "watcher", "watcher"),
            ({}, {"kind": "meeting_room"}, "watcher", "watcher"),
            ({"kind": "agent"}, {"kind": "meeting_room"}, "watchee", "watchee"),
        ],
    )
    def test_agent_scan_needs_an_agent_target(self, minimal_doc, watcher, watchee, target, side):
        minimal_doc["watchers"][0].update(watcher=watcher, watchee=watchee)
        minimal_doc["watchers"][0]["reaction"] = {"kind": "agent_scan", "target": target}
        with pytest.raises(ValidationError, match="kind: agent") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == f"watchers[0].{side}.kind"

    @pytest.mark.parametrize("reaction", ["room_invite", "room_close", "negotiation_round"])
    @pytest.mark.parametrize("watchee", [{"kind": "agent"}, {}])
    def test_room_reaction_needs_a_meeting_room_target(self, minimal_doc, reaction, watchee):
        minimal_doc["watchers"][0]["watchee"] = watchee
        minimal_doc["watchers"][0]["trigger"] = {"watchee.state": "watching"}
        minimal_doc["watchers"][0]["reaction"] = {"kind": reaction, "target": "watchee"}
        with pytest.raises(ValidationError, match="kind: meeting_room") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "watchers[0].watchee.kind"

    @pytest.mark.parametrize("target", ["watcher", "watchee"])
    def test_room_open_is_never_a_reaction(self, minimal_doc, target):
        minimal_doc["watchers"][0]["reaction"] = {"kind": "room_open", "target": target}
        with pytest.raises(ValidationError, match="no agenda") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "watchers[0].reaction.kind"

    def test_group_id_on_a_meeting_room_query(self, minimal_doc):
        minimal_doc["watchers"][0]["watchee"] = {"kind": "meeting_room", "group_id": 0}
        with pytest.raises(ValidationError, match="never matches") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == "watchers[0].watchee.group_id"

    @pytest.mark.parametrize(
        "watcher, watchee, trigger, path",
        [
            (
                {"kind": "agent"},
                {"kind": "meeting_room"},
                {"watchee.state": "watching"},
                "watchers[0].trigger.watchee.state",
            ),
            (
                {"kind": "agent"},
                {"kind": "meeting_room", "state": "idle"},
                {},
                "watchers[0].watchee.state",
            ),
            (
                {"kind": "agent"},
                {"kind": "meeting_room"},
                {"watcher.state": "open"},
                "watchers[0].trigger.watcher.state",
            ),
        ],
        ids=["trigger-watchee", "query-watchee", "trigger-watcher"],
    )
    def test_state_the_kind_never_takes(self, minimal_doc, watcher, watchee, trigger, path):
        minimal_doc["watchers"][0].update(watcher=watcher, watchee=watchee, trigger=trigger)
        with pytest.raises(ValidationError, match="never fires") as exc:
            load_scenario(minimal_doc)
        assert path_of(exc.value) == path

    @given(
        watcher=queries,
        watchee=queries,
        reaction=st.sampled_from(
            ["room_open", "room_invite", "agent_scan", "negotiation_round", "room_close", "report"]
        ),
        target=st.sampled_from(["watcher", "watchee"]),
        when=st.sampled_from(["same_tick", "next_tick"]),
        trigger=st.fixed_dictionaries(
            {},
            optional={
                "watcher.state": st.sampled_from(STATES),
                "watchee.state": st.sampled_from(STATES),
            },
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_generated_rule_is_rejected_or_runs(
        self, watcher, watchee, reaction, target, when, trigger
    ):
        doc = copy.deepcopy(MINIMAL_DOC)
        # Room 5 next to agents 0 and 1: a target id names one kind only.
        doc["rooms"][0]["id"] = 5
        doc["watchers"].append(
            {
                "watcher": watcher,
                "watchee": watchee,
                "trigger": trigger,
                "reaction": {"kind": reaction, "target": target, "when": when},
            }
        )
        needed = {"agent_scan": "agent", "report": None}.get(reaction, "meeting_room")
        sides = {"watcher": watcher, "watchee": watchee}
        valid = (
            reaction != "room_open"
            and needed in (None, sides[target].get("kind"))
            and not any(
                q.get("kind") == "meeting_room" and "group_id" in q for q in sides.values()
            )
            and all(
                q["state"] in STATES_OF[q.get("kind")] for q in sides.values() if "state" in q
            )
            and all(
                state in STATES_OF[sides[key.split(".")[0]].get("kind")]
                for key, state in trigger.items()
            )
            # A rule fires only when its watchee changes into watchee.state,
            # and a query state other than the trigger's never matches then.
            and "watchee.state" in trigger
            and all(
                "state" not in q or trigger.get(f"{side}.state", q["state"]) == q["state"]
                for side, q in sides.items()
            )
        )
        if not valid:
            with pytest.raises(ValidationError):
                load_scenario(doc)
            return
        sim = Simulation(load_scenario(doc))
        sim.run()
        for event in sim.events:
            if event.kind != "watcher_fired" or event.data["rule"] != 1:
                continue
            if target == "watchee":
                kind = event.data["watchee_kind"]
            else:
                kind = "agent" if event.data["watcher"] in sim.agents else "meeting_room"
            assert needed in (None, kind)


class TestWatcherStateFold:
    """A watcher state named in the trigger, the watcher query or both is one rule's."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_three_spellings_load_and_log_alike(self, scenario_dir, seed, tmp_path):
        doc = yaml.safe_load((scenario_dir / "concurrent_rooms.yaml").read_text(encoding="utf-8"))
        spellings = [
            ({"state": "idle"}, {}),
            ({}, {"watcher.state": "idle"}),
            ({"state": "idle"}, {"watcher.state": "idle"}),
        ]
        logs, rules = [], []
        for k, (query, trigger) in enumerate(spellings):
            variant = copy.deepcopy(doc)
            variant["watchers"][0]["watcher"].update(query)
            variant["watchers"][0]["trigger"].update(trigger)
            scenario = load_scenario(variant)
            rules.append(scenario.watchers)
            (artifacts,) = run(scenario, seed=seed, out_dir=tmp_path / str(k))
            logs.append((artifacts.out_dir / "events.log").read_bytes())
        assert rules[0] == rules[1] == rules[2]
        assert (rules[0][0].watchee_state, rules[0][0].watcher_state) == ("open", "idle")
        assert logs[0] == logs[1] == logs[2]


class TestOpeningPushes:
    """Each rule's fire on one room is one push for its cause, however many watchers it has."""

    ROOM_0 = (0, ObjectKind.MEETING_ROOM, 0)

    @pytest.mark.parametrize(
        ("rule", "expected"),
        [
            ({}, [(1, 5)]),
            ({"watcher": {"kind": "agent", "group_id": 1}}, [(1, 3)]),
            ({"watcher": {"kind": "agent", "group_id": 0}}, [(1, 2)]),
            ({"watcher": {"kind": "agent", "id": 4}}, [(1, 1)]),
            ({"watchee": {"kind": "meeting_room", "id": 1}}, []),
            ({"watchee": {}}, [(1, 5)]),
            (
                {"trigger": {"watcher.state": "idle"}},
                ValidationError(
                    "watchers[0].trigger", "no watchee.state is set, so this rule never fires"
                ),
            ),
            ({"trigger": {"watchee.state": "closed"}}, [(2, 5)]),
            (
                {"watchee": {"kind": "meeting_room", "state": "closed"}},
                ValidationError(
                    "watchers[0].watchee.state",
                    "'closed' is not the trigger's watchee.state 'open', so this rule never fires",
                ),
            ),
            (
                {"watcher": {"kind": "meeting_room"},
                 "reaction": {"kind": "room_close", "target": "watcher"}},
                [(1, 1)],
            ),
        ],
    )
    def test_pushes_per_rule(self, rule, expected):
        """``expected`` is each push on room 0 as (tick, width), or a dead rule's error."""
        doc = two_group_doc()
        doc["watchers"][0].update(rule)
        if isinstance(expected, ValidationError):
            with pytest.raises(ValidationError) as exc:
                load_scenario(doc)
            assert str(exc.value) == str(expected)
            return
        pushes = run_counting_pushes(Simulation(load_scenario(doc)))
        assert [cause for _, cause, _ in pushes] == [self.ROOM_0] * len(expected)
        assert [(tick, width) for tick, _, width in pushes] == expected

    def test_opens_at_the_same_tick_are_causes_of_their_own(self):
        doc = two_group_doc()
        room = doc["rooms"][0]
        doc["rooms"] = [dict(room, id=r) for r in range(3)]
        doc["rooms"].append({"id": 3, "schedule": [dict(room["schedule"][0], at=4)]})
        pushes = run_counting_pushes(Simulation(load_scenario(doc)))
        assert pushes == [
            (1, (0, ObjectKind.MEETING_ROOM, 0), 5),
            (1, (0, ObjectKind.MEETING_ROOM, 1), 5),
            (1, (0, ObjectKind.MEETING_ROOM, 2), 5),
            (4, (0, ObjectKind.MEETING_ROOM, 3), 5),
        ]

    @staticmethod
    def assert_fires_match_pushes(scenario):
        """Each watcher push's width is its cause's ``watcher_fired`` records in that tick."""
        sim = Simulation(scenario)
        pushes = run_counting_pushes(sim)
        pushed = Counter()
        for tick, cause, width in pushes:
            if len(cause) == 3:
                rule, _, watchee = cause
                pushed[tick, rule, watchee] += width
        fired = Counter(
            (e.tick, e.data["rule"], e.data["watchee"])
            for e in sim.events
            if e.kind == "watcher_fired"
        )
        assert fired and fired == pushed
        per_cause = Counter((tick, cause) for tick, cause, _ in pushes)
        assert max(per_cause.values()) <= sim.scheduler.cascade_cap

    @pytest.mark.parametrize("name", SCENARIO_FILES)
    def test_bundled_fires_match_pushes(self, scenario_dir, name):
        self.assert_fires_match_pushes(load_scenario_file(scenario_dir / name))

    @pytest.mark.parametrize("workload", ["town_hall", "room_churn"])
    def test_workload_fires_match_pushes(self, workload, tmp_path):
        (path,) = benchmark_module("workloads").write_inputs(workload, 1, tmp_path)
        self.assert_fires_match_pushes(load_scenario_file(path))
