"""Scenario validation, normalization, and canonical round-tripping."""

from __future__ import annotations

import copy

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mnegoti import scenario as scenario_module
from mnegoti.cli import main
from mnegoti.engine import Simulation
from mnegoti.errors import ValidationError
from mnegoti.model import Direction, DistributionKind, StrategyKind
from mnegoti.scenario import (
    load_scenario,
    load_scenario_file,
    parse_scenario_text,
    serialize_scenario,
)

from conftest import MINIMAL_DOC

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
        assert scenario.rooms[0].schedule[0].agenda.protocol_id == "main"

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
        (issue,) = scenario.normalized_issues()
        assert issue.scores == (0.8, 0.7)
        assert scenario.criteria[1].direction is Direction.COST

    def test_deadline_defaults_to_protocol_max_rounds(self, minimal_doc):
        scenario = load_scenario(minimal_doc)
        assert scenario.rooms[0].schedule[0].agenda.deadline_rounds == 4

    def test_explicit_deadline_wins(self, minimal_doc):
        minimal_doc["rooms"][0]["schedule"][0]["agenda"]["deadline_rounds"] = 2
        scenario = load_scenario(minimal_doc)
        assert scenario.rooms[0].schedule[0].agenda.deadline_rounds == 2


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


class TestRoundTrip:
    def test_minimal_roundtrip_is_identity(self, minimal_doc):
        first = load_scenario(minimal_doc)
        second = load_scenario(serialize_scenario(first))
        assert first == second

    def test_bundled_files_roundtrip(self, scenario_dir):
        for name in SCENARIO_FILES:
            first = load_scenario_file(scenario_dir / name)
            second = load_scenario(serialize_scenario(first))
            assert first == second, name

    def test_serialized_form_is_plain_data(self, minimal_doc):
        document = serialize_scenario(load_scenario(minimal_doc))
        import json

        json.dumps(document)  # all values are JSON-serializable scalars

    def test_strategy_and_distribution_survive(self, scenario_dir):
        scenario = load_scenario_file(scenario_dir / "protection_strategies.yaml")
        assert scenario.groups[0].strategy.kind is StrategyKind.TIME_DEPENDENT
        assert scenario.groups[1].distribution.kind is DistributionKind.TRUNCATED_NORMAL
        again = load_scenario(serialize_scenario(scenario))
        assert again.groups == scenario.groups
