import json
from pathlib import Path

import pytest

from fedsim.model import ScenarioError
from fedsim.scenario import (
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_dict():
    return {
        "resource_types": ["cpu"],
        "brokers": [{"id": 0, "neighbors": [], "visible_providers": [0]}],
        "providers": [
            {"id": 0, "capacity": {"cpu": 4}, "base_prices": {"cpu": "2.00"}}
        ],
        "consumers": [
            {
                "id": 0,
                "broker": 0,
                "issue_time": 0,
                "earliest_start": 0,
                "deadline": 10,
                "budget": "50.00",
                "bundle": {"cpu": 1},
                "task_duration": 2,
            }
        ],
    }


def test_minimal_scenario_parses():
    scn = parse_scenario(minimal_dict())
    assert len(scn.brokers) == 1
    assert scn.effective_max_migrations() == 0
    assert scn.consumers[0].request().budget == 50


def test_bundled_scenarios_all_load():
    for name in ("minimal.json", "migration.json", "churn.json"):
        load_scenario(SCENARIOS / name)


def test_dangling_visibility_reference():
    data = minimal_dict()
    data["brokers"][0]["visible_providers"] = [9]
    with pytest.raises(ScenarioError, match="provider 9 is not declared"):
        parse_scenario(data)


def test_asymmetric_neighbor_edge_rejected():
    data = minimal_dict()
    data["brokers"] = [
        {"id": 0, "neighbors": [1], "visible_providers": [0]},
        {"id": 1, "neighbors": [], "visible_providers": []},
    ]
    with pytest.raises(ScenarioError, match="not symmetric"):
        parse_scenario(data)


def test_self_neighbor_rejected():
    data = minimal_dict()
    data["brokers"][0]["neighbors"] = [0]
    with pytest.raises(ScenarioError, match="cannot neighbor itself"):
        parse_scenario(data)


def test_undeclared_resource_type_rejected():
    data = minimal_dict()
    data["consumers"][0]["bundle"] = {"gpu": 1}
    with pytest.raises(ScenarioError, match="'gpu' is not declared"):
        parse_scenario(data)


def test_bad_request_window_rejected():
    data = minimal_dict()
    data["consumers"][0]["deadline"] = 0
    with pytest.raises(ScenarioError, match="deadline-before-start"):
        parse_scenario(data)


def test_leave_of_unknown_provider_rejected():
    data = minimal_dict()
    data["churn"] = [{"time": 1, "action": "leave", "provider": 7}]
    with pytest.raises(ScenarioError, match="not live"):
        parse_scenario(data)


def test_double_leave_rejected():
    data = minimal_dict()
    data["churn"] = [
        {"time": 1, "action": "leave", "provider": 0},
        {"time": 2, "action": "leave", "provider": 0},
    ]
    with pytest.raises(ScenarioError, match="not live"):
        parse_scenario(data)


def test_join_reusing_id_rejected():
    data = minimal_dict()
    data["churn"] = [
        {
            "time": 1,
            "action": "join",
            "provider": {"id": 0, "capacity": {"cpu": 1}, "base_prices": {"cpu": "1.00"}},
        }
    ]
    with pytest.raises(ScenarioError, match="already used"):
        parse_scenario(data)


def test_unknown_delay_agent_rejected():
    data = minimal_dict()
    data["delays"] = [{"a": "broker:0", "b": "provider:5", "delay": 1}]
    with pytest.raises(ScenarioError, match="provider:5 is not declared"):
        parse_scenario(data)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(bad)


def test_echo_round_trip_is_idempotent(tmp_path):
    for name in ("minimal.json", "migration.json", "churn.json"):
        scn = load_scenario(SCENARIOS / name)
        echo = tmp_path / f"echo-{name}"
        save_scenario(scn, echo)
        again = load_scenario(echo)
        assert again == scn
        # a second echo is byte-identical
        echo2 = tmp_path / f"echo2-{name}"
        save_scenario(again, echo2)
        assert echo.read_bytes() == echo2.read_bytes()


def test_echo_dict_is_json_stable():
    scn = parse_scenario(minimal_dict())
    first = json.dumps(scenario_to_dict(scn), sort_keys=True)
    second = json.dumps(scenario_to_dict(parse_scenario(minimal_dict())), sort_keys=True)
    assert first == second


PRICING_FLOATS = ("demand_sensitivity", "grade_smoothing", "cost_weight", "time_weight")


@pytest.mark.parametrize("field", PRICING_FLOATS)
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), "NaN", "Infinity", [1], {"x": 1}], ids=repr
)
def test_non_finite_or_non_numeric_pricing_rejected(field, value):
    data = minimal_dict()
    data["pricing"] = {field: value}
    with pytest.raises(ScenarioError, match=f"pricing.*{field}"):
        parse_scenario(data)
