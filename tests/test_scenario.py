import copy
import json
import random
import re
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from fedsim.cli import main
from fedsim.engine import _World
from fedsim.model import ScenarioError, broker, consumer, money, provider
from fedsim.scenario import (
    Scenario,
    load_scenario,
    parse_scenario,
)

from helpers import fuzz_scenario

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
    assert scn.max_migrations == 0
    assert scn.consumers[0].request.budget == money("50.00")


def test_specs_hold_the_agent_ids_and_the_request_the_run_uses():
    scn = load_scenario(SCENARIOS / "migration.json")
    assert [(b.id, b.neighbors, b.visible_providers) for b in scn.brokers] == [
        (broker(0), (broker(1), broker(2)), ()),
        (broker(1), (broker(0), broker(2)), (provider(0), provider(1))),
        (broker(2), (broker(0), broker(1)), ()),
    ]
    assert [p.id for p in scn.providers] == [provider(0), provider(1)]
    request = scn.consumers[1].request
    assert (request.consumer, request.source) == (consumer(1), broker(1))
    churn = load_scenario(SCENARIOS / "churn.json").churn
    assert [(c.action.value, c.provider) for c in churn] == [
        ("leave", provider(0)),
        ("join", provider(2)),
    ]
    assert churn[1].join.id == provider(2) and churn[1].join.visible_to == (broker(0),)
    # the parser's Request is the one each consumer runs, shared by every run
    for _ in range(2):
        world = _World(scn)
        for spec in scn.consumers:
            assert world.consumers[spec.request.consumer].request is spec.request


def test_equal_bundles_and_home_brokers_are_shared_objects():
    data = fuzz_scenario(random.Random(7), 5, 15, 30, 5)
    one, two = sorted(data["resource_types"])[:2]
    for entry in data["consumers"][::2]:  # one bundle, written in either key order
        entry["bundle"] = {two: 2, one: 1} if entry["id"] % 4 else {one: 1, two: 2}
    scn = parse_scenario(data)
    first = {}  # each distinct bundle to the first object that holds it
    for spec in scn.consumers:
        bundle = spec.request.bundle
        assert first.setdefault(bundle.items, bundle) is bundle
    shared = first[(one, 1), (two, 2)]
    assert sum(spec.request.bundle is shared for spec in scn.consumers) >= 15
    own_id = {spec.id: spec.id for spec in scn.brokers}
    for spec in scn.consumers:
        assert spec.request.source is own_id[spec.request.source]


def test_bundled_scenarios_all_load():
    for name in ("minimal.json", "migration.json", "churn.json"):
        load_scenario(SCENARIOS / name)


@pytest.mark.parametrize(
    "shape",
    [(2, 1, 5, 5), (3, 150, 5, 5)],
    ids=["churn-above-the-provider-count", "more-than-100-providers"],
)
def test_the_fuzz_generator_gives_a_valid_scenario_for_any_shape(shape):
    # churn draws at most every provider once, and joins take ids past every declared one
    for seed in range(40):
        parse_scenario(fuzz_scenario(random.Random(seed), *shape))


def test_dangling_visibility_reference():
    data = minimal_dict()
    data["brokers"][0]["visible_providers"] = [9]
    with pytest.raises(ScenarioError, match="provider 9 is not declared"):
        parse_scenario(data)


def test_a_declared_providers_visible_to_joins_the_brokers_list(tmp_path):
    data = minimal_dict()
    # provider 1 names broker 0, which does not list it, over a slow link
    data["providers"].append(
        {"id": 1, "capacity": {"cpu": 4}, "base_prices": {"cpu": "1.00"}, "visible_to": [0]}
    )
    data["delays"] = [{"a": "broker:0", "b": "provider:1", "delay": 5}]
    data["hold_timeout"] = 12  # the CONFIRM reaches a hold at provider 1 12 ticks after it
    scn = parse_scenario(data)
    assert scn.brokers[0].visible_providers == (provider(0), provider(1))
    assert list(_World(scn).registry_view(broker(0))) == [provider(0), provider(1)]
    for visible_to, warns in (([0], True), ([], False)):
        data["providers"][1]["visible_to"] = visible_to
        path = tmp_path / f"seen-{len(visible_to)}.json"
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["validate", "--scenario", str(path)])
        assert result.exit_code == 0, result.output
        assert ("warning: hold_timeout" in result.stderr) is warns


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


@pytest.mark.parametrize("joining", [False, True], ids=["declared", "joining"])
@pytest.mark.parametrize(
    "capacity, prices, missing",
    [
        ({"cpu": 4, "gpu": 1}, {"cpu": "2.00"}, "base price"),
        ({"cpu": 4}, {"cpu": "2.00", "gpu": "1.00"}, "capacity"),
    ],
    ids=["unpriced-type", "priced-type-without-capacity"],
)
def test_a_provider_sells_exactly_the_types_it_has_capacity_and_a_price_for(joining, capacity, prices, missing):
    data = minimal_dict()
    data["resource_types"] = ["cpu", "gpu"]
    spec = {"id": 1, "capacity": capacity, "base_prices": prices}
    if joining:
        data["churn"] = [{"time": 1, "action": "join", "provider": spec}]
    else:
        data["providers"].append(spec)
    where = r"churn\[0\]\.provider" if joining else r"providers\[1\]"
    with pytest.raises(ScenarioError, match=rf"^scenario\.{where}: provider 1 has no {missing} for type 'gpu'$"):
        parse_scenario(data)


def test_unknown_delay_agent_rejected():
    data = minimal_dict()
    data["delays"] = [{"a": "broker:0", "b": "provider:5", "delay": 1}]
    with pytest.raises(ScenarioError, match="provider:5 is not declared"):
        parse_scenario(data)


@pytest.mark.parametrize(
    "payload, match",
    [
        pytest.param(b"{not json", "invalid JSON at line 1", id="syntax"),
        pytest.param(b"\xff\xfe{}", "not UTF-8 text", id="not-utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, "invalid JSON: nested too deeply", id="deep"),
        pytest.param(
            b'{"max_rejects": ' + b"7" * 5_000 + b"}",
            "invalid JSON: .*digits",
            id="long-integer",
            marks=pytest.mark.skipif(
                not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit"
            ),
        ),
    ],
)
def test_missing_file_and_bad_json(tmp_path, payload, match):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    with pytest.raises(ScenarioError, match=f"^{re.escape(str(bad))}: {match}"):
        load_scenario(bad)


PRICING_FLOATS = ("demand_sensitivity", "grade_smoothing", "cost_weight")


@pytest.mark.parametrize("field", PRICING_FLOATS)
@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), "NaN", "Infinity", "2.5", " 0.25 ", [1], {"x": 1}, True, False],
    ids=repr,
)
def test_non_finite_or_non_numeric_pricing_rejected(field, value):
    data = minimal_dict()
    data["pricing"] = {field: value}
    with pytest.raises(ScenarioError, match=f"pricing.*{field}"):
        parse_scenario(data)


# the README's documented default of each optional field, by its path in a Scenario
DOCUMENTED_DEFAULTS = {
    "max_migrations": 0,  # broker count - 1, with minimal_dict()'s one broker
    "max_rejects": 3,
    "hold_timeout": 50,
    "event_budget": 1_000_000,
    "default_delay": 1,
    "criteria": ("workload", "delay"),
    "pricing.demand_sensitivity": 1.0,
    "pricing.grade_smoothing": 0.3,
    "pricing.cost_weight": 0.5,
}


@pytest.mark.parametrize("pricing", [None, {}], ids=["no-pricing", "empty-pricing"])
@pytest.mark.parametrize("path, expected", sorted(DOCUMENTED_DEFAULTS.items()))
def test_an_omitted_optional_field_takes_its_documented_default(path, expected, pricing):
    data = minimal_dict()
    if pricing is not None:
        data["pricing"] = pricing
    value = parse_scenario(data)
    for name in path.split("."):
        value = getattr(value, name)
    assert value == expected


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("event_budget", 0, "must be >= 1"),
        ("hold_timeout", 0, "must be >= 1"),
        ("max_rejects", -1, "must be >= 0"),
        ("default_delay", -1, "must be >= 0"),
        ("max_migrations", -1, "must be >= 0"),
        ("event_budget", "zzz", "expected an integer"),
        ("hold_timeout", 2.5, "expected an integer"),
        ("max_rejects", True, "expected an integer"),
    ],
)
def test_an_invalid_optional_integer_is_a_scenario_error_naming_it(key, value, match):
    with pytest.raises(ScenarioError, match=rf"^scenario\.{key}: {match}"):
        parse_scenario({**minimal_dict(), key: value})


DELETE = object()  # a HOSTILE value that removes the field instead


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    if value is DELETE:
        del data[path[-1]]
    else:
        data[path[-1]] = value


def _consumer_error(field, value, message, id):
    """A HOSTILE row for one field of consumers[0]; `message` follows `scenario.consumers[0]`."""
    return pytest.param(("consumers", 0, field), value, rf"^scenario\.consumers\[0\]{message}$", id=id)


# (path into minimal_dict(), value put there, pattern the error must match)
HOSTILE = [
    # every check of a consumer entry, in the order the parser makes them
    _consumer_error("id", DELETE, r": missing required field 'id'", "consumer-id-missing"),
    _consumer_error("id", True, r"\.id: expected an integer, got True", "consumer-id-bool"),
    _consumer_error("id", -1, r"\.id: must be >= 0, got -1", "consumer-id-negative"),
    pytest.param(
        ("consumers",), minimal_dict()["consumers"] * 2,
        r"^scenario\.consumers\[1\]: duplicate consumer id 0$",
        id="consumer-id-duplicate",
    ),
    _consumer_error("broker", DELETE, r": missing required field 'broker'", "consumer-broker-missing"),
    _consumer_error("broker", 7, r"\.broker: broker 7 is not declared", "consumer-broker-undeclared"),
    _consumer_error("broker", "0", r"\.broker: expected an integer, got '0'", "consumer-broker-string"),
    _consumer_error("issue_time", -1, r"\.issue_time: must be >= 0, got -1", "consumer-issue-negative"),
    _consumer_error(
        "earliest_start", "3", r"\.earliest_start: expected an integer, got '3'", "consumer-start-string"
    ),
    _consumer_error("deadline", DELETE, r": missing required field 'deadline'", "consumer-deadline-missing"),
    _consumer_error("task_duration", 0, r"\.task_duration: must be >= 1, got 0", "consumer-duration-zero"),
    _consumer_error("budget", DELETE, r": missing required field 'budget'", "consumer-budget-missing"),
    _consumer_error(
        "bundle", [1], r"\.bundle: expected a non-empty mapping of resource type to quantity",
        "consumer-bundle-list",
    ),
    _consumer_error(
        "bundle", {"gpu": 1}, r"\.bundle: resource type 'gpu' is not declared", "consumer-bundle-undeclared"
    ),
    _consumer_error(
        "bundle", {"cpu": True}, r"\.bundle\.cpu: quantity must be a positive integer, got True",
        "consumer-bundle-bool-quantity",
    ),
    pytest.param(("brokers",), [5], r"brokers\[0\]: expected an object", id="broker-not-object"),
    pytest.param(
        ("providers",), ["p"],
        r"providers\[0\]: expected an object",
        id="provider-not-object",
    ),
    pytest.param(
        ("consumers",), [[0]],
        r"consumers\[0\]: expected an object",
        id="consumer-not-object",
    ),
    pytest.param(("churn",), ["leave"], r"churn\[0\]: expected an object", id="churn-not-object"),
    pytest.param(
        ("churn",), [{"time": 1, "action": "leave", "provider": 0}, {"time": "2"}],
        r"churn\[1\]\.time",
        id="churn-time-string",
    ),
    pytest.param(("delays",), [3], r"delays\[0\]: expected an object", id="delay-not-object"),
    pytest.param(
        ("delays",), [{"a": "broker:\u00b2", "b": "broker:0", "delay": 1}],
        r"delays\[0\]",
        id="delay-superscript-id",
    ),
    pytest.param(("criteria",), 5, r"criteria: expected a list", id="criteria-int"),
    pytest.param(("criteria",), "workload", r"criteria: expected a list", id="criteria-string"),
    pytest.param(("criteria",), [], r"criteria: at least one criterion", id="criteria-empty"),
    pytest.param(
        ("criteria",), ["workload", "charisma"],
        r"criteria: unknown criterion 'charisma'",
        id="criteria-unknown-name",
    ),
    pytest.param(
        ("criteria",), [["workload"]],
        r"criteria: unknown criterion",
        id="criteria-unhashable",
    ),
    pytest.param(
        ("brokers", 0, "neighbors"), [[1]],
        r"brokers\[0\]\.neighbors",
        id="neighbor-unhashable",
    ),
    pytest.param(
        ("brokers", 0, "neighbors"), [True],
        r"brokers\[0\]\.neighbors",
        id="neighbor-bool",
    ),
    pytest.param(
        ("brokers", 0, "visible_providers"), [{"id": 0}],
        r"brokers\[0\]\.visible_providers",
        id="visible-provider-object",
    ),
    pytest.param(("consumers", 0, "budget"), "NaN", r"consumers\[0\]\.budget", id="budget-nan"),
    # utility is the share of the budget saved, so it needs a budget above zero
    pytest.param(
        ("consumers", 0, "budget"), "0.00",
        r"^scenario\.consumers\[0\]\.budget: must be > 0, got 0\.00$",
        id="budget-zero",
    ),
    pytest.param(
        ("consumers", 0, "budget"), "-1.00",
        r"^scenario\.consumers\[0\]\.budget: must be > 0, got -1\.00$",
        id="budget-negative",
    ),
    pytest.param(
        ("consumers", 0, "bundle"), {},
        r"^scenario\.consumers\[0\]\.bundle: expected a non-empty mapping",
        id="bundle-empty",
    ),
    pytest.param(
        ("consumers", 0, "bundle", "cpu"), 0,
        r"^scenario\.consumers\[0\]\.bundle\.cpu: quantity must be a positive integer, got 0$",
        id="bundle-zero-quantity",
    ),
    pytest.param(
        ("consumers", 0, "budget"), "Infinity",
        r"consumers\[0\]\.budget",
        id="budget-infinity",
    ),
    pytest.param(
        ("providers", 0, "base_prices", "cpu"), "NaN",
        r"providers\[0\]\.base_prices\.cpu",
        id="price-nan",
    ),
    pytest.param(
        ("pricing",), {"cost_weight": 10**400},
        r"pricing\.cost_weight",
        id="pricing-float-overflow",
    ),
    # a misspelled optional field would otherwise leave its default in force
    pytest.param(("hold_timout",), 3, r"^scenario: unknown field 'hold_timout'$", id="typo-top-level"),
    pytest.param(
        ("pricing",), {"demand_sensitivty": 2.0},
        r"^scenario\.pricing: unknown field 'demand_sensitivty'$",
        id="typo-pricing",
    ),
    pytest.param(
        ("pricing",), {"time_weight": 0.5},
        r"^scenario\.pricing: unknown field 'time_weight'$",
        id="time-weight-removed",
    ),
    # a pair given twice, in either order, would silently keep the later delay
    pytest.param(
        ("delays",),
        [{"a": "broker:0", "b": "provider:0", "delay": 1}, {"a": "broker:0", "b": "provider:0", "delay": 7}],
        r"^scenario\.delays\[1\]: pair broker:0, provider:0 already given in delays\[0\]$",
        id="delay-pair-twice",
    ),
    pytest.param(
        ("delays",),
        [{"a": "broker:0", "b": "provider:0", "delay": 1}, {"a": "provider:0", "b": "broker:0", "delay": 7}],
        r"^scenario\.delays\[1\]: pair provider:0, broker:0 already given in delays\[0\]$",
        id="delay-pair-reversed",
    ),
    pytest.param(
        ("pricing",), {"lease_mode": "constant-one"},
        r"^scenario\.pricing: unknown field 'lease_mode'$",
        id="lease-mode-removed",
    ),
    # a type name is written into ASCII trace lines whose fields are split at spaces
    pytest.param(
        ("resource_types",), ["cp\u00fc"],
        r"^scenario\.resource_types: 'cp\u00fc' is not a valid type name",
        id="type-non-ascii",
    ),
    pytest.param(
        ("resource_types",), ["c pu"],
        r"^scenario\.resource_types: 'c pu' is not a valid type name",
        id="type-space",
    ),
    pytest.param(
        ("resource_types",), ["cpu\n"],
        r"^scenario\.resource_types: 'cpu\\n' is not a valid type name",
        id="type-newline",
    ),
]


@pytest.mark.parametrize("path, value, match", HOSTILE)
def test_hostile_input_is_a_scenario_error_naming_the_field(path, value, match):
    data = minimal_dict()
    _set(data, path, value)
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(data)


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(-2, 12),
    deadline=st.integers(-2, 12),
    cents=st.integers(-300, 300),
    qty=st.integers(-2, 4),
)
def test_a_request_parses_exactly_when_its_fields_are_in_their_domain(start, deadline, cents, qty):
    data = minimal_dict()
    budget = Decimal(cents) / 100
    data["consumers"][0].update(
        earliest_start=start, deadline=deadline, budget=str(budget), bundle={"cpu": qty}
    )
    valid = 0 <= start < deadline and budget > 0 and qty > 0
    try:
        request = parse_scenario(data).consumers[0].request
    except ScenarioError:
        assert not valid
        return
    assert valid
    assert (request.earliest_start, request.deadline, request.budget, dict(request.bundle.items)) == (
        start, deadline, cents, {"cpu": qty}
    )


def test_churn_error_names_the_entry_as_written():
    data = minimal_dict()
    data["churn"] = [
        {"time": 5, "action": "leave", "provider": 0},
        {"time": 1, "action": "stay"},
    ]
    with pytest.raises(ScenarioError, match=r"churn\[1\]\.action"):
        parse_scenario(data)


# Values a careless or hostile file might put anywhere, beside arbitrary JSON.
TRICKY = st.sampled_from(
    [0, 1, -1, True, None, "", "NaN", "Infinity", "-0", "1e999", "broker:0", "provider:0",
     "broker:\u00b2", "workload", 10**400, float("nan"), float("inf"), [[1]], {"id": 0}]
).map(copy.deepcopy)  # mutated_minimal edits what it draws: never hand out the shared list or dict
JSON = st.recursive(
    TRICKY | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
SCENARIO_KEYS = tuple(minimal_dict()) + ("pricing", "churn", "delays", "criteria", "max_migrations")


def _parses_or_refuses(data) -> None:
    try:
        result = parse_scenario(data)
    except ScenarioError:
        return
    assert isinstance(result, Scenario)


@settings(max_examples=300, deadline=None)
@given(JSON | st.dictionaries(st.sampled_from(SCENARIO_KEYS), JSON, max_size=6))
def test_any_json_value_parses_or_is_a_scenario_error(data):
    _parses_or_refuses(data)


def _slots(node, out):
    """Every (container, key) slot in a JSON tree."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        keys = ()
    for key in keys:
        out.append((node, key))
        _slots(node[key], out)
    return out


@st.composite
def mutated_minimal(draw):
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(data, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON)
    return data


@settings(max_examples=500, deadline=None)
@given(mutated_minimal())
def test_mutated_minimal_scenario_parses_or_is_a_scenario_error(data):
    _parses_or_refuses(data)
