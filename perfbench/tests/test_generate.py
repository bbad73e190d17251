import random

import pytest

from fedsim.scenario import parse_scenario
from generate import WORKLOADS, generate, scenario


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_scenario_validates(name, seed):
    data = generate(name, seed)
    scn = parse_scenario(data)
    params = WORKLOADS[name]["params"]
    assert len(scn.brokers) == params["brokers"]
    assert len(scn.providers) == params["providers"]
    assert len(scn.consumers) == params["requests"]
    assert generate(name, seed) == data


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_requests_not_federation(name):
    one, two = generate(name, 1), generate(name, 2)
    assert one["consumers"] != two["consumers"]
    for key in ("resource_types", "brokers", "providers", "delays", "churn"):
        assert one[key] == two[key]


def test_joins_above_one_hundred_providers_validate():
    params = dict(WORKLOADS["tier-m"]["params"], providers=120, churn=[12, 12], join_share=1.0)
    data = scenario(random.Random(3), random.Random(4), params)
    joined = [c["provider"]["id"] for c in data["churn"] if c["action"] == "join"]
    assert joined == list(range(120, 132))
    scn = parse_scenario(data)
    assert len(scn.providers) == 120 and len(scn.churn) == 12
