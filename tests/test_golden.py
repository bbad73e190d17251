"""Golden hashes: the trace and the structured report of fixed scenarios.

The kernel's contract is the byte-identical trace, so any refactor or speed-up
must leave these sha256 values unchanged. A change that alters behaviour on
purpose updates them and says so. Tiers S and M are the ROADMAP's generated
tiers, `fuzz_scenario(random.Random(7), brokers, providers, requests, 5)`.
"""

import hashlib
import random
from pathlib import Path

import pytest

from fedsim.engine import run
from fedsim.metrics import compute_metrics, emit_report
from fedsim.scenario import load_scenario, parse_scenario

from helpers import fuzz_scenario, trace_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# name -> (events, trace sha256, structured report sha256). The report hashes
# last moved when the report dropped `failure_count` and `zero_requests`, which
# repeated `failed` and `requests_total == 0`; no trace hash moved with them.
GOLDEN = {
    "churn.json": (
        21,
        "a1e6f2c5aef9afdf9521e93dfb8b277982d0062cc069c619ffc31e38919ff439",
        "65b60b0df6afcdacc6d73c1c9865eea2a47187adf77875edc0bc6d494a82cd2a",
    ),
    "migration.json": (
        29,
        "d86bb5458b65b0f9ffc043dc10b73fc3df73377c085e3e39a32b5c25592e8f02",
        "e8ee1ed5e201d0ad0d096e824111de4a06ea5709ea5f403c45e305adb90281d9",
    ),
    "minimal.json": (
        14,
        "2eed9b83e86441814cb1042f2a5cbcd5eb494db5c93b311ecd501d5a5507ec8e",
        "e0679b20f63160a0636d4139550b7104f811430cf0808b19b8139a7031782dcf",
    ),
    "tier-S": (
        716,
        "beada627e02f541af70bff6f216b8c66044e3993b295e84235a36df0ca0cebbf",
        "397c0972b57b034746da976cd2da413a5bab7db67bd64ed981a800bf6ed197eb",
    ),
    "tier-M": (
        14875,
        "347b8309aecbf5249964e9c71d7b19230d385a3e1c1b4341eff7e32e57b7f44f",
        "cb5b311b0e40102334d78a0e1be742ed671b87441ca80f788e36cb335926651b",
    ),
}

TIERS = {"tier-S": (5, 15, 30, 5), "tier-M": (10, 60, 300, 5)}


def _scenario(name):
    if name in TIERS:
        return parse_scenario(fuzz_scenario(random.Random(7), *TIERS[name]))
    return load_scenario(SCENARIOS / name)


def test_every_example_scenario_is_pinned():
    assert {p.name for p in SCENARIOS.glob("*.json")} == set(GOLDEN) - set(TIERS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_and_report_match_golden_hashes(name):
    result = run(_scenario(name))
    trace = trace_text(result.trace).encode("ascii")
    report = emit_report(compute_metrics(result), "structured").encode("ascii")
    assert result.quiescent
    assert (
        result.events_processed,
        hashlib.sha256(trace).hexdigest(),
        hashlib.sha256(report).hexdigest(),
    ) == GOLDEN[name]
