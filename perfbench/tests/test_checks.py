import random
from types import SimpleNamespace

import pytest

from checks import check_run, over_capacity
from fedsim.agents import ProviderState, Reservation, ReservationStatus
from fedsim.engine import EventRecord, run
from fedsim.metrics import compute_metrics, render_structured
from fedsim.model import ResourceBundle, consumer, money, provider
from fedsim.pricing import PricingParams
from fedsim.scenario import parse_scenario
from generate import WORKLOADS, scenario
from run import judge

SMALL = dict(WORKLOADS["tier-m"]["params"], brokers=3, providers=8, requests=40, churn=[0, 0])


@pytest.fixture(scope="module")
def small_run():
    result = run(parse_scenario(scenario(random.Random(5), random.Random(6), SMALL)))
    report = compute_metrics(result)
    return result, report, render_structured(report)


def _repeat(problems, sha="a" * 64):
    return {"problems": problems, "trace_sha256": sha, "report": {"done": 1}, "traced": False}


def test_clean_run_passes(small_run):
    result, report, text = small_run
    assert report.done > 0
    assert check_run(result, report, text) == []


def test_corrupted_report_is_a_failure(small_run):
    result, report, text = small_run
    changed = text.replace(f'"done": {report.done}', f'"done": {report.done + 1}')
    assert changed != text
    for bad in (changed, text[: len(text) // 2]):
        problems = check_run(result, report, bad)
        assert problems == ["structured report does not re-parse to the same report"]
        assert judge([_repeat([]), _repeat(problems)]) == 1


def test_over_committed_lease_in_a_run_is_a_failure(small_run):
    result, report, text = small_run
    assert over_capacity(result) == []
    target, res = next(
        (p, r) for p in result.providers.values() for r in p.ledger.values()
        if r.status is ReservationStatus.CONFIRMED
    )
    rtype, _ = res.bundle.items[0]
    original, res.bundle = res.bundle, ResourceBundle.of({rtype: target.capacity[rtype] + 1})
    try:
        problems = check_run(result, report, text)
    finally:
        res.bundle = original
    assert len(problems) == 1 and f"{target.id} holds" in problems[0]
    assert judge([_repeat([]), _repeat(problems)]) == 1


def _history(*steps):
    """A run of one provider (2 cpu) whose trace is `steps`: (time, kind, from, to, perf, conv)."""
    state = ProviderState(provider(0), {"cpu": 2}, {"cpu": money(1)}, PricingParams())
    for conv in "abc":
        state.ledger[conv] = Reservation(
            conv, ResourceBundle.of({"cpu": 2}), 0, 5, consumer(0), ReservationStatus.RELEASED, money(1)
        )
    trace = [EventRecord(t, i, kind, a, b, perf, conv, "-") for i, (t, kind, a, b, perf, conv) in enumerate(steps)]
    return SimpleNamespace(providers={state.id: state}, trace=trace)


def _cfp(t, conv, answer):
    return [(t, "deliver", "broker:0", "provider:0", "CFP", conv),
            (t + 1, "deliver", "provider:0", "broker:0", answer, conv)]


def test_overlapping_holds_are_a_failure_even_once_released():
    # a and b stand together for a moment; by the end both are released
    result = _history(*_cfp(0, "a", "PROPOSE"), *_cfp(1, "b", "PROPOSE"),
                      (3, "deliver", "broker:0", "provider:0", "REFUSE", "a"),
                      (4, "hold-expiry", "-", "provider:0", "-", "b"))
    problems = over_capacity(result)
    assert problems == ["provider:0 holds 4 cpu > capacity 2 at t=1"]
    assert judge([_repeat([]), _repeat(problems)]) == 1


def test_released_holds_free_their_capacity():
    result = _history(*_cfp(0, "a", "PROPOSE"),
                      (2, "deliver", "broker:0", "provider:0", "REFUSE", "a"),
                      *_cfp(3, "b", "PROPOSE"),
                      (5, "hold-expiry", "-", "provider:0", "-", "b"),
                      *_cfp(6, "c", "REFUSE"),
                      (7, "churn", "-", "provider:0", "provider-leave", "-"),
                      *_cfp(8, "a", "PROPOSE"))
    assert over_capacity(result) == []


def test_confirmed_leases_stand_for_good():
    result = _history(*_cfp(0, "a", "PROPOSE"),
                      (2, "deliver", "broker:0", "provider:0", "CONFIRM", "a"),
                      (3, "hold-expiry", "-", "provider:0", "-", "a"),
                      (4, "churn", "-", "provider:0", "provider-leave", "-"),
                      *_cfp(5, "b", "PROPOSE"))
    assert over_capacity(result) == ["provider:0 holds 4 cpu > capacity 2 at t=5"]


def test_differing_trace_is_a_failure():
    assert judge([_repeat([]), _repeat([], sha="b" * 64)]) == 1
    assert judge([_repeat([]), _repeat([])]) == 0
