from pathlib import Path

import pytest

from fedsim.agents import ConsumerPhase
from fedsim.engine import run
from fedsim.metrics import (
    cheapest_base_cost,
    compute_metrics,
    emit_report,
    oracle_min_cost,
    parse_report,
    render_structured,
    render_tabular,
)
from fedsim.model import DomainError, money
from fedsim.pricing import lease_factor
from fedsim.scenario import load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mixed_outcome_scenario():
    # consumer 0 is satisfiable; consumer 1 wants more cpu than anyone has
    return parse_scenario(
        {
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
                    "budget": "80.00",
                    "bundle": {"cpu": 2},
                    "task_duration": 2,
                },
                {
                    "id": 1,
                    "broker": 0,
                    "issue_time": 0,
                    "earliest_start": 0,
                    "deadline": 10,
                    "budget": "500.00",
                    "bundle": {"cpu": 9},
                    "task_duration": 2,
                },
            ],
        }
    )


def test_satisfaction_rate_counts_done_over_terminal():
    result = run(mixed_outcome_scenario())
    report = compute_metrics(result)
    assert report.done == 1 and report.failed == 1
    assert report.satisfaction_rate == pytest.approx(0.5)


def test_single_provider_run_has_zero_gap():
    result = run(load_scenario(SCENARIOS / "minimal.json"))
    report = compute_metrics(result)
    assert report.global_optimality_gap == 0.0
    assert report.local_optimality_violations == 0
    assert report.mean_paid == money("120.00")


def test_migration_counts_match_trace_cfp_hops():
    result = run(load_scenario(SCENARIOS / "migration.json"))
    report = compute_metrics(result)
    migrated_cfps = [
        r
        for r in result.trace
        if r.kind == "deliver"
        and r.performative == "CFP"
        and r.sender.startswith("broker")
        and r.receiver.startswith("broker")
    ]
    # one hop was needed in this scenario; counts agree with the trace
    assert len(migrated_cfps) == 1
    assert report.migrations_max == 1
    assert report.migrations_mean == pytest.approx(0.5)  # one of two requests


def test_empty_run_reports_all_zero_without_dividing():
    scn = parse_scenario(
        {
            "resource_types": ["cpu"],
            "brokers": [{"id": 0, "neighbors": [], "visible_providers": []}],
            "providers": [],
            "consumers": [],
        }
    )
    report = compute_metrics(run(scn))
    assert report.requests_total == 0
    assert report.satisfaction_rate == 0.0
    assert report.mean_paid == money("0.00")
    assert "0.0000" in render_structured(report)
    assert "(no requests; defined as 0)" in render_tabular(report)


def test_structured_report_round_trips():
    for name in ("minimal.json", "migration.json", "churn.json"):
        result = run(load_scenario(SCENARIOS / name))
        report = compute_metrics(result)
        assert parse_report(render_structured(report)) == report


def test_rate_formatting_is_fixed_width():
    result = run(mixed_outcome_scenario())
    report = compute_metrics(result)
    assert '"satisfaction_rate": "0.5000"' in render_structured(report)
    assert "0.5000" in render_tabular(report)


def test_compute_metrics_is_pure():
    result = run(load_scenario(SCENARIOS / "churn.json"))
    assert compute_metrics(result) == compute_metrics(result)


def test_emit_report_writes_destination(tmp_path):
    result = run(load_scenario(SCENARIOS / "minimal.json"))
    report = compute_metrics(result)
    out = tmp_path / "report.json"
    text = emit_report(report, "structured", destination=out)
    assert out.read_text() == text
    with pytest.raises(DomainError, match="unknown report format"):
        emit_report(report, "csv")


def test_local_optimality_oracle_agrees_on_done_conversations():
    result = run(load_scenario(SCENARIOS / "migration.json"))
    for meta in result.conversations.values():
        if meta.consumer.phase is ConsumerPhase.DONE:
            assert meta.snapshot is not None
            assert oracle_min_cost(meta.snapshot, meta.consumer.request) == meta.consumer.accepted_cost
            request = meta.consumer.request
            cheapest = cheapest_base_cost(result, request.bundle, meta.live_at_issue)
            assert cheapest is not None and cheapest * lease_factor(request) <= meta.consumer.accepted_cost
