import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import fedsim.cli
from fedsim.cli import main
from fedsim.engine import run

from helpers import trace_of

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_validate_accepts_bundled_scenarios():
    runner = CliRunner()
    paths = sorted(SCENARIOS.glob("*.json"))
    assert paths
    for path in paths:
        result = runner.invoke(main, ["validate", "--scenario", str(path)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("ok:")
        assert result.stderr == ""


def test_validate_reports_error_and_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"resource_types": []}))
    runner = CliRunner()
    result = runner.invoke(main, ["validate", "--scenario", str(bad)])
    assert result.exit_code == 2
    assert "invalid" in result.output


def test_validate_reports_a_file_that_is_not_utf8_with_exit_code_2(tmp_path):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe{}")
    result = CliRunner().invoke(main, ["validate", "--scenario", str(bad)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"invalid: {bad}: not UTF-8 text")


def test_validate_rejects_a_budget_that_run_cannot_grade(tmp_path):
    # with free resources the task completes, and its utility needs a budget above zero
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    data["consumers"][0]["budget"] = "0.00"
    data["providers"][0]["base_prices"] = {"cpu": "0.00", "storage": "0.00"}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "run"):
        result = CliRunner().invoke(main, [command, "--scenario", str(path)])
        assert result.exit_code == 2, result.output
        assert "consumers[0].budget: must be > 0" in result.stderr


def test_validate_rejects_a_provider_whose_capacity_and_prices_name_different_types(tmp_path):
    for side, missing in (("base_prices", "base price"), ("capacity", "capacity")):
        data = json.loads((SCENARIOS / "minimal.json").read_text())
        del data["providers"][0][side]["storage"]
        path = tmp_path / f"no-{side}.json"
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["validate", "--scenario", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"invalid: {path}.providers[0]: provider 0 has no {missing} for type 'storage'\n"


def test_validate_warns_when_holds_lapse_before_the_confirm(tmp_path):
    minimal = json.loads((SCENARIOS / "minimal.json").read_text())
    migration = json.loads((SCENARIOS / "migration.json").read_text())
    slow = [{"a": "broker:0", "b": "provider:0", "delay": 5}]
    # a slow provider link counts: at delay 5 the CONFIRM reaches the hold 12 ticks after it
    cases = [({**minimal, "hold_timeout": timeout, "delays": delays}, warns)
             for timeout, delays, warns in ((4, [], True), (5, [], False), (10, slow, True),
                                            (12, slow, True), (13, slow, False), (21, slow, False))]
    # a slow broker link does not: no PROPOSE, agreement, AGREE or CONFIRM crosses it
    slow_hop = [{**link, "delay": 13} if (link["a"], link["b"]) == ("broker:0", "broker:1") else link
                for link in migration["delays"]]
    cases.append(({**migration, "delays": slow_hop}, False))
    for i, (data, warns) in enumerate(cases):
        path = tmp_path / f"hold-{i}.json"
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["validate", "--scenario", str(path)])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith("ok:")
        assert ("warning: hold_timeout" in result.stderr) is warns
        # every hold here takes the slowest path to its CONFIRM, so a warning means a lapse
        trace = tmp_path / f"trace-{i}.log"
        result = CliRunner().invoke(main, ["run", "--scenario", str(path), "--trace-out", str(trace)])
        assert result.exit_code == 0, result.output
        assert ("reason=expired" in trace.read_text()) is warns


def test_run_writes_trace_and_report(tmp_path):
    trace_out = tmp_path / "trace.log"
    report_out = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "run",
            "--scenario",
            str(SCENARIOS / "migration.json"),
            "--trace-out",
            str(trace_out),
            "--report-out",
            str(report_out),
            "--format",
            "structured",
        ],
    )
    assert result.exit_code == 0, result.output
    assert trace_out.read_text().startswith("t=0 ")
    parsed = json.loads(report_out.read_text())
    assert parsed["satisfaction_rate"] == "1.0000"


def test_run_prints_tabular_report_by_default():
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--scenario", str(SCENARIOS / "minimal.json")])
    assert result.exit_code == 0
    assert "satisfaction rate" in result.output


def test_scenario_event_budget_triggers_liveness_exit(tmp_path):
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({**data, "event_budget": 3}))
    result = CliRunner().invoke(main, ["run", "--scenario", str(path)])
    assert result.exit_code == 3
    assert "liveness failure" in result.output


@pytest.mark.parametrize("option", ["--trace-out", "--report-out"])
def test_run_reports_an_unwritable_output_path_with_exit_code_2(tmp_path, option):
    missing = tmp_path / "missing" / "out.txt"
    result = CliRunner().invoke(
        main, ["run", "--scenario", str(SCENARIOS / "minimal.json"), option, str(missing)]
    )
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and str(missing) in result.stderr


def test_sweep_checks_determinism():
    result = CliRunner().invoke(main, ["sweep", "--scenario", str(SCENARIOS / "churn.json")])
    assert result.exit_code == 0, result.output
    assert result.stdout == "satisfaction 1.0000 events 21 deterministic yes\n"
    assert result.stderr == ""


def test_sweep_reports_a_trace_that_differs_in_one_record(monkeypatch):
    results = []

    def run_with_one_record_changed_the_second_time(scn):
        result = run(scn)
        if results:
            *records, last = result.trace
            result.trace = trace_of([*records, last._replace(payload=last.payload + ",changed")])
        results.append(result)
        return result

    monkeypatch.setattr(fedsim.cli, "run_engine", run_with_one_record_changed_the_second_time)
    result = CliRunner().invoke(main, ["sweep", "--scenario", str(SCENARIOS / "churn.json")])
    assert len(results) == 2
    assert result.exit_code == 3
    assert result.stdout == "satisfaction 1.0000 events 21 deterministic NO\n"
    assert result.stderr == "problems: determinism mismatch\n"


def test_sweep_exits_3_on_a_liveness_failure(tmp_path):
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    path = tmp_path / "capped.json"
    path.write_text(json.dumps({**data, "event_budget": 3}))
    result = CliRunner().invoke(main, ["sweep", "--scenario", str(path)])
    assert result.exit_code == 3
    assert "events 3 deterministic yes" in result.stdout
    assert result.stderr == "problems: liveness failure\n"


def test_run_rejects_nan_pricing_with_exit_code_2(tmp_path):
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    data["pricing"]["demand_sensitivity"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))  # written as the bare JSON literal NaN
    assert "NaN" in bad.read_text()
    result = CliRunner().invoke(main, ["run", "--scenario", str(bad)])
    assert result.exit_code == 2, result.output
    assert "demand_sensitivity" in result.output


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_cost_past_28_digits_runs_to_the_cent(tmp_path, command):
    # 2 cpu x 10**25 x 30 time units is 29 digits with its cents: whole cents hold it
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    data["providers"][0]["base_prices"] = {"cpu": "1" + "0" * 25, "storage": "1" + "0" * 25}
    path = tmp_path / "dear.json"
    path.write_text(json.dumps(data))
    trace = tmp_path / "trace.log"
    runner = CliRunner()
    assert runner.invoke(main, ["validate", "--scenario", str(path)]).exit_code == 0
    options = ["--trace-out", str(trace)] if command == "run" else []
    result = runner.invoke(main, [command, "--scenario", str(path), *options])
    assert result.exit_code == 0, result.output
    if command == "run":
        assert "cost=600000000000000000000000000.00" in trace.read_text()
    else:
        assert "deterministic yes" in result.output


def test_run_rejects_a_non_object_broker_with_exit_code_2(tmp_path):
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    data["brokers"].append(7)
    bad = tmp_path / "hostile.json"
    bad.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["run", "--scenario", str(bad)])
    assert result.exit_code == 2, result.output
    assert "brokers[1]" in result.output


def test_run_survives_holds_that_expire_before_the_confirm(tmp_path):
    # at delay 1, PROPOSE -> AGREEMENT -> AGREE -> CONFIRM takes four ticks
    # after the hold, so each of these timeouts lapses before the CONFIRM
    data = json.loads((SCENARIOS / "minimal.json").read_text())
    runner = CliRunner()
    for timeout in (1, 2, 3, 4):
        path = tmp_path / f"hold-{timeout}.json"
        path.write_text(json.dumps({**data, "hold_timeout": timeout}))
        trace_out = tmp_path / f"trace-{timeout}.log"
        result = runner.invoke(
            main, ["run", "--scenario", str(path), "--trace-out", str(trace_out)]
        )
        assert result.exit_code == 0, result.output
        assert "liveness failure" not in result.output
        lines = trace_out.read_text().splitlines()
        assert any("perf=REFUSE" in line and "reason=expired" in line for line in lines)
        assert "perf=FAILURE" in lines[-1]
