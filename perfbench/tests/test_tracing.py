import gzip
import json
from pathlib import Path

import pytest

import fedsim.agents
import fedsim.engine
import fedsim.metrics
import fedsim.pricing
from generate import SPEC, WORKLOADS, generate
from repeat import measure
from run import end_to_end
from tracing import TARGETS, Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    path = out / "scenario.json"
    path.write_text(json.dumps(generate(request.param, 1)))
    plain = measure(path, out)
    with Tracer() as tracer:
        traced = measure(path, out)
    return request.param, plain, traced, tracer


def test_traced_run_gives_the_untraced_trace(runs):
    _, plain, traced, _ = runs
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["trace_sha256"] == plain["trace_sha256"]
    assert traced["report"] == plain["report"]


def test_every_wrapper_sees_the_predicted_work(runs):
    workload, _, _, tracer = runs
    for name, *_ in TARGETS:
        if workload in SPEC["layers"][name]["largest_on"]:
            assert tracer.calls[name] > 0, f"{name} not called on {workload}"
    metrics = tracer.layer_metrics()
    if workload == "long-leases":
        assert metrics["migration.select_direction.calls"] == 0
    else:
        assert metrics["migration.hop_ratio"] > 0


def test_spans_nest_and_share_conversations(runs, tmp_path):
    _, _, _, tracer = runs
    path = tmp_path / "spans.jsonl.gz"
    tracer.dump(path)
    with gzip.open(path, "rt") as lines:
        spans = {s["id"]: s for s in map(json.loads, lines)}
    assert len(spans) == len(tracer.spans)
    for span in spans.values():
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        if parent["conv"] is not None:
            assert span["conv"] == parent["conv"]
    steps = [s for s in spans.values() if s["name"] == "agents.broker_step"]
    assert steps and all(s["conv"] for s in steps)


def test_every_binding_is_wrapped_then_restored():
    step, cost = fedsim.agents.broker_step, fedsim.pricing.total_cost
    with Tracer():
        assert fedsim.engine.broker_step is fedsim.agents.broker_step is not step
        assert fedsim.engine.broker_step.__wrapped__ is step
        assert fedsim.agents.total_cost is fedsim.metrics.total_cost is fedsim.pricing.total_cost
        assert fedsim.pricing.total_cost.__wrapped__ is cost
    assert fedsim.engine.broker_step is fedsim.agents.broker_step is step
    assert fedsim.agents.total_cost is fedsim.metrics.total_cost is fedsim.pricing.total_cost is cost
    assert not hasattr(fedsim.engine._World.registry_view, "__wrapped__")


def test_reported_names_match_benchmark_json():
    per_layer = set(Tracer().layer_metrics()) | {"engine.trace_bytes", "trace_overhead"}
    assert per_layer == {m["name"] for m in BENCHMARK["per_layer"]}
    run = {"wall_s": 1.0, "run_s": 1.0, "events": 1, "setup_s": 1.0, "peak_rss_mb": 1.0,
           "report": {"message_counts": {}, "requests_total": 1, "satisfaction_rate": "1",
                      "global_optimality_gap": "0"}}
    assert set(end_to_end([run])) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name in (m["name"] for m in BENCHMARK["per_layer"]):
        assert any(name.startswith(prefix) for prefix in SPEC["layers"]), name
