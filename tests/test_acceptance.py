"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2, 4, 6 and 7 read the session's shared fuzz batch (100 scenarios
at the stated shape; see `conftest.py`).
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from fedsim.agents import ConsumerPhase
from fedsim.engine import run
from fedsim.metrics import compute_metrics, oracle_min_cost
from fedsim.migration import criteria_vector, select_direction, verify_constraints
from fedsim.model import money
from fedsim.pricing import expected_unit_price, update_grade
from fedsim.scenario import load_scenario, parse_scenario

from helpers import (
    FUZZ_RUNS,
    churn_liveness_scenario,
    oracle_nondominated,
    oracle_select,
    recovery_scenario,
    tick_scan_overcapacity,
    trace_text,
)
from test_migration import _random_instance

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SOURCE = SCENARIOS.parent / "src"


def test_criterion_1_pareto_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(140_500)
    mismatches = 0
    for _ in range(1000):
        req, infos, criteria = _random_instance(rng)
        target = select_direction(req, infos, criteria)
        vectors = {info.broker: criteria_vector(info, criteria) for info in infos}
        admissible = {info.broker: verify_constraints(req, info) for info in infos}
        expected, rounds = oracle_select(vectors, admissible)
        if target != expected:
            mismatches += 1
            continue
        if target is not None:
            removed = {pick for pick, _ in rounds[:-1]}
            suffix = {k: v for k, v in vectors.items() if k not in removed}
            if target not in oracle_nondominated(suffix):
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 2.0, f"criterion 1 took {elapsed:.2f}s, budget is 2s"
    print(f"\nPASS criterion 1: pareto oracle equivalence (1000 instances, {elapsed:.2f}s)")


def test_criterion_2_coherence_invariants(fuzz_batch):
    assert fuzz_batch.elapsed < 30.0, f"fuzz batch took {fuzz_batch.elapsed:.1f}s, budget is 30s"
    probes = 0
    for i, (result, world, _) in enumerate(fuzz_batch.runs):
        assert result.quiescent, f"fuzz run {i} did not reach quiescence"
        assert world.incoherent == [], "hop bound, preventive constraints or workload conservation"
        assert world.arrivals == world.migrations  # every probed migration was received
        probes += world.migrations
    print(f"\nPASS criterion 2: coherence invariants ({FUZZ_RUNS} runs, {probes} migrations probed)")


def test_criterion_3_recovery_via_migration():
    failures = 0
    migrated_done = 0
    for i in range(50):
        rng = random.Random(52_000 + i)
        scenario = parse_scenario(recovery_scenario(rng))
        result = run(scenario)
        meta = result.conversations["consumer:0#0"]
        if not (result.quiescent and meta.consumer.phase is ConsumerPhase.DONE):
            failures += 1
        elif meta.migrations > 0:
            migrated_done += 1
    assert failures == 0
    print(
        "\nPASS criterion 3: recovery via migration "
        f"(50/50 done, {migrated_done} needed at least one hop)"
    )


def test_criterion_4_hop_bound_and_transparency(fuzz_batch):
    # hop bound across the fuzz batch
    for result, world, _ in fuzz_batch.runs:
        assert world.incoherent == []
        for meta in result.conversations.values():
            assert meta.migrations <= 4  # broker count - 1 for the fuzz shape

    # transparency: outgoing consumer performatives identical whether the
    # serving broker is reached by migration or contacted directly
    migration_run = run(load_scenario(SCENARIOS / "migration.json"))
    assert migration_run.conversations["consumer:0#0"].migrations == 1

    control_dict = json.loads((SCENARIOS / "migration.json").read_text())
    control_dict["consumers"][0]["broker"] = 1  # contact the serving broker directly
    control_run = run(parse_scenario(control_dict))
    assert control_run.conversations["consumer:0#0"].migrations == 0

    def outgoing(result):
        return [
            r.performative
            for r in result.trace
            if r.kind == "deliver" and r.sender == "consumer:0"
        ]

    assert outgoing(migration_run) == outgoing(control_run)
    print("\nPASS criterion 4: hop bound respected; consumer blind to migration")


def test_criterion_5_byte_identical_traces(tmp_path):
    # the second run is a fresh interpreter with another string-hash seed, so
    # a trace that followed the set or dict order of hashed names would differ
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": str(SOURCE)}
    for name in ("minimal.json", "migration.json", "churn.json"):
        first = trace_text(run(load_scenario(SCENARIOS / name)).trace).encode("ascii")
        trace_out = tmp_path / f"{name}.log"
        subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", "--scenario", str(SCENARIOS / name),
             "--trace-out", str(trace_out)],
            env=env, check=True, capture_output=True,
        )
        assert first == trace_out.read_bytes(), f"{name} diverged"
    print("\nPASS criterion 5: byte-identical traces (3 scenarios, 2 interpreters each)")


def test_criterion_6_capacity_safety(fuzz_batch):
    checked = 0
    for result, _, _ in fuzz_batch.runs:
        for provider_state in result.providers.values():
            checked += 1
            overages = tick_scan_overcapacity(provider_state)
            assert overages == [], (
                f"overcapacity at {provider_state.id}: {overages[:5]}"
            )
    print(f"\nPASS criterion 6: capacity safety ({checked} provider ledgers tick-scanned)")


def test_criterion_7_local_cost_optimality(fuzz_batch):
    done = 0
    gaps = []
    for result, _, _ in fuzz_batch.runs:
        report = compute_metrics(result)
        assert report.local_optimality_violations == 0
        done += report.done
        gaps.append(report.global_optimality_gap)
        for meta in result.conversations.values():
            if meta.consumer.phase is ConsumerPhase.DONE:
                assert meta.consumer.accepted_cost == oracle_min_cost(meta.snapshot, meta.consumer.request)
    mean_gap = sum(gaps) / len(gaps)
    print(
        "\nPASS criterion 7: local cost optimality exact on "
        f"{done} done conversations (global gap reported: mean {mean_gap:.4f})"
    )


def test_criterion_8_pricing_and_grading_numerics():
    base = money("2.37")
    grid = [expected_unit_price(base, d / 9.0, 4.0, 1.2) for d in range(100)]
    violations = sum(1 for a, b in zip(grid, grid[1:]) if a > b)
    assert violations == 0

    for smoothing in (0.05, 0.3, 0.75, 1.0):
        for target in (0.0, 0.4, 1.0):
            grade = 0.62
            gap0 = abs(grade - target)
            for k in range(1, 21):
                grade = update_grade(grade, target, smoothing)
                bound = (1 - smoothing) ** k * gap0
                assert abs(grade - target) <= bound + 1e-9
    print("\nPASS criterion 8: price monotonicity (100-point grid) and grade convergence")


def test_criterion_9_churn_liveness():
    for i in range(20):
        rng = random.Random(36_500 + i)
        scenario = parse_scenario(churn_liveness_scenario(rng))
        result = run(scenario)
        assert result.quiescent, f"churn scenario {i} hit the event budget"
        assert result.open_conversations == []
        assert result.events_processed < scenario.event_budget
    print("\nPASS criterion 9: churn liveness (20/20 scenarios quiescent, all terminal)")
