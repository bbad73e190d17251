import gc
import os
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import fedsim.engine as engine
import fedsim.migration as migration
from fedsim.agents import ConsumerPhase, ReservationStatus
from fedsim.engine import (
    Event,
    EventKind,
    EventRecord,
    _World,
    run,
    write_trace,
)
from fedsim.model import InvariantError, ProtocolError, broker, money, provider
from fedsim.scenario import load_scenario, parse_scenario

from helpers import fuzz_scenario, trace_of, trace_text
from test_kernel_caches import checked_run

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def minimal():
    return load_scenario(SCENARIOS / "minimal.json")


def empty_scenario():
    return parse_scenario(
        {
            "resource_types": ["cpu"],
            "brokers": [{"id": 0, "neighbors": [], "visible_providers": []}],
            "providers": [],
            "consumers": [],
        }
    )


def test_empty_scenario_reaches_immediate_quiescence():
    result = run(empty_scenario())
    assert result.quiescent
    assert len(result.trace) == 0 and list(result.trace) == []
    assert result.events_processed == 0


def test_same_scenario_gives_byte_identical_traces():
    scn = minimal()
    first = trace_text(run(scn).trace)
    second = trace_text(run(scn).trace)
    assert first == second


def test_single_path_negotiation_chain():
    # hand-walked chain for one consumer, one broker, one provider
    result = run(minimal())
    assert result.quiescent
    sequence = [
        (r.performative, r.sender.split(":")[0], r.receiver.split(":")[0])
        for r in result.trace
        if r.kind == "deliver"
    ]
    assert sequence == [
        ("CFP", "consumer", "broker"),
        ("PROPOSE", "broker", "consumer"),
        ("ACCEPT_PROPOSAL", "consumer", "broker"),
        ("CFP", "broker", "provider"),
        ("PROPOSE", "provider", "broker"),
        ("PROPOSE", "broker", "consumer"),
        ("AGREE", "consumer", "broker"),
        ("CONFIRM", "broker", "provider"),
        ("CONFIRM", "provider", "consumer"),
        ("INFORM", "consumer", "provider"),
        ("INFORM", "consumer", "broker"),
    ]
    meta = result.conversations["consumer:0#0"]
    assert meta.consumer.phase is ConsumerPhase.DONE
    assert meta.consumer.accepted_cost == money("120.00")


def test_trace_times_and_seqs_strictly_increase():
    result = run(load_scenario(SCENARIOS / "migration.json"))
    keys = [(r.time, r.seq) for r in result.trace]
    assert keys == sorted(keys)
    assert len(set(r.seq for r in result.trace)) == len(result.trace)


def test_migration_scenario_recovers_through_neighbor(monkeypatch):
    result, world = checked_run(monkeypatch, load_scenario(SCENARIOS / "migration.json"))
    assert result.quiescent
    meta = result.conversations["consumer:0#0"]
    assert meta.consumer.phase is ConsumerPhase.DONE
    assert meta.migrations == 1
    assert meta.consumer.serving_broker == broker(1)
    assert world.migrations == world.arrivals == 1
    assert world.incoherent == []


@pytest.mark.parametrize(
    "pick, reason, ends",
    [(min, "unvisited", False), (lambda visited: broker(2), "non-empty", True)],
    ids=["sender", "empty"],
)
def test_migration_checks_catch_a_planted_bad_target(monkeypatch, pick, reason, ends):
    # picked at broker 0, the request's source and so the least broker of its
    # path is broker 0 itself: visited once it hops, and not its own neighbor;
    # broker 2 is a neighbor that sees no provider. A hop counts the brokers
    # on the path, so hops back onto it never reach the hop limit: that run
    # ends at its event budget
    monkeypatch.setattr(
        migration,
        "select_direction",
        lambda req, infos, criteria: pick(req.visited | {req.source}),
    )
    scenario = replace(load_scenario(SCENARIOS / "migration.json"), event_budget=500)
    result, world = checked_run(monkeypatch, scenario)
    assert result.quiescent is ends and world.migrations > 0
    assert len(world.incoherent) >= world.migrations and reason in world.incoherent[0]


def test_leave_during_negotiation_bounces_and_recovers():
    result = run(load_scenario(SCENARIOS / "churn.json"))
    assert result.quiescent
    assert sum(r.payload.endswith(",bounced") for r in result.trace) == 1
    meta = result.conversations["consumer:0#0"]
    assert meta.consumer.phase is ConsumerPhase.DONE
    assert result.providers[provider(1)].ledger["consumer:0#0"].status is ReservationStatus.CONFIRMED
    assert provider(0) not in result.registry
    assert provider(2) in result.registry  # joined later
    # the departed provider keeps no live holds
    for res in result.providers[provider(0)].ledger.values():
        assert res.status is not ReservationStatus.HELD


def test_no_message_is_ever_handled_by_departed_provider():
    result = run(load_scenario(SCENARIOS / "churn.json"))
    leave_time = next(
        (r.time, r.seq) for r in result.trace if r.performative == "provider-leave"
    )
    for record in result.trace:
        if record.kind == "deliver" and record.receiver == "provider:0":
            if (record.time, record.seq) > leave_time:
                assert record.payload.endswith(",bounced")


def test_event_budget_exhaustion_reports_open_conversations():
    result = run(replace(minimal(), event_budget=3))
    assert not result.quiescent
    assert result.open_conversations == ["consumer:0#0"]
    assert result.events_processed == 3


def test_budget_of_exactly_the_events_needed_reaches_quiescence():
    full = run(minimal())
    assert full.quiescent
    capped = run(replace(minimal(), event_budget=full.events_processed))
    assert capped.quiescent  # exactly enough events


def test_quiescent_run_has_all_consumers_terminal():
    for name in ("minimal.json", "migration.json", "churn.json"):
        result = run(load_scenario(SCENARIOS / name))
        assert result.quiescent
        for state in result.consumers.values():
            assert state.phase in (ConsumerPhase.DONE, ConsumerPhase.FAILED)


def test_configured_criteria_reach_the_brokers():
    data = {
        "resource_types": ["cpu"],
        "criteria": ["workload", "delay", "provider_scarcity"],
        "brokers": [
            {"id": 0, "neighbors": [1], "visible_providers": []},
            {"id": 1, "neighbors": [0], "visible_providers": [0]},
        ],
        "providers": [{"id": 0, "capacity": {"cpu": 4}, "base_prices": {"cpu": "1.00"}}],
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
    result = run(parse_scenario(data))
    assert result.quiescent
    assert result.conversations["consumer:0#0"].consumer.phase is ConsumerPhase.DONE
    for state in result.brokers.values():
        assert state.scenario.criteria == ("workload", "delay", "provider_scarcity")


def test_write_trace_round_trips_bytes(tmp_path):
    result = run(minimal())
    out = tmp_path / "trace.log"
    write_trace(result.trace, out)
    assert out.read_bytes() == trace_text(result.trace).encode("ascii")


def test_write_trace_streams_lines_without_holding_the_whole_text(tmp_path):
    records = [
        EventRecord(
            i, i, "deliver", f"broker:{i % 7}", f"consumer:{i % 300}", "PROPOSE", f"consumer:{i % 300}#0",
            f"stage=quote,cost={i % 997}.00",
        )
        for i in range(50_000)
    ]
    trace = trace_of(records)
    out = tmp_path / "trace.log"
    tracemalloc.start()
    try:
        write_trace(trace, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = trace_text(records).encode("ascii")
    assert len(expected) > 5_000_000
    assert out.read_bytes() == expected
    assert peak < 1_000_000, f"write_trace peaked at {peak} bytes for {len(expected)} bytes of text"


@pytest.mark.parametrize(
    "scenario",
    [
        lambda: load_scenario(SCENARIOS / "churn.json"),
        lambda: parse_scenario(fuzz_scenario(random.Random(7), 5, 15, 30, 5)),
    ],
    ids=["churn.json", "tier-S"],
)
def test_a_run_trace_holds_little_beyond_its_text(scenario):
    # the text lives in the trace's file; dropping the trace frees only a length
    # per chunk, the Trace and the finalizer that closes its file
    scn = scenario()
    tracemalloc.start()
    try:
        result = run(scn)
        held = tracemalloc.get_traced_memory()[0]
        in_file = os.fstat(result.trace._fd).st_size
        chunks = len(result.trace._sizes)
        result.trace = None
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert in_file == len(trace_text(run(scn).trace)) > 0
    assert 0 < freed <= 64 * chunks + 256, (freed, chunks)


def test_each_line_parses_to_the_record_that_formats_it(fuzz_batch, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from generate import generate

    workloads = [run(parse_scenario(generate(name, 1))) for name in ("tier-m", "scarce-hops", "long-leases")]
    lines = 0
    for result in [result for result, _, _ in fuzz_batch.runs] + workloads:
        chunks = [chunk.decode("ascii") for chunk in result.trace._chunks()]
        sizes = [chunk.count("\n") for chunk in chunks]
        assert all(size == engine._CHUNK_LINES for size in sizes[:-1])
        assert len(result.trace) == sum(sizes) == result.events_processed
        for chunk in chunks:
            for line in chunk.splitlines(keepends=True):
                assert EventRecord.parse(line).line() + "\n" == line
                lines += 1
    assert lines > 150_000


def test_a_trace_reads_as_a_sequence_of_records():
    records = [
        EventRecord(i, i + 1, "hold-expiry", "-", f"provider:{i % 3}", "-", f"consumer:{i}#0", "released=no")
        for i in range(2 * engine._CHUNK_LINES + 5)
    ]
    trace = trace_of(records)
    assert len(trace._sizes) == 3 and len(trace) == len(records)
    assert list(trace) == records
    assert trace == trace_of(records) and trace != trace_of(records[:-1])
    changed = records[-1]._replace(payload="released=yes")
    assert trace != trace_of(records[:-1] + [changed])
    assert trace != records  # a trace equals only a trace of the same text
    assert len(trace_of([])) == 0 and trace_of([]) == run(empty_scenario()).trace


def test_interleaved_readers_of_one_trace_each_read_every_record():
    records = [
        EventRecord(i, i + 1, "churn", "-", f"provider:{i}", "provider-join", "-", "-")
        for i in range(engine._CHUNK_LINES + 3)
    ]
    trace = trace_of(records)
    assert len(trace._sizes) == 2
    first, second = iter(trace), iter(trace)
    pairs = []
    for a in first:
        pairs.append((a, next(second)))
        if len(pairs) == engine._CHUNK_LINES - 1:
            # more readers of the same file, while both iterators are open
            assert trace == trace and trace == trace_of(records)
    assert next(second, None) is None
    assert pairs == list(zip(records, records))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("fails", [False, True], ids=["dropped", "raises"])
def test_no_trace_file_stays_open_once_a_result_is_dropped_or_run_raises(monkeypatch, fails):
    class Probe(_World):
        def record(self, event, payload_suffix=""):
            if fails and len(self.trace):  # once one chunk is in the file
                raise ProtocolError("stub world refuses its event")
            super().record(event, payload_suffix)

    monkeypatch.setattr(engine, "_World", Probe)
    scenario = parse_scenario(fuzz_scenario(random.Random(7), 5, 15, 150, 5))  # 4,102 events
    before = open_fds()
    try:
        result = run(scenario)
    except ProtocolError:
        assert fails
    else:
        assert not fails and len(result.trace) > engine._CHUNK_LINES
        assert open_fds() == before + 1  # the trace's file
        del result
    assert open_fds() == before


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_run_pauses_the_cyclic_collector_and_leaves_it_as_found(monkeypatch, collecting, fails):
    during = []
    collections = []

    class Probe(_World):
        def record(self, event, payload_suffix=""):
            during.append(gc.isenabled())
            if fails:
                raise ProtocolError("stub world refuses its first event")
            super().record(event, payload_suffix)

    def note(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setattr(engine, "_World", Probe)
    # tier S allocates enough that a young collection is due when the run re-enables the collector
    scenario = parse_scenario(fuzz_scenario(random.Random(7), 5, 15, 30, 5))
    found = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    gc.callbacks.append(note)
    try:
        if fails:
            with pytest.raises(ProtocolError, match="stub world"):
                run(scenario)
        else:
            assert run(scenario).quiescent
        after = gc.isenabled()
    finally:
        gc.callbacks.remove(note)
        (gc.enable if found else gc.disable)()
    assert after is collecting
    assert during and not any(during)
    assert collections == []


def test_fuzz_batch_runs_leave_no_cycles_to_collect(fuzz_batch):
    # the premise of pausing the collector for a run: the run makes no
    # reference cycles, so a collection just after it, or any during it, frees nothing
    assert len(fuzz_batch.garbage) == len(fuzz_batch.runs) > 50
    assert set(fuzz_batch.garbage) == {(0, 0)}


def test_scheduling_in_the_past_raises_even_without_asserts():
    world = _World(minimal())
    world.now = 5
    with pytest.raises(InvariantError, match="in the past"):
        world.schedule(4, kind=EventKind.CONSUMER_START)


@pytest.mark.parametrize(
    "record",
    [
        Event(3, 1, EventKind.HOLD_EXPIRY, conversation="consumer:0#0", provider=provider(0)),
        EventRecord(3, 1, "hold-expiry", "-", "provider:0", "-", "consumer:0#0", "released=no"),
    ],
    ids=lambda r: type(r).__name__,
)
def test_kernel_records_are_immutable(record):
    for name in record._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_events_pop_in_time_then_scheduling_order():
    world = _World(minimal())
    late = world.schedule(5, kind=EventKind.CONSUMER_START, conversation="consumer:0#0")
    first = world.schedule(2, kind=EventKind.HOLD_EXPIRY, conversation="consumer:0#0", provider=provider(0))
    second = world.schedule(2, kind=EventKind.CHURN)
    drained, times = [], []
    for event in world.drain():
        drained.append(event)
        times.append(world.now)
        if event is first:
            # scheduled at the time being drained: it runs in that time, after `second`
            meanwhile = world.schedule(2, kind=EventKind.CHURN)
            with pytest.raises(InvariantError, match="in the past"):
                world.schedule(1, kind=EventKind.CHURN)
    assert drained == [first, second, meanwhile, late] and times == [2, 2, 2, 5]
    assert [event.seq for event in drained] == [2, 3, 4, 1]
    assert world.times == [] and world.pending == {}
    assert (first.message, first.churn, late.provider) == (None, None, None)
