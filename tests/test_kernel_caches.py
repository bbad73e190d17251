"""The kernel's cached world views, incremental workload sampling and migrations against oracles.

`CheckedWorld` stands in for the kernel's world during a run. At every
broker delivery it compares the cached registry view and neighbor snapshot
with from-scratch oracles, at every request's issue it compares the shared
sorted registry with a fresh sort, and at every event it samples every
broker's in-flight count the naive way, for comparison with the incremental
`WorkloadStat`s. It rechecks every migration from world state, not trusting
the selector: hop bound, preventive constraints, and -1/+1 in flight at the
sender and the target. It keeps each conversation's path, since the hop is the
one owner of the request's path: `visited` must equal the brokers the
conversation has left (its `migrations` counts them). The full runs are the
session's shared fuzz batch (`conftest.py`), whose churn joins and leaves
invalidate the caches.
"""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import fedsim.agents as agents
import fedsim.engine as engine
from fedsim.engine import WorkloadStat, run
from fedsim.model import AgentKind, Performative, broker
from fedsim.scenario import load_scenario

from helpers import oracle_neighbor_snapshot, oracle_registry_view


def is_migration(msg):
    return msg.performative is Performative.CFP and msg.sender.kind is msg.receiver.kind is AgentKind.BROKER


class CheckedWorld(engine._World):
    def __init__(self, scenario, check_views):
        super().__init__(scenario)
        self.check_views = check_views
        self.views_checked = self.migrations = self.arrivals = 0
        self.naive = {bid: WorkloadStat() for bid in self.brokers}
        self.incoherent = []  # one line per failed migration check
        self.delivery = None  # (message, receiver's in-flight count) of the last broker delivery
        self.left = {}  # conversation -> the brokers it migrated away from, in order

    def sample_workloads(self, bid):
        # called once per broker delivery, after the broker's step
        if self.check_views:
            assert self.registry_view(bid) == oracle_registry_view(self, bid)
            assert self.neighbor_snapshot(bid) == oracle_neighbor_snapshot(self, bid)
            self.views_checked += 1
        msg, before = self.delivery
        if is_migration(msg):
            self.arrivals += 1
            # a conversation that migrates onward at once also closes here
            closed = msg.conversation not in self.brokers[bid].conversations
            if self.brokers[bid].in_flight - before + closed != 1:
                self.incoherent.append(f"{msg.conversation}: no +1 on arrival at {bid}")
        super().sample_workloads(bid)

    def sorted_registry(self):
        live = super().sorted_registry()
        assert live == tuple(sorted(self.registry))
        return live

    def send(self, msg, now):
        # a broker's out-messages are sent right after its step
        if is_migration(msg):
            self.migrations += 1
            source, target, req = self.brokers[msg.sender], msg.receiver, msg.payload.request
            # a target that is not a neighbor has no info here, and fails every check on it
            info = next((i for i in self.neighbor_snapshot(source.id) if i.broker == target), None)
            arrival, before = self.delivery
            opened = arrival.performative is Performative.CFP  # a +1 at this same event
            left = self.left.setdefault(msg.conversation, [])
            left.append(source.id)
            checks = {
                "stamped with its path": req.visited == frozenset(left),
                "a neighbor": target in source.neighbors,
                "non-empty": info is not None and info.provider_count > 0,
                "covering": info is not None and req.bundle.types <= info.provider_types,
                "unvisited": target not in req.visited,
                "-1 at the sender": source.in_flight - before - opened == -1,
            }
            failed = ", ".join(name for name, ok in checks.items() if not ok)
            if failed:
                self.incoherent.append(f"{msg.conversation}: {source.id} -> {target}: not {failed}")
        super().send(msg, now)

    def record(self, event, payload_suffix=""):
        # in-flight counts change only inside an event's handling and an
        # event is recorded before any broker handles it, so the counts seen
        # here are those after the previous event
        if self.events > 1:
            self.sample_naively()
        msg = event.message
        if msg is not None and msg.receiver.kind is AgentKind.BROKER:
            self.delivery = (msg, self.brokers[msg.receiver].in_flight)
            if is_migration(msg):
                req = msg.payload.request
                if req.migrations > self.scenario.max_migrations or msg.receiver in req.visited:
                    self.incoherent.append(f"{msg.conversation}: hop {req.migrations} to {msg.receiver}")
        super().record(event, payload_suffix)

    def sample_naively(self):
        for bid, state in self.brokers.items():
            stat = self.naive[bid]
            stat.peak = max(stat.peak, state.in_flight)
            stat.total += state.in_flight

    def settle_workloads(self):
        if self.events:
            self.sample_naively()  # the last event's sample
        super().settle_workloads()


def checked_run(monkeypatch, scenario, check_views=True, **kwargs):
    """Run the kernel on a `CheckedWorld`; return the result and the world."""
    worlds = []

    def make(scn):
        worlds.append(CheckedWorld(scn, check_views))
        return worlds[-1]

    monkeypatch.setattr(engine, "_World", make)
    return run(scenario, **kwargs), worlds[0]


def test_cached_views_and_workloads_match_the_oracles(monkeypatch, fuzz_batch):
    checked = truncated = 0
    actions = Counter()
    for full, world, _ in fuzz_batch.runs:
        actions.update(change.action.value for change in world.scenario.churn)
        assert full.quiescent
        assert full.workloads == world.naive
        checked += world.views_checked

        # the views were checked in the shared pass; this run checks only the settling
        cut, world = checked_run(
            monkeypatch, replace(world.scenario, event_budget=full.events_processed // 2), check_views=False
        )
        truncated += not cut.quiescent
        assert cut.workloads == world.naive
    assert actions["join"] > 10 and actions["leave"] > 10
    assert truncated > 90 and checked > 10_000



def test_path_check_catches_a_hop_that_does_not_stamp_the_request(monkeypatch):
    original = agents.self_organize

    def forgetful(req, *args):
        # the hop's request keeps the arriving request's path, and so its hop count
        result = original(req, *args)
        unstamped = tuple(
            m._replace(payload=m.payload._replace(request=replace(m.payload.request, visited=req.visited)))
            for m in result.messages
        )
        return result._replace(messages=unstamped)

    monkeypatch.setattr(agents, "self_organize", forgetful)
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "migration.json")
    result, world = checked_run(monkeypatch, scenario)
    assert result.quiescent and world.migrations == 1
    assert world.incoherent == ["consumer:0#0: broker:0 -> broker:1: not stamped with its path"]


def test_registry_view_is_shared_until_a_join_or_leave():
    world = engine._World(load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "churn.json"))
    view = world.registry_view(broker(0))
    assert world.registry_view(broker(0)) is view
    for change in world.scenario.churn:  # provider 0 leaves, provider 2 joins; broker 0 sees both
        engine.apply_churn(world, change)
        fresh = world.registry_view(broker(0))
        assert fresh is not view and fresh == oracle_registry_view(world, broker(0))
        view = fresh
    assert [entry.provider.index for entry in view] == [2]
