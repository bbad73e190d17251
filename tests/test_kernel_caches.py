"""The kernel's cached world views and incremental workload sampling against oracles.

`CheckedWorld` stands in for the kernel's world during a run. At every
broker delivery it compares the cached registry view and neighbor snapshot
with from-scratch oracles, and at every event it samples every broker's
in-flight count the naive way, for comparison with the incremental
`WorkloadStat`s. The runs cover the acceptance suite's fuzz batch, whose
churn joins and leaves invalidate the caches.
"""

from collections import Counter

import fedsim.engine as engine
from fedsim.engine import WorkloadStat, run
from fedsim.scenario import parse_scenario

from helpers import fuzz_batch_scenarios, oracle_neighbor_snapshot, oracle_registry_view


class CheckedWorld(engine._World):
    def __init__(self, scenario, check_views):
        super().__init__(scenario)
        self.check_views = check_views
        self.views_checked = 0
        self.naive = {bid: WorkloadStat() for bid in self.brokers}

    def sample_workloads(self, bid):
        # called once per broker delivery, after the broker's step
        if self.check_views:
            assert self.registry_view(bid) == oracle_registry_view(self, bid)
            assert self.neighbor_snapshot(bid) == oracle_neighbor_snapshot(self, bid)
            self.views_checked += 1
        super().sample_workloads(bid)

    def record(self, event, payload_suffix=""):
        # in-flight counts change only inside an event's handling and an
        # event is recorded before any broker handles it, so the counts seen
        # here are those after the previous event
        if self.events > 1:
            self.sample_naively()
        super().record(event, payload_suffix)

    def sample_naively(self):
        for bid, state in self.brokers.items():
            stat = self.naive[bid]
            stat.peak = max(stat.peak, state.in_flight)
            stat.total += state.in_flight
            stat.samples += 1

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


def test_cached_views_and_workloads_match_the_oracles(monkeypatch):
    checked = truncated = 0
    actions = Counter()
    for data in fuzz_batch_scenarios():
        scenario = parse_scenario(data)
        actions.update(change.action.value for change in scenario.churn)
        full, world = checked_run(monkeypatch, scenario)
        assert full.quiescent
        assert full.workloads == world.naive
        checked += world.views_checked

        # the views were checked above; this run checks only the settling
        cut, world = checked_run(
            monkeypatch, scenario, check_views=False, event_budget=full.events_processed // 2
        )
        truncated += not cut.quiescent
        assert cut.workloads == world.naive
        assert all(stat.samples == cut.events_processed for stat in cut.workloads.values())
    assert actions["join"] > 10 and actions["leave"] > 10
    assert truncated > 90 and checked > 10_000

