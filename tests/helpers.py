"""Shared builders, scenario generators, and independent oracles for the tests.

The oracles here are deliberately written as brute force (straight loops,
per-tick scans, exhaustive enumeration) so they stay independent of the
implementation paths they check.
"""

from __future__ import annotations

import gc
import random

import fedsim.engine as engine
from fedsim.agents import ReservationStatus, update_contact_list
from fedsim.engine import Trace
from fedsim.migration import NeighborInfo
from fedsim.model import (
    AgentId,
    ContactEntry,
    Request,
    ResourceBundle,
    broker,
    consumer,
    format_money,
    money,
    provider,
)
from fedsim.scenario import Scenario

TYPE_POOL = ("cpu", "storage", "bandwidth", "gpu")


def trace_text(records) -> str:
    """The text `write_trace` writes for `records`: each line, newline-terminated."""
    return "".join(record.line() + "\n" for record in records)


def trace_of(records) -> Trace:
    """A `Trace` of `records`, written in chunks by the kernel's writer, as a run writes its trace."""
    world = engine._World(settings())
    for record in records:
        world.lines.append(record.line())
        if len(world.lines) == engine._CHUNK_LINES:
            world.end_chunk()
    if world.lines:
        world.end_chunk()
    return world.trace


def cycles_collected() -> int:
    """Objects the cyclic garbage collector has freed in this process so far."""
    return sum(stat["collected"] for stat in gc.get_stats())


def settings(max_migrations: int = 0, **fields) -> Scenario:
    """A scenario with no agents, for the run settings an agent state reads."""
    return Scenario((), (), (), (), {}, max_migrations=max_migrations, **fields)


def bundle(**quantities) -> ResourceBundle:
    return ResourceBundle.of(quantities)


def request(
    *,
    cid: int = 0,
    src: int = 0,
    start: int = 0,
    end: int = 10,
    budget="100.00",
    visited=(),
    **quantities,
) -> Request:
    return Request(
        consumer=consumer(cid),
        bundle=bundle(**(quantities or {"cpu": 1})),
        earliest_start=start,
        deadline=end,
        budget=money(budget),
        source=broker(src),
        visited=frozenset(visited),
    )


def entry(pid: int, grade: float = 0.5, **prices) -> ContactEntry:
    return ContactEntry(
        provider=provider(pid),
        prices={r: money(p) for r, p in prices.items()},
        grade=grade,
    )


def neighbor(
    bid: int,
    workload: int = 0,
    delay: int = 1,
    types=("cpu",),
    count: int = 1,
) -> NeighborInfo:
    return NeighborInfo(
        broker=broker(bid),
        workload=workload,
        delay=delay,
        provider_types=frozenset(types),
        provider_count=count,
    )


# --- independent oracles -----------------------------------------------------


def straight_loop_cost(bundle: ResourceBundle, prices, factor: int) -> int:
    """Reference cost in cents: literal per-item loop, exact."""
    acc = 0
    for rtype, qty in bundle.items:
        acc += qty * prices[rtype] * factor
    return acc


def oracle_dominates(a, b) -> bool:
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def oracle_nondominated(vectors: dict) -> set:
    """Brute-force O(n^2) non-dominated subset of {key: vector}."""
    out = set()
    for key, vec in vectors.items():
        if not any(
            oracle_dominates(other, vec) for k, other in vectors.items() if k != key
        ):
            out.add(key)
    return out


def oracle_select(vectors: dict, admissible: dict):
    """Replay of the removal loop with the brute-force front and tie-breaks.

    Returns (picked key or None, list of (candidate, front) per round) so a
    test can also check front membership round by round.
    """
    remaining = dict(vectors)
    rounds = []
    while remaining:
        front = oracle_nondominated(remaining)
        pick = min(front, key=lambda k: (remaining[k], k))
        rounds.append((pick, set(front)))
        if admissible[pick]:
            return pick, rounds
        del remaining[pick]
    return None, rounds


def oracle_visible(scenario, bid) -> set[AgentId]:
    """Every provider a broker ever sees, from the specs: its own list, and each
    declared or joining provider whose `visible_to` names it."""
    seen = set()
    for spec in scenario.brokers:
        if spec.id == bid:
            seen.update(spec.visible_providers)
    for spec in scenario.providers:
        if bid in spec.visible_to:
            seen.add(spec.id)
    for change in scenario.churn:
        if change.join is not None and bid in change.join.visible_to:
            seen.add(change.provider)
    return seen


def oracle_registry_view(world, bid) -> dict[AgentId, ContactEntry]:
    """A broker's registry view from scratch: its visible providers still registered, by id in id order."""
    return {
        pid: ContactEntry(
            provider=pid,
            prices=dict(world.providers[pid].base_prices),
            grade=0.5,
        )
        for pid in sorted(oracle_visible(world.scenario, bid))
        if pid in world.registry
    }


def oracle_neighbor_snapshot(world, of) -> list[NeighborInfo]:
    """Each neighbor's contact list refreshed against its registry view, live entries kept."""
    out = []
    for nid in world.brokers[of].neighbors:
        neighbor_state = world.brokers[nid]
        projected = update_contact_list(neighbor_state.contact_list, oracle_registry_view(world, nid))
        live = [e for e in projected.values() if e.provider in world.registry]
        types: set[str] = set()
        for e in live:
            types.update(e.prices)
        out.append(
            NeighborInfo(
                broker=nid,
                workload=neighbor_state.in_flight,
                delay=world.scenario.delay(of, nid),
                provider_types=frozenset(types),
                provider_count=len(live),
            )
        )
    return out


def tick_scan_feasible(reservations, new_bundle, start, end, capacity) -> bool:
    """Per-tick brute force: can the bundle fit [start, end) beside the ledger?"""
    active = [r for r in reservations if r.status in (ReservationStatus.HELD, ReservationStatus.CONFIRMED)]
    for rtype, qty in new_bundle.items:
        if rtype not in capacity:
            return False
        for tick in range(start, end):
            used = sum(
                dict(r.bundle.items).get(rtype, 0)
                for r in active
                if r.start <= tick < r.end
            )
            if used + qty > capacity[rtype]:
                return False
    return True


def tick_scan_overcapacity(provider_state) -> list:
    """All (rtype, tick) where committed reservations exceed capacity."""
    active = [
        r
        for r in provider_state.ledger.values()
        if r.status in (ReservationStatus.HELD, ReservationStatus.CONFIRMED)
    ]
    if not active:
        return []
    lo = min(r.start for r in active)
    hi = max(r.end for r in active)
    bad = []
    for rtype, cap in provider_state.capacity.items():
        for tick in range(lo, hi):
            used = sum(dict(r.bundle.items).get(rtype, 0) for r in active if r.start <= tick < r.end)
            if used > cap:
                bad.append((rtype, tick))
    return bad


# --- scenario generators ------------------------------------------------------

FUZZ_RUNS = 100
FUZZ_SHAPE = dict(n_brokers=5, n_providers=15, n_requests=30, max_churn=5)


def _connected_edges(rng: random.Random, n: int) -> set[tuple[int, int]]:
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):  # random spanning tree keeps the graph connected
        a = nodes[i]
        b = nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randrange(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return edges


def fuzz_scenario(
    rng: random.Random,
    n_brokers: int = 5,
    n_providers: int = 15,
    n_requests: int = 30,
    max_churn: int = 5,
) -> dict:
    """Random coherent scenario: mixed satisfiable/unsatisfiable requests,
    uneven visibility, and optional churn."""
    types = rng.sample(TYPE_POOL, rng.randint(2, 4))
    edges = _connected_edges(rng, n_brokers)
    neighbors = {b: set() for b in range(n_brokers)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)

    providers = []
    for pid in range(n_providers):
        covered = rng.sample(types, rng.randint(1, len(types)))
        providers.append(
            {
                "id": pid,
                "capacity": {r: rng.randint(1, 8) for r in covered},
                "base_prices": {r: f"{rng.randint(50, 500) / 100:.2f}" for r in covered},
            }
        )

    visibility = {b: [] for b in range(n_brokers)}
    for pid in range(n_providers):
        for b in range(n_brokers):
            if rng.random() < 0.35:
                visibility[b].append(pid)

    consumers = []
    for cid in range(n_requests):
        issue = rng.randint(0, 20)
        start = issue + rng.randint(0, 5)
        end = start + rng.randint(5, 20)
        chosen = rng.sample(types, rng.randint(1, 2))
        consumers.append(
            {
                "id": cid,
                "broker": rng.randrange(n_brokers),
                "issue_time": issue,
                "earliest_start": start,
                "deadline": end,
                "budget": f"{rng.randint(10, 400)}.00",
                "bundle": {r: rng.randint(1, 4) for r in chosen},
                "task_duration": rng.randint(1, 10),
            }
        )

    churn = []
    leavers = rng.sample(range(n_providers), rng.randint(0, min(max_churn, n_providers)))
    join_id = max(100, n_providers)  # past every declared id; 100 keeps the smaller draws as they were
    for pid in leavers:
        if rng.random() < 0.7:
            churn.append({"time": rng.randint(1, 30), "action": "leave", "provider": pid})
        else:
            covered = rng.sample(types, rng.randint(1, len(types)))
            churn.append(
                {
                    "time": rng.randint(1, 30),
                    "action": "join",
                    "provider": {
                        "id": join_id,
                        "capacity": {r: rng.randint(1, 8) for r in covered},
                        "base_prices": {r: f"{rng.randint(50, 500) / 100:.2f}" for r in covered},
                        "visible_to": sorted(
                            b for b in range(n_brokers) if rng.random() < 0.5
                        ),
                    },
                }
            )
            join_id += 1

    delays = []
    for a, b in sorted(edges):
        delays.append({"a": f"broker:{a}", "b": f"broker:{b}", "delay": rng.randint(0, 3)})

    return {
        "resource_types": types,
        "brokers": [
            {
                "id": b,
                "neighbors": sorted(neighbors[b]),
                "visible_providers": sorted(set(visibility[b])),
            }
            for b in range(n_brokers)
        ],
        "providers": providers,
        "consumers": consumers,
        "churn": churn,
        "delays": delays,
        "default_delay": 1,
    }


def fuzz_batch_scenarios() -> list[dict]:
    """The shared fuzz batch: scenario i is drawn from Random(91_000 + i)."""
    return [fuzz_scenario(random.Random(91_000 + i), **FUZZ_SHAPE) for i in range(FUZZ_RUNS)]


def long_lease_scenario(rng: random.Random, n_requests: int = 400) -> dict:
    """One broker, four providers and long, heavily overlapping leases.

    The broker sees every provider, so each provider's ledger grows to about
    a hundred reservations over the run; one provider leaves halfway through.
    """
    types = ["cpu", "storage"]
    providers = [
        {
            "id": pid,
            "capacity": {r: rng.randint(20, 40) for r in types},
            "base_prices": {r: f"{rng.randint(50, 500) / 100:.2f}" for r in types},
        }
        for pid in range(4)
    ]
    consumers = []
    for cid in range(n_requests):
        issue = rng.randint(0, 1000)
        start = issue + rng.randint(0, 5)
        consumers.append(
            {
                "id": cid,
                "broker": 0,
                "issue_time": issue,
                "earliest_start": start,
                "deadline": start + rng.randint(40, 200),
                "budget": f"{rng.randint(6000, 20000)}.00",
                "bundle": {r: rng.randint(1, 4) for r in rng.sample(types, rng.randint(1, 2))},
                "task_duration": rng.randint(20, 150),
            }
        )
    return {
        "resource_types": types,
        "pricing": {"demand_sensitivity": 0.05},
        "brokers": [{"id": 0, "neighbors": [], "visible_providers": list(range(4))}],
        "providers": providers,
        "consumers": consumers,
        "churn": [{"time": 500, "action": "leave", "provider": rng.randrange(4)}],
        "delays": [],
    }


def recovery_scenario(rng: random.Random) -> dict:
    """Scenario family for the recovery claim: complete broker graph, one
    guaranteed satisfier visible to a single broker, arbitrary distractors.

    The neighbor graph is complete so the migration trail can always reach
    the satisfier's broker within broker-count - 1 hops; the satisfier is
    live throughout, covers the bundle within raw capacity, and its base
    cost fits the budget. Every generated instance must end done.
    """
    n_brokers = rng.randint(3, 5)
    types = rng.sample(TYPE_POOL, rng.randint(2, 3))
    chosen = rng.sample(types, rng.randint(1, 2))
    quantities = {r: rng.randint(1, 3) for r in chosen}
    start = rng.randint(0, 5)
    end = start + rng.randint(10, 25)
    duration = rng.randint(1, 8)
    factor = end - start

    satisfier_prices = {r: f"{rng.randint(50, 200) / 100:.2f}" for r in chosen}
    base_cost = sum(quantities[r] * money(satisfier_prices[r]) * factor for r in chosen)
    budget = base_cost + money(rng.randint(0, 50))

    lucky_broker = rng.randrange(n_brokers)
    home_broker = rng.randrange(n_brokers)

    providers = [
        {
            "id": 0,
            "capacity": {r: quantities[r] + rng.randint(0, 4) for r in chosen},
            "base_prices": satisfier_prices,
        }
    ]
    visibility = {b: [] for b in range(n_brokers)}
    visibility[lucky_broker].append(0)

    shrinkable = [r for r in chosen if quantities[r] > 1]
    for pid in range(1, rng.randint(3, 8)):
        kind = rng.random()
        if kind < 0.7 or not shrinkable:
            if kind < 0.4:  # pricey; may or may not fit the budget, either ends fine
                prices = {r: f"{rng.randint(900, 1500) / 100:.2f}" for r in chosen}
                capacity = {r: quantities[r] + 2 for r in chosen}
            else:  # partial coverage: never enters selection for this bundle
                others = [r for r in types if r not in chosen]
                # when the bundle spans every type, covering one type of
                # several still falls short of coverage
                sub = [rng.choice(others)] if others else [chosen[0]]
                prices = {r: "1.00" for r in sub}
                capacity = {r: 4 for r in sub}
        else:  # cheapest on paper but too small: forces a capacity refusal
            target = rng.choice(shrinkable)
            prices = {r: "0.10" for r in chosen}
            capacity = dict(quantities)
            capacity[target] = quantities[target] - 1
        providers.append({"id": pid, "capacity": capacity, "base_prices": prices})
        for b in range(n_brokers):
            if rng.random() < 0.4:
                visibility[b].append(pid)

    return {
        "resource_types": types,
        "max_migrations": n_brokers - 1,
        "brokers": [
            {
                "id": b,
                "neighbors": sorted(x for x in range(n_brokers) if x != b),
                "visible_providers": sorted(set(visibility[b])),
            }
            for b in range(n_brokers)
        ],
        "providers": providers,
        "consumers": [
            {
                "id": 0,
                "broker": home_broker,
                "issue_time": 0,
                "earliest_start": start,
                "deadline": end,
                "budget": format_money(budget),
                "bundle": quantities,
                "task_duration": duration,
            }
        ],
        "churn": [],
        "delays": [],
    }


def churn_liveness_scenario(rng: random.Random) -> dict:
    """A provider leaves mid-negotiation; a fallback exists via migration."""
    types = ["cpu", "storage"]
    chosen = rng.sample(types, rng.randint(1, 2))
    quantities = {r: rng.randint(1, 3) for r in chosen}
    start = 0
    end = rng.randint(20, 40)
    factor = end - start

    cheap = {r: "1.00" for r in chosen}
    backup = {r: "2.00" for r in chosen}
    backup_cost = sum(quantities[r] * money(backup[r]) * factor for r in chosen)
    budget = backup_cost + money(20)

    leave_time = rng.randint(1, 6)  # inside the first negotiation round-trips
    return {
        "resource_types": types,
        "brokers": [
            {"id": 0, "neighbors": [1], "visible_providers": [0]},
            {"id": 1, "neighbors": [0], "visible_providers": [1]},
        ],
        "providers": [
            {"id": 0, "capacity": {r: 8 for r in chosen}, "base_prices": cheap},
            {"id": 1, "capacity": {r: 8 for r in chosen}, "base_prices": backup},
        ],
        "consumers": [
            {
                "id": 0,
                "broker": 0,
                "issue_time": 0,
                "earliest_start": start,
                "deadline": end,
                "budget": format_money(budget),
                "bundle": quantities,
                "task_duration": rng.randint(1, 8),
            }
        ],
        "churn": [{"time": leave_time, "action": "leave", "provider": 0}],
        "delays": [],
    }
