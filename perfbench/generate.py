"""Seeded scenario generator for the benchmark workloads.

Each workload is a parameter set in `spec.json`. A scenario has two parts:

- the federation: resource types, providers, the broker graph, visibility,
  link delays and the churn schedule. It is drawn from the workload's fixed
  `federation_seed`, so every run of a workload meets the same federation;
- the traffic: every request. It is drawn from the benchmark's `--seed`.

Drawing the federation per seed as well moves the event count of tier-m by
a factor of 2.6 between seeds (one federation sees 2 resource types, the
next 4), and drawing the churn per seed moves that of scarce-hops by 30%
(its brokers see about three providers each, so one departure reroutes
many requests). Either would drown a host-time regression in noise.

The simulator's own run seed is not used: the kernel never reads it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
WORKLOADS: dict[str, dict] = SPEC["workloads"]

TYPE_POOL = ("cpu", "storage", "bandwidth", "gpu")


def generate(name: str, seed: int) -> dict:
    """The scenario of workload `name` for traffic seed `seed`."""
    params = WORKLOADS[name]["params"]
    return scenario(random.Random(params["federation_seed"]), random.Random(seed), params)


def _between(rng: random.Random, bounds) -> int:
    lo, hi = bounds
    return rng.randint(lo, hi)


def _broker_edges(rng: random.Random, n: int, extra: int) -> set[tuple[int, int]]:
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):  # a random spanning tree keeps the graph connected
        a, b = nodes[i], nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    if n > 1:
        for _ in range(extra):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
    return edges


def _provider(rng: random.Random, pid: int, types: list[str], p: dict) -> dict:
    lo, hi = p["provider_types"]
    covered = rng.sample(types, rng.randint(min(lo, len(types)), min(hi, len(types))))
    return {
        "id": pid,
        "capacity": {r: _between(rng, p["capacity"]) for r in covered},
        "base_prices": {r: f"{_between(rng, p['price_cents']) / 100:.2f}" for r in covered},
    }


def scenario(fed: random.Random, rng: random.Random, p: dict) -> dict:
    """A coherent scenario of shape `p`: federation from `fed`, traffic from `rng`.

    Providers that join through churn are numbered from the declared
    provider count upward, so their ids never collide with declared ones.
    """
    n_brokers, n_providers = p["brokers"], p["providers"]
    types = fed.sample(TYPE_POOL, _between(fed, p["types"]))
    edges = _broker_edges(fed, n_brokers, _between(fed, p["extra_edges"]))
    neighbors: dict[int, set[int]] = {b: set() for b in range(n_brokers)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    providers = [_provider(fed, pid, types, p) for pid in range(n_providers)]
    visible: dict[int, list[int]] = {b: [] for b in range(n_brokers)}
    for pid in range(n_providers):
        for b in range(n_brokers):
            if fed.random() < p["visibility"]:
                visible[b].append(pid)
    delays = [
        {"a": f"broker:{a}", "b": f"broker:{b}", "delay": _between(fed, p["link_delay"])}
        for a, b in sorted(edges)
    ]
    churn = []
    next_join = n_providers
    for pid in fed.sample(range(n_providers), _between(fed, p["churn"])):
        when = _between(fed, p["churn_time"])
        if fed.random() >= p["join_share"]:
            churn.append({"time": when, "action": "leave", "provider": pid})
            continue
        joined = _provider(fed, next_join, types, p)
        joined["visible_to"] = [b for b in range(n_brokers) if fed.random() < p["join_visibility"]]
        churn.append({"time": when, "action": "join", "provider": joined})
        next_join += 1

    consumers = []
    for cid in range(p["requests"]):
        issue = _between(rng, p["issue"])
        start = issue + _between(rng, p["start_lag"])
        end = start + _between(rng, p["window"])
        chosen = rng.sample(types, min(_between(rng, p["bundle_types"]), len(types)))
        consumers.append(
            {
                "id": cid,
                "broker": rng.randrange(n_brokers),
                "issue_time": issue,
                "earliest_start": start,
                "deadline": end,
                "budget": f"{_between(rng, p['budget'])}.00",
                "bundle": {r: _between(rng, p["quantity"]) for r in chosen},
                "task_duration": _between(rng, p["duration"]),
            }
        )

    return {
        "resource_types": types,
        "pricing": {"demand_sensitivity": p["demand_sensitivity"]},
        "brokers": [
            {"id": b, "neighbors": sorted(neighbors[b]), "visible_providers": visible[b]}
            for b in range(n_brokers)
        ],
        "providers": providers,
        "consumers": consumers,
        "churn": churn,
        "delays": delays,
        "default_delay": 1,
    }
