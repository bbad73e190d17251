"""Each provider's commitment index against the ledger it summarizes.

The index must hold, per resource type and in sorted order, exactly one
(end, start, qty, conversation) leg for every held or confirmed reservation
in the ledger. It is checked after every provider delivery, hold expiry and
churn event of the session's shared fuzz batch and of a long-lease run.
The kernel never sends a conversation's CFP to a provider that already has
a ledger entry for it, so replacing an entry is driven directly through
`provider_step` as well.

Each CFP a provider handles in those runs names only types the provider has
both a capacity and a base price for: `provider_step` and `allocate` rely on
it and have no branch for an unknown type.
"""

import random
from collections import Counter

import fedsim.engine as engine
from fedsim.agents import ProviderState, ReservationStatus, provider_step, release_hold
from fedsim.engine import apply_churn, run
from fedsim.model import (
    CallPayload,
    Message,
    Performative,
    broker,
    money,
    provider,
)
from fedsim.scenario import parse_scenario

from helpers import long_lease_scenario, request, settings

ACTIVE = (ReservationStatus.HELD, ReservationStatus.CONFIRMED)


def ledger_legs(state: ProviderState) -> dict:
    legs: dict = {}
    for res in state.ledger.values():
        if res.status in ACTIVE:
            for rtype, qty in res.bundle.items:
                legs.setdefault(rtype, []).append((res.end, res.start, qty, res.conversation))
    return {rtype: sorted(found) for rtype, found in legs.items()}


def assert_index_matches(state: ProviderState) -> None:
    index = {rtype: legs for rtype, legs in state.commitments.items() if legs}
    assert index == ledger_legs(state), state.id


class IndexChecks:
    """Wrappers for the kernel's provider-facing calls that check after each."""

    def __init__(self):
        self.seen = Counter()

    def provider_step(self, state, msg):
        if msg.performative is Performative.CFP:
            types = msg.payload.request.bundle.types
            assert types <= state.capacity.keys() and types <= state.base_prices.keys(), (state.id, types)
            self.seen["cfp"] += 1
        out = provider_step(state, msg)
        assert_index_matches(state)
        self.seen["delivery"] += 1
        return out

    def release_hold(self, state, conversation):
        released = release_hold(state, conversation)
        assert_index_matches(state)
        self.seen["release"] += released
        return released

    def apply_churn(self, world, event):
        apply_churn(world, event)
        for state in world.providers.values():
            assert_index_matches(state)
        self.seen[event.action.value] += 1

    def attach(self, patch):
        patch.setattr(engine, "provider_step", self.provider_step)
        patch.setattr(engine, "release_hold", self.release_hold)
        patch.setattr(engine, "apply_churn", self.apply_churn)


def test_index_matches_the_ledger_over_the_fuzz_batch(fuzz_batch):
    assert all(result.quiescent for result, _, _ in fuzz_batch.runs)
    checks = fuzz_batch.index
    assert checks.seen["delivery"] > 5_000 and checks.seen["release"] > 20
    assert checks.seen["cfp"] > 3_000
    assert checks.seen["leave"] > 10 and checks.seen["join"] > 10


def test_index_matches_the_ledger_over_a_long_lease_run(monkeypatch):
    checks = IndexChecks()
    checks.attach(monkeypatch)
    result = run(parse_scenario(long_lease_scenario(random.Random(3))))
    assert result.quiescent
    assert checks.seen["delivery"] > 1_000 and checks.seen["leave"] == 1
    assert max(len(p.ledger) for p in result.providers.values()) > 80


def test_index_follows_replaced_and_released_entries():
    rng = random.Random(5)
    replaced = Counter()
    for _ in range(60):
        state = ProviderState(
            provider(0),
            {"cpu": 6, "storage": 6},
            {"cpu": money("1.00"), "storage": money("1.00")},
            settings(),
        )
        for _ in range(50):
            conv = f"consumer:{rng.randrange(6)}#0"
            before = state.ledger.get(conv)
            roll = rng.random()
            if roll < 0.6:
                start = rng.randint(0, 30)
                types = rng.sample(("cpu", "storage"), rng.randint(1, 2))
                quantities = {r: rng.randint(1, 3) for r in types}
                req = request(start=start, end=start + rng.randint(1, 12), **quantities)
                call = CallPayload(request=req, cost=money(10**6))
                provider_step(state, Message(Performative.CFP, conv, broker(0), state.id, call))
                if before is not None and state.ledger[conv] is not before:
                    replaced[before.status] += 1
            elif roll < 0.75 or roll >= 0.9:
                release_hold(state, conv)  # a hold expiry or a departure
            elif before is not None and before.status is ReservationStatus.HELD:
                provider_step(state, Message(Performative.CONFIRM, conv, broker(0), state.id))
            assert_index_matches(state)
    assert all(replaced[status] > 20 for status in ReservationStatus)
