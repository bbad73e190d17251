"""Each provider's level profile, its commitment index, against the ledger it summarizes.

Per resource type, the profile must give, at every time, the quantity of
that type committed by the held and confirmed reservations in the ledger.
It is checked against a profile rebuilt from the ledger after every provider
delivery, hold expiry and churn event of the session's shared fuzz batch and
of a long-lease run, and against a per-tick oracle over random allocate and
release sequences.
A conversation's CFP reaches a provider again only after its hold there
lapsed (its broker's CONFIRM came too late, and the request migrated to a
broker that sees the same provider), so the entry the CFP overwrites is
always released. A two-broker run shows that overwrite, and replacing
released entries is also driven directly through `provider_step`.

The same wrappers check the parser's churn rules as the kernel applies
them: a leave names a live provider, and a join a new id. They also check
that each task completion finds its reservation confirmed, which
`finish_lease` requires, and that after each of those calls every provider's
integer demand, per type, is the quantity its held reservations and its
confirmed, unfinished ones take, so it never goes below 0.

Each CFP a provider handles in those runs names only types the provider has
both a capacity and a base price for: `provider_step` and `allocate` rely on
it and have no branch for an unknown type.
"""

import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import hypothesis
import pytest
from hypothesis import given, strategies as st

import fedsim.engine as engine
from fedsim.agents import (
    ProviderState,
    ReservationStatus,
    allocate,
    finish_lease,
    provider_step,
    release_hold,
)
from fedsim.engine import apply_churn, run
from fedsim.model import (
    CallPayload,
    InvariantError,
    Message,
    Performative,
    broker,
    consumer,
    money,
    provider,
)
from fedsim.scenario import LEAVE, ChurnAction, ChurnSpec, parse_scenario

from helpers import bundle, long_lease_scenario, request, settings

ACTIVE = (ReservationStatus.HELD, ReservationStatus.CONFIRMED)


def steps(times, levels) -> list[tuple[int, int]]:
    """(time, level) at each time the level changes, from time 0."""
    out = []
    for time, level in zip(times, levels):
        if not out or level != out[-1][1]:
            out.append((time, level))
    return out


def ledger_steps(state: ProviderState) -> dict:
    """Per type, the steps of the held and confirmed reservations, rebuilt from the ledger."""
    deltas = {rtype: Counter({0: 0}) for rtype in state.capacity}
    for res in state.ledger.values():
        if res.status in ACTIVE:
            for rtype, qty in res.bundle.items:
                deltas[rtype][res.start] += qty
                deltas[rtype][res.end] -= qty
    out = {}
    for rtype, delta in deltas.items():
        times = sorted(delta)
        out[rtype] = steps(times, accumulate(delta[time] for time in times))
    return out


def assert_index_matches(state: ProviderState) -> None:
    profile = {rtype: steps(*found) for rtype, found in state.profile.items()}
    assert profile == ledger_steps(state), state.id


def assert_demand_matches(state: ProviderState, finished: set) -> None:
    """`finished` holds (id(state), conversation) for each lease finished so far."""
    expected = dict.fromkeys(state.capacity, 0)
    for conv, res in state.ledger.items():
        if res.status is ReservationStatus.HELD or (
            res.status is ReservationStatus.CONFIRMED and (id(state), conv) not in finished
        ):
            for rtype, qty in res.bundle.items:
                expected[rtype] += qty
    assert state.demand == expected, state.id
    assert all(type(qty) is int and qty >= 0 for qty in state.demand.values()), state.id


class IndexChecks:
    """Wrappers for the kernel's provider-facing calls that check after each."""

    def __init__(self):
        self.seen = Counter()
        self.finished = set()  # (id(state), conversation) of each finished lease

    def provider_step(self, state, msg):
        if msg.performative is Performative.CFP:
            types = msg.payload.request.bundle.types
            assert types <= state.capacity.keys() and types <= state.base_prices.keys(), (state.id, types)
            found = state.ledger.get(msg.conversation)
            assert found is None or found.status is ReservationStatus.RELEASED, (state.id, found)
            self.seen["cfp"] += 1
            self.seen["cfp_after_lapse"] += found is not None
        out = provider_step(state, msg)
        assert_index_matches(state)
        assert_demand_matches(state, self.finished)
        self.seen["delivery"] += 1
        return out

    def release_hold(self, state, conversation):
        released = release_hold(state, conversation)
        assert_index_matches(state)
        assert_demand_matches(state, self.finished)
        self.seen["release"] += released
        return released

    def apply_churn(self, world, event):
        if event.action is LEAVE:
            assert event.provider in world.registry, event
        else:
            assert event.provider not in world.providers, event
        apply_churn(world, event)
        for state in world.providers.values():
            assert_index_matches(state)
            assert_demand_matches(state, self.finished)
        self.seen[event.action.value] += 1

    def finish_lease(self, state, conversation):
        found = state.ledger.get(conversation)
        assert found is not None and found.status is ReservationStatus.CONFIRMED, (state.id, found)
        finish_lease(state, conversation)
        self.finished.add((id(state), conversation))
        assert_demand_matches(state, self.finished)
        self.seen["finish_lease"] += 1

    def attach(self, patch):
        patch.setattr(engine, "provider_step", self.provider_step)
        patch.setattr(engine, "release_hold", self.release_hold)
        patch.setattr(engine, "apply_churn", self.apply_churn)
        patch.setattr(engine, "finish_lease", self.finish_lease)


def test_index_matches_the_ledger_over_the_fuzz_batch(fuzz_batch):
    assert all(result.quiescent for result, _, _ in fuzz_batch.runs)
    checks = fuzz_batch.index
    assert checks.seen["delivery"] > 5_000 and checks.seen["release"] > 20
    assert checks.seen["cfp"] > 3_000
    assert checks.seen["leave"] > 10 and checks.seen["join"] > 10
    assert checks.seen["finish_lease"] > 1_900  # each found its entry confirmed


def test_index_matches_the_ledger_over_a_long_lease_run(monkeypatch):
    checks = IndexChecks()
    checks.attach(monkeypatch)
    result = run(parse_scenario(long_lease_scenario(random.Random(3))))
    assert result.quiescent
    assert checks.seen["delivery"] > 1_000 and checks.seen["leave"] == 1
    assert max(len(p.ledger) for p in result.providers.values()) > 80


# Broker 0 holds provider 0, but its CONFIRM comes back four default delays
# later, after the two-tick hold lapsed; the request then migrates to broker 1,
# which sees the same provider.
EXPIRED_HOLD = {
    "resource_types": ["cpu"],
    "hold_timeout": 2,
    "brokers": [
        {"id": 0, "neighbors": [1], "visible_providers": [0]},
        {"id": 1, "neighbors": [0], "visible_providers": [0]},
    ],
    "providers": [{"id": 0, "capacity": {"cpu": 4}, "base_prices": {"cpu": "1.00"}}],
    "consumers": [
        {"id": 0, "broker": 0, "issue_time": 0, "earliest_start": 0, "deadline": 10,
         "budget": "50.00", "bundle": {"cpu": 1}, "task_duration": 2}
    ],
}


def test_a_cfp_after_a_lapsed_hold_overwrites_the_released_entry(monkeypatch):
    checks = IndexChecks()
    checks.attach(monkeypatch)
    result = run(parse_scenario(EXPIRED_HOLD))
    assert result.quiescent and result.events_processed == 22
    cfps = [r.sender for r in result.trace if r.performative == "CFP" and r.receiver == "provider:0"]
    assert cfps == ["broker:0", "broker:1"]
    # broker 1's CFP found broker 0's released hold; the index matched after the overwrite
    assert checks.seen["cfp"] == 2 and checks.seen["cfp_after_lapse"] == 1
    assert [r.payload for r in result.trace if r.kind == "hold-expiry"] == ["released=yes"] * 2


@pytest.mark.parametrize("confirmed", [False, True], ids=["held", "confirmed"])
def test_index_checks_catch_a_cfp_that_finds_an_active_entry(monkeypatch, confirmed):
    checks = IndexChecks()
    checks.attach(monkeypatch)
    state = ProviderState(provider(0), {"cpu": 4}, {"cpu": money("1.00")}, settings())
    conv = "consumer:0#0"
    call = CallPayload(request=request(cpu=1), cost=money(10**6))
    cfp = Message(Performative.CFP, conv, broker(0), state.id, call)
    engine.provider_step(state, cfp)
    if confirmed:
        engine.provider_step(state, Message(Performative.CONFIRM, conv, broker(0), state.id))
    with pytest.raises(AssertionError):
        engine.provider_step(state, cfp._replace(sender=broker(1)))
    assert checks.seen["cfp"] == 1 and checks.seen["cfp_after_lapse"] == 0


@pytest.mark.parametrize(
    "action", [ChurnAction.LEAVE, ChurnAction.JOIN], ids=["leave of a departed provider", "join of a known id"]
)
def test_index_checks_catch_churn_that_breaks_the_parsers_rules(monkeypatch, action):
    checks = IndexChecks()
    checks.attach(monkeypatch)
    scenario = parse_scenario(EXPIRED_HOLD)
    world = engine._World(scenario)
    spec = scenario.providers[0]
    if action is ChurnAction.LEAVE:
        engine.apply_churn(world, ChurnSpec(time=0, action=action, provider=spec.id))
    with pytest.raises(AssertionError):
        engine.apply_churn(world, ChurnSpec(time=1, action=action, provider=spec.id, join=spec))
    assert checks.seen[action.value] == (action is ChurnAction.LEAVE)


def test_index_follows_replaced_and_released_entries():
    # as in a run, a CFP finds no entry for its conversation or a released one
    rng = random.Random(5)
    replaced = 0
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
            if roll < 0.6 and (before is None or before.status is ReservationStatus.RELEASED):
                start = rng.randint(0, 30)
                types = rng.sample(("cpu", "storage"), rng.randint(1, 2))
                quantities = {r: rng.randint(1, 3) for r in types}
                req = request(start=start, end=start + rng.randint(1, 12), **quantities)
                call = CallPayload(request=req, cost=money(10**6))
                provider_step(state, Message(Performative.CFP, conv, broker(0), state.id, call))
                replaced += before is not None and state.ledger[conv] is not before
            elif roll < 0.75 or roll >= 0.9:
                release_hold(state, conv)  # a hold expiry or a departure
            elif before is not None and before.status is ReservationStatus.HELD:
                provider_step(state, Message(Performative.CONFIRM, conv, broker(0), state.id))
            assert_index_matches(state)
    assert replaced > 20


# one step: (release?, conversation, window start or None for where the last
# window ended, window length, cpu, storage)
STEPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 5),
        st.none() | st.integers(0, 20),
        st.integers(1, 8),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=40,
)


@hypothesis.settings(max_examples=300, deadline=None)
@given(STEPS)
def test_allocate_and_release_match_a_per_tick_oracle(steps):
    capacity = {"cpu": 4, "storage": 3}
    state = ProviderState(provider(0), capacity, {"cpu": money("1.00"), "storage": money("1.00")}, settings())
    ticks = {rtype: Counter() for rtype in capacity}  # committed quantity per tick
    held = {}  # conversation -> (start, end, quantities)

    def commit(start, end, quantities, sign):
        for rtype, qty in quantities.items():
            for tick in range(start, end):
                ticks[rtype][tick] += sign * qty

    last_end = 0
    for release, k, start, length, cpu, storage in steps:
        conv = f"consumer:{k}#0"
        if release:
            assert release_hold(state, conv) is (conv in held)
            if conv in held:
                commit(*held.pop(conv), -1)
        elif conv not in held:  # as in a run, a CFP finds no active entry
            start = last_end if start is None else start
            end = last_end = start + length
            quantities = {r: q for r, q in (("cpu", cpu), ("storage", storage)) if q} or {"cpu": 1}
            fits = all(
                ticks[r][tick] + q <= capacity[r] for r, q in quantities.items() for tick in range(start, end)
            )
            res = allocate(state, bundle(**quantities), start, end, conv, consumer(0), 0)
            assert (res is not None) is fits
            if fits:
                held[conv] = (start, end, quantities)
                commit(start, end, quantities, 1)
        for rtype, (times, levels) in state.profile.items():
            horizon = range(max(times) + 2)
            assert [levels[bisect_right(times, tick) - 1] for tick in horizon] == [ticks[rtype][t] for t in horizon]


def test_a_release_below_zero_raises_even_without_asserts():
    state = ProviderState(provider(0), {"cpu": 4}, {"cpu": money("1.00")}, settings())
    conv = "consumer:0#0"
    assert allocate(state, bundle(cpu=2), 0, 5, conv, consumer(0), 0) is not None
    assert release_hold(state, conv)
    state.ledger[conv].status = ReservationStatus.HELD  # so that the same hold is released twice
    with pytest.raises(InvariantError, match="less cpu committed"):
        release_hold(state, conv)
