import random
from collections import Counter

import pytest

from fedsim.agents import (
    BrokerConversation,
    BrokerPhase,
    BrokerState,
    ConsumerPhase,
    ConsumerState,
    ProviderState,
    ReservationStatus,
    _open_conversation,
    allocate,
    broker_step,
    consumer_complete,
    consumer_start,
    consumer_step,
    finish_lease,
    provider_step,
    release_hold,
    select_best_provider,
    update_contact_list,
)
from fedsim.model import (
    CallPayload,
    FailurePayload,
    InformPayload,
    InvariantError,
    Message,
    Performative,
    ProposePayload,
    ProposeStage,
    ProtocolError,
    RefusePayload,
    RefuseReason,
    RejectPayload,
    ResourceBundle,
    broker,
    consumer,
    money,
    provider,
)
from fedsim.pricing import lease_factor

from helpers import bundle, entry, neighbor, request, settings, straight_loop_cost, tick_scan_feasible


def make_consumer(cid=0, budget="10.00", max_rejects=3, **quantities):
    req = request(cid=cid, budget=budget, **(quantities or {"cpu": 1}))
    return ConsumerState(
        id=consumer(cid),
        request=req,
        conversation=f"consumer:{cid}#0",
        scenario=settings(max_rejects=max_rejects),
        task_duration=2,
    )


def make_broker(bid=0, entries=(), neighbors=(), max_migrations=2):
    return BrokerState(
        id=broker(bid),
        contact_list={e.provider: e for e in entries},
        neighbors=tuple(broker(n) for n in neighbors),
        scenario=settings(max_migrations=max_migrations),
    )


def make_provider(pid=0, capacity=None, prices=None):
    return ProviderState(
        id=provider(pid),
        capacity=capacity or {"cpu": 4},
        base_prices={r: money(p) for r, p in (prices or {"cpu": "2.00"}).items()},
        scenario=settings(),
    )


def quote(cost, to=0, frm=0, stage=ProposeStage.QUOTE, pid=None):
    return Message(
        Performative.PROPOSE,
        f"consumer:{to}#0",
        broker(frm),
        consumer(to),
        ProposePayload(stage=stage, cost=money(cost), provider=pid),
    )


# --- consumer ---------------------------------------------------------------


def test_consumer_accepts_affordable_quote():
    state = make_consumer(budget="10.00")
    consumer_start(state)
    _, out = consumer_step(state, quote("9.00"))
    assert [m.performative for m in out] == [Performative.ACCEPT_PROPOSAL]
    assert state.phase is ConsumerPhase.AWAITING_AGREEMENT
    assert state.accepted_cost == money("9.00")


def test_consumer_rejects_with_its_budget_as_limit():
    state = make_consumer(budget="10.00")
    consumer_start(state)
    _, out = consumer_step(state, quote("12.00"))
    (msg,) = out
    assert msg.performative is Performative.REJECT_PROPOSAL
    assert msg.payload.cost_limit == money("10.00")
    assert state.rounds == 1


def test_consumer_refuses_after_rejection_budget_spent():
    state = make_consumer(budget="10.00", max_rejects=2)
    consumer_start(state)
    for _ in range(2):
        _, out = consumer_step(state, quote("12.00"))
        assert out[0].performative is Performative.REJECT_PROPOSAL
    _, out = consumer_step(state, quote("12.00"))
    assert out[0].performative is Performative.REFUSE
    assert out[0].payload.reason is RefuseReason.OVER_BUDGET


def test_consumer_agrees_to_matching_agreement_then_confirms():
    state = make_consumer(budget="10.00")
    consumer_start(state)
    consumer_step(state, quote("9.00"))
    _, out = consumer_step(state, quote("9.00", stage=ProposeStage.AGREEMENT, pid=provider(1)))
    assert [m.performative for m in out] == [Performative.AGREE]
    assert state.phase is ConsumerPhase.AWAITING_CONFIRM

    confirm = Message(Performative.CONFIRM, state.conversation, provider(1), state.id)
    _, out = consumer_step(state, confirm)
    (ack,) = out
    assert ack.performative is Performative.INFORM
    assert ack.receiver == provider(1)
    assert state.phase is ConsumerPhase.RUNNING
    assert state.accepted_cost == money("9.00")


def test_consumer_refuses_mismatched_agreement_terms():
    # the broker relays the hold of a CFP at the accepted quote's cost, so
    # terms that differ mean a broker or kernel bug, not a consumer choice
    state = make_consumer(budget="10.00")
    consumer_start(state)
    consumer_step(state, quote("9.00"))
    with pytest.raises(InvariantError, match="got terms 9.50, not 9.00"):
        consumer_step(state, quote("9.50", stage=ProposeStage.AGREEMENT, pid=provider(1)))


def test_consumer_requote_after_provider_fell_through():
    # a fresh quote while awaiting confirmation restarts the negotiation
    state = make_consumer(budget="10.00")
    consumer_start(state)
    consumer_step(state, quote("9.00"))
    consumer_step(state, quote("9.00", stage=ProposeStage.AGREEMENT, pid=provider(1)))
    assert state.phase is ConsumerPhase.AWAITING_CONFIRM
    _, out = consumer_step(state, quote("9.80"))
    assert out[0].performative is Performative.ACCEPT_PROPOSAL
    assert state.accepted_cost == money("9.80")


def test_consumer_failure_is_terminal():
    state = make_consumer()
    consumer_start(state)
    fail = Message(
        Performative.FAILURE, state.conversation, broker(0), state.id, FailurePayload("x")
    )
    _, out = consumer_step(state, fail)
    assert out == []
    assert state.phase is ConsumerPhase.FAILED


def test_consumer_completion_reports_utility_to_serving_broker():
    state = make_consumer(budget="10.00")
    consumer_start(state)
    consumer_step(state, quote("5.00", frm=2))
    consumer_step(state, quote("5.00", frm=2, stage=ProposeStage.AGREEMENT, pid=provider(1)))
    consumer_step(state, Message(Performative.CONFIRM, state.conversation, provider(1), state.id))
    (report_msg,) = consumer_complete(state, on_time=True)
    assert report_msg.receiver == broker(2)
    assert report_msg.payload.feedback == pytest.approx(0.75)
    assert state.phase is ConsumerPhase.DONE


def test_consumer_behavior_ignores_sender_identity():
    # same phase, performative, payload, different broker: same reply kind
    replies = []
    for frm in (0, 7):
        state = make_consumer(budget="10.00")
        consumer_start(state)
        _, out = consumer_step(state, quote("9.00", frm=frm))
        replies.append([(m.performative, type(m.payload)) for m in out])
    assert replies[0] == replies[1]


def test_consumer_out_of_phase_message_raises():
    state = make_consumer()
    consumer_start(state)
    with pytest.raises(ProtocolError):
        consumer_step(state, Message(Performative.CONFIRM, state.conversation, provider(0), state.id))


# --- contact list and provider selection -------------------------------------


def contacts(*entries):
    return {e.provider: e for e in entries}


def test_departed_provider_dropped_from_contacts():
    current = contacts(entry(0, cpu="2.00"), entry(1, cpu="3.00"))
    view = [entry(1, cpu="3.00")]
    assert list(update_contact_list(current, view)) == [provider(1)]


def test_new_provider_joins_with_default_grade():
    current = contacts(entry(0, cpu="2.00"))
    view = [entry(0, cpu="2.00"), entry(9, cpu="1.00")]
    got = update_contact_list(current, view)
    assert list(got) == [provider(0), provider(9)]
    assert got[provider(9)].grade == 0.5


def test_unchanged_registry_keeps_list_identical():
    learned = entry(0, grade=0.9, cpu="9.99")
    current = contacts(learned, entry(1, cpu="3.00"))
    view = [entry(0, cpu="2.00"), entry(1, cpu="3.00")]
    got = update_contact_list(current, view)
    assert got == current
    assert got[provider(0)] is learned  # learned prices and grade survive refresh


def opened(entries, b, factor):
    """A broker holding `entries`, with one conversation open for `b` over `factor` ticks."""
    state = BrokerState(broker(0), contacts(*entries), (), settings())
    _open_conversation(state, "consumer:0#0", request(start=0, end=factor, **dict(b.items)))
    return state, "consumer:0#0"


def test_single_qualifying_provider_selected():
    assert select_best_provider(*opened([entry(4, cpu="5.00")], bundle(cpu=1), 1)) == provider(4)


def test_cheaper_provider_wins_on_equal_grades():
    entries = [entry(1, cpu="7.00"), entry(2, cpu="5.00")]
    assert select_best_provider(*opened(entries, bundle(cpu=1), 1)) == provider(2)


def test_selection_matches_exhaustive_ranking_oracle():
    rng = random.Random(3331)
    for _ in range(50):
        entries = [
            entry(
                pid,
                grade=rng.choice([0.2, 0.5, 0.8]),
                cpu=f"{rng.randint(1, 60) / 10:.2f}",
                **({"gpu": f"{rng.randint(1, 60) / 10:.2f}"} if rng.random() < 0.5 else {}),
            )
            for pid in range(10)
        ]
        b = bundle(cpu=2) if rng.random() < 0.5 else bundle(cpu=1, gpu=1)
        factor = rng.randint(1, 9)

        def rank(e):
            from fedsim.pricing import total_cost

            return (total_cost(b, e.prices, factor), -e.grade, e.provider)

        qualifying = [e for e in entries if e.covers(b)]
        expected = min(qualifying, key=rank).provider if qualifying else None
        assert select_best_provider(*opened(entries, b, factor)) == expected


# --- provider ---------------------------------------------------------------


def cfp_to_provider(cost, pid=0, frm=0, req=None):
    req = req or request(cpu=2, start=0, end=1)  # one tick: the cost is the unit-price sum
    return Message(
        Performative.CFP,
        "consumer:0#0",
        broker(frm),
        provider(pid),
        CallPayload(request=req, cost=money(cost)),
    )


def test_provider_holds_and_proposes_when_cost_covers_expected():
    state = make_provider()
    _, out = provider_step(state, cfp_to_provider("4.00"))
    (msg,) = out
    assert msg.performative is Performative.PROPOSE
    assert msg.payload.stage is ProposeStage.HOLD
    res = state.ledger["consumer:0#0"]
    assert res.status is ReservationStatus.HELD
    assert state.demand["cpu"] == 2.0


def test_provider_refuses_with_demand_ratio_when_expected_exceeds_cost():
    state = make_provider()
    provider_step(state, cfp_to_provider("4.00"))  # demand now 2 of 4
    msg = Message(
        Performative.CFP,
        "consumer:1#0",
        broker(0),
        provider(0),
        CallPayload(request=request(cid=1, cpu=2, end=1), cost=money("4.00")),
    )
    _, out = provider_step(state, msg)
    (refuse,) = out
    assert refuse.performative is Performative.REFUSE
    assert refuse.payload.reason is RefuseReason.EXPECTED_COST
    assert refuse.payload.ratios == (("cpu", 0.5),)


def test_provider_confirm_after_hold_reaches_consumer():
    state = make_provider()
    provider_step(state, cfp_to_provider("4.00"))
    _, out = provider_step(
        state, Message(Performative.CONFIRM, "consumer:0#0", broker(0), provider(0))
    )
    (msg,) = out
    assert msg.performative is Performative.CONFIRM
    assert msg.receiver == consumer(0)
    assert state.ledger["consumer:0#0"].status is ReservationStatus.CONFIRMED


def test_provider_confirm_without_hold_is_protocol_violation():
    state = make_provider()
    with pytest.raises(ProtocolError):
        provider_step(state, Message(Performative.CONFIRM, "consumer:0#0", broker(0), provider(0)))


def test_provider_refuses_confirm_after_its_hold_expired():
    state = make_provider()
    provider_step(state, cfp_to_provider("4.00"))
    release_hold(state, "consumer:0#0")  # the hold expiry
    _, out = provider_step(
        state, Message(Performative.CONFIRM, "consumer:0#0", broker(0), provider(0))
    )
    (msg,) = out
    assert msg.performative is Performative.REFUSE
    assert msg.receiver == broker(0)
    assert msg.payload == RefusePayload(reason=RefuseReason.EXPIRED, ratios=(("cpu", 0.0),))
    assert state.ledger["consumer:0#0"].status is ReservationStatus.RELEASED


def test_provider_second_confirm_is_protocol_violation():
    state = make_provider()
    provider_step(state, cfp_to_provider("4.00"))
    confirm = Message(Performative.CONFIRM, "consumer:0#0", broker(0), provider(0))
    provider_step(state, confirm)
    with pytest.raises(ProtocolError):
        provider_step(state, confirm)


def test_provider_refuse_is_protocol_violation():
    # no agent refuses a provider: a hold ends only by CONFIRM, expiry or churn
    state = make_provider()
    provider_step(state, cfp_to_provider("4.00"))
    refuse = Message(
        Performative.REFUSE,
        "consumer:0#0",
        broker(0),
        provider(0),
        RefusePayload(reason=RefuseReason.OVER_BUDGET),
    )
    with pytest.raises(ProtocolError):
        provider_step(state, refuse)
    assert state.ledger["consumer:0#0"].status is ReservationStatus.HELD


def test_allocate_simple_fit_and_overflow():
    state = make_provider(capacity={"cpu": 4})
    assert allocate(state, bundle(cpu=4), 0, 10, "c:a", consumer(0), money("1.00")) is not None
    assert allocate(state, bundle(cpu=1), 0, 10, "c:b", consumer(1), money("1.00")) is None
    # a disjoint window still fits
    assert allocate(state, bundle(cpu=4), 10, 20, "c:c", consumer(2), money("1.00")) is not None


def test_allocate_matches_tick_scan_oracle():
    # every allocation, not just a final probe, is checked against the
    # per-tick scan of the ledger as it stood before the call, so capacity
    # that a release should have freed shows up as a refusal; as in a run,
    # a conversation is allocated again only after its entry was released
    rng = random.Random(99)
    replaced = 0
    for _ in range(150):
        state = make_provider(capacity={"cpu": rng.randint(2, 6), "storage": rng.randint(2, 6)})
        state.base_prices["storage"] = money("1.00")
        for i in range(rng.randint(0, 40)):
            # windows from the ledger's own edges start or end exactly where
            # existing reservations do; the rest fall before, inside or after
            edges = sorted({t for r in state.ledger.values() for t in (r.start, r.end)})
            start = rng.choice(edges) if edges and rng.random() < 0.5 else rng.randint(0, 40)
            later = [t for t in edges if t > start]
            end = rng.choice(later) if later and rng.random() < 0.5 else start + rng.randint(1, 12)
            b = ResourceBundle.of(
                {r: rng.randint(1, 3) for r in rng.sample(("cpu", "storage"), rng.randint(1, 2))}
            )
            released = [c for c, r in state.ledger.items() if r.status is ReservationStatus.RELEASED]
            conv = rng.choice(released) if released and rng.random() < 0.3 else f"c:{i}"
            before = state.ledger.get(conv)
            ledger = list(state.ledger.values())
            expected = tick_scan_feasible(ledger, b, start, end, state.capacity)
            res = allocate(state, b, start, end, conv, consumer(i), money("1.00"))
            assert (res is not None) == expected
            if res is None:
                assert state.ledger.get(conv) is before
                continue
            replaced += before is not None
            roll = rng.random()
            if roll < 0.3:
                release_hold(state, conv)
            elif roll < 0.6:
                res.status = ReservationStatus.CONFIRMED
    assert replaced > 50


def test_finish_lease_releases_demand_but_keeps_ledger():
    state = make_provider()
    provider_step(state, cfp_to_provider("4.00"))
    provider_step(state, Message(Performative.CONFIRM, "consumer:0#0", broker(0), provider(0)))
    finish_lease(state, "consumer:0#0")
    assert state.demand["cpu"] == 0.0
    assert state.ledger["consumer:0#0"].status is ReservationStatus.CONFIRMED


def test_finishing_a_lease_without_a_confirmed_reservation_is_an_invariant_error():
    state = make_provider()
    with pytest.raises(InvariantError, match="no confirmed reservation for consumer:0#0"):
        finish_lease(state, "consumer:0#0")  # no ledger entry
    provider_step(state, cfp_to_provider("4.00"))  # held, not confirmed
    with pytest.raises(InvariantError, match="no confirmed reservation for consumer:0#0"):
        finish_lease(state, "consumer:0#0")


# --- broker -----------------------------------------------------------------


class StubWorld:
    """Stands in for the kernel's world: the two views a broker reads, with a count of reads.

    With no `neighbors` given, a step that self-organizes fails the test.
    """

    def __init__(self, view=(), neighbors=None):
        self.view, self.neighbors = list(view), neighbors
        self.reads = Counter()

    def registry_view(self, bid):
        self.reads["registry_view"] += 1
        return self.view

    def neighbor_snapshot(self, of):
        if self.neighbors is None:
            pytest.fail(f"{of} self-organized in a step that must not")
        self.reads["neighbor_snapshot"] += 1
        return self.neighbors


def consumer_cfp(state_broker, cid=0, req=None):
    req = req or request(cid=cid, cpu=1, end=1, budget="50.00")  # one tick, as above
    return Message(
        Performative.CFP,
        f"consumer:{cid}#0",
        consumer(cid),
        state_broker.id,
        CallPayload(request=req),
    )


def test_broker_quotes_best_provider_on_cfp():
    state = make_broker(entries=[entry(0, cpu="2.00"), entry(1, cpu="1.50")])
    view = [entry(0, cpu="2.00"), entry(1, cpu="1.50")]
    _, out = broker_step(state, consumer_cfp(state), StubWorld(view))
    (msg,) = out
    assert msg.performative is Performative.PROPOSE
    assert msg.payload.cost == money("1.50")
    assert state.in_flight == 1
    conv = state.conversations["consumer:0#0"]
    assert conv.best == provider(1)


def test_broker_with_empty_list_self_organizes_no_quote():
    state = make_broker(entries=[], neighbors=(1,))
    world = StubWorld([], neighbors=[neighbor(1, types=("cpu",))])
    _, out = broker_step(state, consumer_cfp(state), world)
    (msg,) = out
    assert msg.performative is Performative.CFP
    assert msg.receiver == broker(1)
    assert state.in_flight == 0  # conversation migrated away immediately


def test_broker_reads_each_view_only_in_the_step_that_uses_it():
    state = make_broker(neighbors=(1,))
    world = StubWorld([entry(0, cpu="2.00"), entry(1, cpu="5.00")], neighbors=[neighbor(1, types=("cpu",))])
    conv_id = "consumer:0#0"

    def reads(msg):
        before = Counter(world.reads)
        _, out = broker_step(state, msg, world)
        return world.reads - before, out

    def from_provider(pid, performative, payload):
        return Message(performative, conv_id, provider(pid), state.id, payload)

    accept = Message(Performative.ACCEPT_PROPOSAL, conv_id, consumer(0), state.id)
    reject = Message(Performative.REJECT_PROPOSAL, conv_id, consumer(0), state.id, RejectPayload(money("1.00")))
    expected_cost = RefusePayload(reason=RefuseReason.EXPECTED_COST, ratios=(("cpu", 0.0),))
    hold = ProposePayload(stage=ProposeStage.HOLD, cost=money("5.00"))
    expired = RefusePayload(reason=RefuseReason.EXPIRED, ratios=(("cpu", 0.0),))

    assert reads(consumer_cfp(state))[0] == {"registry_view": 1}
    assert reads(accept)[0] == {}
    assert reads(from_provider(0, Performative.REFUSE, expected_cost))[0] == {}  # provider 0 stays
    assert reads(reject)[0] == {}  # provider 1 is left
    assert reads(accept)[0] == {}
    assert reads(from_provider(1, Performative.PROPOSE, hold))[0] == {}
    assert reads(Message(Performative.AGREE, conv_id, consumer(0), state.id))[0] == {}
    got, out = reads(from_provider(1, Performative.REFUSE, expired))  # no provider is left
    assert got == {"neighbor_snapshot": 1}
    assert [(m.performative, m.receiver) for m in out] == [(Performative.CFP, broker(1))]


def reject_from(state, cid):
    conv_id = f"consumer:{cid}#0"
    return Message(Performative.REJECT_PROPOSAL, conv_id, consumer(cid), state.id, RejectPayload(money("1.00")))


def test_feedback_lifts_a_candidate_below_the_top_of_another_conversation():
    # provider 0 alone prices gpu; on cpu all three cost the same and grade decides
    registry = [entry(0, cpu="5.00", gpu="5.00"), entry(1, cpu="5.00"), entry(2, cpu="5.00")]
    state = make_broker(
        entries=[entry(0, 0.5, cpu="5.00", gpu="5.00"), entry(1, 0.6, cpu="5.00"), entry(2, 0.55, cpu="5.00")]
    )
    world = StubWorld(registry)
    served = "consumer:1#0"
    broker_step(state, consumer_cfp(state, 1, request(cid=1, gpu=1, end=1, budget="50.00")), world)
    _, out = broker_step(state, consumer_cfp(state, 0), world)
    assert (out[0].payload.cost, state.conversations["consumer:0#0"].best) == (money("5.00"), provider(1))
    for msg in (
        Message(Performative.ACCEPT_PROPOSAL, served, consumer(1), state.id),
        Message(Performative.PROPOSE, served, provider(0), state.id,
                ProposePayload(stage=ProposeStage.HOLD, cost=money("5.00"))),
        Message(Performative.AGREE, served, consumer(1), state.id),
        Message(Performative.INFORM, served, consumer(1), state.id, InformPayload(feedback=1.0)),
    ):
        broker_step(state, msg, world)
    assert state.contact_list[provider(0)].grade == pytest.approx(0.65)  # now above provider 1's 0.6
    _, out = broker_step(state, reject_from(state, 0), world)
    # a heap that only drops stale tops would skip the regraded provider 0 for provider 2
    assert state.conversations["consumer:0#0"].best == provider(0)
    assert out[0].payload.cost == money("5.00")


def test_a_long_open_conversation_does_not_pin_the_change_stamps():
    state = make_broker(entries=[entry(0, cpu="2.00"), entry(1, cpu="3.00")])
    world = StubWorld([entry(0, cpu="2.00"), entry(1, cpu="3.00")])
    held = "consumer:0#0"

    def say(cid, performative, payload=None, sender=None):
        msg = Message(performative, f"consumer:{cid}#0", sender or consumer(cid), state.id, payload)
        return broker_step(state, msg, world)[1]

    hold = ProposePayload(stage=ProposeStage.HOLD, cost=money("2.00"))
    broker_step(state, consumer_cfp(state, 0), world)
    say(0, Performative.ACCEPT_PROPOSAL)
    say(0, Performative.PROPOSE, hold, provider(0))
    say(0, Performative.AGREE)
    assert state.conversations[held].phase is BrokerPhase.AWAITING_FEEDBACK
    for cid in range(1, 21):
        # each request learns a higher price from its provider, then grades it
        broker_step(state, consumer_cfp(state, cid), world)
        say(cid, Performative.ACCEPT_PROPOSAL)
        conv = state.conversations[f"consumer:{cid}#0"]
        raised = RefusePayload(reason=RefuseReason.EXPECTED_COST, ratios=(("cpu", 0.1),))
        say(cid, Performative.REFUSE, raised, conv.best)
        say(cid, Performative.ACCEPT_PROPOSAL)
        say(cid, Performative.PROPOSE, hold, conv.best)
        say(cid, Performative.AGREE)
        say(cid, Performative.INFORM, InformPayload(feedback=0.9))
    assert state.conversations.keys() == {held}
    assert len(state.changed) <= 2  # one stamp per provider, however long the lease
    assert state.contact_list[provider(1)].prices["cpu"] > money("3.00")

    expired = RefusePayload(reason=RefuseReason.EXPIRED, ratios=(("cpu", 0.0),))
    (msg,) = say(0, Performative.REFUSE, expired, provider(0))
    conv = state.conversations[held]
    factor = lease_factor(conv.request)
    expected = min(
        (straight_loop_cost(conv.request.bundle, e.prices, factor), -e.grade, pid)
        for pid, e in state.contact_list.items()
        if pid in conv.temporary
    )
    assert (msg.payload.cost, conv.best) == (expected[0], expected[2])


def test_broker_refuse_ratio_updates_price_and_requotes():
    # recorded 2.00, ratio 0.5, sensitivity 1 -> 3.00, then a fresh quote
    state = make_broker(entries=[entry(0, cpu="2.00")])
    world = StubWorld([entry(0, cpu="2.00")])
    broker_step(state, consumer_cfp(state), world)
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, "consumer:0#0", consumer(0), state.id), world)
    refuse = Message(
        Performative.REFUSE,
        "consumer:0#0",
        provider(0),
        state.id,
        RefusePayload(reason=RefuseReason.EXPECTED_COST, ratios=(("cpu", 0.5),)),
    )
    _, out = broker_step(state, refuse, world)
    assert state.contact_list.get(provider(0)).prices["cpu"] == money("3.00")
    (msg,) = out
    assert msg.performative is Performative.PROPOSE
    assert msg.payload.cost == money("3.00")


def test_broker_capacity_refusal_drops_provider_from_temporary():
    state = make_broker(entries=[entry(0, cpu="1.00"), entry(1, cpu="5.00")])
    world = StubWorld([entry(0, cpu="1.00"), entry(1, cpu="5.00")])
    broker_step(state, consumer_cfp(state), world)
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, "consumer:0#0", consumer(0), state.id), world)
    refuse = Message(
        Performative.REFUSE,
        "consumer:0#0",
        provider(0),
        state.id,
        RefusePayload(reason=RefuseReason.CAPACITY, ratios=(("cpu", 0.0),)),
    )
    _, out = broker_step(state, refuse, world)
    conv = state.conversations["consumer:0#0"]
    assert provider(0) not in conv.temporary
    assert provider(0) in conv.excluded
    assert out[0].payload.cost == money("5.00")  # requoted from the survivor


@pytest.mark.parametrize(
    "max_migrations, neighbors, reason, grade",
    [
        (0, [neighbor(1)], "migration-limit", 0.35),
        (2, [neighbor(1, types=(), count=0)], "no-admissible-broker", 0.35),
        (2, [neighbor(1)], None, 0.5),  # migrates: not a failure here
    ],
    ids=["hop-limit", "no-admissible-broker", "migrates"],
)
def test_broker_grades_attempted_providers_down_only_when_the_request_fails(
    max_migrations, neighbors, reason, grade
):
    state = make_broker(entries=[entry(0, cpu="2.00")], neighbors=(1,), max_migrations=max_migrations)
    world = StubWorld([entry(0, cpu="2.00")], neighbors)
    broker_step(state, consumer_cfp(state), world)
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, "consumer:0#0", consumer(0), state.id), world)
    refuse = Message(
        Performative.REFUSE,
        "consumer:0#0",
        provider(0),
        state.id,
        RefusePayload(reason=RefuseReason.CAPACITY, ratios=(("cpu", 0.0),)),
    )
    _, out = broker_step(state, refuse, world)
    (msg,) = out
    if reason is None:
        assert (msg.performative, msg.receiver) == (Performative.CFP, broker(1))
    else:
        assert (msg.performative, msg.payload.reason) == (Performative.FAILURE, reason)
    assert state.contact_list[provider(0)].grade == pytest.approx(grade)
    assert state.in_flight == 0


def test_broker_reject_loop_drains_temporary_then_fails():
    state = make_broker(entries=[entry(0, cpu="4.00"), entry(1, cpu="6.00")], neighbors=())
    world = StubWorld([entry(0, cpu="4.00"), entry(1, cpu="6.00")], neighbors=[])
    broker_step(state, consumer_cfp(state), world)
    reject = Message(
        Performative.REJECT_PROPOSAL,
        "consumer:0#0",
        consumer(0),
        state.id,
        payload=RejectPayload(money("1.00")),
    )
    _, out = broker_step(state, reject, world)
    assert out[0].payload.cost == money("6.00")
    _, out = broker_step(state, reject, world)
    (msg,) = out
    assert msg.performative is Performative.FAILURE
    assert state.in_flight == 0


def test_broker_full_happy_path_and_grade_update():
    state = make_broker(entries=[entry(0, grade=0.5, cpu="2.00")])
    world = StubWorld([entry(0, cpu="2.00")])
    conv_id = "consumer:0#0"
    broker_step(state, consumer_cfp(state), world)
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, conv_id, consumer(0), state.id), world)
    _, out = broker_step(
        state,
        Message(
            Performative.PROPOSE,
            conv_id,
            provider(0),
            state.id,
            ProposePayload(stage=ProposeStage.HOLD, cost=money("2.00")),
        ),
        world,
    )
    assert out[0].payload.stage is ProposeStage.AGREEMENT
    _, out = broker_step(state, Message(Performative.AGREE, conv_id, consumer(0), state.id), world)
    assert out[0].performative is Performative.CONFIRM
    _, out = broker_step(
        state,
        Message(Performative.INFORM, conv_id, consumer(0), state.id, InformPayload(feedback=1.0)),
        world,
    )
    assert out == []
    assert state.in_flight == 0
    assert state.contact_list.get(provider(0)).grade == pytest.approx(0.65)


def test_broker_departed_refusal_purges_provider_everywhere():
    state = make_broker(entries=[entry(0, cpu="2.00"), entry(1, cpu="9.00")])
    world = StubWorld([entry(0, cpu="2.00"), entry(1, cpu="9.00")])
    broker_step(state, consumer_cfp(state), world)
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, "consumer:0#0", consumer(0), state.id), world)
    refuse = Message(
        Performative.REFUSE,
        "consumer:0#0",
        provider(0),
        state.id,
        RefusePayload(reason=RefuseReason.DEPARTED),
    )
    _, out = broker_step(state, refuse, world)
    assert state.contact_list.get(provider(0)) is None
    assert out[0].payload.cost == money("9.00")


def test_broker_expired_refusal_drops_provider_and_requotes():
    state = make_broker(entries=[entry(0, cpu="2.00"), entry(1, cpu="9.00")])
    world = StubWorld([entry(0, cpu="2.00"), entry(1, cpu="9.00")])
    conv_id = "consumer:0#0"
    broker_step(state, consumer_cfp(state), world)
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, conv_id, consumer(0), state.id), world)
    hold = ProposePayload(stage=ProposeStage.HOLD, cost=money("2.00"))
    broker_step(state, Message(Performative.PROPOSE, conv_id, provider(0), state.id, hold), world)
    broker_step(state, Message(Performative.AGREE, conv_id, consumer(0), state.id), world)
    assert state.conversations[conv_id].phase is BrokerPhase.AWAITING_FEEDBACK
    refuse = Message(
        Performative.REFUSE,
        conv_id,
        provider(0),
        state.id,
        RefusePayload(reason=RefuseReason.EXPIRED, ratios=(("cpu", 0.0),)),
    )
    _, out = broker_step(state, refuse, world)
    conv = state.conversations[conv_id]
    assert provider(0) not in conv.temporary
    assert provider(0) in conv.excluded
    (msg,) = out
    assert msg.performative is Performative.PROPOSE
    assert msg.payload.cost == money("9.00")  # requoted from the survivor


def test_broker_out_of_phase_message_raises():
    state = make_broker(entries=[entry(0, cpu="2.00")])
    world = StubWorld([entry(0, cpu="2.00")])
    broker_step(state, consumer_cfp(state), world)
    with pytest.raises(ProtocolError):
        broker_step(state, Message(Performative.AGREE, "consumer:0#0", consumer(0), state.id), world)
    with pytest.raises(ProtocolError):
        broker_step(state, Message(Performative.AGREE, "consumer:9#0", consumer(9), state.id), world)
    # once the consumer has accepted, the agreement carries the quoted cost,
    # so the consumer never refuses it
    conv_id = "consumer:0#0"
    broker_step(state, Message(Performative.ACCEPT_PROPOSAL, conv_id, consumer(0), state.id), world)
    hold = ProposePayload(stage=ProposeStage.HOLD, cost=money("2.00"))
    broker_step(state, Message(Performative.PROPOSE, conv_id, provider(0), state.id, hold), world)
    assert state.conversations[conv_id].phase is BrokerPhase.AWAITING_AGREEMENT
    refuse = RefusePayload(reason=RefuseReason.OVER_BUDGET)
    with pytest.raises(ProtocolError):
        broker_step(state, Message(Performative.REFUSE, conv_id, consumer(0), state.id, refuse), world)
