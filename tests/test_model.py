import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from fedsim.agents import SelectionSnapshot
from fedsim.engine import run
from fedsim.model import (
    AgentId,
    AgentKind,
    CallPayload,
    DomainError,
    FailurePayload,
    InformPayload,
    Message,
    Performative,
    ProposePayload,
    ProposeStage,
    RefusePayload,
    RefuseReason,
    RejectPayload,
    ResourceBundle,
    ValidationError,
    broker,
    consumer,
    format_money,
    money,
    provider,
)
from fedsim.scenario import load_scenario, parse_scenario

from helpers import bundle, entry, fuzz_scenario, neighbor, request

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


agent_ids = st.builds(
    AgentId,
    kind=st.sampled_from(list(AgentKind)),
    index=st.integers(min_value=0, max_value=50),
)


@given(a=agent_ids, b=agent_ids)
def test_agent_order_is_total_and_antisymmetric(a, b):
    if a == b:
        assert not a < b and not b < a
    else:
        assert (a < b) != (b < a)


@given(a=agent_ids, b=agent_ids, c=agent_ids)
def test_agent_order_is_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


def test_agent_id_string_round_trip():
    for aid in (consumer(0), broker(3), provider(12)):
        assert AgentId.parse(str(aid)) == aid


def test_agent_id_parse_rejects_junk():
    with pytest.raises(ValidationError):
        AgentId.parse("nonsense")
    with pytest.raises(ValidationError):
        AgentId.parse("wizard:3")


@dataclass(frozen=True, order=True)
class RecordId:
    """Reference: an agent id as a plain (kind, index) record."""

    kind: AgentKind
    index: int


@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(list(AgentKind)), st.integers(min_value=0, max_value=20)),
        min_size=1,
        max_size=25,
    ),
    negative=st.integers(max_value=-1),
)
def test_agent_id_behaves_like_a_kind_index_record(pairs, negative):
    ids = [AgentId(kind, index) for kind, index in pairs]
    records = [RecordId(kind, index) for kind, index in pairs]
    assert [RecordId(a.kind, a.index) for a in sorted(ids)] == sorted(records)
    assert len(set(ids)) == len(set(records))
    for a, ra in zip(ids, records):
        assert a.kind is ra.kind and a.index == ra.index
        assert AgentId.parse(str(a)) == a
        assert str(a) == f"{ra.kind.name.lower()}:{ra.index}"
        for b, rb in zip(ids, records):
            assert (a == b) == (ra == rb)
            assert (a < b) == (ra < rb) and (a <= b) == (ra <= rb)
            if a == b:
                assert hash(a) == hash(b)
        for attr, value in (("kind", AgentKind.BROKER), ("index", 7), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(a, attr, value)
        with pytest.raises(ValidationError) as err:
            AgentId(ra.kind, negative)
        assert err.value.code == "negative-index"


def test_bundle_is_canonical_regardless_of_insertion_order():
    assert bundle(cpu=1, gpu=2) == bundle(gpu=2, cpu=1)
    assert bundle(cpu=1, gpu=2).digest() == "cpu:1+gpu:2"


def _message(keyword, *fields):
    """Build a Message from its five fields, positionally or by keyword."""
    if keyword:
        return Message(**dict(zip(Message._fields, fields)))
    return Message(*fields)


CONV = "consumer:0#0"


@pytest.mark.parametrize("keyword", [False, True])
def test_failure_is_broker_to_consumer_only(keyword):
    _message(keyword, Performative.FAILURE, CONV, broker(0), consumer(0), FailurePayload("x"))
    for sender, receiver in ((provider(0), consumer(0)), (broker(0), broker(1))):
        with pytest.raises(ValidationError) as err:
            _message(keyword, Performative.FAILURE, CONV, sender, receiver, FailurePayload("x"))
        assert err.value.code == "failure-route"


@pytest.mark.parametrize("keyword", [False, True])
def test_reject_must_carry_cost_limit(keyword):
    _message(keyword, Performative.REJECT_PROPOSAL, CONV, consumer(0), broker(0), RejectPayload(money(1)))
    with pytest.raises(ValidationError) as err:
        _message(keyword, Performative.REJECT_PROPOSAL, CONV, consumer(0), broker(0), None)
    assert err.value.code == "missing-cost-limit"


@pytest.mark.parametrize("keyword", [False, True])
def test_provider_refuse_must_carry_ratio_payload(keyword):
    with pytest.raises(ValidationError) as err:
        _message(keyword, Performative.REFUSE, CONV, provider(0), broker(0), None)
    assert err.value.code == "missing-ratio"
    refuse = RefusePayload(reason=RefuseReason.CAPACITY, ratios=(("cpu", 0.5),))
    msg = _message(keyword, Performative.REFUSE, CONV, provider(0), broker(0), refuse)
    assert msg.payload is refuse and msg.payload_digest() == "reason=capacity,ratio=cpu:0.5000"


def _records():
    """One instance of each record built per event or per selection."""
    return [
        Message(Performative.CFP, CONV, consumer(0), broker(0), CallPayload(request())),
        CallPayload(request(), cost=money(3)),
        ProposePayload(stage=ProposeStage.QUOTE, cost=money(3), provider=provider(1)),
        RejectPayload(cost_limit=money(2)),
        RefusePayload(reason=RefuseReason.CAPACITY, ratios=(("cpu", 0.5),)),
        InformPayload(feedback=0.5),
        FailurePayload("no-admissible-broker"),
        entry(1, cpu="1.00"),
        SelectionSnapshot({}, frozenset(), frozenset(), money(3)),
        neighbor(1),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_per_event_records_are_immutable(record):
    for name in record._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.__dict__


def test_bundle_equality_and_hash_ignore_the_cached_types():
    a, b = ResourceBundle((("cpu", 1), ("gpu", 2))), ResourceBundle((("cpu", 1), ("gpu", 2)))
    before = hash(a)
    assert a.types == frozenset({"cpu", "gpu"})
    assert a.types is a.types  # computed once
    assert a == b and hash(a) == hash(b) == before == hash((a.items,))
    assert a != ResourceBundle((("cpu", 1),)) and "types" not in repr(a)
    assert bundle(cpu=1).types <= entry(0, cpu="1.00", gpu="2.00").prices.keys()


def test_no_message_is_built_without_its_checks(monkeypatch):
    # `_make` and `_replace` skip `Message.__new__`; the package must never use them
    def refuse(*args, **kwargs):
        raise AssertionError("Message built through _make or _replace")

    monkeypatch.setattr(Message, "_make", classmethod(refuse))
    monkeypatch.setattr(Message, "_replace", refuse)
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.json"))]
    scenarios += [parse_scenario(fuzz_scenario(random.Random(seed))) for seed in range(5)]
    for scn in scenarios:
        assert run(scn).quiescent


def test_money_rounds_half_even():
    assert money("2.005") == money("2.00") == 200
    assert money("2.015") == money("2.02") == 202
    assert format_money(money(2)) == "2.00"


def test_money_holds_every_amount_the_decimal_context_fits():
    # 28 digits, cents included, is the default decimal precision
    assert money("9" * 26) == int("9" * 26) * 100
    assert format_money(money("9" * 26)) == "9" * 26 + ".00"


@pytest.mark.parametrize(
    "cents, text", [(0, "0.00"), (7, "0.07"), (-5, "-0.05"), (-100, "-1.00"), (-12345, "-123.45")]
)
def test_format_money_round_trips_zero_and_negatives(cents, text):
    assert format_money(cents) == text
    assert money(text) == cents


@given(
    st.one_of(
        st.integers(min_value=-(10**60), max_value=-1),
        st.integers(min_value=0, max_value=99),  # zero and amounts under one unit
        st.integers(min_value=2**63, max_value=10**60),
    )
)
@example(0)
@example(-1)
@example(2**63)
def test_format_money_matches_a_decimal_reference(cents):
    with localcontext() as exact:
        exact.prec = 100  # every amount drawn fits, so scaleb does not round
        assert format_money(cents) == f"{Decimal(cents).scaleb(-2):f}"


@pytest.mark.parametrize(
    "value", ["1" + "0" * 26, 10**30, "abc", "Infinity"], ids=["27-digits", "int", "text", "inf"]
)
def test_money_that_cannot_be_held_to_the_cent_is_a_domain_error(value):
    with pytest.raises(DomainError, match="as money"):
        money(value)
