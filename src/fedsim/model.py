"""Shared value types for the federation simulator.

Everything here is an immutable record: agents mutate their own state by
replacing entries, never by editing these objects in place. Records built on
every event are NamedTuples: copy one with `_replace`, not `dataclasses.replace`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from functools import cached_property
from operator import itemgetter
from typing import Mapping, NamedTuple

CENT = Decimal("0.01")

Money = int  # whole cents
ResourceType = str


def money(value) -> Money:
    """Read a decimal amount as whole cents, rounding half-even. Money enters only here.

    Raises DomainError for a value that is not a finite number or needs more
    digits, cents included, than the decimal context's precision.
    """
    try:
        return int(Decimal(str(value)).quantize(CENT, rounding=ROUND_HALF_EVEN) * 100)
    except (InvalidOperation, ValueError):  # ValueError: int() of a NaN
        raise DomainError(f"cannot hold {value} as money to the cent") from None


def format_money(value: Money) -> str:
    """Cents as `d.cc`, with a `-` sign for a negative amount."""
    if value < 0:
        return "-" + format_money(-value)
    return f"{value // 100}.{value % 100:02d}"


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SimulatorError):
    """A record violates one of its invariants. `code` names the violation."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class DomainError(SimulatorError):
    """An argument is outside an operation's stated domain."""


class ProtocolError(SimulatorError):
    """A message arrived that the receiving agent's phase cannot accept."""


class InvariantError(SimulatorError):
    """A runtime invariant of the kernel or an agent broke: a simulator bug."""


class ScenarioError(SimulatorError):
    """A scenario file failed to parse or validate."""


class AgentKind(enum.IntEnum):
    CONSUMER = 0
    BROKER = 1
    PROVIDER = 2


# The enum members that per-event code reads, bound once as plain names. On
# CPython 3.10 and 3.11 the enum metaclass defines `__getattr__`, so a read
# like `AgentKind.BROKER` in a function body is never specialized and costs
# about six plain class attribute reads; function bodies read these names.
CONSUMER = AgentKind.CONSUMER
BROKER = AgentKind.BROKER
PROVIDER = AgentKind.PROVIDER


class AgentId(tuple):
    """Identity of one agent; totally ordered by (kind, index).

    A `(kind, index)` tuple, so hashing, equality and ordering run in C.
    """

    __slots__ = ()

    def __new__(cls, kind: AgentKind, index: int):
        if index < 0:
            raise ValidationError("negative-index", f"agent index must be >= 0, got {index}")
        return tuple.__new__(cls, (kind, index))

    def __getnewargs__(self):  # pickle and copy rebuild through __new__
        return tuple(self)

    kind = property(itemgetter(0), doc="The AgentKind.")
    index = property(itemgetter(1), doc="The index within the kind, >= 0.")

    def __repr__(self) -> str:
        return f"AgentId(kind={self[0]!r}, index={self[1]!r})"

    def __str__(self) -> str:
        return f"{_KIND_NAMES[self[0]]}:{self[1]}"

    @classmethod
    def parse(cls, text: str) -> "AgentId":
        kind_name, sep, index = text.partition(":")
        if not sep or not index.removeprefix("-").isdecimal():
            raise ValidationError("bad-agent-id", f"cannot parse agent id {text!r}")
        try:
            kind = AgentKind[kind_name.upper()]
        except KeyError:
            raise ValidationError("bad-agent-id", f"unknown agent kind in {text!r}") from None
        return cls(kind, int(index))


_KIND_NAMES = {kind: kind.name.lower() for kind in AgentKind}


def consumer(index: int) -> AgentId:
    return AgentId(CONSUMER, index)


def broker(index: int) -> AgentId:
    return AgentId(BROKER, index)


def provider(index: int) -> AgentId:
    return AgentId(PROVIDER, index)


@dataclass(frozen=True)
class ResourceBundle:
    """Typed quantities requested together. Stored sorted for canonical equality."""

    items: tuple[tuple[ResourceType, int], ...]

    @classmethod
    def of(cls, quantities: Mapping[ResourceType, int]) -> "ResourceBundle":
        return cls(tuple(sorted((str(r), int(q)) for r, q in quantities.items())))

    @cached_property
    def types(self) -> frozenset[ResourceType]:
        return frozenset(r for r, _ in self.items)

    def digest(self) -> str:
        return "+".join(f"{r}:{q}" for r, q in self.items) or "empty"


@dataclass(frozen=True)
class Request:
    """One consumer demand plus the metadata accumulated while it migrates."""

    consumer: AgentId
    bundle: ResourceBundle
    earliest_start: int
    deadline: int
    budget: Money
    source: AgentId
    visited: frozenset[AgentId] = frozenset()  # the brokers it has left, stamped by each hop

    @property
    def migrations(self) -> int:
        """Hops so far: each adds the broker it leaves, and none returns to a visited one."""
        return len(self.visited)

    @cached_property
    def digest(self) -> str:
        """Trace text, made once: each hop is a new `Request`."""
        return (
            f"bundle={self.bundle.digest()},window=[{self.earliest_start},{self.deadline}),"
            f"budget={format_money(self.budget)},migrations={self.migrations}"
        )


class ContactEntry(NamedTuple):
    """One broker's knowledge of one provider. Updated by replacement only."""

    provider: AgentId
    prices: Mapping[ResourceType, Money]
    grade: float = 0.5

    def covers(self, bundle: ResourceBundle) -> bool:
        return bundle.types <= self.prices.keys()


class Performative(str, enum.Enum):
    CFP = "CFP"
    PROPOSE = "PROPOSE"
    ACCEPT_PROPOSAL = "ACCEPT_PROPOSAL"
    REJECT_PROPOSAL = "REJECT_PROPOSAL"
    AGREE = "AGREE"
    REFUSE = "REFUSE"
    CONFIRM = "CONFIRM"
    INFORM = "INFORM"
    FAILURE = "FAILURE"


CFP = Performative.CFP
PROPOSE = Performative.PROPOSE
ACCEPT_PROPOSAL = Performative.ACCEPT_PROPOSAL
REJECT_PROPOSAL = Performative.REJECT_PROPOSAL
AGREE = Performative.AGREE
REFUSE = Performative.REFUSE
CONFIRM = Performative.CONFIRM
INFORM = Performative.INFORM
FAILURE = Performative.FAILURE


class ProposeStage(str, enum.Enum):
    QUOTE = "quote"          # broker -> consumer: cost of the bundle
    AGREEMENT = "agreement"  # broker -> consumer: provider found, terms attached
    HOLD = "hold"            # provider -> broker: reservation held at the CFP cost


QUOTE = ProposeStage.QUOTE
AGREEMENT = ProposeStage.AGREEMENT
HOLD = ProposeStage.HOLD


class RefuseReason(str, enum.Enum):
    OVER_BUDGET = "over-budget"      # consumer: rejection budget spent, quote still too high
    EXPECTED_COST = "expected-cost"  # provider: demand-adjusted cost above the CFP cost
    CAPACITY = "capacity"            # provider: bundle does not fit the window
    EXPIRED = "expired"              # provider: the hold lapsed before the CONFIRM
    DEPARTED = "departed"            # synthesized: the provider left the federation


OVER_BUDGET = RefuseReason.OVER_BUDGET
EXPECTED_COST = RefuseReason.EXPECTED_COST
CAPACITY = RefuseReason.CAPACITY
EXPIRED = RefuseReason.EXPIRED
DEPARTED = RefuseReason.DEPARTED


# each member's text, read once here: `member.value` goes through enum's
# Python-level descriptor, several times slower than a dict lookup
ENUM_TEXT = {
    member: member.value for enum_class in (Performative, ProposeStage, RefuseReason) for member in enum_class
}


class CallPayload(NamedTuple):
    request: Request
    cost: Money | None = None  # set on broker -> provider calls only

    def digest(self) -> str:
        base = self.request.digest
        return f"{base},cost={format_money(self.cost)}" if self.cost is not None else base


class ProposePayload(NamedTuple):
    stage: ProposeStage
    cost: Money
    provider: AgentId | None = None  # set on agreement proposals

    def digest(self) -> str:
        out = f"stage={ENUM_TEXT[self.stage]},cost={format_money(self.cost)}"
        if self.provider is not None:
            out += f",provider={self.provider}"
        return out


class RejectPayload(NamedTuple):
    cost_limit: Money

    def digest(self) -> str:
        return f"limit={format_money(self.cost_limit)}"


class RefusePayload(NamedTuple):
    reason: RefuseReason
    # demand/capacity ratio per refused resource type, sorted by type
    ratios: tuple[tuple[ResourceType, float], ...] = ()

    def digest(self) -> str:
        out = f"reason={ENUM_TEXT[self.reason]}"
        if self.ratios:
            out += ",ratio=" + "+".join(f"{r}:{v:.4f}" for r, v in self.ratios)
        return out


class InformPayload(NamedTuple):
    feedback: float | None = None  # None is the plain acknowledgement

    def digest(self) -> str:
        return "ack" if self.feedback is None else f"feedback={self.feedback:.4f}"


class FailurePayload(NamedTuple):
    reason: str

    def digest(self) -> str:
        return f"reason={self.reason}"


class _MessageFields(NamedTuple):
    performative: Performative
    conversation: str
    sender: AgentId
    receiver: AgentId
    payload: object = None


class Message(_MessageFields):
    """One performative-tagged protocol message; `_make` and `_replace` skip its checks."""

    __slots__ = ()

    def __new__(cls, performative, conversation, sender, receiver, payload=None):
        if performative is FAILURE:
            if sender.kind is not BROKER or receiver.kind is not CONSUMER:
                raise ValidationError("failure-route", "FAILURE is broker -> consumer only")
        if performative is REJECT_PROPOSAL and not isinstance(payload, RejectPayload):
            raise ValidationError("missing-cost-limit", "REJECT_PROPOSAL must carry a cost limit")
        if (
            performative is REFUSE
            and sender.kind is PROVIDER
            and not isinstance(payload, RefusePayload)
        ):
            raise ValidationError("missing-ratio", "provider REFUSE must carry a demand/price payload")
        return tuple.__new__(cls, (performative, conversation, sender, receiver, payload))

    def payload_digest(self) -> str:
        if self.payload is None:
            return "-"
        return self.payload.digest()


def conversation_id(ca_id: AgentId, seq: int) -> str:
    return f"{ca_id}#{seq}"
