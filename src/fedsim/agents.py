"""The three agent state machines: consumer, broker, and provider.

Each step function is a transition (state, message) -> (state, outgoing
messages). States are owned by the engine and mutated in place; transitions
are applied strictly in event order. A message that the current phase cannot
accept raises ProtocolError.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Mapping, NamedTuple

from .migration import SelfOrganizeResult, self_organize
from .model import (
    ACCEPT_PROPOSAL,
    AGREE,
    AGREEMENT,
    CAPACITY,
    CFP,
    CONFIRM,
    CONSUMER,
    DEPARTED,
    EXPECTED_COST,
    EXPIRED,
    FAILURE,
    HOLD,
    INFORM,
    OVER_BUDGET,
    PROPOSE,
    PROVIDER,
    QUOTE,
    REFUSE,
    REJECT_PROPOSAL,
    AgentId,
    CallPayload,
    ContactEntry,
    InformPayload,
    InvariantError,
    Message,
    Money,
    ProposePayload,
    ProtocolError,
    RefusePayload,
    RefuseReason,
    RejectPayload,
    Request,
    ResourceBundle,
    ResourceType,
    format_money,
)
from .pricing import (
    compute_utility,
    expected_unit_price,
    lease_factor,
    total_cost,
    update_grade,
)
from .scenario import Scenario


def _violation(agent: AgentId, phase, msg: Message) -> ProtocolError:
    return ProtocolError(
        f"{agent} in phase {getattr(phase, 'value', phase)} cannot handle "
        f"{msg.performative.value} from {msg.sender}"
    )


# --- Consumer ---------------------------------------------------------------


class ConsumerPhase(str, enum.Enum):
    IDLE = "idle"
    AWAITING_COST = "awaiting-cost-propose"
    AWAITING_AGREEMENT = "awaiting-agreement"
    AWAITING_CONFIRM = "awaiting-confirm"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


# bound once, as `model` binds the members it defines
IDLE = ConsumerPhase.IDLE
AWAITING_COST = ConsumerPhase.AWAITING_COST
CONSUMER_AWAITING_AGREEMENT = ConsumerPhase.AWAITING_AGREEMENT  # a broker phase shares the name
AWAITING_CONFIRM = ConsumerPhase.AWAITING_CONFIRM
RUNNING = ConsumerPhase.RUNNING
DONE = ConsumerPhase.DONE
FAILED = ConsumerPhase.FAILED


_NEGOTIATING = (
    AWAITING_COST,
    CONSUMER_AWAITING_AGREEMENT,
    AWAITING_CONFIRM,
)


@dataclass
class ConsumerState:
    id: AgentId
    request: Request
    conversation: str
    scenario: Scenario                   # the run's settings, read only
    task_duration: int                   # run time of the task once confirmed
    phase: ConsumerPhase = IDLE
    rounds: int = 0                      # REJECT_PROPOSALs sent so far
    accepted_cost: Money | None = None   # the quote accepted; what is paid once confirmed
    serving_broker: AgentId | None = None


def consumer_start(state: ConsumerState) -> list[Message]:
    """Open the conversation by sending the CFP to the request's source broker."""
    if state.phase is not IDLE:
        raise ProtocolError(f"{state.id} already started its request")
    state.phase = AWAITING_COST
    return [
        Message(
            CFP,
            state.conversation,
            sender=state.id,
            receiver=state.request.source,
            payload=CallPayload(request=state.request),
        )
    ]


def _consumer_quote(state: ConsumerState, msg: Message, cost: Money) -> list[Message]:
    # The reply depends only on (phase, performative, payload); the sender is
    # just the reply target, so broker migration stays invisible here.
    if cost <= state.request.budget:
        state.accepted_cost = cost
        state.phase = CONSUMER_AWAITING_AGREEMENT
        return [Message(ACCEPT_PROPOSAL, msg.conversation, state.id, msg.sender)]
    if state.rounds < state.scenario.max_rejects:
        state.rounds += 1
        state.phase = AWAITING_COST
        return [
            Message(
                REJECT_PROPOSAL,
                msg.conversation,
                state.id,
                msg.sender,
                payload=RejectPayload(cost_limit=state.request.budget),
            )
        ]
    state.phase = AWAITING_COST
    return [
        Message(
            REFUSE,
            msg.conversation,
            state.id,
            msg.sender,
            payload=RefusePayload(reason=OVER_BUDGET),
        )
    ]


def consumer_step(state: ConsumerState, msg: Message) -> tuple[ConsumerState, list[Message]]:
    if msg.receiver != state.id:
        raise ProtocolError(f"message for {msg.receiver} delivered to {state.id}")
    perf = msg.performative

    if perf is FAILURE and state.phase in _NEGOTIATING:
        state.phase = FAILED
        return state, []

    if perf is PROPOSE and state.phase in _NEGOTIATING:
        payload: ProposePayload = msg.payload
        if payload.stage is QUOTE:
            # a fresh quote also restarts negotiation after a provider fell through
            return state, _consumer_quote(state, msg, payload.cost)
        if payload.stage is AGREEMENT and state.phase is CONSUMER_AWAITING_AGREEMENT:
            if payload.cost != state.accepted_cost:
                # the broker's CFP, so the hold it relays, carries the accepted quote's cost
                terms, accepted = format_money(payload.cost), format_money(state.accepted_cost)
                raise InvariantError(f"{state.id} got terms {terms}, not {accepted}")
            state.serving_broker = msg.sender
            state.phase = AWAITING_CONFIRM
            return state, [Message(AGREE, msg.conversation, state.id, msg.sender)]
        raise _violation(state.id, state.phase, msg)

    if perf is CONFIRM and state.phase is AWAITING_CONFIRM:
        state.phase = RUNNING
        return state, [
            Message(INFORM, msg.conversation, state.id, msg.sender, payload=InformPayload())
        ]

    raise _violation(state.id, state.phase, msg)


def consumer_complete(state: ConsumerState, on_time: bool) -> list[Message]:
    """Finish the task: grade the outcome and report it to the serving broker."""
    if state.phase is not RUNNING:
        raise ProtocolError(f"{state.id} cannot complete a task in phase {state.phase.value}")
    utility = compute_utility(state.request.budget, state.accepted_cost, on_time, state.scenario.pricing)
    state.phase = DONE
    return [
        Message(
            INFORM,
            state.conversation,
            state.id,
            state.serving_broker,
            payload=InformPayload(feedback=utility),
        )
    ]


# --- Broker -----------------------------------------------------------------


class BrokerPhase(str, enum.Enum):
    QUOTING = "quoting"
    AWAITING_PROVIDER = "awaiting-provider"
    AWAITING_AGREEMENT = "awaiting-agreement"
    AWAITING_FEEDBACK = "awaiting-feedback"


QUOTING = BrokerPhase.QUOTING
AWAITING_PROVIDER = BrokerPhase.AWAITING_PROVIDER
BROKER_AWAITING_AGREEMENT = BrokerPhase.AWAITING_AGREEMENT
AWAITING_FEEDBACK = BrokerPhase.AWAITING_FEEDBACK


_NONE_EXCLUDED: frozenset[AgentId] = frozenset()  # shared by every snapshot that excludes no provider


class SelectionSnapshot(NamedTuple):
    """Contact list as priced at one selection, kept for post-hoc cost audits.

    Contact lists are replaced, never edited, so the one current at the
    selection is held as it stood and `entries` is read from it on demand.
    The bundle and lease factor priced are the request's own.
    """

    contact_list: Mapping[AgentId, ContactEntry]
    universe: Mapping[AgentId, ContactEntry]  # its ids are the candidates at open
    excluded: frozenset[AgentId]  # removed for cause: capacity, expired, departed
    cost: Money

    @property
    def entries(self) -> tuple[ContactEntry, ...]:
        return tuple(e for pid, e in self.contact_list.items() if pid in self.universe)


@dataclass
class BrokerConversation:
    request: Request
    phase: BrokerPhase
    # the broker's registry view at open, shared with every conversation it
    # opens until a provider it sees joins or leaves; its ids are the contact
    # list's, and providers joining the federation later are not candidates here
    universe: Mapping[AgentId, ContactEntry]
    # the provider last quoted; from AWAITING_AGREEMENT on, also the one
    # holding the reservation: a conversation has at most one provider
    # request outstanding, the CFP to `best`, so the hold is `best`'s
    best: AgentId | None = None
    # the candidates removed since open, each True when removed for cause
    # (capacity, expired, departed); a candidate is in `universe`, not here
    removed: dict[AgentId, bool] = field(default_factory=dict)
    snapshot: SelectionSnapshot | None = None  # the last selection; its cost is the quote
    # heap of (cost, -grade, id, stamp, entry), one item per covering
    # candidate entry priced for this request; stamp is -1 at open, then the
    # broker's version of the entry's change, unique per id and change, so no
    # two items tie and no two entries are compared; items whose entry is no
    # longer current are dropped when they reach the top
    ranking: list[tuple[Money, float, AgentId, int, ContactEntry]] = field(default_factory=list)
    read: int = 0  # the broker's version this conversation has read up to


@dataclass
class BrokerState:
    id: AgentId
    # provider id -> entry, in id order after a refresh (no reader depends on
    # the order); every change installs a new dict, so selection snapshots can share it
    contact_list: dict[AgentId, ContactEntry]
    neighbors: tuple[AgentId, ...]
    scenario: Scenario  # the run's settings, read only
    conversations: dict[str, BrokerConversation] = field(default_factory=dict)  # open ones
    # last entries of providers a refresh dropped: conversations opened
    # before the refresh keep pricing them until they are removed or purged
    dropped: dict[AgentId, ContactEntry] = field(default_factory=dict)
    # provider id -> the version of its entry's last change, in version
    # order; `version` counts the changes so far
    changed: dict[AgentId, int] = field(default_factory=dict)
    version: int = 0

    @property
    def in_flight(self) -> int:
        """The broker's workload: its open conversations."""
        return len(self.conversations)


def update_contact_list(
    current: dict[AgentId, ContactEntry], registry_view: Mapping[AgentId, ContactEntry]
) -> dict[AgentId, ContactEntry]:
    """Sync with the registry: drop departed providers, add newly visible ones.

    Surviving entries keep their learned prices and grades; new entries come
    in as the registry advertises them (default grade), in the view's order.
    `current` is never edited; it is returned as is when nothing changed.
    """
    if current.keys() == registry_view.keys():
        return current
    return {pid: current.get(pid, e) for pid, e in registry_view.items()}


def _open_conversation(
    state: BrokerState, conversation: str, request: Request, universe: Mapping[AgentId, ContactEntry]
) -> BrokerConversation:
    """Open a conversation over the contact list, which has `universe`'s ids; rank its covering candidates."""
    known = state.contact_list
    bundle, factor = request.bundle, lease_factor(request)
    ranking = [
        (total_cost(bundle, e.prices, factor), -e.grade, pid, -1, e)
        for pid, e in known.items()
        if e.covers(bundle)
    ]
    heapify(ranking)
    state.conversations[conversation] = BrokerConversation(
        request=request,
        phase=QUOTING,
        universe=universe,
        ranking=ranking,
        read=state.version,
    )
    return state.conversations[conversation]


def select_best_provider(state: BrokerState, conversation: str) -> AgentId | None:
    """The conversation's cheapest full-coverage candidate; grade then id break ties.

    Only the candidates whose entry changed since the conversation last read
    the broker's version stamps are priced again. A candidate a refresh
    dropped from the contact list is priced from its last entry; a purged one
    has no entry left and drops out. A provider that joined after the opening
    may be pushed, and is popped as outside the universe. The choice stays on
    top of `conv.ranking`.
    """
    conv = state.conversations[conversation]
    known, dropped = state.contact_list, state.dropped
    universe, removed, ranking = conv.universe, conv.removed, conv.ranking
    if conv.read < state.version:
        bundle, factor = conv.request.bundle, lease_factor(conv.request)
        for pid, stamp in reversed(state.changed.items()):  # newest first
            if stamp <= conv.read:
                break
            if pid not in removed and (e := known.get(pid) or dropped.get(pid)) and e.covers(bundle):
                heappush(ranking, (total_cost(bundle, e.prices, factor), -e.grade, pid, stamp, e))
        conv.read = state.version
    while ranking:
        _, _, pid, _, e = ranking[0]
        if pid in universe and pid not in removed and e is (known.get(pid) or dropped.get(pid)):
            return pid
        heappop(ranking)
    return None


def _replace_entry(state: BrokerState, new: ContactEntry) -> None:
    """Install `new` and stamp its change, for each open conversation to rank it again."""
    pid = new.provider
    state.contact_list = {**state.contact_list, pid: new}
    state.version += 1
    state.changed.pop(pid, None)  # re-inserted last, so the dict stays in version order
    state.changed[pid] = state.version


def _purge(state: BrokerState, pid: AgentId) -> None:
    # a departed provider: no open conversation can price it from here on, and
    # with no entry left, a stamp would be skipped by every catch-up
    state.contact_list = {p: e for p, e in state.contact_list.items() if p != pid}
    state.dropped.pop(pid, None)


def _apply_price_update(state: BrokerState, pid: AgentId, ratios) -> None:
    entry = state.contact_list.get(pid)
    if entry is None:
        return  # a refresh dropped the provider while its refusal was in flight
    prices = dict(entry.prices)
    for rtype, ratio in ratios:  # the refused bundle's types, in order; the entry prices each
        prices[rtype] = expected_unit_price(
            prices[rtype], ratio, 1.0, state.scenario.pricing.demand_sensitivity
        )
    _replace_entry(state, entry._replace(prices=prices))


def _grade(state: BrokerState, pid: AgentId, feedback: float) -> None:
    entry = state.contact_list.get(pid)
    if entry is not None:  # a refresh or a departure may have dropped it since
        grade = update_grade(entry.grade, feedback, state.scenario.pricing.grade_smoothing)
        _replace_entry(state, entry._replace(grade=grade))


def _advance(state: BrokerState, conversation: str, conv: BrokerConversation, world) -> list[Message]:
    """Quote the next best provider, or fall back to self-organization."""
    best = select_best_provider(state, conversation)
    if best is None:
        result: SelfOrganizeResult = self_organize(
            conv.request,
            state.id,
            world.neighbor_snapshot(state.id),
            state.scenario.max_migrations,
            conversation,
            state.scenario.criteria,
        )
        if result.target is None:
            # the request failed: each provider it was quoted from is graded down once;
            # only a quoted provider is removed
            for pid in sorted(conv.removed):
                _grade(state, pid, 0.0)
        del state.conversations[conversation]  # the request left this broker either way
        return list(result.messages)

    conv.best = best
    excluded = frozenset(pid for pid, cause in conv.removed.items() if cause) if conv.removed else None
    conv.snapshot = SelectionSnapshot(
        contact_list=state.contact_list,
        universe=conv.universe,
        excluded=excluded or _NONE_EXCLUDED,
        cost=conv.ranking[0][0],
    )
    conv.phase = QUOTING
    return [
        Message(
            PROPOSE,
            conversation,
            state.id,
            conv.request.consumer,
            payload=ProposePayload(stage=QUOTE, cost=conv.snapshot.cost),
        )
    ]


def broker_step(state: BrokerState, msg: Message, world) -> tuple[BrokerState, list[Message]]:
    """Apply one message per the broker protocol, including the migration hook.

    The broker reads the kernel's `world` only when it needs it:
    `world.registry_view(state.id)`, its visibility-filtered view of the
    provider registry, on each CFP, and `world.neighbor_snapshot(state.id)`,
    fresh info on each neighbor broker, only when it self-organizes.
    """
    if msg.receiver != state.id:
        raise ProtocolError(f"message for {msg.receiver} delivered to {state.id}")
    perf = msg.performative
    conv = state.conversations.get(msg.conversation)

    if perf is CFP:
        if conv is not None:
            raise ProtocolError(f"{state.id} got a second CFP for {msg.conversation}")
        payload: CallPayload = msg.payload
        old, view = state.contact_list, world.registry_view(state.id)
        refreshed = update_contact_list(old, view)
        if refreshed is not old:
            # a provider that leaves never returns, so an id the old list
            # lacked is new to the broker and no open conversation holds it
            for pid, entry in old.items():
                if pid not in refreshed:
                    state.dropped[pid] = entry
            state.contact_list = refreshed
        conv = _open_conversation(state, msg.conversation, payload.request, view)
        return state, _advance(state, msg.conversation, conv, world)

    if conv is None:
        raise ProtocolError(f"{state.id} has no open conversation {msg.conversation}")

    if msg.sender.kind is CONSUMER:
        if perf is ACCEPT_PROPOSAL and conv.phase is QUOTING:
            conv.phase = AWAITING_PROVIDER
            return state, [
                Message(
                    CFP,
                    msg.conversation,
                    state.id,
                    conv.best,
                    payload=CallPayload(request=conv.request, cost=conv.snapshot.cost),
                )
            ]
        if perf in (REJECT_PROPOSAL, REFUSE) and conv.phase is QUOTING:
            # a rejected quote, or a consumer that spent its rejection budget
            # and declines to continue here
            conv.removed[conv.best] = False
            return state, _advance(state, msg.conversation, conv, world)
        if perf is AGREE and conv.phase is BROKER_AWAITING_AGREEMENT:
            conv.phase = AWAITING_FEEDBACK
            return state, [
                Message(CONFIRM, msg.conversation, state.id, conv.best)
            ]
        if perf is INFORM and conv.phase is AWAITING_FEEDBACK:
            # the task's completion report; the consumer's plain acknowledgement
            # of a CONFIRM goes to the provider
            _grade(state, conv.best, msg.payload.feedback)
            del state.conversations[msg.conversation]
            return state, []
        raise _violation(state.id, conv.phase, msg)

    if msg.sender.kind is PROVIDER:
        if perf is PROPOSE and conv.phase is AWAITING_PROVIDER:
            payload: ProposePayload = msg.payload
            conv.phase = BROKER_AWAITING_AGREEMENT
            return state, [
                Message(
                    PROPOSE,
                    msg.conversation,
                    state.id,
                    conv.request.consumer,
                    payload=ProposePayload(
                        stage=AGREEMENT,
                        cost=payload.cost,
                        provider=msg.sender,
                    ),
                )
            ]
        if perf is REFUSE and conv.phase in (
            AWAITING_PROVIDER,
            # a CONFIRM sent to a provider that left bounces back here, and
            # one that reached an expired hold is refused; the agreement
            # collapsed, so fall back into the selection loop
            AWAITING_FEEDBACK,
        ):
            payload: RefusePayload = msg.payload
            if payload.reason is DEPARTED:
                _purge(state, msg.sender)
                conv.removed[msg.sender] = True
            else:
                _apply_price_update(state, msg.sender, payload.ratios)
                # an expected-cost refusal only refreshes prices: the provider stays eligible
                if payload.reason is not EXPECTED_COST:
                    conv.removed[msg.sender] = True
            return state, _advance(state, msg.conversation, conv, world)
        raise _violation(state.id, conv.phase, msg)

    raise _violation(state.id, conv.phase, msg)


# --- Provider ---------------------------------------------------------------


class ReservationStatus(str, enum.Enum):
    HELD = "held"
    CONFIRMED = "confirmed"
    RELEASED = "released"


HELD = ReservationStatus.HELD
CONFIRMED = ReservationStatus.CONFIRMED
RELEASED = ReservationStatus.RELEASED


@dataclass
class Reservation:
    conversation: str
    bundle: ResourceBundle
    start: int
    end: int
    consumer: AgentId
    status: ReservationStatus
    cost: Money


@dataclass
class ProviderState:
    id: AgentId
    capacity: dict[ResourceType, int]
    base_prices: dict[ResourceType, Money]
    scenario: Scenario  # the run's settings, read only
    ledger: dict[str, Reservation] = field(default_factory=dict)
    # per resource type, the level profile of the held and confirmed
    # reservations in the ledger: breakpoint times, ascending from 0, and the
    # quantity committed from each breakpoint until the next
    profile: dict[ResourceType, tuple[list[int], list[int]]] = field(init=False)
    # per resource type, the quantity held or confirmed and not yet finished
    demand: dict[ResourceType, int] = field(init=False)

    def __post_init__(self):
        self.profile = {rtype: ([0], [0]) for rtype in self.capacity}
        self.demand = dict.fromkeys(self.capacity, 0)

    def expected_price(self, rtype: ResourceType) -> Money:
        return expected_unit_price(
            self.base_prices[rtype],
            self.demand[rtype],
            self.capacity[rtype],
            self.scenario.pricing.demand_sensitivity,
        )

    def demand_ratios(self, bundle: ResourceBundle) -> tuple[tuple[ResourceType, float], ...]:
        return tuple((r, self.demand[r] / self.capacity[r]) for r, _ in bundle.items)


def _breakpoint(times: list[int], levels: list[int], at: int) -> int:
    """Index of the breakpoint at time `at`, made with the level it splits if missing."""
    i = bisect_left(times, at)
    if i == len(times) or times[i] != at:
        times.insert(i, at)
        levels.insert(i, levels[i - 1])  # times start at 0 and windows never before it
    return i


def _commit(state: ProviderState, res: Reservation, sign: int) -> None:
    """Add (sign 1) or take away (sign -1) the reservation's quantities across its window."""
    for rtype, qty in res.bundle.items:
        times, levels = state.profile[rtype]
        lo = _breakpoint(times, levels, res.start)
        hi = _breakpoint(times, levels, res.end)
        if sign < 0 and min(levels[lo:hi]) < qty:
            raise InvariantError(f"{state.id} has less {rtype} committed than {res.conversation} releases")
        levels[lo:hi] = [level + sign * qty for level in levels[lo:hi]]


def allocate(
    state: ProviderState,
    bundle: ResourceBundle,
    start: int,
    end: int,
    conversation: str,
    consumer: AgentId,
    cost: Money,
) -> Reservation | None:
    """Hold [start, end) for the bundle if it fits alongside existing commitments.

    Returns the held reservation, or None when the window cannot take the
    bundle. On success the per-type demand counters grow by the held quantities.
    A repeated CFP comes after its hold here lapsed: the entry it overwrites commits nothing.
    """
    profile, capacity = state.profile, state.capacity
    for rtype, qty in bundle.items:
        times, levels = profile[rtype]
        # the levels of the segments the window meets: from the one holding `start`
        # to the last that begins before `end`
        peak = max(levels[bisect_right(times, start) - 1 : bisect_left(times, end)])
        if peak + qty > capacity[rtype]:
            return None
    res = Reservation(conversation, bundle, start, end, consumer, HELD, cost)
    state.ledger[conversation] = res
    _commit(state, res, 1)
    for rtype, qty in bundle.items:
        state.demand[rtype] += qty
    return res


def _release_demand(state: ProviderState, bundle: ResourceBundle) -> None:
    for rtype, qty in bundle.items:
        state.demand[rtype] -= qty


def release_hold(state: ProviderState, conversation: str) -> bool:
    """Drop a held reservation (expiry or churn). Idempotent."""
    res = state.ledger.get(conversation)
    if res is None or res.status is not HELD:
        return False
    res.status = RELEASED
    _commit(state, res, -1)
    _release_demand(state, res.bundle)
    return True


def finish_lease(state: ProviderState, conversation: str) -> None:
    """Task completed: the commitment stops counting toward demand pressure.

    The kernel schedules the completion only from the provider's CONFIRM, and
    nothing releases or replaces a confirmed entry after it.
    """
    res = state.ledger.get(conversation)
    if res is None or res.status is not CONFIRMED:
        raise InvariantError(f"{state.id} has no confirmed reservation for {conversation} to finish")
    _release_demand(state, res.bundle)


def _refuse(state: ProviderState, msg: Message, reason: RefuseReason, bundle: ResourceBundle) -> Message:
    payload = RefusePayload(reason=reason, ratios=state.demand_ratios(bundle))
    return Message(REFUSE, msg.conversation, state.id, msg.sender, payload)


def provider_step(state: ProviderState, msg: Message) -> tuple[ProviderState, list[Message]]:
    if msg.receiver != state.id:
        raise ProtocolError(f"message for {msg.receiver} delivered to {state.id}")
    perf = msg.performative

    if perf is CFP:
        payload: CallPayload = msg.payload
        req = payload.request
        factor = lease_factor(req)
        expected_prices = {r: state.expected_price(r) for r, _ in req.bundle.items}
        expected = total_cost(req.bundle, expected_prices, factor)
        if expected > payload.cost:
            return state, [_refuse(state, msg, EXPECTED_COST, req.bundle)]
        res = allocate(
            state, req.bundle, req.earliest_start, req.deadline,
            msg.conversation, req.consumer, payload.cost,
        )
        if res is None:
            return state, [_refuse(state, msg, CAPACITY, req.bundle)]
        return state, [
            Message(
                PROPOSE,
                msg.conversation,
                state.id,
                msg.sender,
                payload=ProposePayload(stage=HOLD, cost=payload.cost),
            )
        ]

    if perf is CONFIRM:
        res = state.ledger.get(msg.conversation)
        if res is not None and res.status is RELEASED:
            # the hold expired before the agreement came back
            return state, [_refuse(state, msg, EXPIRED, res.bundle)]
        if res is None or res.status is not HELD:
            raise ProtocolError(
                f"{state.id} got CONFIRM for {msg.conversation} without a held reservation"
            )
        res.status = CONFIRMED
        return state, [Message(CONFIRM, msg.conversation, state.id, res.consumer)]

    if perf is INFORM:
        # consumer acknowledgement; the confirmed lease simply stands
        return state, []

    raise _violation(state.id, "serving", msg)
