"""Deterministic discrete-event kernel.

Events are processed in strict (time, seq) order: a heap holds the distinct
pending times, and each time holds its events in one list, in scheduling
order. seq is a monotone counter assigned at scheduling time, so
simultaneous events run in causal scheduling order. All state lives in the
World; agent step functions are invoked sequentially, never concurrently.
The same scenario produces a byte-identical trace.
"""

from __future__ import annotations

import enum
import gc
import heapq
import os
import tempfile
import weakref
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .agents import (
    DONE,
    FAILED,
    HELD,
    BrokerState,
    ConsumerState,
    ProviderState,
    broker_step,
    consumer_complete,
    consumer_start,
    consumer_step,
    finish_lease,
    provider_step,
    release_hold,
)
from .migration import NeighborInfo
from .model import (
    BROKER,
    CFP,
    CONFIRM,
    CONSUMER,
    DEPARTED,
    ENUM_TEXT,
    INFORM,
    PROPOSE,
    PROVIDER,
    REFUSE,
    AgentId,
    ContactEntry,
    InvariantError,
    Message,
    RefusePayload,
    conversation_id,
)
from .scenario import LEAVE, ChurnSpec, ProviderSpec, Scenario


class EventKind(str, enum.Enum):
    DELIVER = "deliver"
    CHURN = "churn"
    CONSUMER_START = "consumer-start"
    HOLD_EXPIRY = "hold-expiry"
    TASK_COMPLETE = "task-complete"


# bound once, as `model` binds the members it defines
DELIVER = EventKind.DELIVER
CHURN = EventKind.CHURN
CONSUMER_START = EventKind.CONSUMER_START
HOLD_EXPIRY = EventKind.HOLD_EXPIRY
TASK_COMPLETE = EventKind.TASK_COMPLETE


class Event(NamedTuple):
    time: int
    seq: int
    kind: EventKind
    message: Message | None = None
    churn: ChurnSpec | None = None
    conversation: str | None = None
    provider: AgentId | None = None


class EventRecord(NamedTuple):
    """One trace line; fields appear in this fixed order, and none holds a space but the payload."""

    time: int
    seq: int
    kind: str
    sender: str
    receiver: str
    performative: str
    conversation: str
    payload: str

    def line(self) -> str:
        return _line(*self)

    @classmethod
    def parse(cls, line: str) -> EventRecord:
        """The record whose `line()` is `line`, which may end in its line feed."""
        t, seq, kind, sender, receiver, perf, conv, payload = line.removesuffix("\n").split(" ", 7)
        fields = (int(t[2:]), int(seq[4:]), kind[5:], sender[5:], receiver[3:], perf[5:], conv[5:], payload[8:])
        return _new(cls, fields)


def _line(time, seq, kind, sender, receiver, performative, conversation, payload) -> str:
    """The trace line of one record's fields, without its line feed."""
    return (
        f"t={time} seq={seq} kind={kind} from={sender} to={receiver} "
        f"perf={performative} conv={conversation} payload={payload}"
    )


# each event kind's and performative's text, read once, as `ENUM_TEXT` does
_TEXT = {**ENUM_TEXT, **{kind: kind.value for kind in EventKind}}

# builds an Event, EventRecord or NeighborInfo from a tuple of every field,
# skipping the NamedTuple's Python-level `__new__`
_new = tuple.__new__

# lines per chunk of a run's trace text: about 260 KB on the benchmark workloads
_CHUNK_LINES = 2048


class Trace:
    """A run's trace, held as its ASCII text in an unlinked temporary file.

    Each line ends in a line feed; the kernel writes the lines in chunks of
    `_CHUNK_LINES`, the last chunk holding the rest, and the trace keeps each
    chunk's byte length and the line count. Iteration reads each chunk back
    at its own offset, so iterators never share a file position, and parses
    its records. Two traces are equal when their texts are. The file closes
    when the trace is dropped.
    """

    __slots__ = ("_fd", "_sizes", "_lines", "__weakref__")

    def __init__(self):
        # a descriptor of its own, so no file object lives as long as the trace
        with tempfile.TemporaryFile(buffering=0) as file:
            self._fd = os.dup(file.fileno())
        weakref.finalize(self, os.close, self._fd)
        self._sizes: list[int] = []  # each chunk's byte length, in file order
        self._lines = 0

    def _append(self, chunk: bytes, lines: int) -> None:
        view = memoryview(chunk)
        while view:
            view = view[os.write(self._fd, view) :]
        self._sizes.append(len(chunk))
        self._lines += lines

    def _chunks(self):
        """Each chunk's bytes, in file order."""
        fd, offset = self._fd, 0
        for size in self._sizes:
            yield os.pread(fd, size, offset)
            offset += size

    def __len__(self) -> int:
        return self._lines

    def __iter__(self):
        parse = EventRecord.parse
        for chunk in self._chunks():
            lines = chunk.decode("ascii").split("\n")
            lines.pop()  # the empty text after the last line feed
            for line in lines:
                yield parse(line)

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return self._sizes == other._sizes and all(map(bytes.__eq__, self._chunks(), other._chunks()))
        return NotImplemented


def write_trace(trace: Trace, path) -> None:
    """Write the trace's text, each line ending in a bare line feed on every platform.

    Chunks are copied out one at a time, so the whole text is never in memory.
    """
    with open(path, "wb") as out:
        out.writelines(trace._chunks())


@dataclass
class ConversationMeta:
    """What only the kernel observes of one request.

    The request, its phase and what was paid are the consumer's own state;
    this holds the rest, which no single agent sees.
    """

    consumer: ConsumerState
    live_at_issue: frozenset[AgentId]  # the registry when the request was issued
    migrations: int = 0
    snapshot: object = None  # SelectionSnapshot of the final selection
    on_time: bool | None = None


@dataclass
class WorkloadStat:
    peak: int = 0
    total: int = 0  # in-flight count summed over every event of the run


@dataclass
class RunResult:
    trace: Trace
    message_counts: dict[str, int]  # deliveries by performative text, bounced ones included
    consumers: dict[AgentId, ConsumerState]
    brokers: dict[AgentId, BrokerState]
    providers: dict[AgentId, ProviderState]
    conversations: dict[str, ConversationMeta]
    workloads: dict[AgentId, WorkloadStat]
    quiescent: bool
    open_conversations: list[str]
    events_processed: int


class _World:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        # the live providers: replaced, never edited, on each join and leave,
        # so every request issued in between shares it
        self.registry: frozenset[AgentId] = frozenset(spec.id for spec in scenario.providers)
        self.providers: dict[AgentId, ProviderState] = {}
        for spec in scenario.providers:
            self._add_provider(spec)

        self.brokers: dict[AgentId, BrokerState] = {}
        # per broker: the registry view of its visible live providers, in id order, and
        # the types they price; replaced only when a provider it sees joins or leaves
        self.views: dict[AgentId, tuple[dict[AgentId, ContactEntry], frozenset[str]]] = {}
        for spec in scenario.brokers:
            self.brokers[spec.id] = BrokerState(
                id=spec.id,
                contact_list={},
                neighbors=spec.neighbors,
                scenario=scenario,
            )
            self.views[spec.id] = self._view(spec.visible_providers)

        self.consumers: dict[AgentId, ConsumerState] = {}
        self.unissued: dict[str, ConsumerState] = {}  # by conversation, until its start event
        for spec in scenario.consumers:
            cid = spec.request.consumer
            state = ConsumerState(
                id=cid,
                request=spec.request,
                conversation=conversation_id(cid, 0),
                scenario=scenario,
                task_duration=spec.task_duration,
            )
            self.consumers[cid] = self.unissued[state.conversation] = state
        # each agent's trace text, made once; a joining provider is named by its
        # CHURN record before it joins
        agents = chain(self.brokers, self.providers, self.consumers, (c.provider for c in scenario.churn))
        self.names: dict[AgentId, str] = {aid: str(aid) for aid in agents}

        # the distinct times with pending events, a heap, and each time's events
        # in scheduling order; the list of the time being run grows as it runs
        self.times: list[int] = []
        self.pending: dict[int, list[Event]] = {}
        self.seq = 0
        self.now = 0
        self.events = 0  # events processed; each is one workload sample
        # the trace: its file takes each full chunk of `_CHUNK_LINES` lines;
        # `lines` holds those since, each without its line feed
        self.trace = Trace()
        self.lines: list[str] = []
        self.delivered: dict[str, int] = {}  # deliveries by performative text
        self.meta: dict[str, ConversationMeta] = {}
        self.workloads: dict[AgentId, WorkloadStat] = {
            bid: WorkloadStat() for bid in self.brokers
        }
        # per broker: in-flight level, and the samples taken before it was reached
        self._levels: dict[AgentId, tuple[int, int]] = {bid: (0, 0) for bid in self.brokers}

    # -- infrastructure -----------------------------------------------------

    def _add_provider(self, spec: ProviderSpec) -> None:
        pid = spec.id
        self.providers[pid] = ProviderState(
            id=pid,
            capacity=dict(spec.capacity),
            base_prices=dict(spec.base_prices),
            scenario=self.scenario,
        )

    def _view(self, ids) -> tuple[dict[AgentId, ContactEntry], frozenset[str]]:
        """Entries for the providers `ids`, by id in their order, and the types they price."""
        entries = {pid: ContactEntry(pid, self.providers[pid].base_prices) for pid in ids}
        return entries, frozenset().union(*(entry.prices for entry in entries.values()))

    def schedule(
        self,
        time: int,
        kind: EventKind,
        message: Message | None = None,
        churn: ChurnSpec | None = None,
        conversation: str | None = None,
        provider: AgentId | None = None,
    ) -> Event:
        if time < self.now:
            raise InvariantError(f"event scheduled in the past: {time} < {self.now}")
        self.seq += 1
        event = _new(Event, (time, self.seq, kind, message, churn, conversation, provider))
        tick = self.pending.get(time)
        if tick is None:
            self.pending[time] = [event]
            heapq.heappush(self.times, time)
        else:
            tick.append(event)  # after every event scheduled earlier, which has a lower seq
        return event

    def drain(self):
        """The pending events in (time, seq) order, those scheduled meanwhile included.

        `now` is each event's time as it is yielded.
        """
        times, pending = self.times, self.pending
        while times:
            now = self.now = times[0]
            yield from pending[now]  # the list iterator also reaches events appended to it
            heapq.heappop(times)
            del pending[now]

    def send(self, msg: Message, now: int) -> None:
        self.schedule(now + self.scenario.delay(msg.sender, msg.receiver), DELIVER, msg)

    def registry_view(self, bid: AgentId) -> dict[AgentId, ContactEntry]:
        """Entries for `bid`'s visible live providers by id, shared until one joins or leaves; do not edit.

        Entries are immutable and price from their provider's own base-price
        dict, which never changes after the provider joins.
        """
        return self.views[bid][0]

    def neighbor_snapshot(self, of: AgentId) -> list[NeighborInfo]:
        """Fresh info on each neighbor broker of `of`, as its next refresh would see it.

        A refresh leaves a contact list holding exactly the visible live
        providers, and learning never adds or drops a price key, so the
        broker's view is what the refresh would give.
        """
        brokers, delay = self.brokers, self.scenario.delay
        out = []
        for nid in brokers[of].neighbors:
            entries, types = self.views[nid]
            fields = (nid, brokers[nid].in_flight, delay(of, nid), types, len(entries))
            out.append(_new(NeighborInfo, fields))
        return out

    # -- trace --------------------------------------------------------------

    def record(self, event: Event, payload_suffix: str = "") -> None:
        kind, names = _TEXT[event.kind], self.names
        sender = receiver = performative = conversation = "-"
        payload = "-"
        if event.kind is DELIVER:
            msg = event.message
            sender, receiver = names[msg.sender], names[msg.receiver]
            performative = _TEXT[msg.performative]
            conversation = msg.conversation
            payload = msg.payload_digest()
            self.delivered[performative] = self.delivered.get(performative, 0) + 1
        elif event.kind is CHURN:
            performative = f"provider-{event.churn.action.value}"
            receiver = names[event.churn.provider]
        elif event.kind is HOLD_EXPIRY:
            receiver = names[event.provider]
            conversation = event.conversation
        else:  # consumer start or task completion, of a request already issued
            consumer = self.meta[event.conversation].consumer
            receiver = names[consumer.id]
            conversation = event.conversation
            if event.kind is CONSUMER_START:
                payload = consumer.request.digest
        if payload_suffix:
            payload = payload + payload_suffix if payload != "-" else payload_suffix.lstrip(",")
        lines = self.lines
        lines.append(_line(event.time, event.seq, kind, sender, receiver, performative, conversation, payload))
        if len(lines) == _CHUNK_LINES:
            self.end_chunk()

    def end_chunk(self) -> None:
        """Write the open lines to the trace's file as one chunk, each ending in its line feed."""
        lines = self.lines
        lines.append("")  # the last line's feed, with no copy of the joined text
        self.trace._append("\n".join(lines).encode("ascii"), len(lines) - 1)
        lines.clear()

    def sample_workloads(self, bid: AgentId) -> None:
        """Account for `bid`'s in-flight count after the current event.

        Only the broker that handles an event changes its count, so the
        other brokers' samples of this event repeat their last level and are
        added up by `settle_workloads` when the run ends.
        """
        level, before = self._levels[bid]
        current = self.brokers[bid].in_flight
        if current != level:
            earlier = self.events - 1
            stat = self.workloads[bid]
            stat.total += level * (earlier - before)
            stat.peak = max(stat.peak, current)
            self._levels[bid] = (current, earlier)

    def settle_workloads(self) -> None:
        for bid, (level, before) in self._levels.items():
            self.workloads[bid].total += level * (self.events - before)


def apply_churn(world: _World, change: ChurnSpec) -> None:
    """Apply one membership change to the registry, the views that see it and affected reservations."""
    pid = change.provider  # the parser's rules hold: a leave names a live provider, a join a new id
    views = world.views
    if change.action is LEAVE:
        world.registry = world.registry - {pid}
        for bid, (entries, _) in views.items():
            if pid in entries:
                views[bid] = world._view([other for other in entries if other != pid])
        provider = world.providers[pid]
        # held reservations die with the membership; release_hold sends nothing,
        # so the ledger's order serves
        for conversation in provider.ledger:
            release_hold(provider, conversation)
    else:
        world._add_provider(change.join)
        world.registry = world.registry | {pid}
        for bid in change.join.visible_to:
            views[bid] = world._view(sorted([*views[bid][0], pid]))


def _run_once(world: _World, event_budget: int) -> bool:
    for event in world.drain():
        if world.events >= event_budget:
            return False
        world.events += 1
        now = event.time

        if event.kind is DELIVER:
            msg = event.message
            target = msg.receiver

            if target.kind is PROVIDER and target not in world.registry:
                # never hand a message to a departed provider; bounce so the
                # sender re-enters its selection loop on its next event
                world.record(event, payload_suffix=",bounced")
                if msg.performative in (CFP, CONFIRM):
                    bounce = Message(
                        REFUSE,
                        msg.conversation,
                        sender=target,
                        receiver=msg.sender,
                        payload=RefusePayload(reason=DEPARTED),
                    )
                    world.schedule(now, kind=DELIVER, message=bounce)
                continue

            world.record(event)
            out: list[Message] = []

            if target.kind is CONSUMER:
                _, out = consumer_step(world.consumers[target], msg)
                if msg.performative is CONFIRM:
                    meta = world.meta[msg.conversation]
                    request = meta.consumer.request
                    task_start = max(now, request.earliest_start)
                    notional_end = task_start + meta.consumer.task_duration
                    meta.on_time = notional_end <= request.deadline
                    world.schedule(
                        max(now, min(request.deadline, notional_end)),
                        kind=TASK_COMPLETE,
                        conversation=msg.conversation,
                        provider=msg.sender,  # the serving provider sends the CONFIRM
                    )

            elif target.kind is BROKER:
                broker = world.brokers[target]
                conv = broker.conversations.get(msg.conversation)
                _, out = broker_step(broker, msg, world)
                world.sample_workloads(target)
                if msg.performative is INFORM:
                    # only a consumer informs a broker: its feedback closed the
                    # conversation, whose last selection was the one served
                    world.meta[msg.conversation].snapshot = conv.snapshot
                for m in out:
                    if m.performative is CFP and m.receiver.kind is BROKER:
                        world.meta[m.conversation].migrations = m.payload.request.migrations

            else:  # provider
                _, out = provider_step(world.providers[target], msg)
                # a provider answers PROPOSE only to a CFP it has just held a reservation for
                if any(m.performative is PROPOSE for m in out):
                    world.schedule(
                        now + world.scenario.hold_timeout,
                        kind=HOLD_EXPIRY,
                        conversation=msg.conversation,
                        provider=target,
                    )

            for m in out:
                world.send(m, now)

        elif event.kind is CONSUMER_START:
            consumer = world.unissued.pop(event.conversation)
            meta = ConversationMeta(consumer=consumer, live_at_issue=world.registry)
            world.meta[event.conversation] = meta
            world.record(event)
            for msg in consumer_start(consumer):
                world.send(msg, now)

        elif event.kind is CHURN:
            world.record(event)
            apply_churn(world, event.churn)

        elif event.kind is HOLD_EXPIRY:
            provider = world.providers[event.provider]
            released = release_hold(provider, event.conversation)
            world.record(event, payload_suffix=f"released={'yes' if released else 'no'}")

        elif event.kind is TASK_COMPLETE:
            meta = world.meta[event.conversation]
            world.record(event, payload_suffix=f"on_time={'yes' if meta.on_time else 'no'}")
            for msg in consumer_complete(meta.consumer, meta.on_time):
                world.send(msg, now)
            finish_lease(world.providers[event.provider], event.conversation)
    return True


def run(scenario: Scenario) -> RunResult:
    """Simulate one scenario to quiescence (or its event budget) and trace it."""
    # The run makes no reference cycles, yet its set-up and every event leave
    # objects that survive, so the cyclic collector would scan the young
    # generation every few hundred allocations and free nothing. Nothing is
    # collected by hand: the collector runs again, as it was, after the loop.
    # Freezing and unfreezing moves the run's survivors to the oldest
    # generation without a scan, so the young count the run ran up starts no
    # collection; it would also unfreeze what a caller froze, so it is skipped
    # while anything is frozen.
    collecting = gc.isenabled()
    gc.disable()
    try:
        world = _World(scenario)
        for spec in scenario.consumers:
            world.schedule(
                spec.issue_time,
                kind=CONSUMER_START,
                conversation=world.consumers[spec.request.consumer].conversation,
            )
        for change in scenario.churn:
            world.schedule(change.time, kind=CHURN, churn=change)
        quiescent = _run_once(world, scenario.event_budget)
    finally:
        if collecting:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    if world.lines:
        world.end_chunk()
    world.settle_workloads()
    open_conversations = sorted(
        conv
        for conv, meta in world.meta.items()
        if meta.consumer.phase not in (DONE, FAILED)
    )
    if quiescent:
        # queue drained: every started conversation must be terminal, every
        # broker idle, and no reservation may still be held
        for conv in open_conversations:
            raise InvariantError(f"quiescent run left conversation {conv} open")
        for broker in world.brokers.values():
            if broker.conversations:
                raise InvariantError(f"quiescent run left {broker.id} with open conversations")
        for provider in world.providers.values():
            for res in provider.ledger.values():
                if res.status is HELD:
                    raise InvariantError(
                        f"quiescent run left a held reservation for {res.conversation}"
                    )

    return RunResult(
        trace=world.trace,
        message_counts=world.delivered,
        consumers=world.consumers,
        brokers=world.brokers,
        providers=world.providers,
        conversations=world.meta,
        workloads=world.workloads,
        quiescent=quiescent,
        open_conversations=open_conversations,
        events_processed=world.events,
    )
