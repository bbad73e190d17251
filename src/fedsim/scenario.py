"""Scenario files: schema, loading and validation.

A scenario is one JSON document describing the whole world: brokers with
their neighbor links and provider visibility, providers with capacities and
base prices, consumers with their requests, the churn schedule, pricing
parameters, and the delay matrix. See README for the documented schema.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

from .migration import CRITERIA, DEFAULT_CRITERIA
from .model import (
    AgentId,
    AgentKind,
    DomainError,
    Money,
    Request,
    ResourceBundle,
    ScenarioError,
    ValidationError,
    broker,
    consumer,
    format_money,
    money,
    provider,
)
from .pricing import PricingParams


class ChurnAction(str, enum.Enum):
    JOIN = "join"
    LEAVE = "leave"


LEAVE = ChurnAction.LEAVE  # bound once for the kernel, as `model` binds its members


@dataclass(frozen=True)
class ProviderSpec:
    id: AgentId
    capacity: tuple[tuple[str, int], ...]
    base_prices: tuple[tuple[str, Money], ...]
    visible_to: tuple[AgentId, ...] = ()  # brokers that see it; read past the parser only at a join


@dataclass(frozen=True)
class BrokerSpec:
    id: AgentId
    neighbors: tuple[AgentId, ...]
    visible_providers: tuple[AgentId, ...]  # every declared provider it sees, from either list, in id order


@dataclass(frozen=True)
class ConsumerSpec:
    request: Request  # validated; its consumer and source broker are the spec's ids
    issue_time: int
    task_duration: int


@dataclass(frozen=True)
class ChurnSpec:
    time: int
    action: ChurnAction
    provider: AgentId                  # the provider that leaves or joins
    join: ProviderSpec | None = None   # join payload


@dataclass(frozen=True)
class Scenario:
    brokers: tuple[BrokerSpec, ...]
    providers: tuple[ProviderSpec, ...]
    consumers: tuple[ConsumerSpec, ...]
    churn: tuple[ChurnSpec, ...]
    # each given link's delay under (a, b) and (b, a); runs of one scenario share it, read only
    delays: dict[tuple[AgentId, AgentId], int]
    max_migrations: int  # broker count - 1 when the file does not give it
    # the defaults of the other optional fields; parse_scenario passes only those given
    pricing: PricingParams = PricingParams()
    criteria: tuple[str, ...] = DEFAULT_CRITERIA
    max_rejects: int = 3
    hold_timeout: int = 50
    event_budget: int = 1_000_000
    default_delay: int = 1

    def delay(self, a: AgentId, b: AgentId) -> int:
        """Ticks a message takes from `a` to `b`: the given link delay, else `default_delay`."""
        return self.delays.get((a, b), self.default_delay)


def _require(data: dict, key: str, where: str):
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected an object, got {data!r}")
    if key not in data:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return data[key]


def _int_field(data: dict, key: str, where: str, minimum: int | None = None) -> int:
    value = _require(data, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _float_field(data: dict, key: str, where: str) -> float:
    value = data[key]
    if isinstance(value, (bool, str)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{where}.{key}: expected a number, got {value!r}") from None


def _money(value, where: str) -> Money:
    try:
        return money(value)
    except DomainError:
        raise ScenarioError(f"{where}: cannot read {value!r} as money") from None


def _id_list(
    data: dict, key: str, where: str, known: set[int], kind: AgentKind
) -> tuple[AgentId, ...]:
    ids = data.get(key, [])
    what = kind.name.lower()
    if not isinstance(ids, list):
        raise ScenarioError(f"{where}.{key}: expected a list of {what} ids")
    for value in ids:
        if not isinstance(value, int) or isinstance(value, bool) or value not in known:
            raise ScenarioError(f"{where}.{key}: {what} {value!r} is not declared")
    return tuple(AgentId(kind, value) for value in sorted(set(ids)))


def _quantity(qty, where: str) -> int:
    if not isinstance(qty, int) or isinstance(qty, bool) or qty <= 0:
        raise ScenarioError(f"{where}: quantity must be a positive integer, got {qty!r}")
    return qty


def _unit_price(price, where: str) -> Money:
    value = _money(price, where)
    if value < 0:
        raise ScenarioError(f"{where}: unit price must be >= 0, got {price!r}")
    return value


def _type_map(data, where: str, types: set[str], what: str, read) -> tuple[tuple[str, object], ...]:
    """A non-empty mapping of declared resource type to a `what` that `read` checks, sorted by type."""
    if not isinstance(data, dict) or not data:
        raise ScenarioError(f"{where}: expected a non-empty mapping of resource type to {what}")
    out = []
    for rtype, value in data.items():
        if rtype not in types:
            raise ScenarioError(f"{where}: resource type {rtype!r} is not declared")
        out.append((rtype, read(value, f"{where}.{rtype}")))
    return tuple(sorted(out))


def _provider_spec(raw: dict, where: str, types: set[str], broker_ids: set[int]) -> ProviderSpec:
    pid = _int_field(raw, "id", where, minimum=0)
    cap = _type_map(_require(raw, "capacity", where), f"{where}.capacity", types, "quantity", _quantity)
    prices = _type_map(
        _require(raw, "base_prices", where), f"{where}.base_prices", types, "unit price", _unit_price
    )
    # a provider sells exactly the types it has both a capacity and a base price for
    cap_types = {r for r, _ in cap}
    unmatched = sorted(cap_types ^ {r for r, _ in prices})
    if unmatched:
        missing = "base price" if unmatched[0] in cap_types else "capacity"
        raise ScenarioError(f"{where}: provider {pid} has no {missing} for type {unmatched[0]!r}")
    visible_to = _id_list(raw, "visible_to", where, broker_ids, AgentKind.BROKER)
    return ProviderSpec(id=provider(pid), capacity=cap, base_prices=prices, visible_to=visible_to)


_PRICING_FLOATS = ("demand_sensitivity", "grade_smoothing", "cost_weight")

# optional integer fields, with their smallest valid value
_OPTIONAL_INTS = (
    ("max_migrations", 0),
    ("max_rejects", 0),
    ("hold_timeout", 1),
    ("event_budget", 1),
    ("default_delay", 0),
)

_FIELDS = frozenset(
    ("resource_types", "brokers", "providers", "consumers", "churn", "delays", "pricing", "criteria")
    + tuple(key for key, _ in _OPTIONAL_INTS)
)


def _reject_unknown(data: dict, fields: frozenset[str], where: str) -> None:
    for key in data:  # a misspelled optional field must not silently keep its default
        if key not in fields:
            raise ScenarioError(f"{where}: unknown field {key!r}")


def parse_scenario(data: dict, where: str = "scenario") -> Scenario:
    """Build and fully validate a Scenario from parsed JSON."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{where}: expected a JSON object at the top level")
    _reject_unknown(data, _FIELDS, where)

    raw_types = _require(data, "resource_types", where)
    if not isinstance(raw_types, list) or not raw_types:
        raise ScenarioError(f"{where}.resource_types: expected a non-empty list")
    type_set: set[str] = set()
    for rtype in raw_types:
        # type names are written into trace lines, which are ASCII and split at spaces
        if not isinstance(rtype, str) or not rtype or not all("!" <= c <= "~" for c in rtype):
            raise ScenarioError(
                f"{where}.resource_types: {rtype!r} is not a valid type name "
                "(printable ASCII without whitespace)"
            )
        if rtype in type_set:
            raise ScenarioError(f"{where}.resource_types: duplicate type {rtype!r}")
        type_set.add(rtype)

    optional = {}  # the optional fields present in `data`
    if "pricing" in data:
        raw = data["pricing"]
        if not isinstance(raw, dict):
            raise ScenarioError(f"{where}.pricing: expected an object")
        loc = f"{where}.pricing"
        _reject_unknown(raw, frozenset(_PRICING_FLOATS), loc)
        given = {key: _float_field(raw, key, loc) for key in _PRICING_FLOATS if key in raw}
        try:
            optional["pricing"] = PricingParams(**given)
        except DomainError as exc:
            raise ScenarioError(f"{loc}: {exc}") from None

    # brokers
    raw_brokers = _require(data, "brokers", where)
    if not isinstance(raw_brokers, list) or not raw_brokers:
        raise ScenarioError(f"{where}.brokers: expected a non-empty list")
    broker_ids: set[int] = set()
    for i, raw in enumerate(raw_brokers):
        bid = _int_field(raw, "id", f"{where}.brokers[{i}]", minimum=0)
        if bid in broker_ids:
            raise ScenarioError(f"{where}.brokers[{i}]: duplicate broker id {bid}")
        broker_ids.add(bid)

    # providers (declared up front; more may join through churn)
    raw_providers = data.get("providers", [])
    if not isinstance(raw_providers, list):
        raise ScenarioError(f"{where}.providers: expected a list")
    providers: list[ProviderSpec] = []
    provider_ids: set[int] = set()
    shown: dict[AgentId, list[AgentId]] = {}  # broker -> declared providers whose visible_to names it
    for i, raw in enumerate(raw_providers):
        spec = _provider_spec(raw, f"{where}.providers[{i}]", type_set, broker_ids)
        pid = spec.id.index
        if pid in provider_ids:
            raise ScenarioError(f"{where}.providers[{i}]: duplicate provider id {pid}")
        provider_ids.add(pid)
        providers.append(spec)
        for bid in spec.visible_to:
            shown.setdefault(bid, []).append(spec.id)

    brokers: dict[AgentId, BrokerSpec] = {}
    for i, raw in enumerate(raw_brokers):
        loc = f"{where}.brokers[{i}]"
        bid = broker(raw["id"])
        neighbors = _id_list(raw, "neighbors", loc, broker_ids, AgentKind.BROKER)
        if bid in neighbors:
            raise ScenarioError(f"{loc}.neighbors: broker {bid.index} cannot neighbor itself")
        visible = _id_list(raw, "visible_providers", loc, provider_ids, AgentKind.PROVIDER)
        if bid in shown:  # every declared provider the broker sees, from either side, in id order
            visible = tuple(sorted({*visible, *shown[bid]}))
        brokers[bid] = BrokerSpec(id=bid, neighbors=neighbors, visible_providers=visible)
    for spec in brokers.values():
        for nid in spec.neighbors:
            if spec.id not in brokers[nid].neighbors:
                edge = f"{spec.id.index} -> {nid.index}"
                raise ScenarioError(f"{where}.brokers: neighbor edge {edge} is not symmetric")

    # consumers, the bulk of a large file: each field gets one inline test that
    # every plain valid value passes. A value that fails it goes to the field's
    # general reader, which raises its first error (or returns a value only
    # that reader accepts), so location text is formatted only on that path.
    # Equal bundles share one ResourceBundle; a source is its broker spec's id.
    raw_consumers = data.get("consumers", [])
    if not isinstance(raw_consumers, list):
        raise ScenarioError(f"{where}.consumers: expected a list")
    consumers: list[ConsumerSpec] = []
    consumer_ids: set[int] = set()
    sources = {bid.index: bid for bid in brokers}
    bundles: dict[tuple[tuple[str, int], ...], ResourceBundle] = {}
    at = f"{where}.consumers"
    for i, raw in enumerate(raw_consumers):
        if not isinstance(raw, dict):
            _require(raw, "id", f"{at}[{i}]")  # raises: an entry is an object
        cid = raw.get("id")
        if type(cid) is not int or cid < 0:
            cid = _int_field(raw, "id", f"{at}[{i}]", minimum=0)
        if cid in consumer_ids:
            raise ScenarioError(f"{at}[{i}]: duplicate consumer id {cid}")
        consumer_ids.add(cid)
        home = raw.get("broker")
        if type(home) is not int:
            home = _int_field(raw, "broker", f"{at}[{i}]")
        source = sources.get(home)
        if source is None:
            raise ScenarioError(f"{at}[{i}].broker: broker {home!r} is not declared")
        issue_time = raw.get("issue_time")
        if type(issue_time) is not int or issue_time < 0:
            issue_time = _int_field(raw, "issue_time", f"{at}[{i}]", minimum=0)
        start = raw.get("earliest_start")
        if type(start) is not int or start < 0:
            start = _int_field(raw, "earliest_start", f"{at}[{i}]", minimum=0)
        deadline = raw.get("deadline")
        if type(deadline) is not int or deadline < 0:
            deadline = _int_field(raw, "deadline", f"{at}[{i}]", minimum=0)
        try:
            budget = money(raw.get("budget"))
        except DomainError:  # money(None) fails too, so a missing budget lands here
            budget = _money(_require(raw, "budget", f"{at}[{i}]"), f"{at}[{i}].budget")
        quantities = raw.get("bundle")
        items = None
        if type(quantities) is dict and quantities and quantities.keys() <= type_set:
            items = tuple(sorted(quantities.items()))
            for _, qty in items:
                if type(qty) is not int or qty <= 0:
                    items = None
                    break
        if items is None:
            items = _type_map(
                _require(raw, "bundle", f"{at}[{i}]"), f"{at}[{i}].bundle", type_set, "quantity", _quantity
            )
        bundle = bundles.get(items)
        if bundle is None:
            bundle = bundles[items] = ResourceBundle(items)
        task_duration = raw.get("task_duration")
        if type(task_duration) is not int or task_duration < 1:
            task_duration = _int_field(raw, "task_duration", f"{at}[{i}]", minimum=1)
        if deadline <= start:
            raise ScenarioError(
                f"{at}[{i}]: deadline-before-start: deadline {deadline} must be after earliest start {start}"
            )
        if budget <= 0:  # utility is the share of the budget saved
            raise ScenarioError(f"{at}[{i}].budget: must be > 0, got {format_money(budget)}")
        request = Request(
            consumer=consumer(cid),
            earliest_start=start,
            deadline=deadline,
            budget=budget,
            bundle=bundle,
            source=source,
        )
        consumers.append(ConsumerSpec(request, issue_time, task_duration))

    # churn schedule
    raw_churn = data.get("churn", [])
    if not isinstance(raw_churn, list):
        raise ScenarioError(f"{where}.churn: expected a list")
    churn: list[ChurnSpec] = []
    live_after: set[int] = set(provider_ids)
    all_provider_ids = set(provider_ids)
    for i, raw in enumerate(raw_churn):
        _int_field(raw, "time", f"{where}.churn[{i}]", minimum=0)
    for i, raw in sorted(enumerate(raw_churn), key=lambda item: item[1]["time"]):
        loc = f"{where}.churn[{i}]"
        when = raw["time"]
        action = _require(raw, "action", loc)
        if action == ChurnAction.LEAVE.value:
            target = _int_field(raw, "provider", loc, minimum=0)
            if target not in live_after:
                raise ScenarioError(f"{loc}: provider {target} is not live at time {when}")
            live_after.discard(target)
            churn.append(ChurnSpec(time=when, action=ChurnAction.LEAVE, provider=provider(target)))
        elif action == ChurnAction.JOIN.value:
            raw_spec = _require(raw, "provider", loc)
            if not isinstance(raw_spec, dict):
                raise ScenarioError(f"{loc}.provider: join needs a provider object")
            spec = _provider_spec(raw_spec, f"{loc}.provider", type_set, broker_ids)
            pid = spec.id.index
            if pid in all_provider_ids:
                raise ScenarioError(f"{loc}.provider: provider id {pid} already used")
            all_provider_ids.add(pid)
            live_after.add(pid)
            churn.append(ChurnSpec(time=when, action=ChurnAction.JOIN, provider=spec.id, join=spec))
        else:
            raise ScenarioError(f"{loc}.action: expected 'join' or 'leave', got {action!r}")

    # delay matrix
    raw_delays = data.get("delays", [])
    if not isinstance(raw_delays, list):
        raise ScenarioError(f"{where}.delays: expected a list")
    # each endpoint is checked against the declared indices of its kind
    declared = {
        AgentKind.BROKER: broker_ids,
        AgentKind.PROVIDER: all_provider_ids,
        AgentKind.CONSUMER: consumer_ids,
    }
    delays: dict[tuple[AgentId, AgentId], int] = {}
    given: dict[frozenset[AgentId], int] = {}  # each pair, either way round, to its entry
    for i, raw in enumerate(raw_delays):
        loc = f"{where}.delays[{i}]"
        try:
            a = AgentId.parse(str(_require(raw, "a", loc)))
            b = AgentId.parse(str(_require(raw, "b", loc)))
        except ValidationError as exc:
            raise ScenarioError(f"{loc}: {exc}") from None
        for end in (a, b):
            if end.index not in declared[end.kind]:
                raise ScenarioError(f"{loc}: agent {end} is not declared")
        first = given.setdefault(frozenset((a, b)), i)
        if first != i:
            raise ScenarioError(f"{loc}: pair {a}, {b} already given in delays[{first}]")
        delays[a, b] = delays[b, a] = _int_field(raw, "delay", loc, minimum=0)

    if "criteria" in data:
        raw_criteria = data["criteria"]
        if not isinstance(raw_criteria, list):
            raise ScenarioError(f"{where}.criteria: expected a list of criterion names")
        for name in raw_criteria:
            if not isinstance(name, str) or name not in CRITERIA:
                raise ScenarioError(f"{where}.criteria: unknown criterion {name!r}")
        if not raw_criteria:
            raise ScenarioError(f"{where}.criteria: at least one criterion is required")
        optional["criteria"] = tuple(raw_criteria)

    for key, minimum in _OPTIONAL_INTS:
        if key in data:
            optional[key] = _int_field(data, key, where, minimum)

    return Scenario(
        brokers=tuple(brokers.values()),
        providers=tuple(providers),
        consumers=tuple(consumers),
        churn=tuple(churn),
        delays=delays,
        max_migrations=optional.pop("max_migrations", len(brokers) - 1),
        **optional,
    )


def load_scenario(path) -> Scenario:
    """Parse and validate the scenario file at `path`."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{p}: not UTF-8 text: byte {exc.start}: {exc.reason}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{p}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise ScenarioError(f"{p}: invalid JSON: {exc}") from None
    return parse_scenario(data, where=str(p))

