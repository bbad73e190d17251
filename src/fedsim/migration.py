"""Broker self-organization: multi-criteria neighbor choice for request migration.

A broker that has exhausted its own providers delegates the request to one
neighbor broker. The choice minimizes a vector of criteria (workload, link
delay, ...) under Pareto dominance, subject to preventive coherence
constraints (non-empty provider list, resource coverage, not previously
visited). The target is the admissible neighbor with the smallest
(criteria values, broker id), found in one pass.

That is exactly the pick of drawing best-first from the non-dominated set and
removing each candidate that fails the constraints. If b dominates a, b's
values sort strictly before a's, so the (values, id) minimum of any set is
never dominated within it: each round of the removal loop takes the minimum
of what remains, and dropping the inadmissible picks in that order ends at
the minimum over the admissible neighbors.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .model import (
    CFP,
    FAILURE,
    AgentId,
    CallPayload,
    FailurePayload,
    Message,
    Request,
    ResourceType,
)


class NeighborInfo(NamedTuple):
    """Zero-staleness snapshot of one neighbor broker, taken at decision time."""

    broker: AgentId
    workload: int                          # open conversations at the neighbor
    delay: int                             # link delay from the evaluating broker
    provider_types: frozenset[ResourceType]  # types covered by its live contacts
    provider_count: int                    # size of its live contact list


CriterionFn = Callable[[NeighborInfo], float]

CRITERIA: dict[str, CriterionFn] = {
    "workload": lambda info: float(info.workload),
    "delay": lambda info: float(info.delay),
    # scarcity shrinks as the neighbor knows more providers
    "provider_scarcity": lambda info: 1.0 / (1.0 + info.provider_count),
}

DEFAULT_CRITERIA: tuple[str, ...] = ("workload", "delay")


def criteria_vector(info: NeighborInfo, criteria: Sequence[str]) -> tuple[float, ...]:
    """Project a neighbor snapshot onto the configured criteria, in order; all minimized.

    The names are the parser's, which accepts only keys of `CRITERIA`.
    """
    return tuple(CRITERIA[name](info) for name in criteria)


def verify_constraints(req: Request, info: NeighborInfo) -> bool:
    """Preventive coherence checks: the target must plausibly be able to serve."""
    if info.provider_count <= 0:
        return False
    if not req.bundle.types <= info.provider_types:
        return False
    if info.broker in req.visited:
        return False
    return True


def select_direction(
    req: Request,
    neighbors: Iterable[NeighborInfo],
    criteria: Sequence[str],
) -> AgentId | None:
    """Return the migration target, or None to stay and fail.

    The target is the neighbor that passes the constraints with the smallest
    (criteria values, broker id); deterministic. This is the Pareto pick:
    dominance implies a strictly smaller criteria tuple, so the minimum of
    any set is non-dominated in it, and taking that minimum while dropping
    inadmissible picks reaches the minimum over the admissible neighbors.
    """
    best = None
    for info in neighbors:
        if verify_constraints(req, info):
            key = (criteria_vector(info, criteria), info.broker)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


class SelfOrganizeResult(NamedTuple):
    messages: tuple[Message, ...]
    target: AgentId | None  # the broker the request migrates to; None when it fails here


def self_organize(
    req: Request,
    self_id: AgentId,
    neighbors: Sequence[NeighborInfo],
    max_migrations: int,
    conversation: str,
    criteria: Sequence[str],
) -> SelfOrganizeResult:
    """Resolve a local failure situation: migrate the request or give up.

    Within the hop budget, delegates to the selected neighbor with this
    broker recorded as visited, which counts the hop; otherwise reports
    FAILURE to the consumer. Either way the conversation leaves this broker.
    """
    target = None
    if req.migrations >= max_migrations:
        reason = "migration-limit"
    else:
        target = select_direction(req, neighbors, criteria)
        reason = "no-admissible-broker"
    if target is None:
        fail = Message(
            FAILURE,
            conversation,
            sender=self_id,
            receiver=req.consumer,
            payload=FailurePayload(reason),
        )
        return SelfOrganizeResult((fail,), None)

    # built field by field: `dataclasses.replace` would find the fields by reflection
    hopped = Request(
        consumer=req.consumer,
        bundle=req.bundle,
        earliest_start=req.earliest_start,
        deadline=req.deadline,
        budget=req.budget,
        source=req.source,
        visited=req.visited | {self_id},
    )
    cfp = Message(
        CFP,
        conversation,
        sender=self_id,
        receiver=target,
        payload=CallPayload(request=hopped),
    )
    return SelfOrganizeResult((cfp,), target)
