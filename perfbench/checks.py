"""Output checks applied to every benchmark repeat.

Each check returns a list of problems; a repeat with any problem counts as
failed. The capacity check replays every provider's holds, confirmations
and releases from the trace, independent of the allocator it audits, and
checks the commitments each time a hold is granted. A hold that is later
released or expires therefore still counts while it stands.
"""

from __future__ import annotations

from collections import defaultdict, deque

from fedsim.metrics import parse_report


def _granted_holds(trace) -> set[int]:
    """Indices of the CFP deliveries to a provider that it answered with a hold.

    A provider answers each CFP at once, PROPOSE (hold) or REFUSE; on one
    link the answers arrive in the order the CFPs were delivered. A CFP or
    CONFIRM sent to a departed provider bounces, and the kernel answers it
    with a REFUSE in the provider's name.
    """
    asked: dict[tuple[str, str], deque[int]] = defaultdict(deque)
    granted = set()
    for i, rec in enumerate(trace):
        if rec.kind != "deliver":
            continue
        if rec.receiver.startswith("provider:") and rec.payload.endswith("bounced"):
            if rec.performative in ("CFP", "CONFIRM"):
                asked[rec.receiver, rec.conversation].append(-1)
        elif rec.performative == "CFP" and rec.receiver.startswith("provider:"):
            asked[rec.receiver, rec.conversation].append(i)
        elif rec.sender.startswith("provider:") and rec.performative in ("PROPOSE", "REFUSE"):
            cfp = asked[rec.sender, rec.conversation].popleft()
            if rec.performative == "PROPOSE":
                granted.add(cfp)
    return granted


def over_capacity(result) -> list[str]:
    """Times at which the standing commitments of a provider exceed a capacity.

    Holds stand from the CFP that granted them until a REFUSE reaches the
    provider, the hold expires or the provider leaves; confirmed leases
    stand for good. The bundle and window of each hold are read from the
    provider's ledger, which keeps every reservation it ever made.
    """
    providers = {str(p.id): p for p in result.providers.values()}
    granted = _granted_holds(result.trace)
    held: dict[str, set[str]] = defaultdict(set)  # provider -> conversations on hold
    level: dict[tuple[str, str], dict[int, int]] = defaultdict(lambda: defaultdict(int))
    flagged, problems = set(), []

    def change(pid: str, conv: str, sign: int, when: int) -> None:
        provider = providers[pid]
        res = provider.ledger[conv]
        for rtype, qty in res.bundle.items:
            ticks = level[pid, rtype]
            for tick in range(res.start, res.end):
                ticks[tick] += sign * qty
            if sign < 0 or (pid, rtype) in flagged:
                continue
            peak = max((ticks[tick] for tick in range(res.start, res.end)), default=0)
            if peak > provider.capacity[rtype]:
                flagged.add((pid, rtype))
                problems.append(
                    f"{pid} holds {peak} {rtype} > capacity {provider.capacity[rtype]} at t={when}"
                )

    def release(pid: str, conv: str, when: int) -> None:
        if conv in held[pid]:
            held[pid].discard(conv)
            change(pid, conv, -1, when)

    for i, rec in enumerate(result.trace):
        if i in granted:
            held[rec.receiver].add(rec.conversation)
            change(rec.receiver, rec.conversation, +1, rec.time)
        elif rec.kind == "deliver" and rec.receiver.startswith("provider:"):
            if rec.payload.endswith("bounced"):  # never reached the provider
                continue
            if rec.performative == "CONFIRM":
                held[rec.receiver].discard(rec.conversation)  # the lease stands for good
            elif rec.performative == "REFUSE":
                release(rec.receiver, rec.conversation, rec.time)
        elif rec.kind == "hold-expiry":
            release(rec.receiver, rec.conversation, rec.time)
        elif rec.kind == "churn" and rec.performative == "provider-leave":
            for conv in sorted(held[rec.receiver]):
                release(rec.receiver, conv, rec.time)
    return problems


def check_run(result, report, report_text: str) -> list[str]:
    """Problems with one run: liveness, report round trip, optimality, capacity."""
    problems = []
    if not result.quiescent:
        problems.append(f"not quiescent: {len(result.open_conversations)} conversations open")
    try:
        same = parse_report(report_text) == report
    except (ValueError, KeyError, TypeError, ArithmeticError):
        same = False
    if not same:
        problems.append("structured report does not re-parse to the same report")
    if report.local_optimality_violations:
        problems.append(f"{report.local_optimality_violations} local-optimality violations")
    return problems + over_capacity(result)
