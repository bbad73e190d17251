"""Run metrics: satisfaction, migrations, workloads, costs, and message counts.

All report fields are rounded at construction (rates to 4 decimals, money to the
cent), so emitting and re-parsing a report is lossless.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .agents import ConsumerPhase
from .engine import RunResult
from .model import DomainError, Money, format_money, money
from .pricing import lease_factor, total_cost


@dataclass(frozen=True)
class MetricsReport:
    requests_total: int
    done: int
    failed: int
    satisfaction_rate: float          # done / (done + failed); 0 when no requests
    migrations_mean: float
    migrations_max: int
    workload_peak: tuple[tuple[str, int], ...]     # per broker
    workload_mean: tuple[tuple[str, float], ...]   # per broker, over all events
    workload_mean_std: float          # std of the per-broker means
    mean_paid: Money                  # over done conversations, 0.00 when none
    local_optimality_violations: int
    global_optimality_gap: float      # mean (paid - cheapest feasible) / cheapest
    message_counts: tuple[tuple[str, int], ...]


def oracle_min_cost(snapshot, request) -> Money | None:
    """Cheapest admissible entry in a selection snapshot for `request` (covering,
    not removed for cause). This is the reference the paid cost must match."""
    bundle, factor = request.bundle, lease_factor(request)
    costs = [
        total_cost(bundle, entry.prices, factor)
        for entry in snapshot.entries
        if entry.provider not in snapshot.excluded and entry.covers(bundle)
    ]
    return min(costs) if costs else None


def cheapest_base_cost(result: RunResult, bundle, live_at_issue) -> Money | None:
    """Federation-wide cheapest cost of `bundle`, at lease factor 1, among `live_at_issue`.

    Feasible means: live at issue, prices every bundle type, and the bundle
    fits the provider's raw capacity. Base prices are used, so this times a
    request's lease factor is the frictionless lower bound the gap is
    measured against: every cost is an integer sum times the factor, which
    is at least 1, so the cheapest sum gives the cheapest cost.
    """
    best: Money | None = None
    for pid in live_at_issue:
        provider = result.providers[pid]
        ok = all(
            rtype in provider.base_prices and qty <= provider.capacity[rtype]
            for rtype, qty in bundle.items
        )
        if not ok:
            continue
        cost = total_cost(bundle, provider.base_prices, 1)
        if best is None or cost < best:
            best = cost
    return best


def compute_metrics(result: RunResult) -> MetricsReport:
    """Pure summary of one run; recomputation yields an identical report."""
    metas = list(result.conversations.values())
    done = [m for m in metas if m.consumer.phase is ConsumerPhase.DONE]
    failed = [m for m in metas if m.consumer.phase is ConsumerPhase.FAILED]
    total = len(metas)

    terminal = len(done) + len(failed)
    satisfaction = len(done) / terminal if terminal else 0.0

    migrations = [m.migrations for m in metas]
    migrations_mean = sum(migrations) / len(migrations) if migrations else 0.0
    migrations_max = max(migrations) if migrations else 0

    peaks = tuple(sorted((str(bid), stat.peak) for bid, stat in result.workloads.items()))
    events = result.events_processed
    means_by_broker = {
        str(bid): stat.total / events if events else 0.0 for bid, stat in result.workloads.items()
    }
    means = tuple(sorted((bid, round(v, 4)) for bid, v in means_by_broker.items()))
    if means_by_broker:
        mu = sum(means_by_broker.values()) / len(means_by_broker)
        std = math.sqrt(
            sum((v - mu) ** 2 for v in means_by_broker.values()) / len(means_by_broker)
        )
    else:
        std = 0.0

    paid_values = [m.consumer.accepted_cost for m in done]
    mean_paid = round(Fraction(sum(paid_values), len(paid_values))) if paid_values else 0

    violations = 0
    for m in done:
        if m.snapshot is None:  # a run cut at its event budget with the feedback still in flight
            violations += 1
            continue
        minimum = oracle_min_cost(m.snapshot, m.consumer.request)
        if minimum is None or m.consumer.accepted_cost != minimum:
            violations += 1

    gaps = []
    cheapest_base = {}  # (bundle, live_at_issue) -> cheapest_base_cost, found once per key
    for m in done:
        request = m.consumer.request
        key = (request.bundle, m.live_at_issue)
        if key not in cheapest_base:
            cheapest_base[key] = cheapest_base_cost(result, *key)
        base = cheapest_base[key]
        if base is None or base <= 0:
            continue
        cheapest = base * lease_factor(request)
        gaps.append(float(Decimal(m.consumer.accepted_cost - cheapest) / cheapest))
    gap = sum(gaps) / len(gaps) if gaps else 0.0

    return MetricsReport(
        requests_total=total,
        done=len(done),
        failed=len(failed),
        satisfaction_rate=round(satisfaction, 4),
        migrations_mean=round(migrations_mean, 4),
        migrations_max=migrations_max,
        workload_peak=peaks,
        workload_mean=means,
        workload_mean_std=round(std, 4),
        mean_paid=mean_paid,
        local_optimality_violations=violations,
        global_optimality_gap=round(gap, 4),
        message_counts=tuple(sorted(result.message_counts.items())),
    )


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "requests_total": report.requests_total,
        "done": report.done,
        "failed": report.failed,
        "satisfaction_rate": f"{report.satisfaction_rate:.4f}",
        "migrations_mean": f"{report.migrations_mean:.4f}",
        "migrations_max": report.migrations_max,
        "workload_peak": {bid: peak for bid, peak in report.workload_peak},
        "workload_mean": {bid: f"{mean:.4f}" for bid, mean in report.workload_mean},
        "workload_mean_std": f"{report.workload_mean_std:.4f}",
        "mean_paid": format_money(report.mean_paid),
        "local_optimality_violations": report.local_optimality_violations,
        "global_optimality_gap": f"{report.global_optimality_gap:.4f}",
        "message_counts": {perf: n for perf, n in report.message_counts},
    }


def report_from_dict(data: dict) -> MetricsReport:
    return MetricsReport(
        requests_total=int(data["requests_total"]),
        done=int(data["done"]),
        failed=int(data["failed"]),
        satisfaction_rate=float(data["satisfaction_rate"]),
        migrations_mean=float(data["migrations_mean"]),
        migrations_max=int(data["migrations_max"]),
        workload_peak=tuple(sorted((k, int(v)) for k, v in data["workload_peak"].items())),
        workload_mean=tuple(sorted((k, float(v)) for k, v in data["workload_mean"].items())),
        workload_mean_std=float(data["workload_mean_std"]),
        mean_paid=money(data["mean_paid"]),
        local_optimality_violations=int(data["local_optimality_violations"]),
        global_optimality_gap=float(data["global_optimality_gap"]),
        message_counts=tuple(sorted((k, int(v)) for k, v in data["message_counts"].items())),
    )


def render_structured(report: MetricsReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> MetricsReport:
    return report_from_dict(json.loads(text))


def render_tabular(report: MetricsReport) -> str:
    lines = [
        f"requests total            {report.requests_total}",
        f"done / failed             {report.done} / {report.failed}",
        f"satisfaction rate         {report.satisfaction_rate:.4f}"
        + ("  (no requests; defined as 0)" if report.requests_total == 0 else ""),
        f"migrations mean / max     {report.migrations_mean:.4f} / {report.migrations_max}",
        f"workload mean std         {report.workload_mean_std:.4f}",
        f"mean paid                 {format_money(report.mean_paid)}",
        f"local optimality breaks   {report.local_optimality_violations}",
        f"global optimality gap     {report.global_optimality_gap:.4f}",
    ]
    for bid, peak in report.workload_peak:
        mean = dict(report.workload_mean)[bid]
        lines.append(f"  {bid:<14} peak {peak:>3}  mean {mean:.4f}")
    for perf, count in report.message_counts:
        lines.append(f"  {perf:<20} {count:>6}")
    return "\n".join(lines) + "\n"


def emit_report(report: MetricsReport, fmt: str, destination=None) -> str:
    """Render the report; write it to `destination` (path) when given.

    A destination that cannot be written raises the `OSError`.
    """
    if fmt == "structured":
        text = render_structured(report)
    elif fmt == "tabular-text":
        text = render_tabular(report)
    else:
        raise DomainError(f"unknown report format {fmt!r}")
    if destination is not None:
        Path(destination).write_text(text)
    return text
