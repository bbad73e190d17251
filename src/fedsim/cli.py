"""Command-line entry point: validate a scenario, run it, and check its determinism."""

from __future__ import annotations

import sys

import click

from .engine import run as run_engine, write_trace
from .metrics import compute_metrics, emit_report
from .model import ScenarioError, SimulatorError
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_LIVENESS = 3


def _hold_to_confirm(scn: Scenario) -> int | None:
    """Most ticks from a hold to its CONFIRM, or None when no hold can be made.

    PROPOSE, the agreement, AGREE and CONFIRM cross the provider-broker and
    broker-consumer links twice each. The provider is any one the broker can
    ever see, joiners included; the consumer is any one, as a request can
    migrate to any broker.
    """
    seen = {spec.id: set(spec.visible_providers) for spec in scn.brokers}
    for change in scn.churn:
        for bid in change.join.visible_to if change.join else ():  # the declared ones are in `seen`
            seen[bid].add(change.provider)
    consumers = [spec.request.consumer for spec in scn.consumers]
    delay = scn.delay
    return max(
        (
            2 * max(delay(pid, bid) for pid in pids) + 2 * max(delay(bid, cid) for cid in consumers)
            for bid, pids in seen.items()
            if pids and consumers
        ),
        default=None,
    )


@click.group()
def main():
    """Deterministic simulator of brokered resource allocation on a federated cloud."""


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
def validate(scenario_path):
    """Parse and validate a scenario file."""
    try:
        scn = load_scenario(scenario_path)
    except ScenarioError as exc:
        click.echo(f"invalid: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    click.echo(
        f"ok: {len(scn.brokers)} brokers, {len(scn.providers)} providers, "
        f"{len(scn.consumers)} consumers, {len(scn.churn)} churn events"
    )
    # a hold lapses when its expiry comes no later than the CONFIRM
    confirm = _hold_to_confirm(scn)
    if confirm is not None and scn.hold_timeout <= confirm:
        click.echo(
            f"warning: hold_timeout {scn.hold_timeout} is not longer than the {confirm} ticks "
            "from a hold to its CONFIRM on the slowest provider-broker-consumer path; "
            "holds may lapse before agreements are confirmed",
            err=True,
        )


@main.command(name="run")
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--trace-out", default=None, type=click.Path())
@click.option("--report-out", default=None, type=click.Path())
@click.option(
    "--format",
    "fmt",
    default="tabular-text",
    show_default=True,
    type=click.Choice(["tabular-text", "structured"]),
)
def run_cmd(scenario_path, trace_out, report_out, fmt):
    """Run one scenario and report its metrics."""
    try:
        scn = load_scenario(scenario_path)
        result = run_engine(scn)
        if trace_out:
            write_trace(result.trace, trace_out)
        text = emit_report(compute_metrics(result), fmt, destination=report_out)
    except (SimulatorError, OSError) as exc:  # OSError: an output path cannot be written
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)

    if report_out is None:
        click.echo(text, nl=False)

    if not result.quiescent:
        click.echo(
            "liveness failure: event budget exhausted with open conversations: "
            + ", ".join(result.open_conversations),
            err=True,
        )
        sys.exit(EXIT_LIVENESS)


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
def sweep(scenario_path):
    """Run a scenario twice and check that the two traces are byte-identical."""
    try:
        scn = load_scenario(scenario_path)
        first, second = run_engine(scn), run_engine(scn)
        report = compute_metrics(first)
    except (SimulatorError, OSError) as exc:  # OSError: a trace cannot be spilled
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)

    same = first.trace == second.trace
    click.echo(
        f"satisfaction {report.satisfaction_rate:.4f} "
        f"events {first.events_processed} deterministic {'yes' if same else 'NO'}"
    )
    problems = [
        name
        for name, found in (("determinism mismatch", not same), ("liveness failure", not first.quiescent))
        if found
    ]
    if problems:
        click.echo("problems: " + ", ".join(problems), err=True)
        sys.exit(EXIT_LIVENESS)


if __name__ == "__main__":
    main()
