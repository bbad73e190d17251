"""Command-line entry point: validate, run, and sweep scenarios."""

from __future__ import annotations

import sys

import click

from .engine import format_trace, run as run_engine, write_trace
from .metrics import compute_metrics, emit_report
from .model import ScenarioError, SimulatorError
from .scenario import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_LIVENESS = 3


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
    # a hold must outlive PROPOSE -> AGREEMENT -> AGREE -> CONFIRM, four deliveries
    if scn.hold_timeout <= 4 * scn.default_delay:
        click.echo(
            f"warning: hold_timeout {scn.hold_timeout} is not longer than the four deliveries "
            f"from a hold to its CONFIRM at default_delay {scn.default_delay}; "
            "holds lapse before agreements are confirmed",
            err=True,
        )


@main.command(name="run")
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--trace-out", default=None, type=click.Path())
@click.option("--report-out", default=None, type=click.Path())
@click.option(
    "--format",
    "fmt",
    default="tabular-text",
    show_default=True,
    type=click.Choice(["tabular-text", "structured"]),
)
def run_cmd(scenario_path, seed, trace_out, report_out, fmt):
    """Run one scenario and report its metrics."""
    try:
        scn = load_scenario(scenario_path)
        result = run_engine(scn, seed=seed)
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
@click.option("--seeds", default=5, show_default=True, type=int)
@click.option(
    "--format",
    "fmt",
    default="tabular-text",
    show_default=True,
    type=click.Choice(["tabular-text", "structured"]),
)
def sweep(scenario_path, seeds, fmt):
    """Run a scenario across seeds, checking per-seed determinism."""
    try:
        scn = load_scenario(scenario_path)
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)

    mismatches = 0
    liveness_failures = 0
    rates = []
    for seed in range(seeds):
        first = run_engine(scn, seed=seed)
        second = run_engine(scn, seed=seed)
        same = format_trace(first.trace) == format_trace(second.trace)
        if not same:
            mismatches += 1
        if not first.quiescent:
            liveness_failures += 1
        report = compute_metrics(first)
        rates.append(report.satisfaction_rate)
        click.echo(
            f"seed {seed}: satisfaction {report.satisfaction_rate:.4f} "
            f"events {first.events_processed} deterministic {'yes' if same else 'NO'}"
        )
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    click.echo(f"mean satisfaction over {seeds} seeds: {mean_rate:.4f}")
    if mismatches or liveness_failures:
        click.echo(
            f"problems: {mismatches} determinism mismatches, "
            f"{liveness_failures} liveness failures",
            err=True,
        )
        sys.exit(EXIT_LIVENESS)


if __name__ == "__main__":
    main()
