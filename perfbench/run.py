"""fedsim benchmark: host cost per simulated event on layer-targeted workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's scenario is generated from the
seed (see generate.py) and written to .perfbench/<workload>-<seed>/, beside
the last repeat's report and, with --trace 1, its span dump. Each repeat runs in a
fresh child process, one at a time, until S seconds are used (at least
three repeats); every repeat's outputs are checked, and a repeat whose trace
or report differs from the first counts as failed.

With --trace 0 the last line of output reports the end-to-end metrics; with
--trace 1 traced and untraced repeats alternate, and it reports the
per-layer metrics of the traced ones. The line is a JSON object with the
keys correct, attempted, failed and metrics. Lines before it give the
trace sha256, the Python version and the processor count, and a table of
the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
DEADLINE_S = 170  # the whole run, child processes included, ends before this


def run_repeat(scenario: Path, out: Path, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "repeat.py"), "--scenario", str(scenario), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repeat did not finish within {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return {"problems": [f"repeat exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}


def run_repeats(scenario: Path, out: Path, seconds: float, trace: bool) -> list[dict]:
    """Repeats until `seconds` are used; with `trace`, traced ones alternate with untraced."""
    started = perf_counter()
    repeats, took = [], []
    while len(repeats) < MIN_REPEATS or perf_counter() - started + statistics.median(took) <= seconds:
        left = DEADLINE_S - (perf_counter() - started)
        if left <= 0:
            break
        traced = trace and len(repeats) % 2 == 1
        begin = perf_counter()
        result = run_repeat(scenario, out, traced, left)
        took.append(perf_counter() - begin)
        result["traced"] = traced
        repeats.append(result)
    return repeats


def judge(repeats: list[dict]) -> int:
    """Mark each repeat failed or not, against the first repeat that finished; count failures."""
    reference = next((r for r in repeats if "trace_sha256" in r), None)
    for r in repeats:
        if reference is None or "trace_sha256" not in r:
            r["problems"] = r["problems"] or ["no output"]
            continue
        if r["trace_sha256"] != reference["trace_sha256"]:
            r["problems"].append("trace differs from the first repeat")
        if r["report"] != reference["report"]:
            r["problems"].append("report differs from the first repeat")
    return sum(bool(r["problems"]) for r in repeats)


def end_to_end(untraced: list[dict]) -> dict[str, tuple[float, str]]:
    def median(key):
        return statistics.median(r[key] for r in untraced)

    report = untraced[0]["report"]
    messages = sum(report["message_counts"].values())
    return {
        "wall_s": (median("wall_s"), "s"),
        "us_per_event": (statistics.median(r["run_s"] * 1e6 / r["events"] for r in untraced), "us"),
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "satisfaction_rate": (float(report["satisfaction_rate"]), "ratio"),
        "messages_per_request": (messages / report["requests_total"], "msg/request"),
        "global_opt_gap": (float(report["global_optimality_gap"]), "ratio"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    out = {
        name: (statistics.median(r["layers"][name] for r in traced), units[name])
        for name in traced[0]["layers"]
    }
    out["engine.trace_bytes"] = (traced[0]["trace_bytes"], units["engine.trace_bytes"])
    out["trace_overhead"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in untraced),
        units["trace_overhead"],
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fedsim" / "engine.py").is_file():
        print(f"perfbench: no fedsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from generate import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench" / f"{args.workload}-{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    scenario = out / "scenario.json"
    scenario.write_text(json.dumps(generate(args.workload, args.seed), sort_keys=True))

    repeats = run_repeats(scenario, out, args.seconds, bool(args.trace))
    (out / "trace.log").unlink(missing_ok=True)  # megabytes per run; its sha256 is kept
    failed = judge(repeats)
    for i, r in enumerate(repeats):
        for problem in r["problems"]:
            print(f"repeat {i}{' (traced)' if r['traced'] else ''}: {problem}", file=sys.stderr)
    measured = [r for r in repeats if "wall_s" in r]
    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no repeat finished", file=sys.stderr)
        return 1

    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace_sha256": untraced[0]["trace_sha256"],
        "events": untraced[0]["events"],
        "repeats": len(untraced),
        "traced_repeats": len(traced),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
