"""Steadiness check: run every workload on several seeds and report each
end-to-end metric's spread.

    python3 perfbench/prove.py [--out FILE] [--against FILE]

Runs run.py once per seed 1-10 and workload, for BENCHMARK.json's
run_seconds, one process at a time. The workload order reverses on every
other seed, so no workload always runs first. The
spread of a metric is the distance between the first and third quartile of
its values (`statistics.quantiles(values, n=4)`) as a share of their
median. A host-time metric's spread is compared with a third of its bound
in BENCHMARK.json. A simulated metric (spec.json `simulated`) is exact for
each seed, so its spread is how much the traffic of one seed differs from
the next, not noise; it is compared with the whole bound. Medians, spreads
and per-seed trace hashes are written to --out (default
.perfbench/prove.json). With --against an earlier file, each host-time
median must not be worse than the earlier one by more than the bound, each
simulated median must equal the earlier one, and each seed must give the
same trace hash as before.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SIMULATED = set(json.loads((HERE / "spec.json").read_text())["simulated"])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "prove.json")
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    before = json.loads(args.against.read_text()) if args.against else None
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {m: [] for m in bounds} for w in workloads}
    shas: dict[str, dict[int, str]] = {w: {} for w in workloads}
    failed = 0
    for seed in range(1, SEEDS + 1):
        for workload in workloads if seed % 2 else workloads[::-1]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed += 1
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
            shas[workload][seed] = info["trace_sha256"]
            failed += result["failed"] > 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary, steady = {}, failed == 0
    for workload in workloads:
        print(f"\n{workload}:")
        for name, vals in values[workload].items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            limit = bounds[name] if name in SIMULATED else bounds[name] / 3
            ok = spread < limit
            steady &= ok
            summary.setdefault(workload, {})[name] = {"median": median, "spread": spread, "values": vals}
            print(f"  {name:<22} median {median:<12.6g} spread {spread:7.2%}  bound {bounds[name]:.0%}"
                  f"{'' if ok else f'  <-- above {limit:.1%}'}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"failed_runs": failed, "workloads": summary, "traces": shas}, indent=1))
    print(f"\nfailed runs: {failed}; {'steady' if steady else 'NOT steady'}; written {args.out}")
    if before is not None:
        steady &= agrees(before, summary, shas, bounds, lower)
    return 0 if steady else 1


def agrees(before: dict, summary: dict, shas: dict, bounds: dict, lower: dict) -> bool:
    """Print and return whether this set agrees with an earlier one."""
    ok = True
    for workload, metrics in summary.items():
        for name, now in metrics.items():
            then = before["workloads"][workload][name]["median"]
            worse = (now["median"] - then) / then * (1 if lower[name] else -1)
            if name in SIMULATED and now["median"] != then:
                ok = False
                print(f"{workload} {name}: median {now['median']:.6g} differs from {then:.6g}")
            elif worse > bounds[name]:
                ok = False
                print(f"{workload} {name}: median {now['median']:.6g} is {worse:.1%} worse than {then:.6g}")
        for seed, sha in shas[workload].items():
            if before["traces"][workload].get(str(seed), sha) != sha:
                ok = False
                print(f"{workload} seed {seed}: trace differs from the earlier set")
    print(f"against the earlier set: {'agrees' if ok else 'DISAGREES'}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
