"""One benchmark repeat, run in a fresh process so that its peak RSS is its own.

    python3 perfbench/repeat.py --scenario FILE --out DIR [--trace]

Loads the scenario again and again for SETUP_S seconds (set-up; the median
load is reported), then makes the calls `fedsim run` makes after parsing:
engine.run, compute_metrics, emit_report (structured, to a file) and
write_trace. Checks the outputs and prints one JSON object.
With --trace, every layer is wrapped by `tracing.Tracer`; the span dump is
written to DIR/spans.jsonl.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fedsim.engine as engine  # noqa: E402
import fedsim.metrics as metrics  # noqa: E402
import fedsim.scenario as scenario  # noqa: E402

from checks import check_run  # noqa: E402

SETUP_S = 0.5  # one load takes 5-60 ms, too short to time steadily on its own


def measure(scenario_path: Path, out: Path) -> dict:
    setup = []
    began = perf_counter()
    while perf_counter() - began < SETUP_S:
        start = perf_counter()
        scn = scenario.load_scenario(scenario_path)
        setup.append(perf_counter() - start)

    report_path, trace_path = out / "report.json", out / "trace.log"
    start = perf_counter()
    result = engine.run(scn)
    ran = perf_counter()
    report = metrics.compute_metrics(result)
    metrics.emit_report(report, "structured", destination=report_path)
    engine.write_trace(result.trace, trace_path)
    end = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    trace_bytes = trace_path.read_bytes()
    return {
        "setup_s": statistics.median(setup),
        "wall_s": end - start,
        "run_s": ran - start,
        "events": result.events_processed,
        "peak_rss_mb": peak_rss_mb,
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
        "trace_bytes": len(trace_bytes),
        "report": metrics.report_to_dict(report),
        "problems": check_run(result, report, report_path.read_text()),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from tracing import Tracer

            with Tracer() as tracer:
                out = measure(args.scenario, args.out)
            out["layers"] = tracer.layer_metrics()
            tracer.dump(args.out / "spans.jsonl.gz")
        else:
            out = measure(args.scenario, args.out)
    except Exception:  # the parent counts this repeat as failed
        out = {"problems": ["error: " + traceback.format_exc()]}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
