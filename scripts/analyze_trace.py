#!/usr/bin/env python
"""Run a scenario with observability on and dump the results as JSON.

The dump bundles everything the observability layer produces for one run —
the telemetry snapshot (counters / gauges / histogram stats), the
provisioning decision timeline, per-window p99 latency attribution, and the
slowest sampled traces span by span — into one JSON document for offline
analysis or diffing across runs:

    python scripts/analyze_trace.py                         # standard scenario
    python scripts/analyze_trace.py --scenario cache-tier --duration 300
    python scripts/analyze_trace.py --seed 3 --out run3.json
    python scripts/analyze_trace.py --list
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.harness import run_closed_loop  # noqa: E402
from repro.obs import attribute_windows  # noqa: E402
from repro.parallel.scenarios import STANDARD_SUITE  # noqa: E402


def scenario_registry() -> dict:
    return {spec.name: spec for spec in STANDARD_SUITE}


def trace_payload(trace) -> dict:
    return {
        "trace_id": trace.trace_id,
        "op": trace.op,
        "start": trace.start,
        "latency": trace.latency,
        "success": trace.success,
        "reconciles": trace.reconciles(),
        "spans": [
            {
                "kind": span.kind,
                "duration": span.duration,
                "detail": span.detail,
                "off_path": span.off_path,
            }
            for span in trace.spans
        ],
    }


def attribution_payload(traces, window: float) -> list:
    return [
        {
            "start": report.start,
            "end": report.end,
            "trace_count": report.trace_count,
            "percentile": report.percentile,
            "percentile_latency": report.percentile_latency,
            "worst_count": report.worst_count,
            "kind_seconds": report.kind_seconds,
            "kind_fractions": report.kind_fractions(),
        }
        for report in attribute_windows(traces, window=window)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="standard-closed-loop",
                        help="scenario name from the standard suite")
    parser.add_argument("--duration", type=float, default=None,
                        help="override the scenario's simulated duration (s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=float, default=60.0,
                        help="attribution window size (simulated seconds)")
    parser.add_argument("--slowest", type=int, default=10,
                        help="how many of the slowest traces to include in full")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    args = parser.parse_args()

    registry = scenario_registry()
    if args.list:
        for name in registry:
            print(name)
        return
    if args.scenario not in registry:
        raise SystemExit(f"unknown scenario {args.scenario!r}; "
                         f"choose from {sorted(registry)} (see --list)")
    scenario = registry[args.scenario]
    overrides = {"engine_knobs.telemetry": True}
    if args.duration is not None:
        overrides["duration"] = args.duration
    scenario = scenario.with_overrides(**overrides)

    summary, _, _ = run_closed_loop(scenario, args.seed)
    traces = summary.traces or []
    slowest = sorted(traces, key=lambda t: t.latency, reverse=True)[:args.slowest]
    document = {
        "scenario": scenario.name,
        "seed": args.seed,
        "duration": scenario.duration,
        "operations": summary.operations,
        "trace_count": len(traces),
        "reconciled_traces": sum(1 for t in traces if t.reconciles()),
        "telemetry": summary.telemetry,
        "decision_timeline": summary.decision_timeline.snapshot(),
        "attribution_windows": attribution_payload(traces, args.window),
        "slowest_traces": [trace_payload(t) for t in slowest],
    }
    text = json.dumps(document, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(traces)} traces, "
              f"{len(document['attribution_windows'])} windows)")
    else:
        print(text)


if __name__ == "__main__":
    main()
