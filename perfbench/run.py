#!/usr/bin/env python3
"""perfbench: one command that prints every metric by name, with its unit,
checks that the simulation's outputs are correct, and exits non-zero if not.

    python3 perfbench/run.py                       # all workloads, end-to-end pass
    python3 perfbench/run.py --traced --layers     # ... plus per-layer pass, all micros
    python3 perfbench/run.py --workload write-storm --seed 3 --json out.json
    python3 perfbench/run.py --compare A.json B.json

The driver's form is ``--workload NAME --seed N --seconds S --trace {0,1}``:
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: engine sources not found at {ROOT / 'src' / 'repro'}; "
             "run from a checkout that holds src/")
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

from perfbench import compare, micro, workloads
from perfbench.tracing import SpanTracer

# One run measures REPLICAS independent simulations (seeds derived from
# ``--seed``) and reports each metric's median over them: the provisioning
# loop is chaotic in its inputs, so a single simulation's scaling decisions —
# and with them tail latency, instance-hours and host time — swing by tens of
# percent from seed to seed.  Each replica simulates SIM_SCALE of the
# workload's nominal duration per RUN_SECONDS of ``--seconds``; at the
# defaults the three timed sections take about RUN_SECONDS of host time on
# the 2-cpu sandbox the baseline was recorded on.
REPLICAS = 3
RUN_SECONDS = 20
SIM_SCALE = 0.25
DEFAULT_SEED = 11

# Share of the reference run re-simulated from scratch for the determinism check.
PREFIX_SHARE = 0.1
# Raw spans kept for ``--spans`` (aggregates always cover every span).
KEEP_SPANS = 20_000
UNATTRIBUTED_LIMIT = 0.02


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def time_scale_for(seconds: float) -> float:
    """Share of each workload's nominal simulated duration one replica runs."""
    return SIM_SCALE * seconds / RUN_SECONDS


def replica_seeds(seed: int) -> List[int]:
    return [seed * REPLICAS + index for index in range(REPLICAS)]


def _median_of(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples)
            for name in samples[0]}


class Outcome:
    """What one pass measured, and everything that was wrong with it."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.problems: List[str] = []
        self.spans: List[tuple] = []
        self.attempted = 0
        self.failed = 0

    def account(self, run: workloads.Run) -> None:
        self.attempted += workloads.attempted_operations(run)
        failed = workloads.failed_operations(run)
        self.failed += failed
        if failed:
            self.problems.append(
                f"{run.workload.name}: {failed} operations failed, were served "
                "stale or were acknowledged and lost")
        self.problems.extend(workloads.broken_premises(run))


def end_to_end_pass(workload: workloads.Workload, seed: int, seconds: float,
                    n_users: Optional[int] = None) -> Outcome:
    """Untraced: REPLICAS x (set up, timed section), both calibrated; medians.

    ``n_users`` shrinks the graph (the smoke test's only use of it)."""
    outcome = Outcome()
    time_scale = time_scale_for(seconds)
    samples, raw, scores, prints = [], [], [], []
    for replica_seed in replica_seeds(seed):
        gc.collect()
        run = workloads.simulate(workload, replica_seed, time_scale, n_users=n_users)
        samples.append({**workloads.host_metrics(run), **workloads.simulated_metrics(run)})
        raw.append(workloads.host_metrics(run, calibrated=False))
        scores.append(workloads.calibration_score(run))
        prints.append(workloads.fingerprint(run))
        outcome.account(run)
        outcome.info["segments_per_replica"] = len(run.segment_ns)
        outcome.info["ops_per_replica"] = run.ops
        del run
    outcome.metrics = _median_of(samples)
    outcome.info["uncalibrated"] = _median_of(raw)
    outcome.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    outcome.info.update(
        calibration_score=statistics.median(scores),
        sim_fingerprint=hashlib.sha256("".join(prints).encode()).hexdigest(),
        replica_fingerprints=prints,
        replica_seeds=replica_seeds(seed),
        sim_seconds_per_replica=workload.sim_seconds * time_scale,
    )
    return outcome


def layers_pass(workload: workloads.Workload, seed: int, seconds: float,
                all_micros: bool = False, keep_spans: int = 0,
                n_users: Optional[int] = None,
                effort: micro.Effort = micro.Effort()) -> Outcome:
    """Per-layer: an untraced reference run for the exact counts, the same
    simulation under the tracer for self times, and the micro run."""
    outcome = Outcome()
    time_scale = time_scale_for(seconds)
    replica_seed = replica_seeds(seed)[0]
    segments = workloads.segments_for(workload, time_scale)
    prefix = max(int(segments * PREFIX_SHARE), 1)

    gc.collect()
    reference = workloads.simulate(workload, replica_seed, time_scale,
                                   n_users=n_users, checkpoint_at=prefix)
    score = workloads.calibration_score(reference)
    reference_print = workloads.fingerprint(reference)
    outcome.account(reference)
    outcome.metrics.update(workloads.layer_counts(reference))
    reference_us_per_op = (sum(workloads.calibrated_segment_ns(reference))
                           / 1000.0 / reference.ops)
    checkpoint = reference.checkpoint
    del reference

    again = workloads.simulate(workload, replica_seed, time_scale,
                               n_users=n_users, n_segments=prefix)
    if workloads.fingerprint(again) != checkpoint:
        outcome.problems.append(
            f"{workload.name}: two untraced runs of seed {replica_seed} differ "
            f"after {prefix} segments (the simulation is not deterministic)")
    del again

    gc.collect()
    tracer = SpanTracer(keep_spans=keep_spans)
    with tracer.installed():
        traced = workloads.simulate(workload, replica_seed, time_scale,
                                    n_users=n_users, before_load=tracer.reset)
    if workloads.fingerprint(traced) != reference_print:
        outcome.problems.append(
            f"{workload.name}: the traced run's fingerprint differs from the "
            "untraced run's (the wrappers perturbed the simulation)")
    outcome.account(traced)
    traced_ns = sum(workloads.calibrated_segment_ns(traced))
    traced_us_per_op = traced_ns / 1000.0 / traced.ops
    outcome.metrics.update(tracer.layer_metrics(traced.ops, traced.wall_ns,
                                                slowdown=traced.wall_ns / traced_ns))
    outcome.metrics["trace.overhead_ratio"] = traced_us_per_op / reference_us_per_op
    if outcome.metrics["trace.unattributed_share"] > UNATTRIBUTED_LIMIT:
        outcome.problems.append(
            f"{workload.name}: span self times leave "
            f"{outcome.metrics['trace.unattributed_share']:.1%} of the traced wall "
            f"unattributed (limit {UNATTRIBUTED_LIMIT:.0%})")
    outcome.info.update(
        calibration_score=score,
        sim_fingerprint=reference_print,
        traced_seed=replica_seed,
        traced_ops=traced.ops,
        traced_us_per_op=traced_us_per_op,
        untraced_us_per_op=reference_us_per_op,
    )
    outcome.spans = tracer.spans
    del traced

    gc.collect()
    outcome.metrics.update(micro.full() if all_micros else micro.quick(effort))
    return outcome


# ------------------------------------------------------------------------ output


def _declared(spec: dict, sections: Sequence[str]) -> Dict[str, dict]:
    return {metric["name"]: metric for section in sections for metric in spec[section]}


def contract_result(spec: dict, sections: Sequence[str],
                    outcomes: Sequence[Outcome]) -> Tuple[dict, List[str]]:
    """The driver's result object — exactly the metrics ``sections`` declare —
    and everything that makes it incorrect."""
    declared = _declared(spec, sections)
    measured: Dict[str, float] = {}
    problems: List[str] = []
    for outcome in outcomes:
        measured.update(outcome.metrics)
        problems.extend(outcome.problems)
    missing = sorted(set(declared) - set(measured))
    if missing:
        problems.append(f"declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": not problems,
        "attempted": max(sum(outcome.attempted for outcome in outcomes), 1),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": {name: {"value": measured[name], "unit": metric["unit"]}
                    for name, metric in declared.items() if name in measured},
    }
    return result, problems


def print_report(workload: workloads.Workload, seed: int, spec: dict,
                 outcomes: Sequence[Outcome], result: dict,
                 problems: Sequence[str]) -> None:
    declared = _declared(spec, ("end_to_end", "per_layer"))
    end_to_end = _declared(spec, ("end_to_end",))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"== {workload.name}  seed {seed}  ({why})")
    for outcome in outcomes:
        for name, value in outcome.metrics.items():
            metric = declared.get(name)
            unit = metric["unit"] if metric else "(extra)"
            clock = ""
            if name in end_to_end:
                clock = "simulated" if name.startswith("sim_") else "host"
            print(f"  {name:48s} {value:16.6f} {unit:10s} {clock}")
        for name, value in outcome.info.items():
            print(f"  # {name} = {value}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"  checks: {verdict}  attempted={result['attempted']} failed={result['failed']}")
    for problem in problems:
        print(f"  !! {problem}")


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def merge_into_json(path: str, workload_name: str, seed: int, seconds: float,
                    outcomes: Sequence[Outcome], result: dict,
                    problems: Sequence[str]) -> None:
    """Add this workload's numbers to ``path`` (one file holds one pass over
    any number of workloads; ``--compare`` reads it)."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        document = {"workloads": {}}
    document["environment"] = environment()
    document["seed"], document["seconds"] = seed, seconds
    entry = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "problems": list(problems),
             "metrics": {}, "info": {}}
    for outcome in outcomes:
        entry["metrics"].update(outcome.metrics)
        entry["info"].update(outcome.info)
    document["workloads"][workload_name] = entry
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)


# -------------------------------------------------------------------------- main


def run_workload(args: argparse.Namespace) -> int:
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    if args.trace is None:
        sections = (("end_to_end", "per_layer") if args.traced or args.layers
                    else ("end_to_end",))
    else:
        sections = ("per_layer",) if args.trace else ("end_to_end",)
    outcomes = []
    if "end_to_end" in sections:
        outcomes.append(end_to_end_pass(workload, args.seed, args.seconds))
    if "per_layer" in sections:
        outcomes.append(layers_pass(workload, args.seed, args.seconds, args.layers,
                                    KEEP_SPANS if args.spans else 0))
    result, problems = contract_result(spec, sections, outcomes)
    print_report(workload, args.seed, spec, outcomes, result, problems)
    if args.json:
        merge_into_json(args.json, workload.name, args.seed, args.seconds,
                        outcomes, result, problems)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name,
                       "fields": ["name", "start_ns", "end_ns", "parent_start_ns",
                                  "trace_id"],
                       "spans": [span for outcome in outcomes for span in outcome.spans]},
                      handle)
    print(json.dumps(result))
    return 1 if problems else 0


def run_all(argv: Sequence[str]) -> int:
    """Each workload in a fresh child process, one at a time."""
    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *argv],
            check=False)
        status = status or child.returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; the engine only sees the generated inputs")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="host seconds the timed sections are sized for "
                             "(simulated durations scale with it)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics only, "
                             "1 = per-layer metrics only")
    parser.add_argument("--traced", action="store_true",
                        help="end-to-end pass and per-layer pass")
    parser.add_argument("--layers", action="store_true",
                        help="like --traced, and the micro run adds its whole-run "
                             "ratios (telemetry on/off, 2-worker sweep speed-up)")
    parser.add_argument("--json", metavar="OUT",
                        help="merge this pass's numbers into OUT (what --compare reads)")
    parser.add_argument("--spans", metavar="OUT",
                        help=f"write the traced pass's first {KEEP_SPANS} raw spans to OUT")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --json files (or comma-separated lists of them)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], load_spec())
    if args.workload is None:
        if args.spans:
            parser.error("--spans holds one workload's spans: name it with --workload")
        return run_all(argv)
    return run_workload(args)


if __name__ == "__main__":
    # ``SocialGraph.friendships()`` iterates Python sets of user ids, so the
    # order of the bulk load's writes — and with it the whole-run write
    # latency distribution and ``sim_fingerprint`` — follows the interpreter's
    # string-hash seed.  Pin it, so that a seed means the same inputs in every
    # process (children inherit the environment; exec leaves no process behind).
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
