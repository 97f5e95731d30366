"""``run.py --compare A B``: did B get worse than A, by the benchmark's own bounds?

Each side is one ``--json`` file or a comma-separated list of them (several
passes of the same code).  For every workload x end-to-end metric it prints
both medians, the ratio with its base, and a verdict:

* ``worse``       B's median is worse than A's by more than the metric's bound;
* ``unresolved``  a side's own run-to-run spread (quartile distance when it
                  has four or more passes, else the range, over its median)
                  is wider than the bound, so the comparison cannot tell;
* ``ok``          otherwise.

Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List


def _load_side(paths: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per pass."""
    side: Dict[str, Dict[str, List[float]]] = {}
    for path in paths.split(","):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for workload, entry in document["workloads"].items():
            for name, value in entry["metrics"].items():
                side.setdefault(workload, {}).setdefault(name, []).append(value)
    return side


def _spread(values: List[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def verdict(metric: dict, a: List[float], b: List[float]) -> str:
    bound = metric["bound"]
    base, changed = statistics.median(a), statistics.median(b)
    worsening = (changed - base) if metric["better"] == "lower" else (base - changed)
    if base != 0 and worsening / abs(base) > bound:
        return "worse"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    return "ok"


def main(a_paths: str, b_paths: str, spec: dict) -> int:
    side_a, side_b = _load_side(a_paths), _load_side(b_paths)
    status = 0
    print(f"{'workload':18s} {'metric':26s} {'A median':>14s} {'B median':>14s} "
          f"{'B/A':>8s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    for workload in side_a:
        if workload not in side_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = side_a[workload].get(name), side_b[workload].get(name)
            if not a or not b:
                continue
            base, changed = statistics.median(a), statistics.median(b)
            ratio = changed / base if base else float("nan")
            outcome = verdict(metric, a, b)
            status = status or (1 if outcome == "worse" else 0)
            print(f"{workload:18s} {name:26s} {base:14.6g} {changed:14.6g} "
                  f"{ratio:8.4f} {metric['bound']:6.2f} {_spread(a):9.4f} "
                  f"{_spread(b):9.4f}  {outcome}"
                  f"  ({metric['better']} is better; base A = {base:.6g} {metric['unit']})")
    return status
