#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench (``make perfbench-pairs``).

The choosing-metrics protocol for a change that claims a gain: check the
parent commit out into a temporary ``git worktree``, run N pairs of
``perfbench/run.py --workload W --seed S --json ...`` — one run from the
parent's checkout, one from this working tree, alternating which side goes
first — and print, per end-to-end metric of ``BENCHMARK.json``: each side's
median and quartiles, how many pairs the change won (ties count for neither),
and whether the medians are apart by more than the distance between the
parent's own quartiles (a verdict is only given from ten pairs up).  The
bounds table of ``perfbench/run.py --compare`` over the same files and a
fingerprint check close the report:

    python3 scripts/perfbench_pairs.py --parent HEAD~1 --workload write-storm
    python3 scripts/perfbench_pairs.py --parent 7367f03 --workload steady-skewed \\
        elastic-faults --pairs 10 --seed 33 --out /tmp/pairs

``--traced`` runs the per-layer pass (``--trace 1``) instead and answers where
a saving sits: per span, each side's ``self_us_per_op`` as median [min..max],
the difference of the medians and whether the two sides' ranges overlap — and
it fails if a ``calls_per_kop`` or any other count that is exact for a seed
differs between any two passes, because then the two sides did not do the same
work:

    python3 scripts/perfbench_pairs.py --parent HEAD~1 --workload write-storm \\
        --traced --pairs 3

Both sides run their *own* ``perfbench/`` and ``src/``; a change that claims a
gain leaves ``perfbench/`` byte-identical, so the benchmark code is the same.
Stops with exit status 1 as soon as a run fails its correctness checks; exit
status is also 1 if the fingerprints (or, traced, the exact counts) of the two
sides differ.

A run killed from outside cannot clean up after itself.  On Linux each child
it starts is sent SIGTERM when the script dies, however it dies; and the
script writes its PID into its scratch directory, so that the next run starts
by removing every ``perfbench-pairs-*`` worktree whose script is gone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10  # below this the protocol makes no claim either way
SCRATCH_PREFIX = "perfbench-pairs-"
PID_FILE = "pid"  # in the scratch directory: the PID of the script using it
PR_SET_PDEATHSIG = 1


# Per-layer metrics that measure host time; every other one is a count or a
# simulated quantity, exact for a seed.
TIMED_SUFFIX = ".self_us_per_op"
TIMED_OTHERS = ("trace.", "micro.", "core.provisioning.step_ms_p50")


def _terminate_with_parent() -> Optional[Callable[[], None]]:
    """The ``preexec_fn`` that has Linux send a child SIGTERM when this script
    dies (``prctl(PR_SET_PDEATHSIG)``), or None on other systems."""
    if not sys.platform.startswith("linux"):
        return None
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    parent = os.getpid()

    def preexec() -> None:
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
        if os.getppid() != parent:  # the script died before prctl took hold
            os.kill(os.getpid(), signal.SIGTERM)

    return preexec


CHILD_SETUP = _terminate_with_parent()


def _run_perfbench(checkout: Path, workload: str, seed: int, out: Path,
                   traced: bool) -> bool:
    """One pass from ``checkout`` (end-to-end, or per-layer when ``traced``);
    True if its checks passed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--json", str(out), "--trace", str(int(traced))],
        cwd=checkout, stdout=subprocess.DEVNULL, check=False,
        preexec_fn=CHILD_SETUP)
    return done.returncode == 0


def _script_alive(scratch: Path) -> bool:
    """True if the script whose PID ``scratch`` holds is still running."""
    try:
        pid = int((scratch / PID_FILE).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False  # the PID is written before the worktree is added
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # someone else's process holds the PID
    return True


def sweep_stale_worktrees() -> List[Path]:
    """Remove every ``perfbench-pairs-*`` worktree whose script is gone (a run
    killed before its ``finally``), with its scratch directory; the removed
    worktree paths."""
    listing = subprocess.run(["git", "worktree", "list", "--porcelain"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
    removed = []
    for line in listing.splitlines():
        if not line.startswith("worktree "):
            continue
        worktree = Path(line[len("worktree "):])
        scratch = worktree.parent
        if not scratch.name.startswith(SCRATCH_PREFIX) or _script_alive(scratch):
            continue
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=ROOT, check=False, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)
        removed.append(worktree)
    if removed:
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
    return removed


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _load(path: Path, workload: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def report(spec: dict, workload: str, files: Dict[str, List[Path]]) -> bool:
    """Print the pairs table for one workload; True if the fingerprints match."""
    entries = {side: [_load(path, workload) for path in files[side]] for side in SIDES}
    pairs = len(entries["parent"])
    print(f"\n{workload}: {pairs} alternating pairs")
    print(f"{'metric':26s} {'parent q1 / median / q3':>38s} "
          f"{'change q1 / median / q3':>38s} {'chg/par':>8s} {'wins':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [entry["metrics"][name] for entry in entries["parent"]]
        change = [entry["metrics"][name] for entry in entries["change"]]
        p_q1, p_med, p_q3 = _quartiles(parent)
        c_q1, c_med, c_q3 = _quartiles(change)
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        apart = abs(c_med - p_med) > (p_q3 - p_q1)
        better = (c_med > p_med) if higher else (c_med < p_med)
        if parent == change:
            outcome = "identical"
        elif pairs < MIN_PAIRS:
            outcome = f"no claim (fewer than {MIN_PAIRS} pairs)"
        else:
            if apart and better and wins >= 0.9 * pairs:
                outcome = "gain"
            elif apart and not better and losses >= 0.9 * pairs:
                outcome = "loss"
            else:
                outcome = "no claim"
            outcome += (" (medians apart by more than parent q3-q1)" if apart
                        else " (medians within parent q3-q1)")
        ratio = c_med / p_med if p_med else float("nan")
        print(f"{name:26s} {p_q1:12.6g} {p_med:12.6g} {p_q3:12.6g} "
              f"{c_q1:12.6g} {c_med:12.6g} {c_q3:12.6g} {ratio:8.4f} "
              f"{wins:3d}/{pairs:<2d}  {outcome}")
    return _same_fingerprint(entries)


def _same_fingerprint(entries: Dict[str, List[dict]]) -> bool:
    prints = {side: {entry["info"]["sim_fingerprint"] for entry in entries[side]}
              for side in SIDES}
    same = prints["parent"] == prints["change"] and len(prints["parent"]) == 1
    print(f"sim_fingerprint: {'equal on every run of both sides' if same else 'DIFFERS'}"
          f" ({', '.join(sorted(p[:12] for p in prints['parent'] | prints['change']))})")
    return same


def report_traced(spec: dict, workload: str, files: Dict[str, List[Path]]) -> bool:
    """Print the per-span table for one workload; True if every exact count and
    the fingerprint are the same on every pass of both sides."""
    entries = {side: [_load(path, workload) for path in files[side]] for side in SIDES}
    passes = len(entries["parent"])
    print(f"\n{workload}: {passes} alternating traced passes per side, self_us_per_op")
    print(f"{'span':34s} {'parent median [min..max]':>30s} "
          f"{'change median [min..max]':>30s} {'delta':>8s}  ranges")
    differing = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        values = {side: [entry["metrics"][name] for entry in entries[side]]
                  for side in SIDES}
        if not name.endswith(TIMED_SUFFIX):
            if (not name.startswith(TIMED_OTHERS)
                    and len(set(values["parent"] + values["change"])) != 1):
                differing.append((name, values))
            continue
        parent, change = values["parent"], values["change"]
        if not any(parent + change):
            continue  # a span this workload never enters
        p_med, c_med = statistics.median(parent), statistics.median(change)
        apart = max(change) < min(parent) or max(parent) < min(change)
        print(f"{name[:-len(TIMED_SUFFIX)]:34s} "
              f"{p_med:12.3f} [{min(parent):7.3f}..{max(parent):7.3f}] "
              f"{c_med:12.3f} [{min(change):7.3f}..{max(change):7.3f}] "
              f"{c_med - p_med:+8.3f}  {'disjoint' if apart else 'overlap'}")
    for name, values in differing:
        print(f"!! {name} is not the same on every pass: "
              f"parent {values['parent']}, change {values['change']}")
    if not differing:
        print("calls_per_kop and every other exact count: equal on every pass "
              "of both sides")
    return _same_fingerprint(entries) and not differing


def run_pairs(checkouts: Dict[str, Path], spec: dict, workloads: Sequence[str],
              pairs: int, seed: int, out: Path, traced: bool) -> int:
    """Run and report ``pairs`` alternating passes per workload from the two
    checkouts; the exit status."""
    status = 0
    kind = "-traced" if traced else ""
    for workload in workloads:
        files: Dict[str, List[Path]] = {side: [] for side in SIDES}
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                path = out / f"{workload}-seed{seed}{kind}-{side}-{pair:02d}.json"
                path.unlink(missing_ok=True)  # --json merges into an existing file
                if not _run_perfbench(checkouts[side], workload, seed, path, traced):
                    print(f"{workload}: the {side} run of pair {pair + 1} failed "
                          "its checks; stopping", file=sys.stderr)
                    return 1
                files[side].append(path)
            print(f"{workload}: pair {pair + 1}/{pairs} done "
                  f"({order[0]} first)", file=sys.stderr)
        if not (report_traced if traced else report)(spec, workload, files):
            status = 1
        if not traced:
            print("\nagainst the benchmark's bounds (A = parent, B = change):")
            subprocess.run(
                [sys.executable, "perfbench/run.py", "--compare",
                 ",".join(map(str, files["parent"])),
                 ",".join(map(str, files["change"]))],
                cwd=ROOT, check=False, preexec_fn=CHILD_SETUP)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git ref of the parent commit to compare against")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="perfbench workload name(s)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs per workload (default: 10)")
    parser.add_argument("--seed", type=int, default=11,
                        help="perfbench workload seed (default: 11)")
    parser.add_argument("--traced", action="store_true",
                        help="per-layer passes (--trace 1): per-span self times "
                             "of both sides, exact counts checked equal")
    parser.add_argument("--out", type=Path, default=None,
                        help="keep every run's --json output in this directory")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # The report hands each side's files to --compare as one comma-joined list.
    if args.out is not None and "," in str(args.out):
        parser.error(f"--out must not contain a comma: {args.out}")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    for stale in sweep_stale_worktrees():
        print(f"removed the worktree of a killed run: {stale}", file=sys.stderr)
    scratch = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX))
    (scratch / PID_FILE).write_text(str(os.getpid()), encoding="utf-8")
    out = args.out if args.out is not None else scratch / "json"
    out.mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": scratch / "parent", "change": ROOT}
    subprocess.run(["git", "worktree", "add", "--detach", str(checkouts["parent"]),
                    args.parent], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    try:
        return run_pairs(checkouts, spec, args.workload, args.pairs, args.seed,
                         out, args.traced)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(checkouts["parent"])],
                       cwd=ROOT, check=False)
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
