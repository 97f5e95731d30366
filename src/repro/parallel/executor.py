"""Deterministic multi-process sweep execution.

The executor is deliberately boring: every run in an expanded sweep is
:func:`~repro.experiments.harness.run_closed_loop` of its
:class:`~repro.parallel.spec.RunSpec` (the scenario data plus a seed
assigned at expansion time), so executing the list inline, across a
process pool, or across a pool of any size produces byte-identical per-run
results — parallelism only changes wall-clock time.  What the executor *does*
own is failure isolation (a run that raises becomes a structured
:class:`~repro.parallel.results.RunFailure`; its siblings are unaffected) and
progress streaming (an optional callback fired as each run completes).

Workers are forked when the platform allows it (no re-import, no sys.path
ceremony) and spawned otherwise; the choice cannot affect results because a
run constructs its entire world — simulator, cluster, app, RNG streams —
from the spec.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Union

from repro.experiments.harness import run_closed_loop
from repro.parallel.results import RunFailure, RunRecord, RunSuccess, SweepResult
from repro.parallel.spec import RunSpec, SweepGrid

ProgressCallback = Callable[[int, int, RunRecord], None]


def execute_run(run: RunSpec) -> RunRecord:
    """Execute one run, converting any exception into a structured record.

    This is the function the pool maps over; it must stay module-level (a
    closure would not pickle under the spawn start method) and must never
    raise — a poisoned spec yields a :class:`RunFailure` carrying the
    traceback, and every sibling run proceeds untouched.
    """
    start = time.perf_counter()
    try:
        summary, _, _ = run_closed_loop(run.scenario, run.seed)
        return RunSuccess(
            run_id=run.run_id,
            cell=run.cell,
            seed=run.seed,
            summary=summary,
            wall_seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        return RunFailure(
            run_id=run.run_id,
            cell=run.cell,
            seed=run.seed,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
            wall_seconds=time.perf_counter() - start,
        )


def _failure_from_exception(run: RunSpec, exc: BaseException) -> RunFailure:
    """A record for failures *outside* the worker's own try (e.g. a worker
    process dying so hard the pool breaks, or a result that cannot unpickle)."""
    return RunFailure(
        run_id=run.run_id,
        cell=run.cell,
        seed=run.seed,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback="".join(traceback.format_exception(type(exc), exc,
                                                     exc.__traceback__)),
    )


def _preferred_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_sweep(
    sweep: Union[SweepGrid, Sequence[RunSpec]],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Execute a sweep and collect its records in run-index order.

    Args:
        sweep: a :class:`SweepGrid` (expanded here) or a pre-expanded run
            list (e.g. to re-run a subset).
        workers: process count; ``<= 1`` runs inline in this process, which
            is guaranteed — and tested — to produce identical per-run results
            to any pooled execution of the same expansion.
        progress: optional callback ``(completed, total, record)`` streamed
            in completion order (pool scheduling order, not index order).
    """
    runs: List[RunSpec] = list(sweep.expand() if isinstance(sweep, SweepGrid)
                               else sweep)
    start = time.perf_counter()
    total = len(runs)
    records: List[Optional[RunRecord]] = [None] * total
    if not runs:
        return SweepResult(records=[], wall_seconds=0.0, workers=max(workers, 1))

    if workers <= 1 or total == 1:
        for position, run in enumerate(runs):
            record = execute_run(run)
            records[position] = record
            if progress is not None:
                progress(position + 1, total, record)
        return SweepResult(records=list(records),
                           wall_seconds=time.perf_counter() - start, workers=1)

    pool_size = min(workers, total)
    completed = 0
    with ProcessPoolExecutor(max_workers=pool_size,
                             mp_context=_preferred_context()) as pool:
        pending = {pool.submit(execute_run, run): (position, run)
                   for position, run in enumerate(runs)}
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in done:
                position, run = pending.pop(future)
                try:
                    record = future.result()
                except BaseException as exc:  # broken pool / unpicklable result
                    record = _failure_from_exception(run, exc)
                records[position] = record
                completed += 1
                if progress is not None:
                    progress(completed, total, record)
    # Every position must be filled: a silently dropped record would shift
    # every later index and corrupt the serial/parallel identity comparisons.
    assert all(r is not None for r in records)
    return SweepResult(records=list(records),
                       wall_seconds=time.perf_counter() - start,
                       workers=pool_size)
