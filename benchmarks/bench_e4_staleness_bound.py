"""E4 — wall-clock staleness bounds and the deadline priority queue.

Section 3.3.2: declared propagation bounds become deadlines in a priority
queue of asynchronous updates; ordering by deadline is what lets the system
honour tight bounds for the data that declared them while relaxed data waits.
This benchmark enqueues a constrained maintenance backlog containing a mix of
tight-bound and relaxed-bound writes and compares deadline-miss rates under
deadline ordering vs. a FIFO ablation, and across declared bounds.
"""

from __future__ import annotations

from repro.core.index.maintenance import EntityWrite
from repro.experiments.harness import build_engine_and_app

TIGHT_BOUND = 5.0
RELAXED_BOUND = 600.0
BACKLOG = 400
DRAIN_SECONDS = 40.0


def _run(fifo: bool):
    engine, app, _ = build_engine_and_app(
        seed=31, n_users=20, friend_cap=10, autoscale=False, initial_groups=1,
        updates_per_second_per_node=3.0, fifo_updates=fifo,
    )
    engine.start()
    # Build a backlog larger than the drain capacity over the horizon: half of
    # the writes declare the tight bound, half the relaxed one.
    for i in range(BACKLOG):
        bound = TIGHT_BOUND if i % 2 == 0 else RELAXED_BOUND
        row = {"f1": f"user{i % 20}", "f2": f"other{i}"}
        engine.updater.enqueue(EntityWrite("friendships", None, row), staleness_bound=bound)
    engine.run_for(DRAIN_SECONDS)
    completed = engine.updater.completed_tasks()
    tight = [t for t in completed if t.deadline - t.enqueue_time <= TIGHT_BOUND + 1e-9]
    tight_misses = sum(1 for t in tight if t.met_deadline is False)
    return {
        "completed": engine.updater.stats().completed,
        "tight_completed": len(tight),
        "tight_misses": tight_misses,
        "tight_miss_rate": tight_misses / len(tight) if tight else 1.0,
        "pending": engine.updater.pending_count(),
        "max_lag": engine.updater.stats().max_lag,
    }


def run_experiment():
    return _run(fifo=False), _run(fifo=True)


def test_e4_staleness_bound_priority_queue(benchmark, table_printer):
    deadline_ordered, fifo = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table_printer(
        "E4 — tight-bound (5 s) updates under backlog: deadline queue vs. FIFO",
        ["ordering", "tasks completed", "tight-bound completed", "tight-bound misses",
         "tight miss rate"],
        [
            ("deadline priority queue", deadline_ordered["completed"],
             deadline_ordered["tight_completed"], deadline_ordered["tight_misses"],
             f"{deadline_ordered['tight_miss_rate']:.3f}"),
            ("FIFO (ablation)", fifo["completed"], fifo["tight_completed"],
             fifo["tight_misses"], f"{fifo['tight_miss_rate']:.3f}"),
        ],
    )
    # The priority queue front-loads the urgent updates, so it completes more
    # tight-bound tasks within their deadline than FIFO does.
    assert deadline_ordered["tight_miss_rate"] < fifo["tight_miss_rate"]
    assert deadline_ordered["tight_completed"] >= fifo["tight_completed"]
