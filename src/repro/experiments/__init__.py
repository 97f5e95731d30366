"""Experiment harness shared by the benchmark suite and the examples.

The functions here wire a complete closed-loop run: build an engine, declare
the social-network application, bulk-load a synthetic graph, drive it with a
trace through the load generator, and report SLA attainment, cost, and
scaling behaviour.  Every closed-loop benchmark in ``benchmarks/`` declares
its runs as scenario specs (:class:`~repro.parallel.spec.ScenarioSpec`) and
runs them through :func:`~repro.experiments.harness.run_closed_loop`, so
its numbers are produced by exactly one code path.
"""

from repro.experiments.harness import (
    ClosedLoopSummary,
    SCALED_DOWN_INSTANCE,
    build_engine_and_app,
    run_closed_loop,
)

__all__ = [
    "ClosedLoopSummary",
    "SCALED_DOWN_INSTANCE",
    "build_engine_and_app",
    "run_closed_loop",
]
