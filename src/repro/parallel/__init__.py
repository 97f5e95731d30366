"""Parallel experiment fabric: deterministic multi-process scenario sweeps.

Independent simulated runs are embarrassingly parallel; this package turns N
cores into ~N× more scenarios per hour without giving up reproducibility:

* :mod:`repro.parallel.spec` — scenarios and sweeps as declarative data
  (:class:`ScenarioSpec`, :class:`SweepGrid` = scenario x replicates), with
  per-run seeds derived from ``numpy.random.SeedSequence.spawn`` at
  expansion time, plus the trace, mix and fault kind registries;
* :mod:`repro.parallel.executor` — inline or process-pool execution of
  :func:`repro.experiments.harness.run_closed_loop` with per-run failure
  isolation and progress streaming; per-run results are byte-identical
  whatever the worker count;
* :mod:`repro.parallel.results` — picklable run records and mergeable
  per-cell aggregation built on ``PercentileEstimator.merge``;
* :mod:`repro.parallel.scenarios` — the scenario corpus as specs;
* :mod:`repro.parallel.grid` — the corpus x configuration-cell validation
  grid with paired seeds (what ``make grid`` runs).

The package imports nothing itself: :mod:`~repro.parallel.spec` sits below
the harness, which imports it, and the executor sits above it.
"""
