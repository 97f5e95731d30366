"""The default-on validation grid: scenario corpus x configuration cells.

This is the layer that justifies shipping repartitioning and the
staleness-budget cache tier as defaults (see
:class:`~repro.core.engine.Scads`).  It expands every corpus scenario
(:data:`~repro.parallel.scenarios.STANDARD_SUITE`) against the four
configuration cells

    ``baseline``     — both features opted out
    ``repartition``  — hot-partition rebalancer only
    ``cache``        — staleness-budget cache tier only
    ``both``         — the shipped default

with **paired seeds**: replicate *r* of a scenario uses the same derived
seed in all four cells, so cross-cell comparisons (the dominance check
below) see the same workload realisation, not four different draws.  Runs
execute through the ordinary sweep executor, so the grid inherits its
guarantee that worker count cannot change any result — and the verdict,
being a pure function of the :class:`~repro.parallel.results.SweepResult`,
is byte-identical at ``workers=1`` and ``workers=N`` (tested).

The verdict gates on, per cell:

* every expected cell present, with zero failed runs;
* the consistency contract held: zero arbitration-stale reads and merged
  max replication lag within the scenario's staleness bound — except in
  crash/outage fault scenarios, where the outage window legitimately
  suspends the bound (the paper's consistency/availability tradeoff); there
  the grid reports staleness but gates only on the SLA re-attainment.
  Spot *interruption storms* keep the gate: revocation comes with notice,
  so a graceful drain that leaks a stale read is a bug, and cells whose
  runs audited acknowledged writes additionally gate on **zero lost
  acknowledged writes**;
* the scenario's **declared SLA policy** (see
  :class:`~repro.parallel.spec.ScenarioSpec`): at most
  ``sla_violation_budget`` of the run's fixed 60 s compliance windows may
  miss "P% of requests within L seconds", and the run must not end in a
  terminal streak of ``sla_reattain_windows`` consecutive violated windows
  — the paper's windowed SLA semantics, which tolerate a bounded transient
  while a declared disturbance outruns boot delay but demand the system
  come back afterwards rather than degrade into the end of the run.  The policy gates the op types the scenario names
  in ``sla_ops`` (writes may carry their own
  ``sla_write_violation_budget``); bulk-write mixes gate reads plus the
  staleness bound and leave per-write latency report-only, the paper's
  Halloween-effect framing.  In **full** mode this policy is *enforced only on
  the shipped-default cell* (``both``): the comparison arms exist to
  measure, and ``baseline`` structurally cannot meet a hot-key workload's
  SLA at any fleet size (renting never splits a hot partition — the very
  receipt that justifies the flip); their compliance is reported in the
  table, not gated.  In **smoke** mode the calibrated-gentle corpus is
  expected to comply in every cell, so the gate applies to all four — the
  cheap cross-cell regression net CI runs on every push.  Runs too short
  to yield two traffic windows (the smoke tier's seconds-long runs) fall
  back to the whole-run SLA report.

and per scenario, in full (non-smoke) mode:

* **dominance** — for workloads the shipped default should win
  (:data:`DOMINANCE_SCENARIOS`), the ``both`` cell must beat ``baseline``
  on read p99 *and* dollars;
* **no-harm** — on *every* scenario (including the cache-hostile and
  fault-injection ones), the shipped default's whole-run read and write
  p99 must stay within :data:`NO_HARM_MARGIN` of baseline's: flipping the
  defaults must never buy one workload's win with another's regression.

Smoke runs skip both cross-checks, mirroring the ``BENCH_SMOKE``
convention of not asserting economics on seconds-long runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.parallel.results import MergedCellReport, RunSuccess, SweepResult
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant
from repro.parallel.spec import RunSpec, ScenarioSpec, derive_seeds
from repro.sim.randomness import _stable_hash

# The four configuration cells, as engine-knob overrides.  Explicit on both
# axes: the engine now defaults both features ON, so ``baseline`` must name
# the opt-outs rather than rely on omission.
CONFIG_CELLS: Dict[str, Dict[str, object]] = {
    "baseline": {"engine_knobs.repartition": False, "engine_knobs.cache": False},
    "repartition": {"engine_knobs.repartition": True, "engine_knobs.cache": False},
    "cache": {"engine_knobs.repartition": False, "engine_knobs.cache": True},
    "both": {"engine_knobs.repartition": True, "engine_knobs.cache": True},
}

# Workloads the shipped default is *supposed* to win outright: skewed,
# read-dominated, steady enough that the cache's absorbed load translates
# into both latency and rented-machine savings.  Bursty and fault scenarios
# are deliberately absent — there the grid asserts "no harm", not victory.
DOMINANCE_SCENARIOS = ("standard-closed-loop", "cache-tier")

# The no-harm cross-check's tolerance: the shipped default's whole-run read
# and write p99 may not exceed baseline's by more than this factor on any
# scenario.  Generous enough for paired-seed noise, tight enough that a
# real regression (a workload the cache or rebalancer actively hurts)
# cannot hide inside it.
NO_HARM_MARGIN = 1.25


@dataclass(slots=True)
class CheckResult:
    """One named gate: what was checked, whether it held, and the numbers."""

    name: str
    passed: bool
    detail: str


@dataclass(slots=True)
class CellVerdict:
    """Every gate applied to one (scenario, config) cell."""

    scenario: str
    config: str
    cell: str
    report: Optional[MergedCellReport]
    stale_reads: int
    max_replication_lag: float
    checks: List[CheckResult] = field(default_factory=list)
    # Windowed-policy compliance, one short string per op type (e.g.
    # "2/18w" = 2 of 18 traffic windows violated).  Always populated for
    # the table; it only becomes a gate (a CheckResult) where the policy is
    # enforced — see evaluate_grid.
    read_compliance: str = "-"
    write_compliance: str = "-"

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


@dataclass(slots=True)
class GridVerdict:
    """The whole grid's verdict: per-cell gates plus cross-cell checks."""

    cells: List[CellVerdict]
    cross_checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (all(cell.passed for cell in self.cells)
                and all(check.passed for check in self.cross_checks))

    def failures(self) -> List[str]:
        """Human-readable description of every failed gate."""
        lines: List[str] = []
        for cell in self.cells:
            for check in cell.checks:
                if not check.passed:
                    lines.append(f"{cell.cell}: {check.name} — {check.detail}")
        for check in self.cross_checks:
            if not check.passed:
                lines.append(f"{check.name} — {check.detail}")
        return lines


def grid_scenarios(smoke: bool = False,
                   names: Optional[Sequence[str]] = None) -> List[ScenarioSpec]:
    """The corpus the grid runs: full specs or their smoke variants.

    ``names`` filters the corpus *after* the full list is materialised, so a
    filtered grid's per-scenario seeds match the unfiltered grid's (the same
    property ``scripts/run_sweep.py`` maintains).
    """
    corpus = [smoke_variant(spec) if smoke else spec for spec in STANDARD_SUITE]
    if names is not None:
        wanted = set(names)
        known = {spec.name for spec in corpus}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown scenarios {sorted(unknown)}; "
                             f"corpus: {sorted(known)}")
        corpus = [spec for spec in corpus if spec.name in wanted]
    return corpus


def build_grid_runs(scenarios: Optional[Sequence[ScenarioSpec]] = None,
                    replicates: int = 1, base_seed: int = 0) -> List[RunSpec]:
    """Expand (scenario x config x replicate) into seeded run specs.

    Seeding is **paired and prefix-stable**: scenario *i* of the full corpus
    derives its own child seed from ``base_seed`` (so appending scenarios
    never reshuffles existing ones), replicate *r* derives its seed from the
    scenario's child — and that replicate seed is shared by all four config
    cells, which is what makes the dominance comparison a paired experiment
    rather than a comparison of independent draws.  A scenario outside the
    corpus seeds from a stable hash of its name, so the same grid gets the
    same seeds in every process (``hash()`` of a ``str`` is salted per
    process).
    """
    if scenarios is None:
        scenarios = grid_scenarios()
    # Seeds are positional against the *full* corpus so a filtered grid
    # reproduces the unfiltered grid's per-scenario streams.
    corpus_index = {spec.name: i for i, spec in enumerate(STANDARD_SUITE)}
    scenario_seeds = derive_seeds(base_seed, len(STANDARD_SUITE))
    runs: List[RunSpec] = []
    index = 0
    for spec in scenarios:
        position = corpus_index.get(spec.name)
        scenario_seed = (scenario_seeds[position] if position is not None
                         else derive_seeds(base_seed + _stable_hash(spec.name) % (2**31), 1)[0])
        replicate_seeds = derive_seeds(scenario_seed, replicates)
        for config, overrides in CONFIG_CELLS.items():
            cell = f"{spec.name}/{config}"
            configured = spec.with_overrides(**overrides)
            for replicate in range(replicates):
                runs.append(RunSpec(
                    index=index,
                    run_id=f"{cell}#r{replicate}",
                    cell=cell,
                    params={"scenario": spec.name, "config": config},
                    replicate=replicate,
                    seed=replicate_seeds[replicate],
                    scenario=configured,
                ))
                index += 1
    return runs


def _cell_staleness(successes: List[RunSuccess]) -> tuple:
    stale = sum(record.summary.stale_reads for record in successes)
    lag = max((record.summary.max_replication_lag for record in successes),
              default=0.0)
    return stale, lag


def _cell_lost_writes(successes: List[RunSuccess]) -> Optional[int]:
    """Summed acknowledged-write losses, or None when no run audited them."""
    audited = [record.summary.lost_acked_writes for record in successes
               if getattr(record.summary, "lost_acked_writes", None) is not None]
    if not audited:
        return None
    return sum(audited)


def _policy_sla_check(spec: ScenarioSpec, successes: List[RunSuccess],
                      report: MergedCellReport, op: str) -> tuple:
    """Evaluate one op type's declared windowed SLA policy over a cell.

    Every replicate must comply individually (merging windows across runs
    would let one replicate's slack hide another's sustained violation).
    Returns ``(passed, detail, compliance)`` where ``compliance`` is the
    short per-cell summary the table prints.  A run without at least two
    traffic windows (seconds-long smoke runs) falls back to the whole-run
    SLA report.
    """
    sla = report.read_report if op == "read" else report.write_report
    percentile = sla.target_percentile
    budget = spec.sla_violation_budget
    if op == "write" and spec.sla_write_violation_budget is not None:
        budget = spec.sla_write_violation_budget
    worst_frac = 0.0
    violated_total = 0
    traffic_total = 0
    reattained = True
    windowed_runs = 0
    for record in successes:
        windows = (record.summary.read_windows if op == "read"
                   else record.summary.write_windows)
        traffic = [w for w in windows if w.total >= spec.sla_min_window_ops]
        if len(traffic) < 2:
            continue
        windowed_runs += 1
        violated = sum(1 for w in traffic if not w.compliant(percentile))
        frac = violated / len(traffic)
        worst_frac = max(worst_frac, frac)
        violated_total += violated
        traffic_total += len(traffic)
        # Re-attainment failure = a terminal violation streak: the run ends
        # with >= sla_reattain_windows consecutive violated windows, i.e.
        # the system never came back after its last disturbance.  A single
        # violated window at the end (a run cut off mid-dawn-ramp, a
        # stationary-tail blip) is bounded by the violation budget instead.
        terminal_streak = 0
        for window in reversed(traffic):
            if window.compliant(percentile):
                break
            terminal_streak += 1
        if terminal_streak >= spec.sla_reattain_windows:
            reattained = False
    if windowed_runs == 0:
        # Too short for windowed policy: gate on the whole-run report.
        return (sla.satisfied,
                f"whole-run p{percentile:g} = "
                f"{sla.observed_percentile_latency * 1000:.1f}ms vs "
                f"{sla.target_latency * 1000:.0f}ms target "
                "(run too short for windowed policy)",
                "yes" if sla.satisfied else "NO")
    passed = worst_frac <= budget and reattained
    detail = (f"{violated_total}/{traffic_total} windows violated "
              f"(worst run {worst_frac:.0%} vs {budget:.0%} budget), "
              + ("re-attained" if reattained else "NOT re-attained"))
    compliance = f"{violated_total}/{traffic_total}w" + ("" if reattained else "!")
    return passed, detail, compliance


def evaluate_grid(result: SweepResult,
                  scenarios: Sequence[ScenarioSpec],
                  smoke: bool = False) -> GridVerdict:
    """Score a completed grid sweep against the validation gates.

    ``smoke=True`` enforces the SLA policy on every cell (the calibrated
    smoke corpus is expected to comply everywhere) but skips the dominance
    and no-harm cross-checks, the same way ``BENCH_SMOKE`` skips cost
    assertions: seconds-long runs prove the machinery and the gates, not
    the dollars.  Full mode enforces the policy on the shipped-default
    (``both``) cell, reports it for the comparison arms, and runs both
    cross-checks.
    """
    by_name = {spec.name: spec for spec in scenarios}
    successes_by_cell: Dict[str, List[RunSuccess]] = {}
    failures_by_cell: Dict[str, int] = {}
    for record in result.records:
        if record.ok:
            successes_by_cell.setdefault(record.cell, []).append(record)
        else:
            failures_by_cell[record.cell] = failures_by_cell.get(record.cell, 0) + 1
    reports = {report.cell: report for report in result.cell_reports()}

    cells: List[CellVerdict] = []
    for spec in scenarios:
        # Crash/outage faults legitimately suspend the staleness bound (the
        # paper's consistency/availability tradeoff).  Interruption storms
        # and host degradation do NOT: revocation comes with notice, and a
        # noisy neighbor only slows nodes down without killing them — a
        # graceful drain or an evacuation that leaks a stale read or loses
        # an acknowledged write is a bug — so those scenarios keep the
        # consistency gate.
        consistency_gated = all(
            f.kind in ("interruption_storm", "host_degradation")
            for f in spec.faults)
        for config in CONFIG_CELLS:
            cell = f"{spec.name}/{config}"
            report = reports.get(cell)
            successes = successes_by_cell.get(cell, [])
            stale, lag = _cell_staleness(successes)
            verdict = CellVerdict(scenario=spec.name, config=config, cell=cell,
                                  report=report, stale_reads=stale,
                                  max_replication_lag=lag)
            failed = failures_by_cell.get(cell, 0)
            verdict.checks.append(CheckResult(
                "cell-complete", report is not None and failed == 0,
                f"{len(successes)} ok, {failed} failed"))
            if report is None:
                cells.append(verdict)
                continue
            enforce_sla = smoke or config == "both"
            for op in ("read", "write"):
                passed, detail, compliance = _policy_sla_check(
                    spec, successes, report, op)
                if op == "read":
                    verdict.read_compliance = compliance
                else:
                    verdict.write_compliance = compliance
                if enforce_sla and op in spec.sla_ops:
                    verdict.checks.append(CheckResult(f"{op}-sla", passed, detail))
            if consistency_gated:
                verdict.checks.append(CheckResult(
                    "staleness", stale == 0 and lag <= spec.staleness_bound,
                    f"{stale} stale reads, max lag {lag:.1f}s "
                    f"vs {spec.staleness_bound:.0f}s bound"))
            lost = _cell_lost_writes(successes)
            if lost is not None:
                # Zero data loss through drains, hibernations, and forced
                # revocations: every acknowledged write must still be held
                # by an alive owner at run end (engine write audit).
                verdict.checks.append(CheckResult(
                    "lost-writes", lost == 0,
                    f"{lost} acknowledged writes lost"))
            cells.append(verdict)

    cross: List[CheckResult] = []
    if not smoke:
        for name in DOMINANCE_SCENARIOS:
            if name not in by_name:
                continue
            both = reports.get(f"{name}/both")
            baseline = reports.get(f"{name}/baseline")
            if both is None or baseline is None:
                cross.append(CheckResult(
                    f"dominance:{name}", False, "missing both/baseline cell"))
                continue
            p99_both = both.read_report.observed_percentile_latency
            p99_base = baseline.read_report.observed_percentile_latency
            dominates = (p99_both <= p99_base
                         and both.cost.dollars <= baseline.cost.dollars)
            cross.append(CheckResult(
                f"dominance:{name}", dominates,
                f"both p99 {p99_both * 1000:.1f}ms / ${both.cost.dollars:.2f} "
                f"vs baseline {p99_base * 1000:.1f}ms / "
                f"${baseline.cost.dollars:.2f}"))
        for spec in scenarios:
            both = reports.get(f"{spec.name}/both")
            baseline = reports.get(f"{spec.name}/baseline")
            if both is None or baseline is None:
                continue  # cell-complete already failed the missing cell
            harmless = True
            parts = []
            for op in ("read", "write"):
                p_both = (both.read_report if op == "read"
                          else both.write_report).observed_percentile_latency
                p_base = (baseline.read_report if op == "read"
                          else baseline.write_report).observed_percentile_latency
                if p_both > p_base * NO_HARM_MARGIN:
                    harmless = False
                parts.append(f"{op} {p_both * 1000:.1f}ms vs "
                             f"{p_base * 1000:.1f}ms")
            cross.append(CheckResult(
                f"noharm:{spec.name}", harmless,
                f"both vs baseline p99 within {NO_HARM_MARGIN:g}x: "
                + ", ".join(parts)))
    return GridVerdict(cells=cells, cross_checks=cross)


def render_verdict_table(verdict: GridVerdict) -> str:
    """The grid's printed pass/fail table, one row per cell.

    The ``r-win``/``w-win`` columns show windowed compliance (violated /
    traffic windows; a trailing ``!`` marks failed re-attainment) for every
    cell; whether that compliance is *gated* depends on the cell — see
    :func:`evaluate_grid`.
    """
    headers = ["cell", "runs", "p99 ms", "r-win", "w-win", "stale", "lag s",
               "dollars", "verdict"]
    rows: List[List[str]] = []
    for cell in verdict.cells:
        report = cell.report
        rows.append([
            cell.cell,
            str(report.runs) if report else "0",
            f"{report.read_report.observed_percentile_latency * 1000:.1f}"
            if report else "-",
            cell.read_compliance,
            cell.write_compliance,
            str(cell.stale_reads),
            f"{cell.max_replication_lag:.1f}",
            f"{report.cost.dollars:.2f}" if report else "-",
            "pass" if cell.passed else "FAIL",
        ])
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
              else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * widths[i] for i in range(len(headers)))]
    lines.extend("  ".join(row[i].ljust(widths[i]) for i in range(len(headers)))
                 for row in rows)
    for check in verdict.cross_checks:
        status = "pass" if check.passed else "FAIL"
        lines.append(f"{check.name}: {status} ({check.detail})")
    lines.append(f"grid verdict: {'PASS' if verdict.passed else 'FAIL'}")
    return "\n".join(lines)
