"""Declarative scenario and sweep specifications.

A :class:`ScenarioSpec` names one closed-loop harness scenario *as data*:
the app population, operation mix, load trace, engine knobs, duration, and
seed policy are all plain picklable fields, so a scenario can be shipped to a
worker process, stored in a registry, or expanded over a parameter grid
without capturing any live object (engine, simulator, RNG).

A :class:`SweepGrid` is the FleetOpt-style sweep layer on top: a base
scenario, named parameter axes (cartesian product), and a replicate count.
:meth:`SweepGrid.expand` flattens the grid into an ordered list of
:class:`RunSpec` and assigns every run its seed from
``numpy.random.SeedSequence(base_seed).spawn(n)`` **at expansion time** —
run *i* gets child seed *i* regardless of how many workers later execute the
list or in what order they finish, which is what makes a parallel sweep
bitwise-reproducible against a serial one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.traces import (
    AnimotoViralTrace,
    ConstantTrace,
    DiurnalTrace,
    FlashCrowdTrace,
    HalloweenSpikeTrace,
    LoadTrace,
    StepTrace,
)

# Trace construction is deferred to the worker (LoadTrace subclasses are
# dataclasses and would pickle fine, but keeping the spec purely nominal
# means a registry dump is human-readable JSON-shaped data).
TRACE_KINDS = {
    "constant": ConstantTrace,
    "step": StepTrace,
    "diurnal": DiurnalTrace,
    "viral": AnimotoViralTrace,
    "spike": HalloweenSpikeTrace,
    "flash_crowd": FlashCrowdTrace,
}

MIX_KINDS = ("cloudstone", "write_heavy", "uniform_read")

# Fault kinds the harness's fault-plan installer understands (see
# :func:`repro.experiments.harness.install_fault_plan`).
FAULT_KINDS = ("zone_outage", "crash_random", "interruption_storm",
               "host_degradation")


@dataclass(slots=True)
class TraceSpec:
    """A load trace named as data: a registered kind plus its parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> LoadTrace:
        """Instantiate the trace; raises ValueError for an unknown kind.

        Validation happens here — in the worker — rather than at spec
        construction, so a malformed spec in a sweep surfaces as that one
        run's structured error record, not a parent-process crash.
        """
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; registered: {sorted(TRACE_KINDS)}"
            )
        return TRACE_KINDS[self.kind](**self.params)

    def with_params(self, **overrides: Any) -> "TraceSpec":
        return TraceSpec(kind=self.kind, params={**self.params, **overrides})


@dataclass(slots=True)
class FaultSpec:
    """One scheduled fault, as pure data.

    ``at`` is relative to the moment the closed-loop load starts (graph bulk
    load shifts absolute simulated time, so absolute fault times would land
    somewhere different in every scenario).  ``kind`` must be registered in
    ``FAULT_KINDS``; ``params`` feeds the corresponding
    :class:`~repro.storage.failure.FailureInjector` entry point (e.g.
    ``{"zone_index": 1}`` for a zone outage, ``{"count": 2}`` for random
    crashes).  Like trace specs, validation happens where the fault is
    installed — in the worker — so a malformed fault surfaces as that run's
    structured error record.
    """

    kind: str
    at: float
    duration: float
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("fault time must be non-negative")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")


@dataclass(slots=True)
class ScenarioSpec:
    """One closed-loop harness scenario, named entirely as data.

    :func:`repro.parallel.executor.run_scenario` is the one place the fields
    are unpacked into :func:`repro.experiments.harness.run_closed_loop`
    arguments — a benchmark arm that differs from a corpus scenario says so
    with :meth:`with_overrides` and runs through it, never through its own
    copy of the mapping.  ``engine_knobs`` reaches any
    :class:`~repro.core.engine.Scads` keyword the harness does not name
    explicitly (``cache=False``, ``partitioner_kind="range"``, ...).  The spec
    deliberately has **no seed field**: seeds are assigned per run by
    :meth:`SweepGrid.expand`, never baked into the scenario, so replicates of
    the same cell differ only in their derived seed.
    """

    name: str
    trace: TraceSpec
    duration: float
    n_users: int = 200
    friend_cap: int = 20
    mix: str = "cloudstone"
    sla_latency: float = 0.150
    sla_percentile: float = 99.0
    # The windowed SLA *policy* this scenario declares (paper: SLAs are
    # declarative — "P% of requests of type T within L seconds" — and the
    # monitor's compliance measure is per-window).  A run complies when at
    # most ``sla_violation_budget`` of its traffic windows (fixed 60 s clock
    # windows, see metrics.sla) miss the declared bound, AND the run does
    # not end in ``sla_reattain_windows`` consecutive violated windows (a
    # terminal violation streak means the system never recovered) — bounded
    # transient violation during a declared disturbance (spike, zone outage,
    # write storm) is tolerated, but the system must re-attain the SLA.  ``sla_ops`` names the request types the policy *gates* (the
    # others are still measured and reported): a bulk-write mix declares its
    # SLA over interactive reads and lets the staleness bound judge the
    # async write pipeline, exactly the paper's Halloween-effect framing.
    # ``sla_write_violation_budget`` overrides the budget for writes (None =
    # same as reads): live migration dual-routes writes, so the shipped
    # default's write tail crosses the bound in more windows than reads.
    # Windows with fewer than ``sla_min_window_ops`` requests are skipped as
    # noise — at the 99th percentile a window needs >= 100 requests for a
    # single slow one not to decide the verdict, and the floor also drops
    # the near-empty drain-tail window at the end of a run.
    sla_violation_budget: float = 0.10
    sla_write_violation_budget: Optional[float] = None
    sla_ops: Tuple[str, ...] = ("read", "write")
    sla_reattain_windows: int = 3
    sla_min_window_ops: int = 100
    staleness_bound: float = 120.0
    read_your_writes: bool = False
    autoscale: bool = True
    predictive_scaling: bool = True
    initial_groups: int = 1
    control_interval: float = 30.0
    sampling_fraction: float = 1.0
    engine_knobs: Dict[str, Any] = field(default_factory=dict)
    faults: Tuple[FaultSpec, ...] = ()

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced.

        Grid axes address spec fields by name; ``"trace.<param>"`` dotted
        names address the trace's parameters (e.g. ``"trace.rate"``), and
        ``"engine_knobs.<name>"`` the engine knob dict, so one flat axis
        mapping can sweep every layer.
        """
        trace_params: Dict[str, Any] = {}
        knob_params: Dict[str, Any] = {}
        flat: Dict[str, Any] = {}
        valid = {f.name for f in fields(self)}
        for key, value in overrides.items():
            if key.startswith("trace."):
                trace_params[key[len("trace."):]] = value
            elif key.startswith("engine_knobs."):
                knob_params[key[len("engine_knobs."):]] = value
            elif key in valid:
                flat[key] = value
            else:
                raise ValueError(
                    f"unknown scenario parameter {key!r} "
                    f"(fields: {sorted(valid)}; prefix trace./engine_knobs. "
                    "for nested parameters)"
                )
        spec = replace(self, **flat) if flat else replace(self)
        if trace_params:
            spec.trace = spec.trace.with_params(**trace_params)
        if knob_params:
            spec.engine_knobs = {**spec.engine_knobs, **knob_params}
        return spec


@dataclass(slots=True)
class RunSpec:
    """One fully-resolved run of a sweep: a scenario, its cell, and its seed."""

    index: int
    run_id: str
    cell: str
    params: Dict[str, Any]
    replicate: int
    seed: int
    scenario: ScenarioSpec


def derive_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` independent child seeds from one base seed.

    ``SeedSequence.spawn`` guarantees the children are statistically
    independent streams, and the derivation depends only on ``(base_seed,
    index)`` — the same run always gets the same seed no matter how many
    workers execute the sweep or how the pool schedules it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


@dataclass(slots=True)
class SweepGrid:
    """A declarative sweep: base scenario x parameter grid x replicates.

    Args:
        scenario: the base :class:`ScenarioSpec` every cell starts from.
        axes: ordered mapping of parameter name -> values; cells are the
            cartesian product in the mapping's iteration order (last axis
            varies fastest).  Names follow :meth:`ScenarioSpec.with_overrides`
            (``"trace.rate"`` and ``"engine_knobs.cache"`` address nested
            parameters).
        replicates: seeded repetitions of every cell.
        base_seed: root of the :class:`numpy.random.SeedSequence` tree the
            per-run seeds are spawned from.
    """

    scenario: ScenarioSpec
    axes: Dict[str, Sequence[Any]] = field(default_factory=dict)
    replicates: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        # Materialise axis values: a single-pass iterable (generator) would
        # survive validation here and then silently expand to zero runs.
        self.axes = {name: list(values) for name, values in self.axes.items()}
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    def cell_count(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(list(values))
        return count

    def run_count(self) -> int:
        return self.cell_count() * self.replicates

    def expand(self) -> List[RunSpec]:
        """Flatten the grid into ordered, fully-seeded run specifications."""
        names = list(self.axes.keys())
        value_lists = [list(self.axes[name]) for name in names]
        runs: List[RunSpec] = []
        seeds = derive_seeds(self.base_seed, self.run_count())
        index = 0
        for combo in itertools.product(*value_lists) if names else [()]:
            params = dict(zip(names, combo))
            cell = (",".join(f"{name}={value}" for name, value in params.items())
                    or self.scenario.name)
            spec = self.scenario.with_overrides(**params) if params else self.scenario
            for replicate in range(self.replicates):
                runs.append(RunSpec(
                    index=index,
                    run_id=f"{cell}#r{replicate}",
                    cell=cell,
                    params=params,
                    replicate=replicate,
                    seed=seeds[index],
                    scenario=spec,
                ))
                index += 1
        return runs
