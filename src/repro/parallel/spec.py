"""Declarative scenario and sweep specifications.

A :class:`ScenarioSpec` names one closed-loop harness scenario *as data*:
the app population, operation mix, load trace, engine knobs, duration, and
seed policy are all plain picklable fields, so a scenario can be shipped to a
worker process or stored in a registry without capturing any live object
(engine, simulator, RNG).

A :class:`SweepGrid` is the sweep layer on top: a scenario and a replicate
count.  :meth:`SweepGrid.expand` turns it into an ordered list of
:class:`RunSpec` and assigns every run its seed from
``numpy.random.SeedSequence(base_seed).spawn(n)`` **at expansion time** —
replicate *i* gets child seed *i* regardless of how many workers later
execute the list or in what order they finish, which is what makes a
parallel sweep bitwise-reproducible against a serial one.

The three kind registries — traces, operation mixes, faults — map the names
a spec uses to what the harness builds from them; an unknown kind's error
lists its registry's keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.storage.failure import FailureInjector
from repro.workloads.opmix import UNIFORM_READ_MIX, WRITE_HEAVY_MIX
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

# Operation mixes, as :class:`~repro.workloads.opmix.CloudStoneMix` keyword
# arguments (see :func:`repro.experiments.harness.build_mix`): the default
# interactive mix, the Halloween-style upload mix, and the cache-hostile
# read-only mix with *uniform* user popularity.
MIX_KINDS: Dict[str, Dict[str, Any]] = {
    "cloudstone": {},
    "write_heavy": {"mix": WRITE_HEAVY_MIX},
    "uniform_read": {"mix": UNIFORM_READ_MIX, "zipf_theta": 0.0},
}

# Fault kinds, as the :class:`~repro.storage.failure.FailureInjector` entry
# point each schedules (see :func:`repro.experiments.harness.install_fault_plan`).
FAULT_KINDS = {
    "zone_outage": FailureInjector.zone_outage,
    "crash_random": FailureInjector.crash_random_nodes,
    "interruption_storm": FailureInjector.interruption_storm,
    "host_degradation": FailureInjector.host_degradation,
}


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
    ``FAULT_KINDS``; ``params`` are the keyword arguments of the
    corresponding :class:`~repro.storage.failure.FailureInjector` entry point
    (e.g. ``{"zone_index": 1}`` for a zone outage, ``{"count": 2}`` for
    random crashes; each entry point's parameters without a default are
    required).  Like trace specs, validation happens where the fault is
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

    :func:`repro.experiments.harness.run_closed_loop` is the one place the
    fields are unpacked — a benchmark arm that differs from a corpus scenario
    says so with :meth:`with_overrides`, never with its own copy of the
    mapping.  ``engine_knobs`` reaches any
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

        Plain names address spec fields; ``"trace.<param>"`` dotted names
        address the trace's parameters (e.g. ``"trace.rate"``), and
        ``"engine_knobs.<name>"`` the engine knob dict, so one flat mapping
        can override every layer.
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

    run_id: str
    cell: str
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
    """A declarative sweep: one scenario x seeded replicates.

    Args:
        scenario: the :class:`ScenarioSpec` every run executes; its name is
            the sweep's one cell.
        replicates: seeded repetitions of the scenario.
        base_seed: root of the :class:`numpy.random.SeedSequence` tree the
            per-run seeds are spawned from.
    """

    scenario: ScenarioSpec
    replicates: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    def expand(self) -> List[RunSpec]:
        """The replicates as ordered, fully-seeded run specifications."""
        cell = self.scenario.name
        return [RunSpec(run_id=f"{cell}#r{replicate}", cell=cell, replicate=replicate,
                        seed=seed, scenario=self.scenario)
                for replicate, seed in enumerate(derive_seeds(self.base_seed,
                                                              self.replicates))]
