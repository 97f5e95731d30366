"""The scenario corpus, as declarative specs.

These mirror the closed-loop workloads the paper benchmarks drive through
:func:`repro.experiments.harness.run_closed_loop` — the flat CloudStone
closed loop, the write-heavy mix, the scale-down diurnal cycle, the
Halloween spike, the Animoto viral ramp, and the cache-tier variant —
plus the validation-grid corpus: a diurnal cycle with
a flash crowd erupting on top, a regional failover driven by the failure
injector, a write storm whose index-maintenance backlog must drain
("compaction"), and a cache-hostile uniform-read scan.  ``make sweep`` runs
the whole family across cores from one registry, and ``make grid`` expands
it against the {baseline, repartition, cache, both} configuration axes (see
:mod:`repro.parallel.grid`).  Durations are compressed the same way the
benchmarks compress them: every claim is about *relative* behaviour, so the
suite keeps the phenomena (ramps outpacing boot delays, troughs deep enough
to scale down into) at wall-clock costs a laptop can afford.

``smoke_scenario`` is the tiny closed loop of the sweep runner's smoke suite:
seconds of simulated time per run, enough to prove the fan-out machinery end
to end without measuring anything.
``smoke_variant`` shrinks any corpus scenario the same way for the grid's
smoke tier (``make grid-smoke``), keeping each family's *shape* — the spike
still spikes, the zone still fails — inside a seconds-long run.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.parallel.spec import FaultSpec, ScenarioSpec, TraceSpec

# The flat CloudStone closed loop at a constant offered rate.
STANDARD_CLOSED_LOOP = ScenarioSpec(
    name="standard-closed-loop",
    trace=TraceSpec("constant", {"rate": 300.0}),
    duration=1200.0,
    n_users=300,
    autoscale=True,
    predictive_scaling=False,
    # A production-sane fleet for the declared steady rate: a steady-load
    # scenario gates serving, not cold-boot from a starved fleet.
    initial_groups=10,
    control_interval=30.0,
    # Reads stay clean; the write tail crosses the bound in the windows
    # where the rebalancer's live migrations dual-route writes.
    sla_write_violation_budget=0.30,
)

STANDARD_SUITE: List[ScenarioSpec] = [
    STANDARD_CLOSED_LOOP,
    ScenarioSpec(
        name="write-heavy",
        trace=TraceSpec("constant", {"rate": 150.0}),
        duration=900.0,
        n_users=300,
        mix="write_heavy",
        predictive_scaling=False,
        # Writes amplify (replication fan-out + index maintenance), so the
        # planner converges slower than for reads; start provisioned for the
        # declared steady rate and budget the residual calibration ramp.
        initial_groups=8,
        # An upload-heavy application declares a looser interactive bound
        # (its reads contend with the write storm) and gates its SLA on
        # reads only: bulk writes are judged by the staleness bound — the
        # async index pipeline must keep up — not by per-write latency,
        # which hot-key replication fan-out makes structurally heavy-tailed
        # in every configuration (baseline included).
        sla_latency=0.750,
        sla_ops=("read",),
        sla_violation_budget=0.15,
    ),
    ScenarioSpec(
        name="diurnal-scale-down",
        trace=TraceSpec("diurnal", {"base_rate": 40.0, "peak_rate": 200.0,
                                    "period_hours": 1.0}),
        duration=5400.0,
        n_users=200,
        initial_groups=2,
        # Each dawn the ramp outpaces boot delay for a window or two.
        sla_violation_budget=0.20,
    ),
    ScenarioSpec(
        name="halloween-spike",
        trace=TraceSpec("spike", {"base_rate": 60.0, "spike_multiplier": 4.0,
                                  "spike_start": 600.0, "rise_duration": 120.0,
                                  "hold_duration": 900.0,
                                  "decay_duration": 600.0}),
        duration=3000.0,
        n_users=200,
        initial_groups=2,
        # An unforecast 4x surge violates while replacement capacity boots
        # (the paper's Halloween effect); the budget bounds that transient
        # and the re-attainment gate requires full recovery.
        sla_violation_budget=0.25,
        sla_write_violation_budget=0.30,
    ),
    ScenarioSpec(
        name="viral-ramp",
        trace=TraceSpec("viral", {"start_rate": 20.0, "peak_multiplier": 10.0,
                                  "ramp_start": 300.0,
                                  "ramp_duration": 2400.0}),
        duration=3600.0,
        n_users=200,
        initial_groups=2,
        sla_violation_budget=0.15,
        sla_write_violation_budget=0.25,
    ),
    ScenarioSpec(
        name="cache-tier",
        trace=TraceSpec("constant", {"rate": 300.0}),
        duration=1200.0,
        n_users=300,
        predictive_scaling=False,
        initial_groups=10,
        sla_write_violation_budget=0.30,
        # The cache tier is the shipped default now; the knob stays explicit
        # so this scenario keeps meaning "cache on" even if defaults move.
        engine_knobs={"cache": True},
    ),
    # ------------------------------------------------- validation-grid corpus
    ScenarioSpec(
        # Day/night cycle with a flash crowd erupting mid-cycle: the
        # controller must ride the trough down AND catch a minutes-scale
        # surge, with the crowd concentrating on the same hot graph the
        # cache/rebalancer exploit.
        name="diurnal-flash-crowd",
        trace=TraceSpec("flash_crowd", {"base_rate": 40.0, "peak_rate": 160.0,
                                        "period_hours": 1.0,
                                        "crowd_start": 1500.0,
                                        "crowd_multiplier": 4.0,
                                        "rise_duration": 120.0,
                                        "hold_duration": 600.0,
                                        "decay_duration": 600.0}),
        duration=3600.0,
        n_users=200,
        initial_groups=2,
        # Diurnal ramps plus a 4x flash crowd: two disturbance families'
        # worth of boot-lag windows share one budget.
        sla_violation_budget=0.30,
    ),
    ScenarioSpec(
        # Regional failover: one "availability zone" (the second member of
        # every replica group) crashes for five minutes mid-run.  Reads must
        # fail over to surviving replicas and the SLA must be re-attained;
        # recovered nodes reconcile on return.
        name="regional-failover",
        trace=TraceSpec("constant", {"rate": 120.0}),
        duration=1800.0,
        n_users=200,
        predictive_scaling=False,
        initial_groups=2,
        engine_knobs={"replication_factor": 3},
        faults=(FaultSpec(kind="zone_outage", at=600.0, duration=300.0,
                          params={"zone_index": 1}),),
        # Five minutes of a zone down out of thirty: degraded service during
        # the outage is the declared tradeoff; recovery is the gate.
        sla_violation_budget=0.30,
    ),
    ScenarioSpec(
        # Write storm: an upload-spike mix whose asynchronous index
        # maintenance backlog (the compaction analogue) must drain within
        # deadline while the storm is still being served.
        name="write-storm-compaction",
        trace=TraceSpec("spike", {"base_rate": 50.0, "spike_multiplier": 4.0,
                                  "spike_start": 300.0, "rise_duration": 60.0,
                                  "hold_duration": 300.0,
                                  "decay_duration": 300.0}),
        duration=1800.0,
        n_users=200,
        mix="write_heavy",
        initial_groups=3,
        # The storm itself runs hot until capacity lands and the index
        # backlog drains; the teeth are read re-attainment plus the
        # staleness bound on the drained backlog — mid-storm write latency
        # is the declared tradeoff, so the SLA gates reads only.
        sla_ops=("read",),
        sla_violation_budget=0.40,
    ),
    ScenarioSpec(
        # Spot-market robustness: a viral ramp forces the controller to buy
        # surge read replicas (spot-first), then a correlated revocation
        # storm lands mid-ramp — every spot instance gets its two-minute
        # notice at once and new spot launches are refused for seven
        # minutes, so surge capacity must drain gracefully (no stale reads,
        # no lost acknowledged writes) while replacements fall back to
        # on-demand.  When the storm passes, hibernated replicas resume via
        # reconcile instead of a cold re-copy.
        name="spot-interruption-storm",
        trace=TraceSpec("viral", {"start_rate": 20.0, "peak_multiplier": 10.0,
                                  "ramp_start": 300.0,
                                  "ramp_duration": 2400.0}),
        duration=3600.0,
        n_users=200,
        initial_groups=2,
        engine_knobs={"spot": True},
        faults=(FaultSpec(kind="interruption_storm", at=1500.0,
                          duration=420.0),),
        # The viral-ramp budget plus headroom for the revocation transient:
        # drains shed read capacity faster than on-demand fallback boots.
        sla_violation_budget=0.25,
        sla_write_violation_budget=0.30,
    ),
    ScenarioSpec(
        # Cache-hostile scan: read-only traffic with *uniform* user
        # popularity — no working set for the front tier to concentrate on.
        # The grid uses this to prove default-on caching degrades gracefully
        # (no SLA or staleness harm) when its premise (skew) is absent.
        name="cache-hostile-uniform",
        trace=TraceSpec("constant", {"rate": 200.0}),
        duration=1200.0,
        n_users=300,
        mix="uniform_read",
        predictive_scaling=False,
        initial_groups=4,
    ),
    ScenarioSpec(
        # Noisy-neighbor robustness: nodes share physical hosts (tenancy 4),
        # and mid-run a co-tenant degrades one host — every colocated node
        # serves 10x-slower *service* times for seven minutes while cluster
        # utilisation stays low.  Renting capacity cannot fix this (new
        # nodes neither speed up the sick host nor drain service-side
        # inflation); the monitor must diagnose contention-not-capacity
        # from per-host service residuals, and the controller must
        # live-migrate replicas off the noisy host (anti-affinity
        # preserved) instead of scaling up.  Degraded nodes never die, so
        # the staleness/lost-write gates stay enforced at full strength.
        name="noisy-neighbor-episode",
        trace=TraceSpec("constant", {"rate": 120.0}),
        duration=1800.0,
        n_users=200,
        predictive_scaling=False,
        initial_groups=3,
        # The write audit arms the lost-writes gate: a live migration off
        # the noisy host must never drop an acknowledged write.
        engine_knobs={"replication_factor": 3,
                      "contention": {"tenancy": 4},
                      "write_audit": True},
        faults=(FaultSpec(kind="host_degradation", at=600.0, duration=420.0,
                          params={"host_id": "host-0", "intensity": 10.0}),),
        # The episode violates until diagnosis fires and the evacuation's
        # re-copies settle; the budget bounds that transient and the
        # re-attainment gate requires the SLA back before run end.
        sla_violation_budget=0.25,
        sla_write_violation_budget=0.30,
    ),
]


# Per-scenario shrink recipes for the grid's smoke tier: keep each family's
# shape (the spike still spikes inside the window, the zone still fails and
# recovers) at seconds of simulated time.  Names follow
# :meth:`ScenarioSpec.with_overrides` ("trace.x" reaches trace params).
_SMOKE_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "standard-closed-loop": {"duration": 24.0, "trace.rate": 40.0},
    "write-heavy": {"duration": 24.0, "trace.rate": 10.0},
    "diurnal-scale-down": {"duration": 36.0,
                           "trace.base_rate": 10.0, "trace.peak_rate": 40.0,
                           "trace.period_hours": 0.01},
    "halloween-spike": {"duration": 30.0,
                        "trace.base_rate": 10.0, "trace.spike_multiplier": 2.5,
                        "trace.spike_start": 6.0,
                        "trace.rise_duration": 3.0, "trace.hold_duration": 9.0,
                        "trace.decay_duration": 6.0},
    "viral-ramp": {"duration": 30.0, "trace.start_rate": 10.0,
                   "trace.peak_multiplier": 4.0, "trace.ramp_start": 5.0,
                   "trace.ramp_duration": 20.0},
    "cache-tier": {"duration": 24.0, "trace.rate": 40.0},
    "diurnal-flash-crowd": {"duration": 36.0,
                            "trace.base_rate": 8.0, "trace.peak_rate": 20.0,
                            "trace.period_hours": 0.01,
                            "trace.crowd_start": 10.0,
                            "trace.crowd_multiplier": 2.0,
                            "trace.rise_duration": 3.0,
                            "trace.hold_duration": 9.0,
                            "trace.decay_duration": 6.0},
    "regional-failover": {"duration": 36.0, "trace.rate": 30.0,
                          "faults": (FaultSpec(kind="zone_outage", at=10.0,
                                               duration=10.0,
                                               params={"zone_index": 1}),)},
    "write-storm-compaction": {"duration": 30.0,
                               "trace.base_rate": 6.0,
                               "trace.spike_multiplier": 2.0,
                               "trace.spike_start": 6.0,
                               "trace.rise_duration": 3.0,
                               "trace.hold_duration": 9.0,
                               "trace.decay_duration": 6.0},
    # The ramp is steep enough that the first control step bids spot surge
    # capacity; the storm lands just after, so CI exercises notice delivery
    # (abort-while-booting) and the refused-launch on-demand fallback on
    # every push.  The notice deadline (120 s) outlives a seconds-long run,
    # so *completed* drain/hibernate/resume cycles need the full scenario.
    # The latency bound is smoke-only slack: forcing spot bids means the
    # ramp must outrun the fleet, and no rented capacity (60 s boot) can
    # land inside a 36 s run, so the interactive 150 ms p99 is unattainable
    # by construction here — the full-length scenario keeps the real bound;
    # the loose backstop still catches runaway queueing, and the staleness /
    # lost-write gates are enforced at full strength either way.
    "spot-interruption-storm": {"duration": 36.0, "trace.start_rate": 250.0,
                                "sla_latency": 2.5,
                                "trace.peak_multiplier": 5.0,
                                "trace.ramp_start": 2.0,
                                "trace.ramp_duration": 16.0,
                                # One starting group (vs the common smoke
                                # two), and a rate high enough that the
                                # planner's target outruns one group plus
                                # the per-group surge cap: the ramp must
                                # outgrow the fleet within the window or no
                                # surge is ever bid.
                                "initial_groups": 1,
                                # Lands just after the first control step's
                                # spot bids, so the notices hit live spot
                                # instances and later bids exercise the
                                # refused-launch on-demand fallback.
                                "faults": (FaultSpec(kind="interruption_storm",
                                                     at=22.0, duration=14.0),)},
    "cache-hostile-uniform": {"duration": 24.0, "trace.rate": 40.0},
    # The episode lands after the first control window and clears before the
    # run ends, so CI exercises injection, per-host residual tracking, and
    # the contention-vs-capacity classification on every push.  A completed
    # diagnose-evacuate-recover cycle needs violated windows plus EWMA
    # settling time, which a seconds-long run cannot hold — that is the full
    # scenario's job.  The gentle intensity keeps the inflated service tail
    # inside the interactive bound (smoke enforces the SLA on all four
    # config cells), and the staleness gate is enforced at full strength.
    "noisy-neighbor-episode": {"duration": 36.0, "trace.rate": 30.0,
                               "faults": (FaultSpec(kind="host_degradation",
                                                    at=8.0, duration=14.0,
                                                    params={"host_id": "host-0",
                                                            "intensity": 2.0}),)},
}


def smoke_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The seconds-long version of one corpus scenario (``make grid-smoke``).

    Applies the scenario's shrink recipe plus the common smoke scale-down
    (small population, short control windows).  Raises ``KeyError`` for a
    scenario with no registered recipe — a new corpus entry must declare how
    it shrinks, or the smoke grid would silently run it at full length.
    """
    overrides = _SMOKE_OVERRIDES[spec.name]
    common = {"n_users": 40, "friend_cap": 10, "initial_groups": 2,
              "control_interval": 10.0}
    return spec.with_overrides(**{**common, **overrides})


def smoke_scenario() -> ScenarioSpec:
    """A seconds-long closed loop for smoke sweeps and determinism tests."""
    return ScenarioSpec(
        name="smoke",
        trace=TraceSpec("constant", {"rate": 30.0}),
        duration=20.0,
        n_users=40,
        friend_cap=10,
        initial_groups=2,
        control_interval=10.0,
    )


def suites() -> Dict[str, List[ScenarioSpec]]:
    """Named suites the sweep runner can be pointed at."""
    return {
        "standard": list(STANDARD_SUITE),
        "smoke": [smoke_scenario()],
    }
