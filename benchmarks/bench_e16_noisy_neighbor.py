"""E16 — noisy-neighbor economics: placement-aware vs capacity-only.

The paper's directors assume a violated SLA means the fleet is too small.
Multi-tenant clouds break that assumption: when a co-tenant degrades one
physical host, every colocated node serves inflated *service* times while
cluster utilisation stays low — renting more nodes neither speeds up the
sick host nor drains service-side inflation, it just adds dollars.

Two identically-seeded runs of the grid's ``noisy-neighbor-episode``
scenario (flat load, tenancy-4 host placement, a scripted 4x host
degradation mid-run):

* **placement-aware** — the scenario as shipped: the monitor classifies
  the violated windows as contention-not-capacity (service-dominated,
  worst-host residual high, utilisation low), refuses to train its sizing
  models on the poisoned windows, and the controller live-migrates
  replicas off the noisy host (anti-affinity preserved) instead of
  renting;
* **capacity-only** — the same episode with ``placement_aware`` off: the
  ablation keeps training on contention-poisoned labels, so the planner
  inflates its node target and rents capacity that demonstrably does not
  help (the episode outlives every scale-up it triggers).

The placement-aware arm must re-attain the SLA strictly faster AND land a
strictly smaller bill, serve zero stale reads, lose zero acknowledged
writes, and leave the diagnosis + evacuation visible on the decision
timeline with its evidence.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.harness import smoke_mode
from repro.metrics.sla import COMPLIANCE_WINDOW_SECONDS
from repro.parallel.executor import run_scenario
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant

SEED = 42


def _scenario():
    spec = next(s for s in STANDARD_SUITE if s.name == "noisy-neighbor-episode")
    return smoke_variant(spec) if smoke_mode() else spec


def _run(spec, placement_aware: bool):
    return run_scenario(spec.with_overrides(**{
        "engine_knobs.contention": {**spec.engine_knobs["contention"],
                                    "placement_aware": placement_aware},
        "engine_knobs.telemetry": True,
    }), SEED)


def _violated_fraction(engine, op: str, spec) -> float:
    windows = [w for w in engine.sla_compliance_windows(op)
               if w.total >= spec.sla_min_window_ops]
    if not windows:
        return 0.0
    violated = sum(1 for w in windows if not w.compliant(spec.sla_percentile))
    return violated / len(windows)


def _recovery_seconds(result, spec) -> float:
    """Seconds from episode onset until the SLA is re-attained for good.

    The episode starts ``fault.at`` seconds after the closed loop starts
    (the run ends at ``start + duration``, so onset is recovered from the
    engine clock); recovery is the end of the last violated qualifying
    read window.  An arm that never recovers scores the full remaining
    run — strictly worse than any arm that does.
    """
    engine = result.engine
    onset = (engine.now - spec.duration) + spec.faults[0].at
    violated = [w for w in engine.sla_compliance_windows("read")
                if w.total >= spec.sla_min_window_ops
                and not w.compliant(spec.sla_percentile)]
    if not violated:
        return 0.0
    last_end = max(w.start for w in violated) + COMPLIANCE_WINDOW_SECONDS
    return max(0.0, last_end - onset)


def run_experiment():
    spec = _scenario()
    placement = _run(spec, placement_aware=True)
    capacity = _run(spec, placement_aware=False)
    return spec, placement, capacity


def test_e16_noisy_neighbor_economics(benchmark, table_printer):
    spec, placement, capacity = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)
    rows = []
    for label, result in (("placement-aware (diagnose + evacuate)", placement),
                          ("capacity-only ablation", capacity)):
        engine = result.engine
        rows.append((
            label,
            f"{engine.pool.total_cost():.2f}",
            f"{_recovery_seconds(result, spec):.0f}",
            f"{_violated_fraction(engine, 'read', spec):.2f}",
            sum(1 for d in engine.timeline.decisions
                if d.observation.contention_suspected),
            engine.controller.evacuation_count(),
            engine.controller.scale_up_count(),
            engine.lost_write_count(),
            engine.stale_read_count(),
        ))
    table_printer(
        "E16 — placement-aware vs capacity-only under a noisy neighbor",
        ["controller", "dollars", "recovery s", "read viol",
         "contention wins", "evacuations", "scale ups",
         "lost writes", "stale reads"],
        rows,
    )
    p_cost = placement.engine.pool.total_cost()
    c_cost = capacity.engine.pool.total_cost()
    p_rec = _recovery_seconds(placement, spec)
    c_rec = _recovery_seconds(capacity, spec)
    print(f"\nplacement-aware re-attained the SLA in {p_rec:.0f}s for "
          f"${p_cost:.2f}; capacity-only took {c_rec:.0f}s and "
          f"${c_cost:.2f} ({capacity.engine.controller.scale_up_count()} "
          "scale-ups that never touched the sick host)")
    if smoke_mode():
        return  # too short for a diagnose-evacuate-recover cycle
    # The shipped arm meets the scenario's windowed SLA policy...
    assert _violated_fraction(placement.engine, "read", spec) \
        <= spec.sla_violation_budget
    assert _violated_fraction(placement.engine, "write", spec) \
        <= (spec.sla_write_violation_budget or spec.sla_violation_budget)
    # ... re-attains strictly faster AND strictly cheaper than the ablation.
    assert p_rec < c_rec, (
        f"placement-aware recovery {p_rec:.0f}s not faster than "
        f"capacity-only {c_rec:.0f}s")
    assert p_cost < c_cost, (
        f"placement-aware bill ${p_cost:.2f} not cheaper than "
        f"capacity-only ${c_cost:.2f}")
    # The ablation demonstrably rented nodes that did not help: it bought
    # more capacity than the placement arm ever did, and still spent longer
    # in violation (the episode is service-side, so the extra fleet cannot
    # absorb it).
    assert capacity.engine.controller.scale_up_count() \
        > placement.engine.controller.scale_up_count()
    assert capacity.engine.controller.evacuation_count() == 0
    # Diagnosis and remediation actually fired on the shipped arm...
    assert any(d.observation.contention_suspected
               for d in placement.engine.timeline.decisions)
    assert placement.engine.controller.evacuation_count() >= 1
    # ... no degraded node ever dropped a write or leaked a stale read ...
    for result in (placement, capacity):
        assert result.engine.lost_write_count() == 0
        assert result.engine.stale_read_count() == 0
    # ... and the whole story is on the decision timeline, with evidence.
    events = placement.engine.timeline.snapshot()["events"]
    kinds = Counter(e["kind"] for e in events)
    for kind in ("contention-diagnosis", "host-evacuate"):
        assert kinds[kind] >= 1, f"timeline missing {kind}"
    diagnosis = next(e for e in events if e["kind"] == "contention-diagnosis")
    assert "residual" in diagnosis["detail"]
