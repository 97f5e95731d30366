"""E15 — mixed spot/on-demand fleet economics under an interruption storm.

Section 2.1's utility-computing premise says capacity should be bought
where it is cheapest; the spot market sells interruptible capacity at a
steep discount in exchange for a two-minute revocation notice.  The fleet
policy under test keeps every durable quorum member on-demand and buys
*surge read replicas* spot-first with automatic on-demand fallback, so
revocation can never touch a write quorum.

Two identically-seeded runs of the grid's ``spot-interruption-storm``
scenario (viral ramp + a mid-ramp capacity drought with correlated
revocation notices):

* **mixed fleet** — the scenario as shipped: spot surge, graceful drain
  to hibernation on notice, resume instead of cold re-copy;
* **all on-demand** — same trace, same controller, spot disabled.  The
  storm is stripped from this arm: a spot-market drought is a no-op
  against a fleet that holds no spot capacity.

The mixed fleet must land a strictly smaller bill while both arms meet
the scenario's windowed SLA policy (equal compliance, cheaper dollars),
lose zero acknowledged writes, serve zero stale reads, and leave the
whole drain/hibernate story visible on the decision timeline.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.harness import smoke_mode
from repro.parallel.executor import run_scenario
from repro.parallel.scenarios import STANDARD_SUITE, smoke_variant

SEED = 42


def _scenario():
    spec = next(s for s in STANDARD_SUITE if s.name == "spot-interruption-storm")
    return smoke_variant(spec) if smoke_mode() else spec


def _run(spec, spot: bool):
    return run_scenario(spec.with_overrides(**{
        "engine_knobs.spot": spot,
        "engine_knobs.telemetry": True,
        "faults": spec.faults if spot else (),
    }), SEED)


def _violated_fraction(engine, op: str, spec) -> float:
    windows = [w for w in engine.sla_compliance_windows(op)
               if w.total >= spec.sla_min_window_ops]
    if not windows:
        return 0.0
    violated = sum(1 for w in windows if not w.compliant(spec.sla_percentile))
    return violated / len(windows)


def run_experiment():
    spec = _scenario()
    mixed = _run(spec, spot=True)
    on_demand = _run(spec, spot=False)
    return spec, mixed, on_demand


def test_e15_mixed_fleet_economics(benchmark, table_printer):
    spec, mixed, on_demand = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1)
    rows = []
    for label, result in (("mixed fleet (spot surge + storm)", mixed),
                          ("all on-demand", on_demand)):
        engine = result.engine
        split = engine.pool.cost_by_purchase_option()
        fleet = engine.spot_fleet
        rows.append((
            label,
            f"{engine.pool.total_cost():.2f}",
            f"{split.get('spot', 0.0):.3f}",
            f"{_violated_fraction(engine, 'read', spec):.2f}",
            f"{_violated_fraction(engine, 'write', spec):.2f}",
            fleet.surge_count() if fleet else 0,
            dict(Counter(r.outcome for r in fleet.records())) if fleet else {},
            engine.lost_write_count(),
            engine.stale_read_count(),
        ))
    table_printer(
        "E15 — spot surge vs all on-demand under an interruption storm",
        ["fleet", "dollars", "spot $", "read viol", "write viol",
         "surge", "interruption outcomes", "lost writes", "stale reads"],
        rows,
    )
    mixed_cost = mixed.engine.pool.total_cost()
    od_cost = on_demand.engine.pool.total_cost()
    print(f"\nmixed fleet billed ${mixed_cost:.2f} vs ${od_cost:.2f} "
          f"all on-demand ({(1 - mixed_cost / od_cost) * 100:.0f}% saved) "
          f"through a {spec.faults[0].duration:.0f}s capacity drought")
    if smoke_mode():
        return  # the smoke ramp is too short for drains to complete
    # Equal SLA compliance: both arms meet the scenario's windowed policy.
    for result in (mixed, on_demand):
        assert _violated_fraction(result.engine, "read", spec) \
            <= spec.sla_violation_budget
        assert _violated_fraction(result.engine, "write", spec) \
            <= (spec.sla_write_violation_budget or spec.sla_violation_budget)
    # ... and the mixed fleet is strictly cheaper.
    assert mixed_cost < od_cost
    # Robustness: revocation cost the fleet no acknowledged writes and no
    # staleness-bound violations, and the drains completed as hibernations.
    assert mixed.engine.lost_write_count() == 0
    assert mixed.engine.stale_read_count() == 0
    outcomes = Counter(r.outcome for r in mixed.engine.spot_fleet.records())
    assert outcomes.get("hibernated", 0) >= 1
    # The whole story is on the decision timeline.
    kinds = Counter(
        e["kind"] for e in mixed.engine.timeline.snapshot()["events"])
    for kind in ("spot-bid", "spot-notice", "spot-drain", "spot-hibernate"):
        assert kinds[kind] >= 1, f"timeline missing {kind}"
