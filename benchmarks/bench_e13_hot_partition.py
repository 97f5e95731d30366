"""E13 — hot-partition repair: split+migrate vs. renting replica groups.

Section 2.1's elasticity argument assumes repartitioning is cheap enough to
do continuously.  This benchmark stresses the complementary claim: when load
is *skewed* rather than merely large, fine-grained repartitioning beats
whole-group scaling on both data movement and dollars.

A Zipf workload concentrates on a contiguous "celebrity block" of users at
the front of one replica group's range (hot partition), while the cluster as
a whole has plenty of headroom.  Two identically-seeded systems respond:

* **split+migrate** — the hot-partition rebalancer splits the hot range at
  its tracked-load median and live-migrates only the hot keys to cold
  groups, renting nothing unless placement alone cannot fix the skew;
* **add-group baseline** — the provisioning loop rents whole replica groups;
  each new group takes half of the busiest group's keyspace (stored-key
  median — load-oblivious), so it must bisect its way to the hot keys.

Both must re-attain the read SLA; the repartitioner must do it with strictly
fewer keys moved and strictly fewer dollars billed.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Scads
from repro.core.schema import EntitySchema, Field
from repro.experiments.harness import (
    SCALED_DOWN_INSTANCE,
    default_spec,
    smoke_mode,
    smoke_scaled,
)

N_USERS = 240
ZIPF_S = 1.15           # rank-frequency exponent; rank 1 is ~20% of traffic
RATE = 150.0            # offered ops/sec (90% reads, 10% writes)
WRITE_FRACTION = 0.1
DURATION = smoke_scaled(1200.0, 120.0)
CONTROL_INTERVAL = 30.0
FINAL_WINDOWS = 5       # SLA must hold in a majority of the last windows


def run_system(repartition: bool, seed: int = 7) -> Scads:
    """One closed-loop run; ``repartition`` toggles the rebalancer."""
    engine = Scads(
        seed=seed,
        consistency=default_spec(latency=0.250),
        instance_type=SCALED_DOWN_INSTANCE,
        replication_factor=3,
        initial_groups=4,
        min_groups=4,
        autoscale=True,
        predictive_scaling=False,   # isolate the repartition-vs-rent choice
        control_interval=CONTROL_INTERVAL,
        max_instances=24,
        partitioner_kind="range",
        cache=False,  # isolate repartitioning from the (default-on) cache tier
        repartition=repartition,
        repartition_hot_utilisation=0.3,
        repartition_cold_utilisation=0.2,
    )
    # E13 studies the scale-up economics of skew; scale-down churn (E6's
    # topic) would re-concentrate ranges mid-experiment, so park it, and
    # rent at most one group per window so both systems act incrementally.
    engine.controller.scale_down_patience = 10 ** 6
    engine.controller.max_groups_per_step = 1
    if engine.rebalancer is not None:
        # Calibrated for this scale: a group stays SLA-comfortable up to ~26%
        # mean utilisation (the write path concentrates on primaries).
        engine.rebalancer.receiver_target_utilisation = 0.26

    engine.register_entity(EntitySchema(
        "profiles", key_fields=[Field("user_id")], value_fields=[Field("bio")],
    ))
    tokens = [f"u{i:03d}" for i in range(N_USERS)]
    quarter = N_USERS // 4
    engine.cluster.partitioner.set_splits(
        ["", tokens[quarter], tokens[2 * quarter], tokens[3 * quarter]],
        ["group-0", "group-1", "group-2", "group-3"],
    )
    for token in tokens:
        engine.put("profiles", {"user_id": token, "bio": f"bio of {token}"})
    engine.settle(5.0)

    # Zipf by token order: u000 is the hottest user, u001 the next, ... — a
    # contiguous celebrity block at the front of group-0's range.
    ranks = np.arange(1, N_USERS + 1)
    probabilities = 1.0 / ranks ** ZIPF_S
    probabilities /= probabilities.sum()
    rng = engine.sim.random.get("bench-e13")

    def issue() -> None:
        user = tokens[int(rng.choice(N_USERS, p=probabilities))]
        if rng.random() < WRITE_FRACTION:
            engine.put("profiles", {"user_id": user, "bio": f"update@{engine.now:.0f}"})
        else:
            engine.get("profiles", (user,))
        engine.sim.schedule(float(rng.exponential(1.0 / RATE)), issue, name="zipf-load")

    engine.start()
    engine.sim.schedule(0.0, issue, name="zipf-load")
    engine.run_for(DURATION)
    return engine


def sla_reattained(engine: Scads) -> bool:
    """Read SLA satisfied in a majority of the final closed windows."""
    recent = engine.timeline.decisions[-FINAL_WINDOWS:]
    ok = sum(1 for d in recent if d.observation.sla_reports["read"].satisfied)
    return ok > len(recent) // 2


def run_experiment():
    return run_system(repartition=True), run_system(repartition=False)


def test_e13_split_migrate_beats_add_group(benchmark, table_printer):
    with_rebalancer, add_group_only = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    rows = []
    for label, engine in (("split+migrate (rebalancer)", with_rebalancer),
                          ("add-group baseline", add_group_only)):
        cluster = engine.cluster
        rows.append((
            label,
            cluster.keys_moved_total,
            cluster.splits_total,
            cluster.migrations_total,
            engine.controller.repartition_count(),
            engine.controller.scale_up_count(),
            cluster.group_count(),
            f"{engine.cost_so_far():.2f}",
            sla_reattained(engine),
        ))
    table_printer(
        "E13 — Zipf hotspot: keys moved and dollars to re-attain the read SLA",
        ["system", "keys moved", "splits", "migrations", "repartitions",
         "scale-ups", "final groups", "dollars", "SLA re-attained"],
        rows,
    )
    moved_ratio = (add_group_only.cluster.keys_moved_total
                   / max(with_rebalancer.cluster.keys_moved_total, 1))
    cost_ratio = add_group_only.cost_so_far() / max(with_rebalancer.cost_so_far(), 1e-9)
    print(f"\nsplit+migrate moved {moved_ratio:.1f}x fewer keys and billed "
          f"{cost_ratio:.1f}x fewer dollars than renting groups")

    if smoke_mode():
        return  # smoke sweeps check the loop runs; the economics need full time
    assert with_rebalancer.controller.repartition_count() >= 1
    assert sla_reattained(with_rebalancer)
    assert sla_reattained(add_group_only)
    assert (with_rebalancer.cluster.keys_moved_total
            < add_group_only.cluster.keys_moved_total)
    assert with_rebalancer.cost_so_far() < add_group_only.cost_so_far()
