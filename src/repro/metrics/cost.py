"""Cost reporting helpers tying cloud billing to workload volume.

The paper defines scaling as "servicing more (or fewer) users while keeping
the cost per user constant", so experiment output needs cost per user and
cost per request alongside raw machine-hours.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostReport:
    """Cost summary for one experiment run."""

    machine_hours: float
    dollars: float
    requests_served: int
    peak_instances: int
    mean_instances: float

    def cost_per_request(self) -> float:
        """Dollars per request served (0 if no requests were served)."""
        if self.requests_served == 0:
            return 0.0
        return self.dollars / self.requests_served

    def cost_per_million_requests(self) -> float:
        """Dollars per million requests — the unit used in EXPERIMENTS.md."""
        return self.cost_per_request() * 1_000_000

    def merge(self, other: "CostReport") -> "CostReport":
        """Combine the bills of two independent runs (or grid cells).

        Machine-hours, dollars, and request counts are additive.  Peak
        instances is the max (the runs did not share a cluster, so the
        interesting peak is the worst single run's).  Mean instances is
        weighted by machine-hours — instance-count integrated over time is
        what machine-hours measures, so this reproduces the mean over the
        combined machine-time.
        """
        hours = self.machine_hours + other.machine_hours
        if hours > 0:
            mean = (self.mean_instances * self.machine_hours
                    + other.mean_instances * other.machine_hours) / hours
        else:
            mean = (self.mean_instances + other.mean_instances) / 2.0
        return CostReport(
            machine_hours=hours,
            dollars=self.dollars + other.dollars,
            requests_served=self.requests_served + other.requests_served,
            peak_instances=max(self.peak_instances, other.peak_instances),
            mean_instances=mean,
        )
