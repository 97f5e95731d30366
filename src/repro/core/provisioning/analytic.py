"""Closed-form analytical fleet sizing: the provisioning planner's backbone.

The pure-ML capacity planner had a structural failure mode: SLA-violation
windows teach the latency model that "nodes never help", after which
inverting it demands capacity without bound.  This module provides the
antidote — an M/G/k-style queueing model that computes a node count in
closed form from three quantities the monitor already measures:

* the arrival rate the cluster must serve (the forecast, cache-discounted),
* the service-time distribution (a calibrated percentile service time), and
* the SLA target (percentile + latency bound, with planning headroom).

The model treats the cluster as ``k`` parallel single-server queues —
routing shards load near-uniformly across nodes, so each node is an
M/G/1-style server at utilisation ``rho = lambda / (k * mu)``.  The
simulated nodes (and most real stores) inflate service times by the
residence factor ``1 / (1 - rho)``, so the SLA-percentile latency at
utilisation ``rho`` is::

    L_p(rho) = rtt + S_p / (1 - rho)

where ``S_p`` is the percentile of the *base* (low-load) service-time
distribution and ``rtt`` the client network round trip.  Inverting
``L_p(rho) <= T`` gives the admissible utilisation in closed form::

    rho* = 1 - S_p / (T - rtt)        k = ceil(lambda_eff / (mu * rho*))

No search, no learned surface to run away on — and every term is
explainable (:meth:`SizingBreakdown.describe` spells the chain out).

Two calibrations keep the closed form honest without opening the door to
runaway, both bounded EWMAs over the monitor's window observations:

* **percentile service time** — each window's observed percentile latency,
  deflated by the measured utilisation, implies a base ``S_p``; the
  estimate may wander only within a configurable band around the analytic
  prior (the log-normal percentile of the node service distribution).
* **demand amplification** — one client operation fans out into several
  storage operations (query dereferences, index maintenance), so measured
  node utilisation implies an effective ops-per-client-op factor; sizing
  multiplies the arrival rate by it, again clamped to a configurable band.

Because both calibrations are clamped, adversarial training windows can
shift the analytical answer by at most a constant factor — the property the
hybrid planner's clamp band then extends to the ML residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ml.performance_model import TARGET_HEADROOM


def normal_quantile(p: float) -> float:
    """The standard normal quantile (probit) via Acklam's approximation.

    Accurate to ~1e-9 over (0, 1); used to turn the SLA percentile into a
    z-score for the log-normal service-time prior without a scipy
    dependency.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


@dataclass(frozen=True)
class SizingBreakdown:
    """The analytical answer plus every term that produced it.

    ``infeasible`` means no node count can meet the latency target — even an
    idle node's percentile service time exceeds it — so ``nodes`` is the
    capacity-stability floor (``rho <= max_stable_utilisation``) rather than
    a latency answer.  Consumers must surface the flag instead of renting
    toward ``max_nodes``; that silent cap is exactly the runaway this model
    exists to kill.
    """

    nodes: int
    infeasible: bool
    arrival_rate: float
    effective_rate: float
    amplification: float
    node_capacity_ops: float
    percentile_service_time: float
    network_round_trip: float
    target_latency: float
    effective_target: float
    admissible_utilisation: float

    def describe(self) -> str:
        """Human-readable "why this many nodes"."""
        if self.infeasible:
            return (
                f"{self.nodes} nodes (INFEASIBLE: percentile service "
                f"{self.percentile_service_time * 1000:.1f} ms + rtt "
                f"{self.network_round_trip * 1000:.1f} ms exceeds the "
                f"{self.effective_target * 1000:.1f} ms effective target at any scale; "
                f"holding the rho<={self.admissible_utilisation:.2f} capacity floor for "
                f"{self.effective_rate:.0f} ops/s)"
            )
        return (
            f"{self.nodes} nodes: {self.arrival_rate:.0f} client ops/s x "
            f"{self.amplification:.2f} amplification = {self.effective_rate:.0f} storage "
            f"ops/s; percentile service {self.percentile_service_time * 1000:.1f} ms / "
            f"(1 - rho) + rtt {self.network_round_trip * 1000:.1f} ms <= "
            f"{self.effective_target * 1000:.1f} ms admits rho* = "
            f"{self.admissible_utilisation:.2f}, so ceil({self.effective_rate:.0f} / "
            f"({self.node_capacity_ops:.0f} x {self.admissible_utilisation:.2f}))"
        )


# Log-sigma of the node service distribution (the simulator's nodes draw
# log-normal service times).
SERVICE_SIGMA = 0.45
# Client<->node round trip added to every request, seconds.
NETWORK_ROUND_TRIP = 0.001
# Never plan a node hotter than this, even when the latency target would
# admit it (queueing estimates are useless at rho -> 1).
MAX_STABLE_UTILISATION = 0.95
# EWMA weight of each window's implied calibration values.
CALIBRATION_ALPHA = 0.25
# Measured storage-ops-per-client-op stays within [1/band, band]; the prior
# is 1.0 (no fan-out).
AMPLIFICATION_BAND = 16.0
# Calibrated percentile service time may move at most this factor away from
# the prior (in either direction) — the bound that makes measurement-driven
# runaway impossible.
CALIBRATION_BAND = 8.0


class AnalyticSizingModel:
    """M/G/k-style closed-form node-count sizing with bounded calibration.

    Args:
        node_capacity_ops: per-node sustainable storage ops/sec (``mu``).
        base_service_time: median node service time at low load (seconds);
            anchors the percentile-service prior.
        percentile: the SLA percentile being sized for (e.g. 99.0).
    """

    def __init__(
        self,
        node_capacity_ops: float,
        base_service_time: float = 0.004,
        percentile: float = 99.0,
    ) -> None:
        if node_capacity_ops <= 0:
            raise ValueError("node_capacity_ops must be positive")
        if base_service_time <= 0:
            raise ValueError("base_service_time must be positive")
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        self.node_capacity_ops = float(node_capacity_ops)
        self.base_service_time = float(base_service_time)
        self.percentile = float(percentile)
        # Prior: percentile of the log-normal base service distribution.
        z = normal_quantile(self.percentile / 100.0)
        self.prior_service_time = self.base_service_time * math.exp(SERVICE_SIGMA * z)
        self._calibrated_service: float | None = None
        self._calibrated_amplification: float | None = None

    # ------------------------------------------------------------- calibration

    def observe_window(self, features, observed_percentile_latency: float) -> None:
        """Fold one closed monitor window into the bounded calibrations.

        ``features`` is a :class:`~repro.ml.features.WorkloadFeatures` (or
        anything with ``request_rate``, ``node_count``, ``mean_utilisation``)
        describing the cluster-side window; ``observed_percentile_latency``
        is the window's measured SLA-percentile latency.
        """
        if not math.isfinite(observed_percentile_latency) or observed_percentile_latency <= 0:
            return
        rho = min(max(float(features.mean_utilisation), 0.0), MAX_STABLE_UTILISATION)
        implied_service = (observed_percentile_latency - NETWORK_ROUND_TRIP) * (1.0 - rho)
        lo = self.prior_service_time / CALIBRATION_BAND
        hi = self.prior_service_time * CALIBRATION_BAND
        implied_service = min(max(implied_service, lo), hi)
        alpha = CALIBRATION_ALPHA
        if self._calibrated_service is None:
            self._calibrated_service = implied_service
        else:
            self._calibrated_service += alpha * (implied_service - self._calibrated_service)

        # Demand amplification: measured node work over client-op arrivals.
        rate = float(features.request_rate)
        if rate > 0 and features.node_count > 0:
            implied_amp = (float(features.mean_utilisation) * float(features.node_count)
                           * self.node_capacity_ops) / rate
            implied_amp = min(max(implied_amp, 1.0 / AMPLIFICATION_BAND),
                              AMPLIFICATION_BAND)
            if self._calibrated_amplification is None:
                self._calibrated_amplification = implied_amp
            else:
                self._calibrated_amplification += alpha * (
                    implied_amp - self._calibrated_amplification)

    def percentile_service_time(self) -> float:
        """Current percentile-service estimate (calibrated, else the prior)."""
        if self._calibrated_service is None:
            return self.prior_service_time
        return self._calibrated_service

    def amplification(self) -> float:
        """Current storage-ops-per-client-op estimate (1.0 until calibrated)."""
        if self._calibrated_amplification is None:
            return 1.0
        return self._calibrated_amplification

    # ---------------------------------------------------------------- sizing

    def required_nodes(
        self,
        arrival_rate: float,
        target_latency: float,
        max_nodes: int = 10_000,
    ) -> SizingBreakdown:
        """Closed-form node count meeting the SLA (tightened by
        ``TARGET_HEADROOM``), with its full breakdown.

        Monotone by construction: non-decreasing in ``arrival_rate`` and
        non-increasing in ``node_capacity_ops`` (property-tested in
        ``tests/test_planner_backends.py``).
        """
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if target_latency <= 0:
            raise ValueError("target_latency must be positive")
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        effective_target = target_latency * TARGET_HEADROOM
        service = self.percentile_service_time()
        amplification = self.amplification()
        effective_rate = arrival_rate * amplification

        queue_budget = effective_target - NETWORK_ROUND_TRIP
        infeasible = queue_budget <= service
        if infeasible:
            # Even an idle node misses the target; renting more cannot fix
            # latency, so hold the capacity-stability floor and say so.
            rho_star = MAX_STABLE_UTILISATION
        else:
            rho_star = min(1.0 - service / queue_budget, MAX_STABLE_UTILISATION)
        nodes = 1 if effective_rate == 0 else int(
            math.ceil(effective_rate / (self.node_capacity_ops * rho_star)))
        nodes = min(max(nodes, 1), max_nodes)
        return SizingBreakdown(
            nodes=nodes,
            infeasible=infeasible,
            arrival_rate=arrival_rate,
            effective_rate=effective_rate,
            amplification=amplification,
            node_capacity_ops=self.node_capacity_ops,
            percentile_service_time=service,
            network_round_trip=NETWORK_ROUND_TRIP,
            target_latency=target_latency,
            effective_target=effective_target,
            admissible_utilisation=rho_star,
        )
