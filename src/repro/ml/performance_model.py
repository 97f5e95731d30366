"""Performance models trained online from the system's own measurements.

Two models close the paper's provisioning feedback loop:

* :class:`LatencyPercentileModel` — maps workload/configuration features to
  the observed latency at the SLA percentile.  The capacity planner inverts
  it ("how many nodes keep the predicted percentile under the target?").
* :class:`PropagationLagModel` — maps update-queue pressure to observed
  replication/index-propagation lag, used to provision for wall-clock
  staleness bounds.

Both start from a conservative analytic prior (an M/M/1-shaped curve) so the
system behaves sensibly before it has gathered any training windows, then
switch to the learned model once enough observations exist.

Training is bounded on both axes: observations live in a sliding window of
the most recent ``max_training_windows`` measurements (stale regimes age
out, memory stays O(window) over arbitrarily long runs), and refits happen
on a ``retrain_every`` cadence rather than per observation (refitting per
window is O(n^2) work over a run).

The planner no longer trusts this model unconditionally: in the default
``hybrid`` backend (see :mod:`repro.core.provisioning.planner`) its answer
is a *bounded residual* clamped to a band around the closed-form analytical
answer, so mistaught training windows cannot demand capacity without bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from repro.ml.ensemble import EnsembleModel
from repro.ml.features import WorkloadFeatures
from repro.ml.knn import KNNRegressor
from repro.ml.regression import QuantileRegressionModel, RidgeRegressionModel

# Plans size for this share of the latency target, leaving margin for model
# error: the provisioning loop's "don't sail exactly at the SLA" margin.
TARGET_HEADROOM = 0.85


@dataclass(frozen=True)
class NodeRequirement:
    """Result of inverting the latency model for a target.

    ``feasible=False`` means no node count within ``max_nodes`` met the
    target — ``nodes`` is then the ``max_nodes`` cap itself and callers must
    treat it as "the model says scaling cannot fix this", not as a sizing
    answer.  (The old API returned the cap silently, which is how the
    latency-model runaway rented toward ``max_nodes`` unnoticed.)
    """

    nodes: int
    feasible: bool


class LatencyPercentileModel:
    """Predicts the SLA-percentile latency for a candidate configuration.

    Args:
        base_service_time: node service time at low load (seconds); anchors
            the analytic prior.
        node_capacity_ops: per-node sustainable ops/sec; anchors the prior's
            utilisation term.
        percentile: the SLA percentile being modelled (e.g. 99.9).
    """

    # Tail inflation of the percentile over the median for a log-normal-ish
    # service distribution; only used by the analytic prior.
    PRIOR_TAIL_FACTOR = 4.0
    # Observations required before trusting the learned model over the prior.
    min_training_windows = 8
    # Refit cadence, in observations.
    retrain_every = 4
    # Sliding-window bound on retained observations.
    max_training_windows = 512

    def __init__(
        self,
        base_service_time: float = 0.004,
        node_capacity_ops: float = 1000.0,
        percentile: float = 99.9,
    ) -> None:
        if base_service_time <= 0 or node_capacity_ops <= 0:
            raise ValueError("base_service_time and node_capacity_ops must be positive")
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        self.base_service_time = base_service_time
        self.node_capacity_ops = node_capacity_ops
        self.percentile = percentile
        self._features: Deque[np.ndarray] = deque(maxlen=self.max_training_windows)
        self._targets: Deque[float] = deque(maxlen=self.max_training_windows)
        self._model: Optional[EnsembleModel] = None
        self._observations_since_fit = 0

    # -------------------------------------------------------------- observation

    def observe(self, features: WorkloadFeatures, observed_percentile_latency: float) -> None:
        """Record one closed window's features and measured percentile latency."""
        if observed_percentile_latency < 0:
            raise ValueError("latency must be non-negative")
        if not math.isfinite(observed_percentile_latency):
            # Windows with no successful requests report infinite latency;
            # they carry no signal about the latency-vs-load surface.
            return
        self._features.append(features.as_vector())
        self._targets.append(float(observed_percentile_latency))
        self._observations_since_fit += 1
        if (
            len(self._targets) >= self.min_training_windows
            and self._observations_since_fit >= self.retrain_every
        ):
            self._fit()

    def _fit(self) -> None:
        members = [
            RidgeRegressionModel(alpha=1.0),
            QuantileRegressionModel(quantile=min(self.percentile / 100.0, 0.995),
                                    iterations=200),
            KNNRegressor(k=5),
        ]
        model = EnsembleModel(members)
        model.fit(list(self._features), list(self._targets))
        self._model = model
        self._observations_since_fit = 0

    # --------------------------------------------------------------- prediction

    def prior_prediction(self, per_node_rate: float) -> float:
        """Analytic prior: M/M/1-shaped percentile latency vs. per-node load."""
        utilisation = min(per_node_rate / self.node_capacity_ops, 0.99)
        return self.base_service_time * self.PRIOR_TAIL_FACTOR / (1.0 - utilisation)

    def predict(self, features: WorkloadFeatures) -> float:
        """Predicted SLA-percentile latency for the given configuration."""
        if self._model is None:
            return self.prior_prediction(features.per_node_rate)
        learned = float(self._model.predict_one(features.as_vector()))
        # The learned model can extrapolate below physical service time when
        # asked about configurations far from anything observed; floor it.
        return max(learned, self.base_service_time)

    def _candidate_features(self, predicted_rate: float, write_fraction: float,
                            nodes: int, pending_updates: int) -> WorkloadFeatures:
        """The feature vector of a candidate configuration at ``nodes``."""
        utilisation = min(predicted_rate / (nodes * self.node_capacity_ops), 0.99)
        return WorkloadFeatures(
            request_rate=predicted_rate,
            write_fraction=write_fraction,
            node_count=float(nodes),
            per_node_rate=predicted_rate / nodes,
            mean_utilisation=utilisation,
            max_utilisation=min(utilisation * 1.2, 0.99),
            pending_updates=float(pending_updates),
        )

    def required_nodes_search(
        self,
        predicted_rate: float,
        write_fraction: float,
        target_latency: float,
        max_nodes: int = 10_000,
        pending_updates: int = 0,
    ) -> NodeRequirement:
        """Smallest node count whose predicted percentile latency meets the SLA
        (tightened by ``TARGET_HEADROOM``).

        The search is a monotone bisection over the capacity-feasible range
        ``[ceil(rate / capacity), max_nodes]`` — O(log max_nodes) predictions
        instead of the old O(max_nodes) linear scan.  Predicted latency is
        assumed non-increasing in the node count (true of the prior and of
        any physically sensible learned surface; where a mistaught model
        violates it, bisection still terminates and the hybrid planner's
        clamp band bounds the damage).  When not even ``max_nodes`` meets
        the target the result carries ``feasible=False`` instead of the old
        silent cap.
        """
        if predicted_rate < 0:
            raise ValueError("predicted_rate must be non-negative")
        if target_latency <= 0:
            raise ValueError("target_latency must be positive")
        effective_target = target_latency * TARGET_HEADROOM
        if predicted_rate == 0:
            return NodeRequirement(nodes=1, feasible=True)

        def meets(nodes: int) -> bool:
            features = self._candidate_features(
                predicted_rate, write_fraction, nodes, pending_updates)
            return self.predict(features) <= effective_target

        # Lower bound from raw capacity so the search starts in a sane place.
        lower = max(int(math.ceil(predicted_rate / self.node_capacity_ops)), 1)
        if lower > max_nodes or not meets(max_nodes):
            return NodeRequirement(nodes=max_nodes, feasible=False)
        low, high = lower, max_nodes
        while low < high:
            mid = (low + high) // 2
            if meets(mid):
                high = mid
            else:
                low = mid + 1
        return NodeRequirement(nodes=low, feasible=True)


class PropagationLagModel:
    """Predicts index/replica propagation lag from update-queue pressure.

    Like the latency model, training is bounded: a sliding window of the
    most recent ``max_training_windows`` observations, refit every
    ``retrain_every`` observations.
    """

    min_training_windows = 6
    retrain_every = 4
    max_training_windows = 512

    def __init__(self) -> None:
        self._features: Deque[list] = deque(maxlen=self.max_training_windows)
        self._targets: Deque[float] = deque(maxlen=self.max_training_windows)
        self._model: Optional[RidgeRegressionModel] = None
        self._observations_since_fit = 0

    def observe(self, pending_updates: int, per_node_rate: float, observed_lag: float) -> None:
        """Record one window's queue depth, per-node load, and measured lag."""
        if observed_lag < 0:
            raise ValueError("lag must be non-negative")
        self._features.append([float(pending_updates), float(per_node_rate)])
        self._targets.append(float(observed_lag))
        self._observations_since_fit += 1
        if (
            len(self._targets) >= self.min_training_windows
            and self._observations_since_fit >= self.retrain_every
        ):
            self._model = RidgeRegressionModel(alpha=1.0).fit(
                list(self._features), list(self._targets))
            self._observations_since_fit = 0

    def predict(self, pending_updates: int, per_node_rate: float) -> float:
        """Predicted propagation lag (seconds) for the given pressure.

        Before training, returns a conservative prior proportional to queue
        depth (each pending update is assumed to take a few milliseconds).
        """
        if self._model is None:
            return 0.005 * float(pending_updates) + 0.01
        predicted = self._model.predict_one([float(pending_updates), float(per_node_rate)])
        return max(float(predicted), 0.0)

    def danger(self, pending_updates: int, per_node_rate: float, staleness_bound: float) -> bool:
        """True when predicted lag is within 20 % of the declared staleness bound."""
        if staleness_bound <= 0:
            raise ValueError("staleness_bound must be positive")
        return self.predict(pending_updates, per_node_rate) >= 0.8 * staleness_bound
