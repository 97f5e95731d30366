"""Tests for the planner's three latency-sizing backends and the runaway
regression.

The headline regression: adversarial training windows ("more nodes, same
bad latency") used to teach the ML latency model that capacity never helps,
after which inverting it demanded ``max_nodes`` — the controller then rented
the whole pool (E6's bill explosion).  The hybrid backend makes that
structurally impossible: whatever the ML model learned, the plan stays
within the clamp band of the analytical answer.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistency.spec import ConsistencySpec, PerformanceSLA
from repro.core.provisioning.analytic import (
    AnalyticSizingModel,
    SizingBreakdown,
    normal_quantile,
)
from repro.core.provisioning.planner import (
    PLANNER_BACKENDS,
    CapacityPlanner,
    hybrid_band,
)
from repro.ml.features import WorkloadFeatures
from repro.ml.performance_model import (
    LatencyPercentileModel,
    NodeRequirement,
    PropagationLagModel,
)

pytestmark = pytest.mark.tier1

SPEC = ConsistencySpec()
SLAS = {"read": PerformanceSLA(percentile=99.0, latency=0.1)}


def features_for(rate: float, nodes: int, capacity: float = 1000.0) -> WorkloadFeatures:
    utilisation = min(rate / (nodes * capacity), 0.99)
    return WorkloadFeatures(
        request_rate=rate,
        write_fraction=0.1,
        node_count=float(nodes),
        per_node_rate=rate / nodes,
        mean_utilisation=utilisation,
        max_utilisation=utilisation,
    )


def poisoned_latency_model(capacity: float = 1000.0) -> LatencyPercentileModel:
    """A model taught the runaway lesson: more nodes, same bad latency."""
    model = LatencyPercentileModel(node_capacity_ops=capacity, percentile=99.0)
    model.retrain_every = 1
    for nodes in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
        # Latency stays far above any plausible SLA no matter the node count.
        model.observe(features_for(5000.0, nodes, capacity), 1.5)
    assert model._model is not None  # noqa: SLF001 - trained
    return model


class TestRunawayRegression:
    def test_poisoned_ml_alone_demands_the_whole_pool(self):
        """Contrast case: the pre-clamp behaviour still runs away."""
        model = poisoned_latency_model()
        search = model.required_nodes_search(
            predicted_rate=5000.0, write_fraction=0.1,
            target_latency=0.1, max_nodes=10_000)
        assert not search.feasible
        assert search.nodes == 10_000

    def test_hybrid_plan_stays_in_clamp_band_under_poisoning(self):
        model = poisoned_latency_model()
        sizing = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        planner = CapacityPlanner(
            model, PropagationLagModel(), node_capacity_ops=1000.0,
            min_nodes=2, max_nodes=10_000, backend="hybrid",
            sizing_model=sizing,
        )
        plan = planner.plan(5000.0, 0.1, SLAS, SPEC)
        analytic = sizing.required_nodes(
            arrival_rate=5000.0, target_latency=SLAS["read"].latency).nodes
        low = max(int(math.floor(analytic * 0.7)), 1)
        high = max(int(math.ceil(analytic * 1.3)), 1)
        assert hybrid_band(analytic) == (low, high)
        assert plan.analytic_nodes == analytic
        assert low <= plan.latency_required_nodes <= max(high, planner.min_nodes)
        assert plan.ml_clamped
        assert plan.ml_nodes == 10_000  # the raw ML answer was the runaway
        assert plan.target_nodes < 100  # nowhere near the pool

    def test_clamped_plan_reason_mentions_the_clamp(self):
        model = poisoned_latency_model()
        planner = CapacityPlanner(
            model, PropagationLagModel(), node_capacity_ops=1000.0,
            min_nodes=2, max_nodes=10_000, backend="hybrid")
        plan = planner.plan(5000.0, 0.1, SLAS, SPEC)
        assert "clamped" in plan.reason

    def test_infeasible_target_surfaces_in_reason(self):
        planner = CapacityPlanner(
            LatencyPercentileModel(node_capacity_ops=1000.0, percentile=99.0),
            PropagationLagModel(), node_capacity_ops=1000.0,
            min_nodes=2, max_nodes=500, backend="analytical")
        # 1 ms target is below even an idle node's percentile service time.
        slas = {"read": PerformanceSLA(percentile=99.0, latency=0.001)}
        plan = planner.plan(5000.0, 0.1, slas, SPEC)
        assert plan.latency_infeasible
        assert "infeasible" in plan.reason.lower()
        # The capacity-stability floor, not the max_nodes runaway.
        assert plan.target_nodes < 100


def planner_for(kind: str, max_nodes: int = 500) -> CapacityPlanner:
    return CapacityPlanner(
        LatencyPercentileModel(node_capacity_ops=1000.0, percentile=99.0),
        PropagationLagModel(), node_capacity_ops=1000.0, min_nodes=1,
        max_nodes=max_nodes, backend=kind,
        sizing_model=AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0))


class TestPlannerBackends:
    def test_three_backends_constructible(self):
        for kind in PLANNER_BACKENDS:
            plan = planner_for(kind).plan(5000.0, 0.1, SLAS, SPEC)
            assert plan.backend == kind
            # A backend consults exactly the models its name says.
            assert (plan.analytic_nodes is None) == (kind == "ml")
            assert (plan.ml_nodes is None) == (kind == "analytical")
            assert plan.latency_detail

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            planner_for("oracle")

    def test_untrained_backends_roughly_agree(self):
        """Before training, the ML prior and the analytical model describe
        the same simulator, so their answers should be close."""
        answers = {kind: planner_for(kind).plan(5000.0, 0.1, SLAS, SPEC)
                   .latency_required_nodes for kind in PLANNER_BACKENDS}
        assert abs(answers["analytical"] - answers["ml"]) <= 3
        low, high = hybrid_band(answers["analytical"])
        assert low <= answers["hybrid"] <= high

    def test_hybrid_band_never_below_one_node(self):
        low, high = hybrid_band(1)
        assert low >= 1 and high >= 1


class TestAnalyticSizingModel:
    def test_breakdown_describe_is_explainable(self):
        model = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        breakdown = model.required_nodes(arrival_rate=5000.0, target_latency=0.15)
        assert isinstance(breakdown, SizingBreakdown)
        text = breakdown.describe()
        assert "ops/s" in text and "rho" in text
        assert str(breakdown.nodes) in text

    def test_infeasible_flag_when_target_below_service_time(self):
        model = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        breakdown = model.required_nodes(arrival_rate=5000.0, target_latency=0.001)
        assert breakdown.infeasible
        assert "INFEASIBLE" in breakdown.describe()
        # Holds the capacity floor rather than exploding to max_nodes.
        assert breakdown.nodes <= math.ceil(5000.0 / (1000.0 * 0.95)) + 1

    def test_calibration_is_bounded(self):
        """Even absurd observed latencies move the service estimate at most
        CALIBRATION_BAND away from the prior — runaway-proof calibration."""
        model = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        for _ in range(200):
            model.observe_window(features_for(5000.0, 8), 500.0)  # 500 s "latency"
        assert model.percentile_service_time() <= model.prior_service_time * 8.0
        for _ in range(200):
            model.observe_window(features_for(5000.0, 8), 1e-9)
        assert model.percentile_service_time() >= model.prior_service_time / 8.0

    def test_amplification_learns_fanout(self):
        """Nodes busier than the client rate explains imply fan-out > 1."""
        model = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        # 1000 client ops/s but 8 nodes at 50% of 1000 ops/s = 4000 storage ops/s.
        window = WorkloadFeatures(
            request_rate=1000.0, write_fraction=0.1, node_count=8.0,
            per_node_rate=125.0, mean_utilisation=0.5, max_utilisation=0.6)
        for _ in range(50):
            model.observe_window(window, 0.02)
        assert model.amplification() == pytest.approx(4.0, rel=0.05)
        sized = model.required_nodes(arrival_rate=1000.0, target_latency=0.15)
        unsized = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        assert sized.nodes > unsized.required_nodes(1000.0, 0.15).nodes

    def test_normal_quantile_matches_known_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-8)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        assert normal_quantile(0.99) == pytest.approx(2.326348, abs=1e-4)
        with pytest.raises(ValueError):
            normal_quantile(0.0)

    @pytest.mark.property
    @settings(deadline=None)
    @given(
        rate_a=st.floats(min_value=0.0, max_value=1e6),
        rate_b=st.floats(min_value=0.0, max_value=1e6),
        target=st.floats(min_value=0.002, max_value=10.0),
    )
    def test_required_nodes_monotone_in_rate(self, rate_a, rate_b, target):
        """Analytical sizing is non-decreasing in the arrival rate."""
        model = AnalyticSizingModel(node_capacity_ops=1000.0, percentile=99.0)
        low, high = sorted((rate_a, rate_b))
        assert (model.required_nodes(low, target).nodes
                <= model.required_nodes(high, target).nodes)

    @pytest.mark.property
    @settings(deadline=None)
    @given(
        cap_a=st.floats(min_value=10.0, max_value=1e5),
        cap_b=st.floats(min_value=10.0, max_value=1e5),
        rate=st.floats(min_value=0.0, max_value=1e6),
        target=st.floats(min_value=0.002, max_value=10.0),
    )
    def test_required_nodes_monotone_in_capacity(self, cap_a, cap_b, rate, target):
        """More capable nodes never require a larger fleet."""
        low, high = sorted((cap_a, cap_b))
        small = AnalyticSizingModel(node_capacity_ops=high, percentile=99.0)
        large = AnalyticSizingModel(node_capacity_ops=low, percentile=99.0)
        assert (small.required_nodes(rate, target).nodes
                <= large.required_nodes(rate, target).nodes)


class TestBisectionSearch:
    def test_matches_linear_scan_on_the_prior(self):
        """Bisection must agree with the old exhaustive scan."""
        model = LatencyPercentileModel(node_capacity_ops=1000.0, percentile=99.0)
        for rate in (100.0, 1000.0, 5000.0, 20_000.0):
            for target in (0.05, 0.1, 0.5):
                search = model.required_nodes_search(
                    predicted_rate=rate, write_fraction=0.1,
                    target_latency=target, max_nodes=200)
                effective = target * 0.85
                linear = None
                for nodes in range(1, 201):
                    candidate = model._candidate_features(rate, 0.1, nodes, 0)
                    if model.predict(candidate) <= effective:
                        linear = nodes
                        break
                if linear is None:
                    assert not search.feasible and search.nodes == 200
                else:
                    assert search.feasible and search.nodes == linear

    def test_infeasible_flag_instead_of_silent_cap(self):
        model = LatencyPercentileModel(node_capacity_ops=1000.0, percentile=99.0)
        result = model.required_nodes_search(
            predicted_rate=1000.0, write_fraction=0.1,
            target_latency=0.001, max_nodes=500)
        assert isinstance(result, NodeRequirement)
        assert not result.feasible
        assert result.nodes == 500

    def test_zero_rate_is_one_node(self):
        model = LatencyPercentileModel(node_capacity_ops=1000.0)
        result = model.required_nodes_search(
            predicted_rate=0.0, write_fraction=0.0, target_latency=0.1)
        assert result == NodeRequirement(nodes=1, feasible=True)


class TestBoundedTraining:
    def test_latency_model_training_window_is_bounded(self):
        model = LatencyPercentileModel(node_capacity_ops=1000.0)
        model.retrain_every = 10 ** 9  # the bound, not the fits, is under test
        for i in range(model.max_training_windows + 88):
            model.observe(features_for(100.0 * (i + 1), 4), 0.02)
        assert len(model._targets) == model.max_training_windows

    def test_lag_model_training_window_is_bounded(self):
        model = PropagationLagModel()
        for i in range(model.max_training_windows + 88):
            model.observe(i, per_node_rate=100.0, observed_lag=0.01 * i)
        assert len(model._targets) == model.max_training_windows

    def test_lag_model_refits_on_cadence_not_every_observe(self):
        model = PropagationLagModel()
        model.min_training_windows = 4
        fits = []  # each fit installs a new model object
        for i in range(20):
            model.observe(i, per_node_rate=100.0, observed_lag=0.01 * i)
            fitted = model._model  # noqa: SLF001
            if fitted is not None and (not fits or fitted is not fits[-1]):
                fits.append(fitted)
        # 20 observations at a cadence of 4: at most 5 fits, not 17.
        assert 1 <= len(fits) <= 5
