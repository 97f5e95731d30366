"""Unit tests for the ML substrate (repro.ml)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.ml.ensemble import EnsembleModel
from repro.ml.features import FeatureExtractor, WorkloadFeatures
from repro.ml.forecaster import WorkloadForecaster
from repro.ml.knn import KNNRegressor
from repro.ml.performance_model import LatencyPercentileModel, PropagationLagModel
from repro.ml.regression import (
    LinearRegressionModel,
    NotFittedError,
    QuantileRegressionModel,
    RidgeRegressionModel,
)

pytestmark = pytest.mark.tier1


class TestFeatures:
    def test_extractor_derives_per_node_rate(self):
        features = FeatureExtractor().extract(
            request_rate=1000.0, write_fraction=0.1, node_count=4,
            mean_utilisation=0.3, max_utilisation=0.5,
        )
        assert features.per_node_rate == pytest.approx(250.0)

    def test_vector_matches_field_names(self):
        features = FeatureExtractor().extract(
            request_rate=10.0, write_fraction=0.5, node_count=2,
            mean_utilisation=0.1, max_utilisation=0.2, pending_updates=7,
        )
        vector = features.as_vector()
        names = [field.name for field in fields(WorkloadFeatures)]
        assert len(vector) == len(names)
        assert vector[names.index("pending_updates")] == 7.0

    def test_invalid_inputs_rejected(self):
        extractor = FeatureExtractor()
        with pytest.raises(ValueError):
            extractor.extract(10.0, 0.1, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            extractor.extract(-1.0, 0.1, 1, 0.1, 0.1)
        with pytest.raises(ValueError):
            extractor.extract(10.0, 1.5, 1, 0.1, 0.1)


class TestLinearRegression:
    def test_recovers_linear_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=(200, 2))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 5.0
        model = LinearRegressionModel().fit(x, y)
        assert model.predict_one([1.0, 1.0]) == pytest.approx(6.0, abs=1e-6)
        assert model._weights[0] == pytest.approx(3.0, abs=1e-6)  # noqa: SLF001

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegressionModel().predict_one([1.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit([[1.0], [2.0]], [1.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit([], [])

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(30, 3))
        y = 10.0 * x[:, 0] + rng.normal(0, 0.1, 30)
        plain = LinearRegressionModel().fit(x, y)
        ridge = RidgeRegressionModel(alpha=50.0).fit(x, y)
        assert abs(ridge._weights[0]) < abs(plain._weights[0])  # noqa: SLF001

    def test_ridge_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegressionModel(alpha=-1.0)


class TestQuantileRegression:
    def test_high_quantile_sits_above_the_mean(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(1, 10, size=(400, 1))
        noise = rng.exponential(2.0, size=400)  # asymmetric noise
        y = 2.0 * x[:, 0] + noise
        mean_model = LinearRegressionModel().fit(x, y)
        q90 = QuantileRegressionModel(quantile=0.9, iterations=300).fit(x, y)
        probe = [[5.0]]
        assert q90.predict(probe)[0] > mean_model.predict(probe)[0]

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            QuantileRegressionModel(quantile=1.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            QuantileRegressionModel().predict([[1.0]])


class TestKNN:
    def test_predicts_nearest_neighbour_value(self):
        model = KNNRegressor(k=1).fit([[0.0], [10.0]], [1.0, 100.0])
        assert model.predict_one([1.0]) == pytest.approx(1.0)
        assert model.predict_one([9.0]) == pytest.approx(100.0)

    def test_k_larger_than_dataset_is_fine(self):
        model = KNNRegressor(k=10).fit([[0.0], [1.0]], [0.0, 1.0])
        assert 0.0 <= model.predict_one([0.5]) <= 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNNRegressor(k=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KNNRegressor().predict_one([1.0])


class TestEnsemble:
    def _dataset(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=(120, 2))
        y = x[:, 0] * 2 + x[:, 1] + rng.normal(0, 0.5, 120)
        return x, y

    def test_ensemble_prediction_is_reasonable(self):
        x, y = self._dataset()
        ensemble = EnsembleModel([LinearRegressionModel(), KNNRegressor(k=3)]).fit(x, y)
        prediction = ensemble.predict_one([5.0, 5.0])
        assert prediction == pytest.approx(15.0, rel=0.2)

    def test_weights_sum_to_one(self):
        x, y = self._dataset()
        ensemble = EnsembleModel([LinearRegressionModel(), KNNRegressor(k=3)]).fit(x, y)
        assert sum(ensemble._weights) == pytest.approx(1.0)  # noqa: SLF001

    def test_better_member_gets_more_weight(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=(200, 1))
        y = 3.0 * x[:, 0]  # exactly linear: the linear member should dominate
        ensemble = EnsembleModel([LinearRegressionModel(), KNNRegressor(k=5)]).fit(x, y)
        weights = ensemble._weights  # noqa: SLF001
        assert weights[0] > weights[1]

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            EnsembleModel([])

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            EnsembleModel([LinearRegressionModel()]).predict_one([1.0])


class TestForecaster:
    def test_returns_latest_rate_with_little_history(self):
        forecaster = WorkloadForecaster()
        forecaster.observe(0.0, 100.0)
        assert forecaster.forecast(60.0) == 100.0

    def test_linear_growth_is_extrapolated(self):
        forecaster = WorkloadForecaster()
        for i in range(20):
            forecaster.observe(i * 60.0, 100.0 + 10.0 * i)
        forecast = forecaster.forecast(600.0)  # ten steps ahead
        assert forecast == pytest.approx(100.0 + 10.0 * 29, rel=0.1)

    def test_exponential_growth_beats_linear_extrapolation(self):
        forecaster = WorkloadForecaster()
        for i in range(30):
            forecaster.observe(i * 600.0, 100.0 * (1.2 ** i))
        last = forecaster.latest_rate()
        forecast = forecaster.forecast(3 * 600.0)
        # Exponential continuation of the trend: about last * 1.2^3 = 1.73x.
        assert forecast > 1.4 * last

    def test_forecast_never_negative(self):
        forecaster = WorkloadForecaster()
        for i in range(20):
            forecaster.observe(i * 60.0, max(1000.0 - 100.0 * i, 0.0))
        assert forecaster.forecast(3600.0) >= 0.0

    def test_out_of_order_observations_rejected(self):
        forecaster = WorkloadForecaster()
        forecaster.observe(10.0, 5.0)
        with pytest.raises(ValueError):
            forecaster.observe(5.0, 5.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            WorkloadForecaster().observe(0.0, -1.0)


class TestLatencyPercentileModel:
    def _features(self, rate, nodes):
        return WorkloadFeatures(
            request_rate=rate, write_fraction=0.1, node_count=float(nodes),
            per_node_rate=rate / nodes, mean_utilisation=min(rate / (nodes * 1000.0), 0.99),
            max_utilisation=min(rate / (nodes * 1000.0), 0.99),
        )

    def test_prior_latency_grows_with_load(self):
        model = LatencyPercentileModel(node_capacity_ops=1000.0)
        assert model.prior_prediction(900.0) > model.prior_prediction(100.0)

    def test_required_nodes_increase_with_rate(self):
        model = LatencyPercentileModel(node_capacity_ops=1000.0)
        low = model.required_nodes_search(1000.0, 0.1, target_latency=0.1).nodes
        high = model.required_nodes_search(20_000.0, 0.1, target_latency=0.1).nodes
        assert high > low

    def test_required_nodes_increase_with_stricter_sla(self):
        model = LatencyPercentileModel(node_capacity_ops=1000.0)
        loose = model.required_nodes_search(10_000.0, 0.1, target_latency=0.5).nodes
        strict = model.required_nodes_search(10_000.0, 0.1, target_latency=0.02).nodes
        assert strict >= loose

    def test_training_switches_to_learned_model(self):
        model = LatencyPercentileModel()
        model.retrain_every = 1
        for i in range(12):
            rate = 100.0 * (i + 1)
            features = self._features(rate, nodes=4)
            observed = 0.01 + features.per_node_rate / 1000.0 * 0.05
            model.observe(features, observed)
        assert model._model is not None  # noqa: SLF001 - trained
        prediction = model.predict(self._features(2000.0, nodes=4))
        assert prediction > model.base_service_time

    def test_infinite_observations_are_ignored(self):
        model = LatencyPercentileModel()
        model.observe(self._features(100.0, 2), float("inf"))
        assert len(model._targets) == 0

    def test_zero_rate_needs_one_node(self):
        model = LatencyPercentileModel()
        assert model.required_nodes_search(0.0, 0.0, target_latency=0.1).nodes == 1


class TestPropagationLagModel:
    def test_prior_scales_with_queue_depth(self):
        model = PropagationLagModel()
        assert model.predict(1000, 100.0) > model.predict(10, 100.0)

    def test_training_fits_observed_relationship(self):
        model = PropagationLagModel()
        model.min_training_windows = 5
        for pending in range(0, 100, 10):
            model.observe(pending, per_node_rate=100.0, observed_lag=0.1 * pending)
        assert model._model is not None  # noqa: SLF001 - trained
        assert model.predict(50, 100.0) == pytest.approx(5.0, rel=0.3)

    def test_danger_flag_near_bound(self):
        model = PropagationLagModel()
        model.min_training_windows = 5
        for pending in range(0, 100, 10):
            model.observe(pending, per_node_rate=100.0, observed_lag=0.5 * pending)
        assert model.danger(100, 100.0, staleness_bound=10.0)
        assert not model.danger(1, 100.0, staleness_bound=10.0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            PropagationLagModel().observe(1, 1.0, -0.1)

    def test_danger_requires_positive_bound(self):
        with pytest.raises(ValueError):
            PropagationLagModel().danger(1, 1.0, 0.0)
