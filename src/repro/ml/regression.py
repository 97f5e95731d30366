"""Regression models implemented on numpy.

Three flavours are used by the provisioning loop:

* :class:`LinearRegressionModel` — ordinary least squares, the workhorse for
  mean-behaviour prediction (replication lag, throughput).
* :class:`RidgeRegressionModel` — the same with L2 regularisation, more stable
  when the loop has only a few observation windows.
* :class:`QuantileRegressionModel` — pinball-loss regression fitted by
  subgradient descent; this is what predicts *tail* latency (the 99.9th
  percentile the SLA talks about) rather than the mean.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when predict() is called before fit()."""


def _design_matrix(features: np.ndarray) -> np.ndarray:
    """Append an intercept column to a 2-D feature matrix."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    ones = np.ones((features.shape[0], 1))
    return np.hstack([features, ones])


class LinearRegressionModel:
    """Ordinary least-squares linear regression with an intercept."""

    def __init__(self) -> None:
        self._weights: Optional[np.ndarray] = None

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "LinearRegressionModel":
        """Fit weights minimising squared error."""
        x = _design_matrix(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"feature rows ({x.shape[0]}) and targets ({y.shape[0]}) must match"
            )
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._weights, *_ = np.linalg.lstsq(x, y, rcond=None)
        return self

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict targets for a matrix (or single row) of features."""
        if self._weights is None:
            raise NotFittedError("model has not been fitted")
        x = _design_matrix(np.asarray(features, dtype=float))
        return x @ self._weights

    def predict_one(self, feature_row: Sequence[float]) -> float:
        """Predict for a single feature vector."""
        return float(self.predict([list(feature_row)])[0])


class RidgeRegressionModel(LinearRegressionModel):
    """Linear regression with L2 regularisation (intercept not penalised)."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "RidgeRegressionModel":
        x = _design_matrix(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError("feature rows and targets must match")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        n_features = x.shape[1]
        penalty = self.alpha * np.eye(n_features)
        penalty[-1, -1] = 0.0  # do not shrink the intercept
        self._weights = np.linalg.solve(x.T @ x + penalty, x.T @ y)
        return self


class QuantileRegressionModel:
    """Linear quantile regression fitted with subgradient descent on pinball loss.

    Args:
        quantile: the conditional quantile to estimate, e.g. 0.999 for the
            99.9th-percentile latency SLA.
        iterations: number of passes over the data.
    """

    # Subgradient step size.
    learning_rate = 0.05

    def __init__(self, quantile: float = 0.99, iterations: int = 400) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.quantile = quantile
        self.iterations = iterations
        self._weights: Optional[np.ndarray] = None
        self._feature_scale: Optional[np.ndarray] = None

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "QuantileRegressionModel":
        """Fit by minimising the pinball (quantile) loss."""
        x_raw = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float)
        if x_raw.shape[0] != y.shape[0]:
            raise ValueError("feature rows and targets must match")
        if x_raw.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        # Scale features to keep the subgradient steps well conditioned.
        scale = np.maximum(np.abs(x_raw).max(axis=0), 1e-9)
        self._feature_scale = scale
        x = _design_matrix(x_raw / scale)
        n_samples, n_features = x.shape
        weights = np.zeros(n_features)
        # Warm start from the least-squares solution: it is usually close.
        weights, *_ = np.linalg.lstsq(x, y, rcond=None)
        tau = self.quantile
        for iteration in range(self.iterations):
            residuals = y - x @ weights
            # Pinball-loss subgradient w.r.t. predictions.
            grad_pred = np.where(residuals >= 0, -tau, 1.0 - tau)
            gradient = x.T @ grad_pred / n_samples
            step = self.learning_rate / (1.0 + 0.01 * iteration)
            weights = weights - step * gradient * max(np.abs(y).mean(), 1e-9)
            self._weights = weights
        return self

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict the conditional quantile for each feature row."""
        if self._weights is None or self._feature_scale is None:
            raise NotFittedError("model has not been fitted")
        x_raw = np.atleast_2d(np.asarray(features, dtype=float))
        x = _design_matrix(x_raw / self._feature_scale)
        return x @ self._weights

    def predict_one(self, feature_row: Sequence[float]) -> float:
        """Predict the conditional quantile for a single feature vector."""
        return float(self.predict([list(feature_row)])[0])
