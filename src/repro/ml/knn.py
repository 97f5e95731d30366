"""k-nearest-neighbour regression.

A non-parametric alternative to the linear models: predict the latency of a
candidate configuration from the most similar configurations already
observed.  Useful early in a run, before enough windows exist for the
parametric models to extrapolate sensibly, and as an ensemble member.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.regression import NotFittedError


class KNNRegressor:
    """Distance-weighted k-nearest-neighbour regression."""

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._features: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "KNNRegressor":
        """Store the training set (lazy learner) with per-feature scaling."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError("feature rows and targets must match")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._scale = np.maximum(np.abs(x).max(axis=0), 1e-9)
        self._features = x / self._scale
        self._targets = y
        return self

    def predict_one(self, feature_row: Sequence[float]) -> float:
        """Predict the target for one feature vector."""
        if self._features is None or self._targets is None or self._scale is None:
            raise NotFittedError("model has not been fitted")
        query = np.asarray(feature_row, dtype=float) / self._scale
        distances = np.linalg.norm(self._features - query, axis=1)
        k = min(self.k, len(distances))
        nearest = np.argsort(distances)[:k]
        nearest_distances = distances[nearest]
        weights = 1.0 / (nearest_distances + 1e-9)
        return float(np.average(self._targets[nearest], weights=weights))

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict targets for a matrix of feature vectors."""
        return np.array([self.predict_one(row) for row in np.atleast_2d(np.asarray(features, dtype=float))])
