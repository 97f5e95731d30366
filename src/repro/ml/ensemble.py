"""Ensembles of models.

The paper cites "Ensembles of models for automated diagnosis of system
performance problems" (Zhang et al., DSN'05) as evidence that combining
several simple models beats relying on one.  :class:`EnsembleModel` does the
straightforward version of that: hold several regressors, weight them by
recent validation error, and predict with the weighted average.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.regression import NotFittedError


class EnsembleModel:
    """A validation-weighted ensemble of regression models.

    Members must expose ``fit(features, targets)`` and
    ``predict_one(feature_row)`` — the shared surface of the models in
    :mod:`repro.ml`.
    """

    # Share of the (most recent) rows held out to weight the members.
    validation_fraction = 0.25

    def __init__(self, members: Sequence) -> None:
        if not members:
            raise ValueError("an ensemble needs at least one member model")
        self._members = list(members)
        self._weights: Optional[np.ndarray] = None

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "EnsembleModel":
        """Fit every member and weight them by held-out validation error."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ValueError("feature rows and targets must match")
        if x.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        n = x.shape[0]
        split = max(int(n * (1.0 - self.validation_fraction)), 1)
        train_x, train_y = x[:split], y[:split]
        valid_x, valid_y = x[split:], y[split:]
        if valid_x.shape[0] == 0:
            valid_x, valid_y = train_x, train_y
        errors = []
        for member in self._members:
            member.fit(train_x, train_y)
            predictions = np.array([member.predict_one(row) for row in valid_x])
            errors.append(float(np.mean(np.abs(predictions - valid_y))) + 1e-9)
        inverse = 1.0 / np.asarray(errors)
        self._weights = inverse / inverse.sum()
        # Refit members on the full data now that the weights are chosen.
        for member in self._members:
            member.fit(x, y)
        return self

    def predict_one(self, feature_row: Sequence[float]) -> float:
        """Weighted-average prediction for one feature vector."""
        if self._weights is None:
            raise NotFittedError("ensemble has not been fitted")
        predictions = np.array([m.predict_one(feature_row) for m in self._members])
        return float(np.dot(self._weights, predictions))

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Weighted-average predictions for a matrix of feature vectors."""
        return np.array([self.predict_one(row) for row in np.atleast_2d(np.asarray(features, dtype=float))])
