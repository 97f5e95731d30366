"""Workload forecasting.

Scale-up must start *before* load arrives (instances take minutes to boot and
data movement takes time), so the provisioning loop forecasts the request rate
a horizon ahead.  The forecaster fits both a linear and an exponential
(log-linear) trend to the recent rate history and uses whichever explains the
recent window better — exponential growth is exactly the Animoto/Figure-1
case, where linear extrapolation would systematically under-provision.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

import numpy as np


class WorkloadForecaster:
    """Short-horizon request-rate forecaster built from observed history."""

    # Number of recent observations used for trend fitting.
    window = 30
    # Below this, the forecaster just returns the latest rate (no
    # extrapolation) — avoids wild forecasts from two points.
    min_observations = 5

    def __init__(self) -> None:
        self._history: Deque[Tuple[float, float]] = deque(maxlen=self.window)

    def observe(self, time: float, rate: float) -> None:
        """Record the observed aggregate request rate at a point in time."""
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        if self._history and time < self._history[-1][0]:
            raise ValueError("observations must arrive in time order")
        self._history.append((float(time), float(rate)))

    def latest_rate(self) -> float:
        """The most recently observed rate (0 if nothing observed yet)."""
        if not self._history:
            return 0.0
        return self._history[-1][1]

    def forecast(self, horizon: float) -> float:
        """Predicted aggregate rate ``horizon`` seconds from the last observation.

        Falls back to the latest observation when history is too short, and
        never forecasts below zero.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        if len(self._history) < self.min_observations:
            return self.latest_rate()
        times = np.array([t for t, _ in self._history])
        rates = np.array([r for _, r in self._history])
        t0 = times[-1]
        x = times - t0  # so the forecast point is x = horizon
        linear_pred, linear_err = self._fit_and_score(x, rates, horizon)
        if np.all(rates > 0):
            log_pred, log_err = self._fit_and_score(x, np.log(rates), horizon)
            exp_pred = float(np.exp(log_pred))
            # Compare errors in rate space to pick the better-shaped trend.
            if self._rate_space_error_log(x, rates) < linear_err:
                return max(exp_pred, 0.0)
        return max(float(linear_pred), 0.0)

    @staticmethod
    def _fit_and_score(x: np.ndarray, y: np.ndarray, horizon: float) -> Tuple[float, float]:
        """Least-squares line fit; returns (prediction at ``horizon``, mean abs error)."""
        design = np.vstack([x, np.ones_like(x)]).T
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
        fitted = design @ coeffs
        error = float(np.mean(np.abs(fitted - y)))
        prediction = float(coeffs[0] * horizon + coeffs[1])
        return prediction, error

    @staticmethod
    def _rate_space_error_log(x: np.ndarray, rates: np.ndarray) -> float:
        """Mean absolute error of the log-linear fit, evaluated in rate space."""
        design = np.vstack([x, np.ones_like(x)]).T
        coeffs, *_ = np.linalg.lstsq(design, np.log(rates), rcond=None)
        fitted = np.exp(design @ coeffs)
        return float(np.mean(np.abs(fitted - rates)))
