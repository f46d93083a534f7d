"""Regression error metrics: MAE, MSE, RMSE, R^2."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError


@dataclass(frozen=True)
class Metrics:
    mae: float
    mse: float
    rmse: float
    r2: float | None  # None when the actuals have zero variance


def metrics(y, yhat) -> Metrics:
    """Standard error suite; rmse = sqrt(mse), r2 = 1 - SS_res/SS_tot.

    Constant actuals make R^2 undefined (returned as None); the other three
    metrics are still reported.
    """
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ParameterError(f"shape mismatch: {y.shape} vs {yhat.shape}")
    if len(y) < 2:
        raise ParameterError("metrics need at least 2 samples")
    err = y - yhat
    mae = float(np.abs(err).mean())
    mse = float((err * err).mean())
    rmse = math.sqrt(mse)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = None
    else:
        r2 = 1.0 - float((err * err).sum()) / ss_tot
    return Metrics(mae, mse, rmse, r2)
