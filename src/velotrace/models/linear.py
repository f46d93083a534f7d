"""Ordinary least squares with intercept, solved by SVD-based least squares.

The minimum-norm solution tolerates the collinearity that full one-hot
encoding introduces: predictions are well-defined even when coefficients
are not unique."""

from __future__ import annotations

import numpy as np

from .tree import fit_inputs


class LinearModel:
    Params = None  # takes no hyperparameters

    def __init__(self, coef: np.ndarray):
        self.coef = coef  # intercept first

    @classmethod
    def fit(cls, X, y, params=None, seed: int = 0) -> "LinearModel":
        X, y = fit_inputs(X, y, "linear fit")
        A = np.hstack([np.ones((len(y), 1)), X])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return cls(coef)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self.coef[0] + X @ self.coef[1:]

    def fit_meta(self) -> dict:
        return {}

    def state(self) -> dict:
        """The artifact's `state`: the coefficients, intercept first."""
        return {"coef": self.coef.tolist()}

    @classmethod
    def from_state(cls, params, state: dict, seed: int) -> "LinearModel":
        """The model of a `state()`."""
        return cls(np.asarray(state["coef"], dtype=np.float64))
