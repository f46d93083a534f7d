"""Gradient-boosted regression trees with squared loss: start from the mean,
fit each round's tree to the current residuals, add it scaled by the learning
rate. The columns are binned once and every round's tree reuses the bins.
Per-round training MSE is recorded and reported as `train_mse` (it is
provably non-increasing for learning rates in (0, 1])."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .tree import FEATURES_ALL, Bins, RegressionTree, check_minimums, fit_inputs


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 200
    max_depth: int | None = 4
    learning_rate: float = 0.1
    min_samples_leaf: int = 1

    def __post_init__(self):
        check_minimums(self, n_rounds=0, max_depth=0, min_samples_leaf=1)
        if not (0.0 < self.learning_rate <= 1.0):
            raise ParameterError(f"learning_rate must be in (0, 1], got {self.learning_rate}")


class GradientBoosting:
    Params = BoostParams

    def __init__(self, params: BoostParams, base_score: float,
                 trees: list[RegressionTree], train_mse: list[float]):
        self.params = params
        self.base_score = base_score
        self.trees = trees
        self.train_mse = train_mse  # after each round

    @classmethod
    def fit(cls, X, y, params: BoostParams, seed: int = 0) -> "GradientBoosting":
        """`seed` is unused: each round's tree searches every column and draws nothing."""
        X, y = fit_inputs(X, y, "boosting")

        base = float(y.mean())
        pred = np.full(len(y), base)
        trees: list[RegressionTree] = []
        losses: list[float] = []
        bins = Bins(X)
        for _ in range(params.n_rounds):
            residual = y - pred
            tree = RegressionTree.fit(X, residual, max_depth=params.max_depth,
                                      min_samples_leaf=params.min_samples_leaf,
                                      max_features=FEATURES_ALL, bins=bins)
            pred = pred + params.learning_rate * tree.predict(X)
            trees.append(tree)
            losses.append(float(((y - pred) ** 2).mean()))
        return cls(params, base, trees, losses)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            acc += self.params.learning_rate * tree.predict(X)
        return acc

    def fit_meta(self) -> dict:
        return {"rounds_run": len(self.trees),
                "final_train_mse": self.train_mse[-1] if self.train_mse else None,
                "train_mse": list(self.train_mse)}

    def state(self) -> dict:
        """The artifact's `state`: the base score and the flattened trees."""
        return {"base_score": self.base_score, "trees": [t.as_dict() for t in self.trees]}

    @classmethod
    def from_state(cls, params: BoostParams, state: dict, seed: int) -> "GradientBoosting":
        """The model of a `state()`; `train_mse` is not saved, so it is empty."""
        return cls(params, float(state["base_score"]),
                   [RegressionTree.from_dict(t) for t in state["trees"]], train_mse=[])
