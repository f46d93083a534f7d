"""Random forest regressor: CART trees on bootstrap samples with per-split
random feature subsets. Each subset is drawn from the columns that vary on the
tree's bootstrap sample, and `max_features` counts only those, so a constant
column changes nothing. Each tree draws from its own RNG stream, derived from
(seed, tree index), so a tree does not depend on the trees fitted before it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, ParameterError
from .tree import FEATURES_THIRD, RegressionTree, resolve_max_features


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = 12
    min_samples_leaf: int = 2
    max_features: object = FEATURES_THIRD  # "all", "third", or an int
    bootstrap: bool = True

    def validate(self, p: int) -> None:
        if self.n_trees <= 0:
            raise ParameterError(f"n_trees must be positive, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ParameterError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ParameterError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        try:
            resolve_max_features(self.max_features, p)
        except ValueError as e:
            raise ParameterError(str(e)) from None


class RandomForest:
    def __init__(self, params: ForestParams, trees: list[RegressionTree]):
        self.params = params
        self.trees = trees

    @classmethod
    def fit(cls, X, y, params: ForestParams, seed: int) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y) or len(y) < 2:
            raise InputError("forest needs a 2-D X and >= 2 rows")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise InputError("non-finite values in training data")
        params.validate(X.shape[1])
        n = len(y)

        def build(t: int) -> RegressionTree:
            rng = np.random.default_rng((seed, t))
            if params.bootstrap:
                idx = rng.integers(0, n, size=n)
                Xb, yb = X[idx], y[idx]
            else:
                Xb, yb = X, y
            return RegressionTree.fit(Xb, yb, rng=rng, max_depth=params.max_depth,
                                      min_samples_leaf=params.min_samples_leaf,
                                      max_features=params.max_features)

        return cls(params, [build(t) for t in range(params.n_trees)])

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)
