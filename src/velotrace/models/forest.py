"""Random forest regressor: CART trees on bootstrap samples with random
feature subsets, over columns binned once for the whole forest. A tree's
bootstrap is one `integers(0, n, n)` draw, fitted as row weights. Each level
of the tree then draws one subset per splittable node from the columns that
vary on its sample, and `max_features` counts only those, so a constant
column changes nothing. Each tree draws from its own RNG stream, derived from
(seed, tree index), so a tree does not depend on the trees fitted before it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from .tree import FEATURES_ALL, FEATURES_THIRD, Bins, RegressionTree, check_minimums, fit_inputs, resolve_max_features


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = 12
    min_samples_leaf: int = 2
    max_features: int | str = FEATURES_THIRD  # "all", "third", or an int
    bootstrap: bool = True

    def __post_init__(self):
        check_minimums(self, n_trees=1, max_depth=0, min_samples_leaf=1)
        m = self.max_features
        if not (m in (FEATURES_ALL, FEATURES_THIRD) or type(m) is int and m >= 1):
            raise ParameterError(f"max_features must be 'all', 'third' or an integer >= 1, got {m!r}")

    def validate(self, p: int) -> None:
        """ParameterError unless `max_features` suits `p` columns."""
        try:
            resolve_max_features(self.max_features, p)
        except ValueError as e:
            raise ParameterError(str(e)) from None


class RandomForest:
    Params = ForestParams

    def __init__(self, params: ForestParams, trees: list[RegressionTree]):
        self.params = params
        self.trees = trees

    @classmethod
    def fit(cls, X, y, params: ForestParams, seed: int) -> "RandomForest":
        X, y = fit_inputs(X, y, "forest")
        params.validate(X.shape[1])
        n = len(y)
        bins = Bins(X)

        def build(t: int) -> RegressionTree:
            rng = np.random.default_rng((seed, t))
            mult = np.bincount(rng.integers(0, n, size=n), minlength=n) if params.bootstrap else None
            return RegressionTree.fit(X, y, rng=rng, max_depth=params.max_depth,
                                      min_samples_leaf=params.min_samples_leaf,
                                      max_features=params.max_features, weight=mult, bins=bins)

        return cls(params, [build(t) for t in range(params.n_trees)])

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return sum(tree.predict(X) for tree in self.trees) / len(self.trees)

    def fit_meta(self) -> dict:
        return {}

    def state(self) -> dict:
        """The artifact's `state`: the flattened trees."""
        return {"trees": [t.as_dict() for t in self.trees]}

    @classmethod
    def from_state(cls, params: ForestParams, state: dict, seed: int) -> "RandomForest":
        """The forest of a `state()`."""
        return cls(params, [RegressionTree.from_dict(t) for t in state["trees"]])
