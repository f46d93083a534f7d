"""CART regression tree (variance-reduction splits) stored as flat arrays.

Split search is vectorized across the candidate features of a node: one sort,
one cumulative sum, and an argmax over every (position, feature) pair. Ties
resolve to the first candidate in C order, so trees are deterministic given
the feature-subset RNG. Also holds the fit-input and hyperparameter checks
that every model class shares."""

from __future__ import annotations

import numpy as np

from ..errors import InputError, ParameterError

FEATURES_ALL = "all"
FEATURES_THIRD = "third"  # ceil(q / 3) of the q varying columns, the forest default


def resolve_max_features(max_features, p: int, q: int | None = None) -> int:
    """Features drawn per split. `p` counts all columns and bounds an integer
    setting. `q` (default `p`) counts the varying columns, the only split
    candidates: "all" gives q, "third" ceil(q / 3), and an integer is clamped
    to q."""
    q = p if q is None else q
    if max_features == FEATURES_ALL or max_features is None:
        return q
    if max_features == FEATURES_THIRD:
        return -(-q // 3)
    m = int(max_features)
    if not (1 <= m <= p):
        raise ValueError(f"max_features {max_features!r} out of range for {p} features")
    return min(m, q)


def fit_inputs(X, y, who: str) -> tuple[np.ndarray, np.ndarray]:
    """Float X and y of a tabular fit: 2-D, one target per row, >= 2 rows, finite."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y) or len(y) < 2:
        raise InputError(f"{who} needs a 2-D X and >= 2 rows")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InputError("non-finite values in training data")
    return X, y


def check_minimums(params, **minimums) -> None:
    """ParameterError for the first named field of `params` below its minimum; None passes."""
    for name, lo in minimums.items():
        value = getattr(params, name)
        if value is not None and value < lo:
            raise ParameterError(f"{name} must be >= {lo}, got {value}")


def _best_split(X, y, idx, feats, min_leaf):
    """Best (feature, threshold) by SSE reduction on the rows `idx`, or None."""
    n = idx.size
    Xn = X[np.ix_(idx, feats)]
    order = np.argsort(Xn, axis=0, kind="stable")
    Xs = np.take_along_axis(Xn, order, axis=0)
    ys = y[idx][order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1, :]

    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = float(n) - left_n
    left_sum = csum[:-1, :]
    right_sum = total[None, :] - left_sum
    # maximizing sum^2/n on both sides == minimizing total SSE
    score = left_sum * left_sum / left_n + right_sum * right_sum / right_n
    valid = Xs[1:] > Xs[:-1]
    if min_leaf > 1:
        valid[: min_leaf - 1, :] = False
        valid[n - min_leaf:, :] = False
    score = np.where(valid, score, -np.inf)
    flat = int(np.argmax(score))
    if score.flat[flat] == -np.inf:
        return None
    pos, f = divmod(flat, len(feats))
    a, b = Xs[pos, f], Xs[pos + 1, f]
    thr = (a + b) / 2.0
    if thr >= b:  # midpoint rounded onto the upper value
        thr = a
    return int(feats[f]), float(thr)


class RegressionTree:
    """Fitted tree; predict() walks all rows level by level, vectorized."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @classmethod
    def fit(cls, X, y, rng=None, max_depth=None, min_samples_leaf=1,
            max_features=FEATURES_ALL) -> "RegressionTree":
        n, p = X.shape
        # a column constant on the fit rows can never split, so it neither
        # sizes the per-split draw nor consumes its randomness
        varying = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
        q = varying.size
        m = resolve_max_features(max_features, p, q)
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        root = new_node()
        stack = [(root, np.arange(n, dtype=np.int64), 0)]
        while stack:
            node, idx, depth = stack.pop()
            ynode = y[idx]
            value[node] = float(ynode.mean())
            if (max_depth is not None and depth >= max_depth) or idx.size < max(2, 2 * min_samples_leaf):
                continue
            if q == 0 or ynode.min() == ynode.max():
                continue
            if m < q:
                feats = varying[np.sort(rng.choice(q, size=m, replace=False))]
            else:
                feats = varying
            split = _best_split(X, y, idx, feats, min_samples_leaf)
            if split is None:
                continue
            f, thr = split
            goleft = X[idx, f] <= thr
            feature[node] = f
            threshold[node] = thr
            lnode, rnode = new_node(), new_node()
            left[node] = lnode
            right[node] = rnode
            stack.append((rnode, idx[~goleft], depth + 1))
            stack.append((lnode, idx[goleft], depth + 1))

        return cls.from_dict(dict(feature=feature, threshold=threshold, left=left, right=right, value=value))

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = self.feature[node]
            active = f >= 0
            if not active.any():
                return self.value[node]
            rows = np.nonzero(active)[0]
            sub = node[rows]
            goleft = X[rows, f[rows]] <= self.threshold[sub]
            node[rows] = np.where(goleft, self.left[sub], self.right[sub])

    def as_dict(self) -> dict:
        return {k: getattr(self, k).tolist() for k in self.__slots__}

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        """The tree of an `as_dict()`, or of the node lists that `fit` grows."""
        return cls(*(np.asarray(d[k], dtype=np.float64 if k in ("threshold", "value") else np.int64)
                     for k in cls.__slots__))
