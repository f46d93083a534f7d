"""CART regression tree (variance-reduction splits) stored as flat arrays,
grown one level at a time by exact greedy search over `Bins`, each column's
sorted distinct values, which an ensemble builds once for all its trees. Per
level, one bincount keyed by (node, bin) gives the weighted counts and sums
of every splittable node over its drawn columns; prefix sums within each
(node, column) score every split. A node takes the highest score, then the
smallest left count, then the lowest column, so trees are deterministic
given the feature-subset RNG; the threshold is the midpoint of the split
value and the node's next present value. A row weight counts the row that
many times, as a bootstrap multiplicity does. Nodes are numbered in
depth-first creation order. Also holds the fit-input and hyperparameter
checks that every model class shares."""

from __future__ import annotations

import numpy as np

from ..errors import InputError, ParameterError

FEATURES_ALL = "all"
FEATURES_THIRD = "third"  # ceil(q / 3) of the q varying columns, the forest default
_CELLS = 1 << 16  # (node, bin) cells per dense temporary: live nodes are searched in blocks


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


class Bins:
    """The distinct values of every column of X as bins on one axis, each
    column's in ascending order and columns of equal bin count adjacent.
    `index[i, j]` is row i's bin in column j; `value` and `column` give each
    bin's value and column; `runs` holds the (start, stop, size) spans of
    equal-size columns."""

    def __init__(self, X):
        uniq = [np.unique(col, return_inverse=True) for col in np.asarray(X, dtype=np.float64).T]
        size = np.array([u.size for u, _ in uniq], dtype=np.intp)
        order = np.argsort(size, kind="stable")
        start = np.empty_like(size)
        start[order] = np.cumsum(size[order]) - size[order]
        self.index = np.stack([s + inv for s, (_, inv) in zip(start, uniq)], axis=1)
        self.value = np.concatenate([uniq[j][0] for j in order])
        self.column = np.repeat(order, size[order])
        width, count = np.unique(size, return_counts=True)
        stop = np.cumsum(width * count)
        self.runs = list(zip(stop - width * count, stop, width))


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
            max_features=FEATURES_ALL, weight=None, bins=None) -> "RegressionTree":
        """Grow a tree on the rows of X, one level at a time. Row i counts
        `weight[i]` times (integers >= 0, default 1), also in the leaf and
        minimum-size checks. `bins` are the `Bins` of X, built here if None."""
        bins = Bins(X) if bins is None else bins
        y = np.asarray(y, dtype=np.float64)
        w = np.ones(y.size) if weight is None else np.asarray(weight, dtype=np.float64)
        wy = w * y
        index, nbins = bins.index, bins.value.size
        n, p = index.shape
        # a column constant on the fit rows can never split, so it neither
        # sizes the per-split draw nor consumes its randomness
        rows = np.flatnonzero(w)
        varying = np.flatnonzero(index[rows].min(axis=0) < index[rows].max(axis=0))
        q = varying.size
        m = resolve_max_features(max_features, p, q)
        step = max(1, _CELLS // nbins)
        ivar = index if q == p else index.take(varying, axis=1)  # C-contiguous, so ravel() is a view
        levels = []  # (feature, threshold, value, split) of each level's nodes
        node, width, depth = np.zeros(rows.size, dtype=np.intp), 1, 0
        while width:
            count, total = np.bincount(node, w[rows], width), np.bincount(node, wy[rows], width)
            lo, hi = np.full(width, np.inf), np.full(width, -np.inf)
            np.minimum.at(lo, node, y[rows])
            np.maximum.at(hi, node, y[rows])
            grows = q > 0 and (max_depth is None or depth < max_depth)
            live = np.flatnonzero(grows & (count >= max(2, 2 * min_samples_leaf)) & (lo < hi))
            if m < q:  # one subset per live node, drawn for the whole level
                cols = rng.random((live.size, q)).argsort(axis=1)[:, :m]
            best, threshold, pos = np.full(width, -1), np.zeros(width), np.full(width, -1)
            for a in range(0, live.size, step):
                nodes = live[a:a + step]
                K = nodes.size
                pos[nodes] = np.arange(K)
                k = pos[node]
                r, k = rows[k >= 0], k[k >= 0]
                g = ivar.ravel()[(r * q)[:, None] + cols[a + k]] if m < q else ivar[r]
                key = ((k * nbins)[:, None] + g).ravel()
                h = np.stack([np.bincount(key, np.repeat(v[r], g.shape[1]), K * nbins)
                              for v in (w, wy)]).reshape(2, K, nbins)
                present = h[0] > 0
                for s, e, size in bins.runs:  # prefix sums within each (node, column), in place
                    run = h[:, :, s:e].reshape(2, K, -1, size)
                    np.cumsum(run, axis=3, out=run)
                nl, sl = h
                nr, sr = count[nodes, None] - nl, total[nodes, None] - sl
                ok = present & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
                with np.errstate(divide="ignore", invalid="ignore"):
                    # maximizing sum^2/n on both sides == minimizing total SSE
                    score = np.where(ok, sl * sl / nl + sr * sr / nr, -np.inf)
                top = score.max(axis=1)
                b = np.where(score == top[:, None], nl * p + bins.column, np.inf).argmin(axis=1)
                upper = bins.value[np.argmax(present & (np.arange(nbins) > b[:, None]), axis=1)]
                mid = (bins.value[b] + upper) / 2.0
                threshold[nodes] = np.where(mid >= upper, bins.value[b], mid)  # midpoint rounded onto the upper value
                best[nodes] = np.where(top > -np.inf, b, -1)
                pos[nodes] = -1
            split = best >= 0
            levels.append((np.where(split, bins.column[best], -1), np.where(split, threshold, 0.0),
                           total / count, split))
            rows, node = rows[split[node]], node[split[node]]
            b = best[node]
            node = 2 * (np.cumsum(split) - 1)[node] + (index.ravel()[rows * p + bins.column[b]] > b)
            width, depth = 2 * int(split.sum()), depth + 1
        return cls._depth_first(levels)

    @classmethod
    def _depth_first(cls, levels) -> "RegressionTree":
        """The tree of per-level node arrays, renumbered in the order that
        depth-first growth creates nodes: each split node, taken in pre-order,
        creates its two children next."""
        feature, threshold, value, split = (np.concatenate(a) for a in zip(*levels))
        nxt = np.cumsum([lv[3].size for lv in levels])  # first level-order id of the next level
        # level-order id of each node's left child, or -1; the right child follows it
        child = np.concatenate([np.where(s, f + 2 * (np.cumsum(s) - 1), -1) for (*_, s), f in zip(levels, nxt)])
        order, stack, kids = [], [0], child.tolist()  # split nodes in pre-order
        while stack:
            v = stack.pop()
            if kids[v] >= 0:
                order.append(v)
                stack += (kids[v] + 1, kids[v])
        new = np.zeros(child.size, dtype=np.int64)
        new[child[order]] = 1 + 2 * np.arange(len(order))
        new[child[order] + 1] = 2 + 2 * np.arange(len(order))
        left = np.where(split, new[child], -1)
        perm = np.argsort(new)  # level-order id of each new id
        return cls(feature[perm], threshold[perm], left[perm], np.where(split, left + 1, -1)[perm], value[perm])

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
        """The tree of an `as_dict()`."""
        return cls(*(np.asarray(d[k], dtype=np.float64 if k in ("threshold", "value") else np.int64)
                     for k in cls.__slots__))
