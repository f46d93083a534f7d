"""The level-wise tree against the depth-first grower it replaced.

`oracle_fit` is that grower: it takes the nodes depth first, and at each
node `oracle_best_split` sorts the node's rows on every candidate column
and scores every position. With integer targets every sum is exact, so the
level-wise tree must equal it node for node, ties included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from velotrace.models.tree import RegressionTree, resolve_max_features


def oracle_best_split(X, y, idx, feats, min_leaf):
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
    score = left_sum * left_sum / left_n + right_sum * right_sum / right_n
    valid = Xs[1:] > Xs[:-1]
    if min_leaf > 1:
        valid[: min_leaf - 1, :] = False
        valid[n - min_leaf:, :] = False
    score = np.where(valid, score, -np.inf)
    flat = int(np.argmax(score))  # C order: smallest left n, then lowest column
    if score.flat[flat] == -np.inf:
        return None
    pos, f = divmod(flat, len(feats))
    a, b = Xs[pos, f], Xs[pos + 1, f]
    thr = (a + b) / 2.0
    if thr >= b:
        thr = a
    return int(feats[f]), float(thr)


def oracle_fit(X, y, rng=None, max_depth=None, min_samples_leaf=1, max_features="all"):
    """Depth-first growth: a node's children are numbered when it is split."""
    n, p = X.shape
    varying = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
    q = varying.size
    m = resolve_max_features(max_features, p, q)
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for lst, v in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            lst.append(v)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n, dtype=np.int64), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ynode = y[idx]
        value[node] = float(ynode.mean())
        if (max_depth is not None and depth >= max_depth) or idx.size < max(2, 2 * min_samples_leaf):
            continue
        if q == 0 or ynode.min() == ynode.max():
            continue
        feats = varying[np.sort(rng.choice(q, size=m, replace=False))] if m < q else varying
        split = oracle_best_split(X, y, idx, feats, min_samples_leaf)
        if split is None:
            continue
        f, thr = split
        goleft = X[idx, f] <= thr
        feature[node], threshold[node] = f, thr
        left[node], right[node] = new_node(), new_node()
        stack.append((right[node], idx[~goleft], depth + 1))
        stack.append((left[node], idx[goleft], depth + 1))
    return RegressionTree.from_dict(dict(feature=feature, threshold=threshold, left=left, right=right, value=value))


@st.composite
def tie_heavy_fits(draw):
    """Small-integer X and integer y, so equal scores and equal values abound."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 4))
    X = draw(arrays(np.int64, (n, p), elements=st.integers(0, 3))).astype(np.float64)
    y = draw(arrays(np.int64, n, elements=st.integers(-3, 3))).astype(np.float64)
    return X, y, dict(max_depth=draw(st.none() | st.integers(0, 6)), min_samples_leaf=draw(st.integers(1, 4)))


def assert_same_tree(tree, ref):
    for name in ("feature", "threshold", "left", "right"):
        assert np.array_equal(getattr(tree, name), getattr(ref, name)), name
    np.testing.assert_allclose(tree.value, ref.value, rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_fits())
def test_level_wise_tree_equals_depth_first_oracle(case):
    X, y, kw = case
    assert_same_tree(RegressionTree.fit(X, y, **kw), oracle_fit(X, y, **kw))


@settings(max_examples=100, deadline=None)
@given(tie_heavy_fits(), st.integers(0, 2**32 - 1))
def test_multiplicity_weights_equal_the_duplicated_sample(case, seed):
    """Rows weighted by their bootstrap counts, zero for a row not drawn, grow
    the tree of the resampled rows."""
    X, y, kw = case
    n = len(y)
    draw = np.random.default_rng(seed).integers(0, n, size=n)
    weighted = RegressionTree.fit(X, y, weight=np.bincount(draw, minlength=n), **kw)
    assert_same_tree(weighted, oracle_fit(X[draw], y[draw], **kw))


def test_blocks_of_live_nodes_equal_one_block(monkeypatch):
    """A level whose (node, bin) cells exceed the cap is searched block by block."""
    rng = np.random.default_rng(2)
    X = rng.integers(0, 40, size=(400, 3)).astype(np.float64)
    y = rng.integers(0, 5, size=400).astype(np.float64)
    whole = RegressionTree.fit(X, y, max_depth=6)
    monkeypatch.setattr("velotrace.models.tree._CELLS", 1)  # one node per block
    assert_same_tree(RegressionTree.fit(X, y, max_depth=6), whole)
    assert_same_tree(whole, oracle_fit(X, y, max_depth=6))


def test_threshold_between_adjacent_floats_falls_back_to_the_lower_value():
    """(a + b) / 2 rounds onto b when b follows a and b's last bit is even;
    the threshold is then a."""
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [a], [b], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert (a + b) / 2.0 == b
    tree = RegressionTree.fit(X, y)
    assert tree.threshold[0] == a
    assert np.array_equal(tree.predict(X), y)
    assert_same_tree(tree, oracle_fit(X, y))
