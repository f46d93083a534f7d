import numpy as np
import pytest

from velotrace.errors import InputError, ParameterError
from velotrace.models import (
    BoostParams,
    ForestParams,
    GradientBoosting,
    LinearModel,
    RandomForest,
    RegressionTree,
)
from velotrace.models.tree import resolve_max_features


def smooth_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=n)
    return X, y


class TestLinear:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        m = LinearModel.fit(x, y)
        assert m.coef[1] == pytest.approx(2.0, abs=1e-9)
        assert m.coef[0] == pytest.approx(1.0, abs=1e-9)

    def test_constant_target(self):
        X, _ = smooth_data(50)
        m = LinearModel.fit(X, np.full(50, 4.2))
        assert m.coef[0] == pytest.approx(4.2, abs=1e-8)
        assert np.allclose(m.coef[1:], 0.0, atol=1e-8)

    def test_duplicated_column_prediction_equivalence(self):
        X, y = smooth_data(100)
        base = LinearModel.fit(X, y)
        dup = LinearModel.fit(np.hstack([X, X[:, :1]]), y)
        assert np.allclose(base.predict(X), dup.predict(np.hstack([X, X[:, :1]])), atol=1e-6)

    def test_non_finite_rejected(self):
        X, y = smooth_data(10)
        X[0, 0] = np.nan
        with pytest.raises(InputError):
            LinearModel.fit(X, y)


class TestForest:
    def test_single_unpruned_tree_memorizes(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(60, 3))
        y = rng.normal(size=60)
        params = ForestParams(n_trees=1, max_depth=None, min_samples_leaf=1,
                              max_features="all", bootstrap=False)
        model = RandomForest.fit(X, y, params, seed=0)
        assert np.mean((model.predict(X) - y) ** 2) == pytest.approx(0.0, abs=1e-18)

    def test_depth_zero_predicts_mean(self):
        X, y = smooth_data(80)
        params = ForestParams(n_trees=5, max_depth=0, bootstrap=False)
        model = RandomForest.fit(X, y, params, seed=0)
        assert np.allclose(model.predict(X), y.mean())
        # with bootstrap each root averages its own resample; still near the mean
        boot = RandomForest.fit(X, y, ForestParams(n_trees=50, max_depth=0), seed=0)
        assert boot.predict(X)[0] == pytest.approx(y.mean(), abs=3 * y.std() / np.sqrt(50))

    def test_bootstrap_stream_is_pinned(self):
        """Tree t resamples with default_rng((seed, t)).integers(0, n, n)."""
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(40, 3))
        y = rng.integers(0, 20, size=40).astype(np.float64)
        model = RandomForest.fit(X, y, ForestParams(n_trees=1, max_depth=0), seed=5)
        assert model.trees[0].value[0] == y[np.random.default_rng((5, 0)).integers(0, 40, 40)].mean()

    def test_same_seed_identical(self):
        X, y = smooth_data(150)
        params = ForestParams(n_trees=10, max_depth=6)
        a = RandomForest.fit(X, y, params, seed=42).predict(X)
        b = RandomForest.fit(X, y, params, seed=42).predict(X)
        assert np.array_equal(a, b)

    def test_different_seeds_comparable_fit(self):
        X, y = smooth_data(300)
        params = ForestParams(n_trees=20, max_depth=8, min_samples_leaf=2)
        mses = []
        for seed in (1, 2):
            model = RandomForest.fit(X, y, params, seed=seed)
            mses.append(float(np.mean((model.predict(X) - y) ** 2)))
        assert max(mses) <= 2.0 * min(mses)

    def test_predictions_bounded_by_training_targets(self):
        X, y = smooth_data(200, seed=5)
        model = RandomForest.fit(X, y, ForestParams(n_trees=15, max_depth=10), seed=1)
        rng = np.random.default_rng(9)
        probe = rng.uniform(-10, 10, size=(500, 4))  # far outside the training box
        pred = model.predict(probe)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_integer_max_features_clamped_to_varying_columns(self):
        X, y = smooth_data(120)
        X = np.hstack([X, np.ones((120, 2))])  # p = 6, q = 4
        params = ForestParams(n_trees=4, max_depth=5, max_features=6)
        clamped = RandomForest.fit(X, y, params, seed=3).predict(X)
        every = RandomForest.fit(X, y, ForestParams(n_trees=4, max_depth=5, max_features="all"),
                                 seed=3).predict(X)
        assert np.array_equal(clamped, every)
        assert resolve_max_features(6, 6, 4) == 4
        assert resolve_max_features("third", 6, 4) == 2
        with pytest.raises(ValueError):
            resolve_max_features(7, 6, 4)  # still bounded by all p columns

    def test_invalid_params_rejected(self):
        X, y = smooth_data(20)
        with pytest.raises(ParameterError):
            RandomForest.fit(X, y, ForestParams(n_trees=0), seed=0)
        with pytest.raises(ParameterError):
            RandomForest.fit(X, y, ForestParams(min_samples_leaf=0), seed=0)
        with pytest.raises(ParameterError):
            RandomForest.fit(X, y, ForestParams(max_features=99), seed=0)


class TestBoost:
    def test_zero_rounds_predicts_mean(self):
        X, y = smooth_data(50)
        model = GradientBoosting.fit(X, y, BoostParams(n_rounds=0), seed=0)
        assert np.allclose(model.predict(X), y.mean())

    def test_full_rate_unlimited_depth_fits_in_one_round(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(40, 2))
        y = rng.normal(size=40)
        params = BoostParams(n_rounds=1, max_depth=None, learning_rate=1.0, min_samples_leaf=1)
        model = GradientBoosting.fit(X, y, params, seed=0)
        assert model.train_mse[0] == pytest.approx(0.0, abs=1e-18)

    def test_training_mse_non_increasing(self):
        X, y = smooth_data(250, seed=2)
        model = GradientBoosting.fit(X, y, BoostParams(n_rounds=60, max_depth=3), seed=0)
        losses = np.asarray(model.train_mse)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_learning_rate_validation(self):
        X, y = smooth_data(20)
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                GradientBoosting.fit(X, y, BoostParams(learning_rate=eta), seed=0)


class TestConstantColumn:
    """A column constant on the fit rows must not change any tree model."""

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_constant_column_is_inert(self, pos):
        X, y = smooth_data(150)
        Xc = np.insert(X, pos, 1.0, axis=1)
        forest = ForestParams(n_trees=8, max_depth=6)
        boost = BoostParams(n_rounds=20, max_depth=3)
        assert np.array_equal(RandomForest.fit(X, y, forest, seed=5).predict(X),
                              RandomForest.fit(Xc, y, forest, seed=5).predict(Xc))
        assert np.array_equal(GradientBoosting.fit(X, y, boost, seed=5).predict(X),
                              GradientBoosting.fit(Xc, y, boost, seed=5).predict(Xc))

    def test_all_constant_is_a_single_leaf(self):
        _, y = smooth_data(50)
        tree = RegressionTree.fit(np.ones((50, 3)), y, rng=np.random.default_rng(0),
                                  max_features="third")
        assert tree.feature.tolist() == [-1]
        assert tree.value[0] == pytest.approx(y.mean())


class TestTreeSerialization:
    def test_round_trip(self):
        X, y = smooth_data(100)
        tree = RegressionTree.fit(X, y, max_depth=5)
        back = RegressionTree.from_dict(tree.as_dict())
        assert np.array_equal(tree.predict(X), back.predict(X))
