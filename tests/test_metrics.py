import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from velotrace.errors import ParameterError
from velotrace.models.metrics import metrics


def test_the_metrics_module_is_not_shadowed_by_its_function():
    import velotrace.models.metrics as module
    assert isinstance(module, types.ModuleType) and module.metrics is metrics


def test_perfect_prediction():
    m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (m.mae, m.mse, m.rmse, m.r2) == (0.0, 0.0, 0.0, 1.0)


def test_hand_computed_case():
    m = metrics([0.0, 2.0], [1.0, 1.0])
    assert (m.mae, m.mse, m.rmse, m.r2) == (1.0, 1.0, 1.0, 0.0)


def test_constant_actuals_r2_undefined():
    m = metrics([5.0, 5.0], [4.0, 7.0])
    assert m.r2 is None
    assert m.mae == 1.5


def test_length_mismatch_rejected():
    with pytest.raises(ParameterError):
        metrics([1.0, 2.0], [1.0])
    with pytest.raises(ParameterError):
        metrics([1.0], [1.0])


@given(data=st.data())
@settings(max_examples=200)
def test_rmse_squared_is_mse(data):
    n = data.draw(st.integers(2, 30))
    y = data.draw(st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n))
    yh = data.draw(st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n))
    m = metrics(y, yh)
    assert m.rmse ** 2 == pytest.approx(m.mse, rel=1e-9, abs=1e-12)


@given(data=st.data())
@settings(max_examples=100)
def test_joint_permutation_invariance(data):
    n = data.draw(st.integers(2, 20))
    y = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
    yh = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**31))).permutation(n)
    a = metrics(y, yh)
    b = metrics(y[perm], yh[perm])
    assert a.mae == pytest.approx(b.mae, rel=1e-12, abs=1e-12)
    assert a.mse == pytest.approx(b.mse, rel=1e-12, abs=1e-12)
    if a.r2 is not None:
        assert a.r2 == pytest.approx(b.r2, rel=1e-9, abs=1e-12)


def test_mean_predictor_r2_nonpositive_when_means_differ():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    train_mean = 1.0  # differs from mean(y)
    m = metrics(y, np.full(4, train_mean))
    assert m.r2 is not None and m.r2 <= 0.0
