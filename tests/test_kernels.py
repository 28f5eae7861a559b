import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulecover import _kernels as kernels


def _brute_leaf_counts(preds, y, e, n_env):
    counts = np.zeros((preds.shape[1], 2, n_env), dtype=np.int64)
    for i in range(preds.shape[0]):
        for r in range(preds.shape[1]):
            if preds[i, r] == 0:
                counts[r, y[i], e[i]] += 1
    return counts


def _brute_stratified_counts(strata, n_strata, y, e, n_env):
    counts = np.zeros((n_strata, 2, n_env), dtype=np.int64)
    for i in range(len(strata)):
        counts[strata[i], y[i], e[i]] += 1
    return counts


def _random_case(seed, m=60, n_rules=5, n_env=3):
    rng = np.random.default_rng(seed)
    preds = (rng.random((m, n_rules)) < 0.5).astype(np.uint8)
    y = (rng.random(m) < 0.5).astype(np.uint8)
    e = rng.integers(0, n_env, size=m).astype(np.int64)
    return preds, y, e, n_env


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([(60, 5), (500, 12)]))
def test_leaf_counts_match_brute_force(seed, shape):
    m, n_rules = shape
    preds, y, e, n_env = _random_case(seed, m=m, n_rules=n_rules)
    got = kernels.leaf_label_env_counts(preds, y, e, n_env)
    assert np.array_equal(got, _brute_leaf_counts(preds, y, e, n_env))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_stratified_counts_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    m, n_strata, n_env = 80, 6, 2
    strata = rng.integers(0, n_strata, size=m).astype(np.int64)
    y = (rng.random(m) < 0.5).astype(np.uint8)
    e = rng.integers(0, n_env, size=m).astype(np.int64)
    got = kernels.stratified_label_env_counts(strata, n_strata, y, e, n_env)
    assert np.array_equal(got, _brute_stratified_counts(strata, n_strata, y, e, n_env))


def test_python_backend_matches_brute_force():
    preds, y, e, n_env = _random_case(123, m=500, n_rules=12)
    got = kernels.leaf_label_env_counts(preds, y, e, n_env)
    assert np.array_equal(got, _brute_leaf_counts(preds, y, e, n_env))


def test_input_validation():
    preds, y, e, n_env = _random_case(1)
    with pytest.raises(ValueError):
        kernels.leaf_label_env_counts(preds, y[:-1], e, n_env)
    with pytest.raises(ValueError):
        kernels.stratified_label_env_counts(
            np.zeros(3, dtype=np.int64), 1, y[:2], e[:3], n_env
        )


def test_non_contiguous_inputs_are_coerced():
    preds, y, e, n_env = _random_case(2, m=40)
    view = preds[::2]
    got = kernels.leaf_label_env_counts(view, y[::2], e[::2], n_env)
    assert np.array_equal(got, _brute_leaf_counts(view, y[::2], e[::2], n_env))
