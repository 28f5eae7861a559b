import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulecover import _kernels as kernels
from rulecover.data import Rule

from conftest import evaluate


def _brute_leaf_counts(features, y, e, n_env, rules):
    counts = np.zeros((len(rules), 2, n_env), dtype=np.int64)
    for r, rule in enumerate(rules):
        fired = evaluate(rule, features)
        for i in range(features.shape[0]):
            if fired[i] == 0:
                counts[r, y[i], e[i]] += 1
    return counts


def _leaf_counts(features, y, e, n_env, rules):
    index = [rule.feature_index for rule in rules]
    value = [rule.expected_value for rule in rules]
    return kernels.leaf_label_env_counts(features, y, e, n_env, index, value)


def _brute_stratified_counts(strata, n_strata, y, e, n_env):
    counts = np.zeros((n_strata, 2, n_env), dtype=np.int64)
    for i in range(len(strata)):
        counts[strata[i], y[i], e[i]] += 1
    return counts


def _random_case(seed, m=60, d=5, n_env=3):
    rng = np.random.default_rng(seed)
    features = (rng.random((m, d)) < rng.random(d)).astype(np.uint8)
    y = (rng.random(m) < 0.5).astype(np.uint8)
    e = rng.integers(0, n_env, size=m).astype(np.int64)
    return features, y, e, n_env


def _both_polarities(d):
    return [Rule(j, value) for j in range(d) for value in (1, 0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([(60, 5), (500, 12)]))
def test_leaf_counts_match_brute_force(seed, shape):
    m, d = shape
    features, y, e, n_env = _random_case(seed, m=m, d=d)
    rng = np.random.default_rng(seed)
    # any rule list: both polarities of every column, then a random draw
    # with repeats in random order
    drawn = [Rule(int(j), int(v)) for j, v in rng.integers(0, [d, 2], size=(7, 2))]
    for rules in (_both_polarities(d), drawn):
        got = _leaf_counts(features, y, e, n_env, rules)
        assert np.array_equal(got, _brute_leaf_counts(features, y, e, n_env, rules))


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
    features, y, e, n_env = _random_case(123, m=500, d=12)
    rules = _both_polarities(12)
    for case in (rules, rules + rules[3:7], [rule.negated() for rule in rules]):
        got = _leaf_counts(features, y, e, n_env, case)
        assert np.array_equal(got, _brute_leaf_counts(features, y, e, n_env, case))


def test_leaf_counts_with_a_single_group_present():
    features, _, _, _ = _random_case(5, m=50, d=4)
    y = np.ones(50, dtype=np.uint8)
    e = np.full(50, 2, dtype=np.int64)
    rules = _both_polarities(4)
    got = _leaf_counts(features, y, e, 3, rules)
    assert np.array_equal(got, _brute_leaf_counts(features, y, e, 3, rules))
    assert got.sum() == 50 * 4  # one of each rule pair maps every row to 0


def test_input_validation():
    features, y, e, n_env = _random_case(1)
    with pytest.raises(ValueError):
        _leaf_counts(features, y[:-1], e, n_env, _both_polarities(5))
    with pytest.raises(ValueError):
        kernels.leaf_label_env_counts(features, y, e, n_env, [0, 1], [1])
    with pytest.raises(ValueError):
        kernels.stratified_label_env_counts(
            np.zeros(3, dtype=np.int64), 1, y[:2], e[:3], n_env
        )


def test_non_contiguous_inputs_are_coerced():
    features, y, e, n_env = _random_case(2, m=40, d=6)
    rules = _both_polarities(3)
    for view in (features[::2], features[::2, ::2]):
        got = _leaf_counts(view, y[::2], e[::2], n_env, rules)
        assert np.array_equal(
            got, _brute_leaf_counts(view, y[::2], e[::2], n_env, rules)
        )
