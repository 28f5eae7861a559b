import ast
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rulecover
from rulecover import _kernels as kernels
from rulecover import stats
from rulecover.data import Dataset, Rule
from rulecover.icscm import IcscmConfig, _first_invariant_leaf, _invariance_reached
from rulecover.icscm import prune
from rulecover.scm import _BitsLeft, _greedy_fit

from conftest import evaluate


def _brute_leaf_counts(features, y, e, n_env, rules):
    counts = np.zeros((len(rules), 2, n_env), dtype=np.int64)
    for r, rule in enumerate(rules):
        fired = evaluate(rule, features)
        for i in range(features.shape[0]):
            if fired[i] == 0:
                counts[r, y[i], e[i]] += 1
    return counts


def _one_per_row(y, e, n_env):
    """(m, 2, n_env) counts with one sample per row."""
    counts = np.zeros((len(y), 2, n_env), dtype=np.int64)
    counts[np.arange(len(y)), y, e] = 1
    return counts


def _leaf_counts(features, y, e, n_env, rules, counts=None):
    """The kernel on one row per sample, or on ``counts`` per row."""
    if counts is None:
        counts = _one_per_row(y, e, n_env)
    index = [rule.feature_index for rule in rules]
    value = [rule.expected_value for rule in rules]
    return kernels.leaf_label_env_counts(features, counts, index, value)


def _brute_weighted_leaf_counts(rows, counts, rules):
    out = np.zeros((len(rules), 2, counts.shape[2]), dtype=np.int64)
    for r, rule in enumerate(rules):
        fired = evaluate(rule, rows)
        for i in range(rows.shape[0]):
            if fired[i] == 0:
                out[r] += counts[i]
    return out


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([(1, 1), (8, 3), (40, 6)]))
def test_weighted_leaf_counts_match_brute_force(seed, shape):
    # rows with several samples each (the compressed count table), including
    # rows whose counts are all zero and repeated rows
    n_rows, d = shape
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, (n_rows, d), dtype=np.uint8)
    counts = rng.integers(0, 6, (n_rows, 2, 3)) * (rng.random((n_rows, 1, 1)) < 0.8)
    drawn = [Rule(int(j), int(v)) for j, v in rng.integers(0, [d, 2], size=(7, 2))]
    for rules in (_both_polarities(d), drawn):
        got = _leaf_counts(rows, None, None, None, rules, counts=counts)
        assert np.array_equal(got, _brute_weighted_leaf_counts(rows, counts, rules))


def _drawn_table(seed, d, n_patterns, k):
    """0/1 rows over d columns, random (n_patterns 0) or repeating up to
    n_patterns drawn patterns, with per-row int64 (2, k) counts. There are
    1 to 2**d - 1 rows, so the full column set has more strata than rows
    and the empty one fewer."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 2**d))
    rows = rng.integers(0, 2, (n_rows, d), dtype=np.uint8)
    if n_patterns:
        rows = rows[rng.integers(0, min(n_patterns, n_rows), n_rows)]
    counts = rng.integers(0, 5, (n_rows, 2, k)).astype(np.int64)
    return rows, counts


def _brute_subset_counts(rows, table, subset):
    """{stratum key: (2, k) counts}, the key packing the subset's columns in
    ascending order, lowest bit first; cell [a, b] sums the rows' label-a,
    env-b counts."""
    sums = {}
    for row, row_counts in zip(rows.tolist(), table):
        key = sum(row[c] << bit for bit, c in enumerate(sorted(subset)))
        cells = sums.setdefault(key, np.zeros(table.shape[1:], dtype=np.int64))
        for label in range(2):
            for env in range(table.shape[2]):
                cells[label, env] += row_counts[label, env]
    return sums


def _dense_level(rows, table, size):
    """Every size-``size`` subset's counts, each stratum at its key:
    (C(d, size), 2**size, 2, k)."""
    subsets = list(combinations(range(rows.shape[1]), size))
    level = np.zeros((len(subsets), 2**size, *table.shape[1:]))
    for i, subset in enumerate(subsets):
        for key, cells in _brute_subset_counts(rows, table, subset).items():
            level[i, key] = cells
    return subsets, level


# a _drawn_table's seed, d, n_patterns and k, then a draw of its columns
_TABLE_DRAWS = (
    st.integers(0, 2**31), st.integers(1, 7), st.integers(0, 11),
    st.sampled_from([1, 2, 3]), st.data(),
)


@settings(max_examples=40, deadline=None)
@given(*_TABLE_DRAWS)
def test_subset_counts_keep_label_then_env_axes(seed, d, n_patterns, k, data):
    # chi-square and G statistics are blind to a transposed table, so the
    # layout is checked here, on the counts themselves
    rows, table = _drawn_table(seed, d, n_patterns, k)
    drawn = data.draw(st.sets(st.integers(0, d - 1)))
    for subset in (drawn, (), range(d)):
        keys, got = kernels._subset_counts(table, rows, subset)
        want = _brute_subset_counts(rows, table, subset)
        if 2 ** len(subset) <= len(rows):
            assert keys.tolist() == list(range(2 ** len(subset)))
        else:
            assert keys.tolist() == sorted(want)
        assert got.shape == (len(keys), 2, k)
        for key, cells in zip(keys.tolist(), got):
            assert np.array_equal(cells, want.get(key, np.zeros((2, k))))


@settings(max_examples=40, deadline=None)
@given(*_TABLE_DRAWS)
def test_marginal_level_counts_match_the_dense_level(seed, d, n_patterns, k, data):
    rows, table = _drawn_table(seed, d, n_patterns, k)
    size = data.draw(st.integers(0, d - 1))
    parent_subsets, parents = _dense_level(rows, table, size + 1)
    subsets, want = _dense_level(rows, table, size)
    got = kernels._marginal_level_counts(parents, parent_subsets, subsets)
    assert got.shape == (len(subsets), 2**size, 2, k)
    assert np.array_equal(got, want)


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
    counts = _one_per_row(y, e, n_env)
    with pytest.raises(ValueError):
        _leaf_counts(features, None, None, None, _both_polarities(5), counts[:-1])
    with pytest.raises(ValueError):
        kernels.leaf_label_env_counts(features, counts, [0, 1], [1])
    with pytest.raises(ValueError):
        kernels.leaf_label_env_counts(features, counts[:, 0], [0], [1])
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


def test_fits_and_tests_count_through_kernels_not_the_icp_baseline():
    # the count table and its helpers live in _kernels: the greedy learners
    # and the tests import nothing from the exhaustive baseline, and every
    # name for joint_strata is the one function
    package = Path(rulecover.__file__).parent
    for module in ("scm.py", "icscm.py", "stats.py"):
        for node in ast.walk(ast.parse((package / module).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module] + [alias.name for alias in node.names]
                assert "icp" not in imported, f"{module} imports from icp"
    assert rulecover.joint_strata is stats.joint_strata is kernels.joint_strata


# sample counts around one word, and across the packer's row blocks
_PACK_SAMPLES = st.one_of(
    st.integers(1, 63),
    st.integers(64, 300),
    st.sampled_from([1, 64, 128]),
    st.integers(kernels._PACK_ROWS - 70, kernels._PACK_ROWS + 200),
    st.integers(2 * kernels._PACK_ROWS - 3, 2 * kernels._PACK_ROWS + 70),
)
# column counts on both sides of 64 and of multiples of 8
_PACK_FEATURES = st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 72, 73])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), _PACK_SAMPLES, _PACK_FEATURES)
def test_pack_matches_packbits_of_the_transpose(seed, m, d):
    rng = np.random.default_rng(seed)
    matrix = (rng.random((m, d)) < rng.random(d)).astype(np.uint8)
    packed = kernels._pack_columns(matrix)
    words = -(-m // 64)
    assert packed.dtype == np.uint64 and packed.shape == (d, words)
    want = np.zeros((d, 8 * words), dtype=np.uint8)
    want[:, : -(-m // 8)] = np.packbits(matrix.T, axis=1, bitorder="little")
    assert np.array_equal(packed.view(np.uint8), want)


def _drawn_dataset(seed, m, d, k):
    """Random 0/1 data with every one of k dense env ids present."""
    rng = np.random.default_rng(seed)
    features = (rng.random((m, d)) < rng.random(d)).astype(np.uint8)
    labels = (rng.random(m) < rng.random()).astype(np.uint8)
    envs = rng.integers(0, k, m)
    envs[:k] = np.arange(k)
    return Dataset(features=features, labels=labels, envs=envs)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31), st.integers(3, 300), st.integers(1, 70),
    st.sampled_from([1, 2, 3]), st.booleans(),
)
def test_packed_leaf_counts_match_brute_force(seed, m, d, k, pool):
    dataset = _drawn_dataset(seed, m, d, k)
    columns, masks = kernels._packed_table(dataset)
    envs, n_env = dataset.envs, k
    if pool:
        # the masks scm's engine holds: ORed over env, all samples in env 0
        masks = _BitsLeft(columns, masks, False, pooled=True).masks
        envs, n_env = np.zeros(m, dtype=np.int64), 1
    counts = _one_per_row(dataset.labels, envs, n_env)
    rng = np.random.default_rng(seed + 1)
    drawn = [Rule(int(j), int(v)) for j, v in rng.integers(0, [d, 2], size=(7, 2))]
    # the whole table, then the samples one drawn rule keeps (masks ANDed
    # with its column or the complement), as a fit holds them
    rule = drawn[0]
    column = columns[rule.feature_index]
    kept = masks & (column if rule.expected_value else ~column)
    fired = evaluate(rule, dataset.features)[:, None, None]
    for masks, counts in ((masks, counts), (kept, counts * fired)):
        for rules in (_both_polarities(d), drawn):
            index = [r.feature_index for r in rules]
            value = [r.expected_value for r in rules]
            got = kernels.leaf_label_env_counts(columns, masks, index, value)
            want = _brute_weighted_leaf_counts(dataset.features, counts, rules)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31), st.integers(20, 300), st.integers(1, 40),
    st.sampled_from([1, 2, 3]), st.sampled_from(["conjunction", "disjunction"]),
    st.booleans(), st.sampled_from([1, 10]), st.sampled_from(["chi2", "gtest"]),
)
def test_greedy_fit_on_packed_columns_matches_the_distinct_rows(
    seed, m, d, k, model_type, explicit, min_leaf, method
):
    dataset = _drawn_dataset(seed, m, d, k)
    rules = None
    if explicit:
        # a caller's list, with repeats, in any order, on any column
        rng = np.random.default_rng(seed + 1)
        drawn = rng.integers(0, [d, 2], size=(8, 2))
        rules = [Rule(int(j), int(v)) for j, v in drawn]
    config = IcscmConfig(max_rules=5, alpha=0.3, min_leaf=min_leaf, test_method=method)
    filters = dict(
        leaf_filter=partial(_first_invariant_leaf, config),
        stop_test=partial(_invariance_reached, config),
    )

    def fit(table, **filters):
        try:
            return _greedy_fit(table, rules, model_type, 1.0, 5, **filters)
        except Exception as exc:
            return type(exc), str(exc)

    # scm (the engine sums the env axis away), then icscm with and without
    # pruning, on the one table both fit
    rows = kernels._count_table(dataset)
    packed = kernels._packed_table(dataset)
    assert fit(packed) == fit(rows)
    report = fit(packed, **filters)
    assert report == fit(rows, **filters)
    if isinstance(report, tuple) or not report.model.rules or k == 1:
        return  # pruning needs a model and two environments
    pruned = prune(report.model, dataset, config.alpha)
    assert pruned == prune(report.model, dataset, config.alpha, table=rows)
