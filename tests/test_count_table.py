"""The count table behind every fit: its builder against a brute-force count,
and scm, icscm and pruning on it against the sample-level references."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from rulecover import icp
from rulecover.data import Conjunction, Dataset, Rule, candidate_rules
from rulecover.icp import _count_table
from rulecover.icscm import IcscmConfig, icscm_fit, prune
from rulecover.scm import ScmConfig, scm_fit
from rulecover.stats import conditional_gtest, joint_strata

from conftest import eager_icscm_reference, greedy_reference

SPARSE_IDS = [0, 1, 7, 10**6, 10**12]


def _dataset(shape, n_patterns, env_ids, seed):
    """Random data whose shape picks the builder's branch: "narrow" (few
    features, many samples) has a (row, label, env) key space within the
    bincount bound, "wide" (many features, few samples) beyond it. With
    ``n_patterns`` every row is one of a few, so rows repeat."""
    rng = np.random.default_rng(seed)
    if shape == "narrow":
        d, m = int(rng.integers(1, 4)), int(rng.integers(60, 301))
    else:
        d, m = int(rng.integers(8, 17)), int(rng.integers(4, 61))
    if n_patterns is None:
        features = rng.integers(0, 2, (m, d), dtype=np.uint8)
    else:
        patterns = rng.integers(0, 2, (n_patterns, d), dtype=np.uint8)
        features = patterns[rng.integers(0, n_patterns, m)]
    envs = np.array(env_ids)[rng.integers(0, len(env_ids), m)]
    envs[: len(env_ids)] = env_ids
    labels = rng.integers(0, 2, m, dtype=np.uint8)
    dataset = Dataset(features=features, labels=labels, envs=envs)
    k = len(env_ids)
    assert (2**d * 2 * k <= icp._KEYS_PER_SAMPLE * m) == (shape == "narrow")
    return dataset


def _brute_count_table(dataset):
    """Distinct rows in ascending packed key (column j at bit j), each with
    its (label, env) counts, env ids numbered in ascending order."""
    env_ids = sorted(set(dataset.envs.tolist()))
    tables = {}
    for row, y, e in zip(
        dataset.features.tolist(), dataset.labels.tolist(), dataset.envs.tolist()
    ):
        table = tables.setdefault(tuple(row), np.zeros((2, len(env_ids)), int))
        table[y, env_ids.index(e)] += 1
    keys = sorted(tables, key=lambda row: sum(b << j for j, b in enumerate(row)))
    return np.array(keys, dtype=np.uint8), np.array([tables[row] for row in keys])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["narrow", "wide"]),
    st.one_of(st.none(), st.integers(1, 6)),
    st.lists(st.sampled_from(SPARSE_IDS), min_size=1, max_size=3, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_builder_matches_brute_force_count(shape, n_patterns, env_ids, seed):
    dataset = _dataset(shape, n_patterns, env_ids, seed)
    want_rows, want_counts = _brute_count_table(dataset)
    # narrow data is counted by one bincount, wide data sorted; both
    # compress to the distinct rows
    rows, counts = _count_table(dataset, sort_wide=True)
    assert rows.dtype == np.uint8 and counts.dtype == np.int64
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(counts, want_counts)
    rows, counts = _count_table(dataset, sort_wide=False)
    if shape == "narrow":
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(counts, want_counts)
    else:
        # one row per sample, each counted once under its label and env
        assert np.array_equal(rows, dataset.features)
        assert counts.shape == (dataset.n_samples, 2, len(env_ids))
        assert (counts.sum(axis=(1, 2)) == 1).all()
        _, envs = np.unique(dataset.envs, return_inverse=True)
        where = np.arange(dataset.n_samples)
        assert (counts[where, dataset.labels, envs] == 1).all()
    # pooled: the same rows, every sample in one environment
    rows, counts = _count_table(dataset, sort_wide=True, pool_envs=True)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(counts, want_counts.sum(axis=2, keepdims=True))


def _applied(rules, model_type, labels):
    """The rules and labels a fit of ``model_type`` counts with (De Morgan
    for a disjunction), and how to map a counted rule back."""
    if model_type == "disjunction":
        return [r.negated() for r in rules], 1 - labels, Rule.negated
    return rules, labels, lambda rule: rule


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["narrow", "wide"]),
    st.one_of(st.none(), st.integers(1, 6)),
    st.lists(st.sampled_from(SPARSE_IDS), min_size=2, max_size=3, unique=True),
    st.sampled_from(["conjunction", "disjunction"]),
    st.booleans(),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(1, 6),
    st.sampled_from([0.05, 0.3, 0.7]),
    st.sampled_from([1, 3, 10]),
    st.sampled_from(["chi2", "gtest"]),
    st.integers(0, 2**32 - 1),
)
def test_fits_on_the_count_table_match_sample_references(
    shape, n_patterns, env_ids, model_type, explicit, p, max_rules, alpha,
    min_leaf, method, seed,
):
    dataset = _dataset(shape, n_patterns, env_ids, seed)
    # the references run over candidate_rules; the fits, given no list,
    # read the same candidates from the count table
    rules = candidate_rules(dataset)
    assume(rules)
    given = None
    if explicit:
        # a caller's list, with repeats, in any order, on any column
        rng = np.random.default_rng(seed + 1)
        drawn = rng.integers(0, [dataset.n_features, 2], size=(8, 2))
        rules = given = [Rule(int(j), int(v)) for j, v in drawn]
    applied, labels, back = _applied(rules, model_type, dataset.labels)

    report = scm_fit(dataset, ScmConfig(p, max_rules), given, model_type)
    want = greedy_reference(
        dataset.features.tolist(), labels.tolist(), p, max_rules, applied
    )
    assert report.model.rules == tuple(back(rule) for rule in want)

    config = IcscmConfig(p, max_rules, alpha, min_leaf, method, prune=False)
    report = icscm_fit(dataset, config, given, model_type)
    counted = Dataset(features=dataset.features, labels=labels, envs=dataset.envs)
    chosen, log, stop = eager_icscm_reference(counted, config, applied)
    assert report.model.rules == tuple(back(rule) for rule in chosen)
    assert [
        (rec.rule, rec.utility, rec.leaf_p_value, rec.stop_p_value)
        for rec in report.per_iteration_log
    ] == [(back(rule), *rest) for rule, *rest in log]
    assert report.stop_reason == stop


def _prune_reference(model, dataset, alpha):
    """``prune`` as one sample-level conditional G-test per candidate
    removal."""
    rules = list(model.rules)
    removed = True
    while removed and rules:
        removed = False
        for idx in range(len(rules)):
            remaining = {r.feature_index for j, r in enumerate(rules) if j != idx}
            strata = joint_strata(dataset.features, remaining)
            result = conditional_gtest(dataset.labels, dataset.envs, strata)
            if result.p_value > alpha:
                del rules[idx]
                removed = True
                break
    return Conjunction(rules=tuple(rules), is_disjunction=model.is_disjunction)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["narrow", "wide"]),
    st.one_of(st.none(), st.integers(1, 6)),
    st.lists(st.sampled_from(SPARSE_IDS), min_size=2, max_size=3, unique=True),
    st.integers(0, 6),
    st.booleans(),
    st.sampled_from([0.05, 0.3, 0.7]),
    st.integers(0, 2**32 - 1),
)
def test_prune_matches_sample_level_conditional_tests(
    shape, n_patterns, env_ids, n_rules, is_disjunction, alpha, seed
):
    dataset = _dataset(shape, n_patterns, env_ids, seed)
    rng = np.random.default_rng(seed + 1)
    drawn = rng.integers(0, [dataset.n_features, 2], size=(n_rules, 2))
    model = Conjunction(
        rules=tuple(Rule(int(j), int(v)) for j, v in drawn),
        is_disjunction=is_disjunction,
    )
    assert prune(model, dataset, alpha) == _prune_reference(model, dataset, alpha)
