from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rulecover import _kernels, icp
from rulecover.data import Dataset
from rulecover.errors import ConfigError, InfeasibleError
from rulecover.harness import derive_run_seed
from rulecover.icp import IcpConfig, IcpReport, SubsetTest, icp_report
from rulecover.simulator import SimConfig, simulate
from rulecover.stats import conditional_gtest, joint_strata

from conftest import n_distinct_envs, no_enumeration


def _independent_dataset(seed=0, m=400, d=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=(rng.random((m, d)) < 0.5).astype(np.uint8),
        labels=(rng.random(m) < 0.5).astype(np.uint8),
        envs=(rng.random(m) < 0.5).astype(np.int64),
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        IcpConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        IcpConfig(max_subset_size=-1)


def test_single_environment_rejected():
    ds = Dataset(
        features=np.array([[0], [1]], dtype=np.uint8),
        labels=np.array([0, 1], dtype=np.uint8),
        envs=np.zeros(2, dtype=np.int64),
    )
    with pytest.raises(ConfigError):
        icp_report(ds, IcpConfig())


def test_fully_independent_data_returns_empty_set():
    # env independent of label: the empty set is accepted, and the
    # intersection with the empty set is empty
    ds = _independent_dataset(seed=5)
    report = icp_report(ds, IcpConfig(min_samples_per_cell=0))
    empty = next(t for t in report.tests if t.features == ())
    assert empty.accepted
    assert report.selected == frozenset()


def test_subset_enumeration_order_and_count():
    ds = _independent_dataset(seed=1, d=3)
    report = icp_report(ds, IcpConfig(min_samples_per_cell=0))
    subsets = [t.features for t in report.tests]
    assert len(subsets) == 8
    assert subsets[0] == ()
    assert subsets[1:4] == [(0,), (1,), (2,)]
    sizes = [len(s) for s in subsets]
    assert sizes == sorted(sizes)


def test_identifies_parents_on_simulated_data():
    hits = 0
    for run in range(5):
        ds, truth = simulate(
            SimConfig(n_distractors=2, seed=derive_run_seed(201, 2, run))
        )
        hits += icp_report(ds, IcpConfig()).selected == set(truth.parent_indices)
    assert hits >= 4


def test_output_is_subset_of_every_accepted_set():
    ds, _ = simulate(SimConfig(n_distractors=3, seed=33))
    report = icp_report(ds, IcpConfig())
    for t in report.tests:
        if t.accepted:
            assert report.selected <= frozenset(t.features)


def test_parent_set_membership_logic():
    ds, truth = simulate(SimConfig(n_distractors=3, seed=34))
    report = icp_report(ds, IcpConfig())
    parents = frozenset(truth.parent_indices)
    accepted = [frozenset(t.features) for t in report.tests if t.accepted]
    if any(s == parents for s in accepted) and all(
        parents <= s for s in accepted
    ):
        assert report.selected == parents


def test_max_subset_size_caps_enumeration():
    ds = _independent_dataset(seed=2, d=5)
    report = icp_report(ds, IcpConfig(max_subset_size=2, min_samples_per_cell=0))
    assert len(report.tests) == 1 + 5 + 10
    assert max(len(t.features) for t in report.tests) == 2


def test_feasibility_refusal():
    ds = _independent_dataset(seed=3, d=25)
    with pytest.raises(InfeasibleError):
        icp_report(ds, IcpConfig())
    # a cap counts the tests it keeps: sum C(30, s) for s <= 15 > 2**20
    wide = _independent_dataset(seed=3, m=60, d=30)
    capped = IcpConfig(max_subset_size=15, min_samples_per_cell=0)
    with mock.patch.object(icp, "combinations", no_enumeration):
        with pytest.raises(InfeasibleError, match="614429672 subset tests"):
            icp_report(wide, capped)
    # capping restores feasibility
    report = icp_report(ds, IcpConfig(max_subset_size=1, min_samples_per_cell=0))
    assert isinstance(report.selected, frozenset)


def test_deficiency_guard_marks_large_subsets_degenerate():
    ds, _ = simulate(SimConfig(n_distractors=7, seed=11, n_samples_per_env=10000))
    report = icp_report(ds, IcpConfig(min_samples_per_cell=10))
    # 20000 samples < 10 * 2 * 2 * 2**9 cells: subsets of size >= 9 skip
    for t in report.tests:
        if len(t.features) >= 9:
            assert t.degenerate and t.accepted
        if len(t.features) <= 8:
            assert not t.degenerate


def test_tests_cover_the_full_powerset():
    ds, _ = simulate(SimConfig(n_distractors=1, seed=9, n_samples_per_env=2000))
    report = icp_report(ds, IcpConfig())
    assert len(report.tests) == 2 ** ds.n_features
    assert len({t.features for t in report.tests}) == len(report.tests)


def _reference_report(dataset, config):
    """The subset scan as one conditional_gtest over all m samples per subset,
    with the guard applied inline: a subset is degenerate (p = 1) unless the
    data fills ``min_samples_per_cell`` samples per cell of its 2 * k * 2**|S|
    (label, env, stratum) cells."""
    d = dataset.n_features
    k = n_distinct_envs(dataset)
    max_size = d if config.max_subset_size is None else min(d, config.max_subset_size)
    tests, selected = [], None
    for size in range(max_size + 1):
        for subset in combinations(range(d), size):
            cells = 2 * k * 2 ** len(subset)
            if dataset.n_samples < config.min_samples_per_cell * cells:
                p_value, degenerate = 1.0, True
            else:
                result = conditional_gtest(
                    dataset.labels,
                    dataset.envs,
                    joint_strata(dataset.features, subset),
                )
                p_value, degenerate = float(result.p_value), result.degenerate
            accepted = p_value > config.alpha
            tests.append(SubsetTest(subset, p_value, accepted, degenerate))
            if accepted:
                selected = (
                    frozenset(subset) if selected is None else selected & set(subset)
                )
    return IcpReport(
        selected=frozenset() if selected is None else selected, tests=tuple(tests)
    )


def _sparse_env_dataset():
    # three environments with ids {0, 5, 9}; the label leans on x0 and env
    rng = np.random.default_rng(21)
    m = 3000
    features = (rng.random((m, 4)) < 0.5).astype(np.uint8)
    envs = rng.choice(np.array([0, 5, 9]), size=m)
    p = 0.2 + 0.5 * features[:, 0] + 0.02 * (envs == 9)
    labels = (rng.random(m) < p).astype(np.uint8)
    return Dataset(features=features, labels=labels, envs=envs), None


def _constant_column_dataset():
    # x1 and x3 never vary, so strata over them are empty (more than 8
    # strata, so dropping them changes how the statistic sum is grouped); the
    # 32 distinct rows are fewer than the possible strata of subsets of size >= 6
    ds, _ = simulate(SimConfig(n_distractors=4, seed=8, n_samples_per_env=1500))
    features = np.array(ds.features)
    features[:, 1] = 0
    features[:, 3] = 1
    return Dataset(features=features, labels=ds.labels, envs=ds.envs), None


def _wide_dataset(d):
    ds = _independent_dataset(seed=d, m=300, d=d)
    return ds, 2


def _repeated_rows_dataset(d):
    # every row repeats one of 40 patterns; rows of up to 62 features pack
    # into one int64 key, and ICP counts them as the 40 distinct rows, but a
    # wider row has no key, so each of its samples is counted as its own row
    rng = np.random.default_rng(d)
    m = 300
    patterns = rng.integers(0, 2, (40, d), dtype=np.uint8)
    rows = np.concatenate([np.arange(40), rng.integers(0, 40, m - 40)])
    dataset = Dataset(
        features=patterns[rows],
        labels=rng.integers(0, 2, m, dtype=np.uint8),
        envs=rng.integers(0, 2, m),
    )
    n_rows = 40 if d <= 62 else m
    assert len(_kernels._count_table(dataset)[0]) == n_rows
    return dataset, 1


REFERENCE_CASES = {
    "simulated_xb1": lambda: (simulate(SimConfig(n_distractors=1, seed=31))[0], None),
    "simulated_xb3": lambda: (
        simulate(SimConfig(n_distractors=3, seed=32, n_samples_per_env=3000))[0],
        None,
    ),
    "sparse_env_ids": _sparse_env_dataset,
    "constant_column": _constant_column_dataset,
    "d25_capped": lambda: _wide_dataset(25),
    "d70_capped": lambda: _wide_dataset(70),
    "d62_repeated_rows": lambda: _repeated_rows_dataset(62),
    "d63_repeated_rows": lambda: _repeated_rows_dataset(63),
    "d70_repeated_rows": lambda: _repeated_rows_dataset(70),
    # d = 12 over m = 200 samples: every size from 8 up has more strata than
    # distinct rows, and is held with its unoccupied strata at 0
    "sparse_rows_held": lambda: (
        simulate(SimConfig(n_distractors=9, n_samples_per_env=100))[0],
        None,
    ),
}


@pytest.mark.parametrize("min_cell", [0, 10])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_cached_counts_match_per_subset_reference(case, min_cell):
    dataset, max_size = REFERENCE_CASES[case]()
    config = IcpConfig(max_subset_size=max_size, min_samples_per_cell=min_cell)
    assert icp_report(dataset, config) == _reference_report(dataset, config)


@given(
    st.integers(1, 7),
    st.integers(1, 400),
    st.lists(st.integers(0, 10**6), min_size=2, max_size=4, unique=True),
    st.sampled_from([0, 1, 10]),
    st.one_of(st.none(), st.integers(0, 7)),
    st.sampled_from(
        [(icp._LEVEL_CELLS, icp._BLOCK_CELLS), (64, 1), (0, 16), (0, icp._BLOCK_CELLS)]
    ),
    st.one_of(st.none(), st.integers(1, 8)),
    st.integers(0, 2**32 - 1),
)
def test_level_scan_matches_per_subset_reference(
    d, m, env_ids, min_cell, max_size, budgets, n_patterns, seed
):
    # n_patterns draws every row from a few distinct rows, so sizes with more
    # possible strata than rows are held with unoccupied strata at 0, or
    # counted from the rows in their occupied strata; the budgets (level,
    # block) hold only small levels, seeding the held chain low in the scan,
    # and score one subset per block at (64, 1); at (0, 16) and
    # (0, _BLOCK_CELLS) no size is held, and every size is counted from the
    # rows and scored in blocks of mostly one subset, or of many
    rng = np.random.default_rng(seed)
    if n_patterns is None:
        features = rng.integers(0, 2, (m, d), dtype=np.uint8)
    else:
        patterns = rng.integers(0, 2, (n_patterns, d), dtype=np.uint8)
        features = patterns[rng.integers(0, n_patterns, m)]
    dataset = Dataset(
        features=features,
        labels=rng.integers(0, 2, m, dtype=np.uint8),
        envs=rng.choice(np.array(env_ids), m),
    )
    config = IcpConfig(max_subset_size=max_size, min_samples_per_cell=min_cell)
    level_cells, block_cells = budgets
    with mock.patch.multiple(
        icp, _LEVEL_CELLS=level_cells, _BLOCK_CELLS=block_cells
    ):
        if n_distinct_envs(dataset) < 2:
            with pytest.raises(ConfigError):
                icp_report(dataset, config)
        else:
            assert icp_report(dataset, config) == _reference_report(dataset, config)


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_dense_levels_count_the_data_once(monkeypatch):
    # 4000 samples fill all 256 rows of d = 8, so every size is held densely:
    # one joint_strata call numbers the rows, the one subset of size 8 seeds
    # the held chain, and every smaller size is summed from the size above
    dataset = _independent_dataset(seed=4, m=4000, d=8)
    calls = _count_calls(
        monkeypatch, _kernels, ("joint_strata", "_subset_counts")
    )
    config = IcpConfig(min_samples_per_cell=0)
    report = icp_report(dataset, config)
    assert calls == {"joint_strata": 2, "_subset_counts": 1}
    assert len(report.tests) == 256
    monkeypatch.undo()
    assert report == _reference_report(dataset, config)


def test_guarded_top_size_seeds_the_held_chain(monkeypatch):
    # 4000 < 10 * 2 * 2 * 2**7 samples: the guard makes size 6 the largest
    # tested, so its C(8, 6) = 28 subsets seed the chain, one count each
    dataset = _independent_dataset(seed=4, m=4000, d=8)
    calls = _count_calls(
        monkeypatch, _kernels, ("joint_strata", "_subset_counts")
    )
    config = IcpConfig(min_samples_per_cell=10)
    report = icp_report(dataset, config)
    assert calls == {"joint_strata": 29, "_subset_counts": 28}
    monkeypatch.undo()
    assert report == _reference_report(dataset, config)


@pytest.mark.parametrize("max_size", [None, 7, 3])
def test_each_size_is_enumerated_once(monkeypatch, max_size):
    # one combinations call per size from max_size down to 0, the sizes the
    # guard skips (7 and 8 here) included
    dataset = _independent_dataset(seed=4, m=4000, d=8)
    calls = _count_calls(monkeypatch, icp, ("combinations",))
    config = IcpConfig(max_subset_size=max_size, min_samples_per_cell=10)
    report = icp_report(dataset, config)
    assert calls == {"combinations": (8 if max_size is None else max_size) + 1}
    monkeypatch.undo()
    assert report == _reference_report(dataset, config)
