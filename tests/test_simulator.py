import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulecover import simulator
from rulecover.errors import ConfigError
from rulecover.harness import derive_run_seed
from rulecover.simulator import (
    DEFAULT_PARENT_PROBS,
    SimConfig,
    oracle_accuracy,
    save_simulation,
    simulate,
)
from rulecover.stats import independence_test
from rulecover.data import load_dataset_csv

from conftest import n_distinct_envs, simulate_reference


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_envs=0)
    with pytest.raises(ConfigError):
        SimConfig(n_samples_per_env=0)
    with pytest.raises(ConfigError):
        SimConfig(eps_y=1.5)
    with pytest.raises(ConfigError):
        SimConfig(n_envs=3)  # no default parent table beyond two envs
    with pytest.raises(ConfigError):
        SimConfig(parent_probs=((0.5, 0.5),))  # one row for two envs
    with pytest.raises(ConfigError, match="exactly two entries"):
        SimConfig(parent_probs=((0.5, 0.5, 0.5), (0.5, 0.5)))


def test_shapes_and_partition():
    ds, truth = simulate(SimConfig(n_distractors=3, seed=1))
    assert ds.features.shape == (20000, 6)
    assert ds.feature_names == (
        "parent_1", "parent_2", "distractor_1", "distractor_2", "distractor_3",
        "child",
    )
    groups = (
        set(truth.parent_indices)
        | set(truth.distractor_indices)
        | {truth.child_index}
    )
    assert groups == set(range(6))
    assert len(truth.parent_indices) + len(truth.distractor_indices) + 1 == 6
    assert np.bincount(ds.envs).tolist() == [10000, 10000]


def test_deterministic_given_seed():
    a, _ = simulate(SimConfig(n_distractors=2, seed=42))
    b, _ = simulate(SimConfig(n_distractors=2, seed=42))
    c, _ = simulate(SimConfig(n_distractors=2, seed=43))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.envs, b.envs)
    assert not np.array_equal(a.features, c.features)


def test_parent_marginals_match_table():
    ds, _ = simulate(SimConfig(seed=33))
    f, e = ds.features, ds.envs
    for env in (0, 1):
        for j in (0, 1):
            target = DEFAULT_PARENT_PROBS[env][j]
            assert f[e == env, j].mean() == pytest.approx(target, abs=0.015)


def test_label_noise_level():
    ds, truth = simulate(SimConfig(seed=8))
    acc_parents, _ = oracle_accuracy(ds, truth)
    assert acc_parents == pytest.approx(0.95, abs=0.01)


def test_child_tracks_label_without_noise():
    ds, truth = simulate(SimConfig(eps_child=0.0, seed=5, n_samples_per_env=2000))
    _, acc_child = oracle_accuracy(ds, truth)
    assert acc_child == 1.0


def test_child_is_better_predictor():
    ds, truth = simulate(SimConfig(seed=3))
    acc_parents, acc_child = oracle_accuracy(ds, truth)
    assert acc_child > acc_parents


def test_structural_invariance_across_envs():
    ds, _ = simulate(SimConfig(seed=12))
    f, y, e = ds.features, ds.labels, ds.envs
    for a in (0, 1):
        for b in (0, 1):
            rates = []
            for env in (0, 1):
                mask = (f[:, 0] == a) & (f[:, 1] == b) & (e == env)
                if mask.sum() >= 500:
                    rates.append(y[mask].mean())
            if len(rates) == 2:
                assert abs(rates[0] - rates[1]) <= 0.03


def test_spurious_label_env_dependence():
    rejected = 0
    for run in range(20):
        ds, _ = simulate(SimConfig(seed=derive_run_seed(301, 3, run)))
        result = independence_test(ds.labels, ds.envs, method="gtest")
        rejected += result.p_value < 0.05
    assert rejected == 20


def test_distractors_independent_of_label():
    # calibration: the distractor/label G-test should reject at no more than
    # roughly the nominal 5% level
    rejections = 0
    trials = 200
    for run in range(trials):
        ds, truth = simulate(
            SimConfig(n_distractors=1, seed=derive_run_seed(302, 1, run))
        )
        j = next(iter(truth.distractor_indices))
        result = independence_test(ds.features[:, j], ds.labels, method="gtest")
        rejections += result.p_value < 0.05
    assert rejections / trials <= 0.07


def test_three_envs_with_explicit_table():
    config = SimConfig(
        n_envs=3,
        n_samples_per_env=1000,
        parent_probs=((0.1, 0.5), (0.5, 0.3), (0.9, 0.2)),
        eps_child=1.0,
        seed=2,
    )
    ds, truth = simulate(config)
    assert n_distinct_envs(ds) == 3
    # with eps_child = 1 the child records min(env, 1) exactly
    child = ds.features[:, truth.child_index]
    assert np.array_equal(child, np.minimum(ds.envs, 1).astype(np.uint8))


def test_save_simulation_round_trip(tmp_path):
    config = SimConfig(n_distractors=1, n_samples_per_env=200, seed=77)
    ds, truth = simulate(config)
    csv_path, json_path = save_simulation(ds, truth, config, tmp_path)
    loaded = load_dataset_csv(csv_path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.envs, ds.envs)
    import json

    doc = json.loads(json_path.read_text())
    assert doc["ground_truth"]["parent_indices"] == [0, 1]
    assert doc["ground_truth"]["child_index"] == truth.child_index
    assert doc["sim_config"]["seed"] == 77


def _assert_matches_reference(config):
    dataset, truth = simulate(config)
    expected, expected_truth = simulate_reference(config)
    for name in ("features", "labels", "envs"):
        got, want = getattr(dataset, name), getattr(expected, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert dataset.feature_names == expected.feature_names
    assert truth == expected_truth


_UNIT = st.floats(0.0, 1.0)


# None keeps the module's chunk; 1 and 3 draw the distractors 1 or 3 rows at a
# time, so most configs end on a partial chunk
@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@settings(max_examples=20, deadline=None)
@given(
    parent_probs=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=3),
    n=st.integers(1, 3000),
    k=st.integers(0, 300),
    eps=st.tuples(_UNIT, _UNIT, _UNIT),
    seed=st.integers(0, 2**64 - 1),
)
def test_simulate_matches_whole_array_reference(
    chunk_rows, parent_probs, n, k, eps, seed
):
    config = SimConfig(
        n_envs=len(parent_probs),
        n_samples_per_env=n,
        n_distractors=k,
        eps_y=eps[0],
        eps_child=eps[1],
        eps_distractor=eps[2],
        parent_probs=tuple(parent_probs),
        seed=seed,
    )
    with pytest.MonkeyPatch.context() as patch:
        if chunk_rows is not None:
            doubles = chunk_rows * max(k, 1)
            patch.setattr(simulator, "_DISTRACTOR_CHUNK_DOUBLES", doubles)
        _assert_matches_reference(config)


def test_simulate_wider_than_a_chunk_matches_whole_array_reference():
    # more distractors than one chunk's doubles: one row per chunk
    k = simulator._DISTRACTOR_CHUNK_DOUBLES + 7
    _assert_matches_reference(SimConfig(n_samples_per_env=3, n_distractors=k, seed=5))
