import time
from dataclasses import asdict

import numpy as np
import pytest

from rulecover.data import Conjunction, Dataset, Rule, StopReason, candidate_rules
from rulecover.errors import ConfigError, DataError
from rulecover.harness import derive_run_seed
from rulecover.icscm import IcscmConfig, icscm_fit, prune
from rulecover.scm import ScmConfig, scm_fit
from rulecover.simulator import SimConfig, simulate

from conftest import (
    eager_icscm_reference,
    leaf_invariance_pvalue,
    n_distinct_envs,
    random_instance,
)


def _sim(xb=3, seed=0, m=10000):
    return simulate(SimConfig(n_distractors=xb, seed=seed, n_samples_per_env=m))


def test_config_validation():
    with pytest.raises(ConfigError):
        IcscmConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        IcscmConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        IcscmConfig(min_leaf=0)
    with pytest.raises(ConfigError):
        IcscmConfig(test_method="fisher")


def test_config_extends_scm_config():
    assert issubclass(IcscmConfig, ScmConfig)
    assert list(asdict(IcscmConfig())) == list(asdict(ScmConfig())) + [
        "alpha", "min_leaf", "test_method", "prune"
    ]
    for bad in ({"p": 0}, {"max_rules": 0}):
        with pytest.raises(ConfigError) as scm_error:
            ScmConfig(**bad)
        with pytest.raises(ConfigError) as icscm_error:
            IcscmConfig(**bad)
        assert str(icscm_error.value) == str(scm_error.value)


def test_single_environment_rejected():
    ds = Dataset(
        features=np.array([[0], [1], [0], [1]], dtype=np.uint8),
        labels=np.array([0, 1, 0, 1], dtype=np.uint8),
        envs=np.zeros(4, dtype=np.int64),
    )
    with pytest.raises(ConfigError, match="environment"):
        icscm_fit(ds, IcscmConfig())


class TestLeafInvariancePvalue:
    def test_constant_label_leaf_is_degenerate(self):
        ds = Dataset(
            features=np.array([[0], [0], [1], [1]] * 5, dtype=np.uint8),
            labels=np.array([0, 0, 1, 1] * 5, dtype=np.uint8),
            envs=np.tile([0, 1], 10).astype(np.int64),
        )
        # leaf of rule x0==1 holds only x0==0 samples, all labelled 0
        assert leaf_invariance_pvalue(Rule(0, 1), ds, min_leaf=5) == 1.0

    def test_label_equals_env_leaf_rejects(self):
        features = np.zeros((100, 1), dtype=np.uint8)
        labels = np.tile([0, 1], 50).astype(np.uint8)
        ds = Dataset(features=features, labels=labels, envs=labels.astype(np.int64))
        p = leaf_invariance_pvalue(Rule(0, 1), ds, min_leaf=10)
        assert p < 1e-6

    def test_min_leaf_guard(self):
        features = np.array([[0], [0], [0], [0]], dtype=np.uint8)
        ds = Dataset(
            features=features,
            labels=np.array([0, 1, 0, 1], dtype=np.uint8),
            envs=np.array([0, 0, 1, 1], dtype=np.int64),
        )
        assert leaf_invariance_pvalue(Rule(0, 1), ds, min_leaf=10) == 1.0


def test_environment_independent_data_prefix_of_scm(xor_and_dataset):
    # with environments independent of everything, every leaf test is
    # degenerate or near 1, so nothing is filtered; the invariance stop then
    # fires on the first iteration and the model is the first greedy rule
    config = IcscmConfig(p=1.0, max_rules=3, prune=False)
    report = icscm_fit(xor_and_dataset, config)
    scm_report = scm_fit(xor_and_dataset, ScmConfig(p=1.0, max_rules=3))
    assert report.stop_reason == StopReason.INVARIANCE_REACHED
    n = len(report.model.rules)
    assert report.model.rules == scm_report.model.rules[:n]
    assert report.per_iteration_log[0].leaf_p_value > 0.05


def test_tiny_alpha_makes_filter_vacuous(xor_and_dataset):
    config = IcscmConfig(p=1.0, max_rules=3, alpha=1e-12, prune=False)
    report = icscm_fit(xor_and_dataset, config)
    scm_report = scm_fit(xor_and_dataset, ScmConfig(p=1.0, max_rules=3))
    n = len(report.model.rules)
    assert n >= 1
    assert report.model.rules == scm_report.model.rules[:n]
    for rec in report.per_iteration_log:
        assert rec.leaf_p_value > 1e-12


def test_identifies_parents_on_simulated_data():
    hits = 0
    for run in range(10):
        ds, truth = _sim(xb=3, seed=derive_run_seed(101, 3, run))
        report = icscm_fit(ds, IcscmConfig())
        hits += report.selected_features == truth.parent_indices
    assert hits >= 8


def test_child_never_selected_when_identification_succeeds():
    for run in range(10):
        ds, truth = _sim(xb=3, seed=derive_run_seed(102, 3, run))
        report = icscm_fit(ds, IcscmConfig())
        if report.selected_features == truth.parent_indices:
            assert truth.child_index not in report.selected_features


def test_gamma_exceeds_alpha_when_parents_found():
    config = IcscmConfig()
    for run in range(6):
        ds, truth = _sim(xb=2, seed=derive_run_seed(103, 2, run))
        report = icscm_fit(ds, config)
        if (
            report.selected_features == truth.parent_indices
            and report.stop_reason == StopReason.INVARIANCE_REACHED
        ):
            assert report.per_iteration_log[-1].stop_p_value > config.alpha


def test_filter_rejects_child_rules_on_first_iteration():
    rejected = 0
    total = 0
    for run in range(20):
        ds, truth = _sim(xb=3, seed=derive_run_seed(104, 3, run))
        for expected in (0, 1):
            total += 1
            p = leaf_invariance_pvalue(
                Rule(truth.child_index, expected), ds, min_leaf=10
            )
            rejected += p <= 0.05
    assert rejected / total > 0.9


def test_gtest_leaf_method_also_works():
    ds, truth = _sim(xb=2, seed=derive_run_seed(105, 2, 0))
    report = icscm_fit(ds, IcscmConfig(test_method="gtest"))
    assert report.selected_features == truth.parent_indices


def _tie_heavy_instance(rng):
    """Small dataset whose columns repeat or complement a few base columns,
    so candidate utilities tie often; in some instances the label leans on
    the environment, so leaf tests reject and fits end in no_valid_rule."""
    while True:
        m = int(rng.integers(12, 80))
        base = (rng.random((m, int(rng.integers(1, 4)))) < 0.5).astype(np.uint8)
        cols = rng.integers(0, base.shape[1], size=int(rng.integers(2, 6)))
        flip = rng.random(len(cols)) < 0.3
        features = np.where(flip, 1 - base[:, cols], base[:, cols]).astype(np.uint8)
        envs = rng.integers(0, int(rng.integers(2, 4)), size=m)
        lean = rng.random(m) < rng.random()
        labels = np.where(lean, envs % 2, rng.random(m) < 0.5).astype(np.uint8)
        if len(np.unique(envs)) > 1 and labels.min() != labels.max():
            ds = Dataset(features=features, labels=labels, envs=envs)
            if candidate_rules(ds):
                return ds


def test_lazy_filter_matches_eager_reference():
    rng = np.random.default_rng(2024)
    stops = []
    for _ in range(150):
        ds = _tie_heavy_instance(rng)
        rules = candidate_rules(ds)
        if rng.random() < 0.5:
            rules = [rules[i] for i in rng.permutation(len(rules))]
        config = IcscmConfig(
            p=float(rng.choice([0.5, 1.0, 2.0])),
            max_rules=int(rng.integers(1, 6)),
            alpha=float(rng.choice([0.05, 0.3, 0.7])),
            min_leaf=int(rng.choice([1, 5, 10])),
            test_method=str(rng.choice(["chi2", "gtest"])),
            prune=False,
        )
        report = icscm_fit(ds, config, rules=rules)
        chosen, log, stop = eager_icscm_reference(ds, config, rules)
        assert list(report.model.rules) == chosen
        assert [
            (rec.rule, rec.utility, rec.leaf_p_value, rec.stop_p_value)
            for rec in report.per_iteration_log
        ] == log
        assert report.stop_reason == stop
        stops.append(stop)
    assert stops.count(StopReason.NO_VALID_RULE) >= 10
    assert stops.count(StopReason.INVARIANCE_REACHED) >= 10
    assert stops.count(StopReason.MAX_RULES) >= 5


def test_disjunction_duality():
    rng = np.random.default_rng(21)
    fitted = 0
    while fitted < 10:
        ds = random_instance(rng)
        rules = candidate_rules(ds)
        if n_distinct_envs(ds) < 2 or not rules:
            continue
        fitted += 1
        config = IcscmConfig(max_rules=4, alpha=0.3, min_leaf=5)
        disj = icscm_fit(ds, config, rules=rules, model_type="disjunction")
        flipped = Dataset(
            features=ds.features,
            labels=1 - ds.labels,
            envs=ds.envs,
            feature_names=ds.feature_names,
        )
        conj = icscm_fit(flipped, config, rules=[r.negated() for r in rules])
        assert disj.model.rules == tuple(r.negated() for r in conj.model.rules)
        assert disj.model.is_disjunction
        assert disj.stop_reason == conj.stop_reason
        assert [
            (rec.rule, rec.utility, rec.leaf_p_value, rec.stop_p_value)
            for rec in disj.per_iteration_log
        ] == [
            (rec.rule.negated(), rec.utility, rec.leaf_p_value, rec.stop_p_value)
            for rec in conj.per_iteration_log
        ]
        predictions = disj.model.predict(ds.features)
        assert np.array_equal(predictions, 1 - conj.model.predict(ds.features))


@pytest.mark.parametrize("ids", [(0, 10**6), (3, 7, 9)])
def test_fits_depend_on_env_order_not_id_values(ids):
    # the cost of a fit must not grow with the environment id values
    rng = np.random.default_rng(len(ids))
    m = 400
    features = (rng.random((m, 3)) < 0.5).astype(np.uint8)
    dense = rng.integers(0, len(ids), size=m)
    noise = rng.random(m) < np.where(dense == 0, 0.05, 0.25)
    labels = (features[:, 0] & features[:, 1]) ^ noise
    configs = (ScmConfig(), IcscmConfig())
    t0 = time.perf_counter()
    sparse = Dataset(features=features, labels=labels, envs=np.array(ids)[dense])
    got = (scm_fit(sparse, configs[0]), icscm_fit(sparse, configs[1]))
    elapsed = time.perf_counter() - t0
    relabelled = Dataset(features=features, labels=labels, envs=dense)
    assert got == (scm_fit(relabelled, configs[0]), icscm_fit(relabelled, configs[1]))
    assert elapsed < 1.0


class TestPrune:
    def test_removes_injected_distractor(self):
        ds, truth = _sim(xb=3, seed=derive_run_seed(14, 3, 0))
        injected = Conjunction(rules=(Rule(0, 1), Rule(1, 1), Rule(2, 1)))
        pruned = prune(injected, ds, alpha=0.05)
        assert pruned.feature_indices() == truth.parent_indices

    def test_keeps_correct_model(self):
        ds, truth = _sim(xb=3, seed=derive_run_seed(14, 3, 1))
        correct = Conjunction(rules=(Rule(0, 1), Rule(1, 1)))
        assert prune(correct, ds, alpha=0.05).rules == correct.rules

    def test_prune_is_subtractive(self):
        for run in range(5):
            ds, _ = _sim(xb=2, seed=derive_run_seed(106, 2, run))
            unpruned = icscm_fit(ds, IcscmConfig(prune=False))
            pruned = prune(unpruned.model, ds, alpha=0.05)
            assert set(pruned.rules) <= set(unpruned.model.rules)

    def test_empty_model_passthrough(self):
        ds, _ = _sim(xb=1, seed=7, m=500)
        assert prune(Conjunction(), ds, alpha=0.05).rules == ()

    def test_environment_independent_model_fully_pruned(self, xor_and_dataset):
        # label is independent of env even unconditionally, so every rule
        # gets certified as removable
        model = Conjunction(rules=(Rule(0, 1), Rule(1, 1)))
        assert prune(model, xor_and_dataset, alpha=0.05).rules == ()

    @pytest.mark.parametrize("n_rules", [1, 2])
    def test_rule_beyond_the_data_is_refused(self, n_rules):
        ds, _ = _sim(xb=3, seed=7, m=500)
        model = Conjunction(rules=(Rule(0, 1), Rule(50, 1))[-n_rules:])
        with pytest.raises(DataError, match="feature 50"):
            prune(model, ds, alpha=0.05)

    def test_single_environment_is_refused(self):
        ds, _ = _sim(xb=1, seed=7, m=500)
        one_env = Dataset(
            features=ds.features, labels=ds.labels, envs=np.full(ds.n_samples, 3)
        )
        model = Conjunction(rules=(Rule(0, 1), Rule(1, 1)))
        with pytest.raises(ConfigError, match="single-environment"):
            prune(model, one_env, alpha=0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.5])
    def test_alpha_outside_unit_interval_is_refused(self, alpha):
        ds, _ = _sim(xb=1, seed=7, m=500)
        with pytest.raises(ConfigError, match="alpha"):
            prune(Conjunction(rules=(Rule(0, 1),)), ds, alpha=alpha)
