import numpy as np
import pytest

from rulecover._kernels import _count_table
from rulecover.data import Dataset, Rule, StopReason, candidate_rules
from rulecover.errors import ConfigError, DataError
from rulecover.icscm import IcscmConfig, icscm_fit
from rulecover import scm as scm_module
from rulecover.scm import ScmConfig, scm_fit
from rulecover.simulator import SimConfig, simulate

from conftest import evaluate, greedy_reference, random_instance, utility


def test_utility_direct_formula():
    negatives = np.zeros((10, 1), dtype=np.uint8)   # rule x0==1 covers all ten
    positives = np.vstack([np.zeros((2, 1)), np.ones((5, 1))]).astype(np.uint8)
    rule = Rule(0, 1)
    assert utility(rule, negatives, positives, p=1.0) == 8.0
    assert utility(rule, negatives, positives, p=10.0) == -10.0
    covered_none = np.ones((4, 1), dtype=np.uint8)
    assert utility(rule, covered_none, np.ones((3, 1), dtype=np.uint8), p=1.0) == 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        ScmConfig(p=0.0)
    with pytest.raises(ConfigError):
        ScmConfig(max_rules=0)


@pytest.mark.parametrize("config", [ScmConfig, IcscmConfig])
@pytest.mark.parametrize("p", [float("inf"), float("nan"), -float("inf")])
def test_config_refuses_non_finite_p(config, p):
    # p = inf fitted "x0==1 and x0==0": 0 * inf made error-free rules NaN
    with pytest.raises(ConfigError, match="finite"):
        config(p=p)


@pytest.mark.parametrize(
    "fit, config",
    [(scm_fit, ScmConfig()), (icscm_fit, IcscmConfig())],
    ids=["scm", "icscm"],
)
@pytest.mark.parametrize("model_type", ["conjunction", "disjunction"])
def test_custom_rule_beyond_the_data_is_data_error(fit, config, model_type):
    ds, _ = simulate(SimConfig(n_distractors=3, n_samples_per_env=100))
    assert ds.n_features == 6
    with pytest.raises(DataError, match="rule on feature 99 applied to 6-column"):
        fit(ds, config, rules=[Rule(0, 1), Rule(99, 1)], model_type=model_type)


@pytest.mark.parametrize(
    "fit, config",
    [(scm_fit, ScmConfig()), (icscm_fit, IcscmConfig())],
    ids=["scm", "icscm"],
)
@pytest.mark.parametrize("model_type", ["conjunction", "disjunction"])
@pytest.mark.parametrize("labels", [[0, 1, 0, 1], [1, 1, 1, 1], [0, 0, 0, 0]])
def test_constant_data_has_no_candidate(fit, config, model_type, labels):
    # every column constant: refused before any stop check, also when one
    # label is missing and so nothing is left to cover
    ds = Dataset(
        features=np.array([[0, 1, 1]] * 4, dtype=np.uint8),
        labels=np.array(labels, dtype=np.uint8),
        envs=np.array([0, 0, 1, 1]),
    )
    with pytest.raises(DataError, match="no feature column varies"):
        fit(ds, config, model_type=model_type)
    with pytest.raises(ConfigError, match="unknown model_type"):
        fit(ds, config, model_type="either")


def test_noiseless_and_fit(xor_and_dataset):
    report = scm_fit(xor_and_dataset, ScmConfig(p=1.0, max_rules=3))
    assert report.selected_features == {0, 1}
    predictions = report.model.predict(xor_and_dataset.features)
    assert (predictions == xor_and_dataset.labels).all()
    assert report.stop_reason == StopReason.NO_NEGATIVES_LEFT
    # hand trace: both pure rules cover 50 negatives, tie broken to x0==1
    assert report.per_iteration_log[0].rule == Rule(0, 1)
    assert report.per_iteration_log[0].utility == 50.0
    assert report.per_iteration_log[1].rule == Rule(1, 1)
    assert report.per_iteration_log[1].utility == 25.0


def test_no_negatives_stops_immediately():
    ds = Dataset(
        features=np.array([[0, 1], [1, 0]], dtype=np.uint8),
        labels=np.array([1, 1], dtype=np.uint8),
        envs=np.zeros(2, dtype=np.int64),
    )
    report = scm_fit(ds, ScmConfig())
    assert len(report.model) == 0
    assert report.stop_reason == StopReason.NO_NEGATIVES_LEFT


def test_max_rules_cap(xor_and_dataset):
    report = scm_fit(xor_and_dataset, ScmConfig(max_rules=1))
    assert len(report.model) == 1
    assert report.stop_reason == StopReason.MAX_RULES
    # a caller's candidate list that runs out stops the fit below the cap
    ds, _ = simulate(SimConfig(n_distractors=1, n_samples_per_env=500, seed=2))
    for fit, config in ((scm_fit, ScmConfig), (icscm_fit, IcscmConfig)):
        report = fit(ds, config(max_rules=5), rules=[Rule(0, 1)])
        assert report.model.rules == (Rule(0, 1),)
        assert report.stop_reason == StopReason.NO_VALID_RULE


def test_empty_candidate_set_rejected(xor_and_dataset):
    with pytest.raises(ConfigError):
        scm_fit(xor_and_dataset, ScmConfig(), rules=[])


def test_matches_greedy_reference_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(25):
        ds = random_instance(rng)
        rules = candidate_rules(ds)
        if not rules:
            continue
        p = float(rng.choice([0.5, 1.0, 2.0]))
        max_rules = int(rng.integers(1, 5))
        report = scm_fit(ds, ScmConfig(p=p, max_rules=max_rules), rules=rules)
        expected = greedy_reference(
            ds.features.tolist(), ds.labels.tolist(), p, max_rules, rules
        )
        assert list(report.model.rules) == expected


def test_first_rule_attains_max_utility():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ds = random_instance(rng)
        rules = candidate_rules(ds)
        if not rules:
            continue
        report = scm_fit(ds, ScmConfig(p=1.0, max_rules=3), rules=rules)
        if not report.per_iteration_log:
            continue
        neg = ds.features[ds.labels == 0]
        pos = ds.features[ds.labels == 1]
        best = max(utility(r, neg, pos, 1.0) for r in rules)
        assert report.per_iteration_log[0].utility == best


def test_negative_pool_never_grows_and_shrinks_on_coverage():
    # strict shrink holds whenever the appended rule covered a negative;
    # zero-coverage appends are possible because utilities have no
    # positivity guard
    rng = np.random.default_rng(44)
    for _ in range(10):
        ds = random_instance(rng)
        rules = candidate_rules(ds)
        if not rules:
            continue
        report = scm_fit(ds, ScmConfig(p=1.0, max_rules=6), rules=rules)
        active = np.ones(ds.n_samples, dtype=bool)
        previous = int((ds.labels[active] == 0).sum())
        for rec in report.per_iteration_log:
            covered = int(
                ((evaluate(rec.rule, ds.features) == 0) & active & (ds.labels == 0)).sum()
            )
            active &= evaluate(rec.rule, ds.features) == 1
            remaining = int((ds.labels[active] == 0).sum())
            assert remaining <= previous
            if covered > 0:
                assert remaining < previous
            previous = remaining


def test_chosen_rules_never_repeat():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ds = random_instance(rng)
        rules = candidate_rules(ds)
        if not rules:
            continue
        report = scm_fit(ds, ScmConfig(p=0.5, max_rules=8), rules=rules)
        assert len(set(report.model.rules)) == len(report.model.rules)


def test_disjunction_duality():
    rng = np.random.default_rng(21)
    for _ in range(10):
        ds = random_instance(rng)
        rules = candidate_rules(ds)
        if not rules:
            continue
        config = ScmConfig(p=1.0, max_rules=4)
        disj = scm_fit(ds, config, rules=rules, model_type="disjunction")
        flipped = Dataset(
            features=ds.features,
            labels=1 - ds.labels,
            envs=ds.envs,
            feature_names=ds.feature_names,
        )
        conj = scm_fit(
            flipped, config, rules=[r.negated() for r in rules]
        )
        assert disj.model.rules == tuple(r.negated() for r in conj.model.rules)
        assert disj.model.is_disjunction
        predictions = disj.model.predict(ds.features)
        assert np.array_equal(predictions, 1 - conj.model.predict(ds.features))


def test_disjunction_fits_or_concept():
    # y = x0 OR x1, noiseless
    base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    features = np.repeat(base, 10, axis=0)
    labels = features[:, 0] | features[:, 1]
    ds = Dataset(features=features, labels=labels, envs=np.zeros(40, dtype=np.int64))
    report = scm_fit(ds, ScmConfig(max_rules=3), model_type="disjunction")
    assert np.array_equal(report.model.predict(features), labels)
    assert report.selected_features == {0, 1}


@pytest.mark.parametrize("fit", ["scm", "icscm"])
@pytest.mark.parametrize("model_type", ["conjunction", "disjunction"])
def test_fit_applies_one_rule_at_a_time(fit, model_type, monkeypatch):
    # Leaf tables come from feature column sums over the count table's
    # distinct rows, so the engine applies only the rule it appends, never
    # the whole candidate list, and only to the rows the rules before it kept.
    calls = []
    inner = scm_module.prediction_matrix

    def recorder(features, rules):
        out = inner(features, rules)
        calls.append((len(rules), features.shape[0], int((out[:, 0] == 1).sum())))
        return out

    monkeypatch.setattr(scm_module, "prediction_matrix", recorder)
    ds, _ = simulate(SimConfig(n_samples_per_env=500, n_distractors=4, seed=3))
    if fit == "scm":
        report = scm_fit(ds, ScmConfig(), model_type=model_type)
    else:
        config = IcscmConfig(prune=False)
        report = icscm_fit(ds, config, model_type=model_type)
    assert len(report.per_iteration_log) >= 1
    n_rules, rows, kept = zip(*calls)
    assert n_rules == (1,) * len(report.per_iteration_log)
    table_rows, _ = _count_table(ds)
    assert len(table_rows) < ds.n_samples
    assert rows == (len(table_rows),) + kept[:-1]
