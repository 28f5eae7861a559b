import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rulecover.data import (
    Conjunction,
    Dataset,
    Rule,
    candidate_rules,
    load_dataset_csv,
    load_model_json,
    save_dataset_csv,
    save_model_json,
)
from rulecover.errors import DataError


def test_rule_evaluate_truth():
    rule = Rule(1, 1)
    X = np.array([[0, 1], [0, 0], [1, 1]], dtype=np.uint8)
    assert rule.evaluate(X).tolist() == [1, 0, 1]
    assert Rule(0, 0).evaluate(X).tolist() == [1, 1, 0]


def test_rule_validation():
    with pytest.raises(DataError):
        Rule(-1, 0)
    with pytest.raises(DataError):
        Rule(0, 2)


def test_rule_out_of_range_feature():
    with pytest.raises(DataError):
        Rule(5, 1).evaluate(np.zeros((3, 2), dtype=np.uint8))


def test_empty_conjunction_predicts_one():
    X = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert Conjunction().predict(X).tolist() == [1, 1]
    assert Conjunction(is_disjunction=True).predict(X).tolist() == [0, 0]


def test_conjunction_truth_table():
    model = Conjunction(rules=(Rule(0, 1), Rule(1, 1)))
    assert model.predict_one([1, 1, 0]) == 1
    assert model.predict_one([1, 0, 0]) == 0


def test_disjunction_de_morgan_example():
    model = Conjunction(rules=(Rule(0, 1), Rule(1, 1)), is_disjunction=True)
    assert model.predict_one([0, 1]) == 1
    assert model.predict_one([0, 0]) == 0


def test_de_morgan_identity_exhaustive():
    # conjunction(rules) == NOT disjunction(negated rules), all d <= 4 inputs
    rule_sets = [
        (Rule(0, 1),),
        (Rule(0, 1), Rule(1, 0)),
        (Rule(0, 0), Rule(1, 1), Rule(2, 1)),
        (Rule(0, 1), Rule(1, 1), Rule(2, 0), Rule(3, 1)),
    ]
    for rules in rule_sets:
        d = max(r.feature_index for r in rules) + 1
        conj = Conjunction(rules=rules)
        disj_neg = Conjunction(
            rules=tuple(r.negated() for r in rules), is_disjunction=True
        )
        for bits in itertools.product((0, 1), repeat=d):
            x = np.array(bits, dtype=np.uint8)
            assert conj.predict_one(x) == 1 - disj_neg.predict_one(x)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=5),
       st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_predict_is_pure(rule_spec, bits):
    model = Conjunction(rules=tuple(Rule(j, v) for j, v in rule_spec))
    x = np.array(bits, dtype=np.uint8)
    assert model.predict_one(x) == model.predict_one(x)
    assert model.predict_one(x) in (0, 1)


def _dataset(features, labels=None, envs=None):
    features = np.asarray(features, dtype=np.uint8)
    m = features.shape[0]
    if labels is None:
        labels = np.zeros(m, dtype=np.uint8)
        labels[: m // 2] = 1
    if envs is None:
        envs = np.zeros(m, dtype=np.int64)
    return Dataset(features=features, labels=labels, envs=envs)


def test_candidate_rules_counts():
    ds = _dataset([[0, 1, 0], [1, 0, 1], [0, 1, 1], [1, 0, 0]])
    rules = candidate_rules(ds)
    assert len(rules) == 6
    assert rules[0] == Rule(0, 1) and rules[1] == Rule(0, 0)


def test_candidate_rules_drops_constant_column():
    ds = _dataset([[0, 0], [1, 0], [0, 0], [1, 0]])
    rules = candidate_rules(ds)
    assert rules == [Rule(0, 1), Rule(0, 0)]


def test_candidate_rules_single_feature():
    ds = _dataset([[0], [1]])
    assert candidate_rules(ds) == [Rule(0, 1), Rule(0, 0)]


def test_dataset_validation():
    with pytest.raises(DataError):
        _dataset([[0, 2]])
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1), dtype=np.uint8),
            labels=np.array([0, 1, 1], dtype=np.uint8),
            envs=np.zeros(2, dtype=np.int64),
        )
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1), dtype=np.uint8),
            labels=np.array([0, 1], dtype=np.uint8),
            envs=np.array([0, -1], dtype=np.int64),
        )
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1), dtype=np.uint8),
            labels=np.array([0, 1], dtype=np.uint8),
            envs=np.zeros(2, dtype=np.int64),
            feature_names=("a", "b"),
        )


# Values are checked before the cast to uint8/int64, which would otherwise
# turn 0.5 and 256 into 0, label 257 into 1 and env 1.7 into 1.
def test_dataset_rejects_features_the_cast_would_change():
    with pytest.raises(DataError, match="features"):
        Dataset(features=[[0.5], [256.0]], labels=[0, 1], envs=[0, 1])


def test_dataset_rejects_labels_the_cast_would_change():
    with pytest.raises(DataError, match="labels"):
        Dataset(features=[[0], [1]], labels=[257, 0], envs=[0, 1])


def test_dataset_rejects_fractional_env_ids():
    with pytest.raises(DataError, match="environment ids"):
        Dataset(features=[[0], [1]], labels=[0, 1], envs=[1.7, 0])


def test_dataset_arrays_are_read_only():
    ds = _dataset([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1


def test_csv_round_trip(tmp_path):
    ds = _dataset(
        [[0, 1], [1, 0], [1, 1]],
        labels=np.array([1, 0, 1], dtype=np.uint8),
        envs=np.array([0, 1, 2], dtype=np.int64),
    )
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    text = path.read_bytes()
    assert text.startswith(b"x0,x1,y,e\n")
    assert b"\r" not in text
    loaded = load_dataset_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.envs, ds.envs)


def test_csv_parse_error_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,y,e\n0,1,0\n2,0,1\n")
    with pytest.raises(DataError, match=r"bad.csv:3.*x0"):
        load_dataset_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n0,1,0\n")
    with pytest.raises(DataError, match="header"):
        load_dataset_csv(path)


def test_model_json_round_trip(tmp_path):
    model = Conjunction(rules=(Rule(2, 0), Rule(0, 1)), is_disjunction=True)
    path = tmp_path / "model.json"
    save_model_json(model, path, stop_reason="max_rules")
    loaded, stop = load_model_json(path)
    assert loaded == model
    assert stop == "max_rules"
    X = (np.random.default_rng(0).random((20, 3)) < 0.5).astype(np.uint8)
    assert np.array_equal(loaded.predict(X), model.predict(X))
