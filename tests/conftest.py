from pathlib import Path

import numpy as np
import pytest

from rulecover.data import Dataset, StopReason, _csv_rows
from rulecover.errors import DataError
from rulecover.stats import independence_test


def evaluate(rule, features):
    """Vector of rule outputs (uint8) over the rows of a feature matrix: the
    per-rule reference for ``data.prediction_matrix``."""
    features = np.asarray(features)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    if rule.feature_index >= features.shape[1]:
        raise DataError(
            f"rule on feature {rule.feature_index} applied to "
            f"{features.shape[1]}-column data"
        )
    return (features[:, rule.feature_index] == rule.expected_value).astype(np.uint8)


def load_dataset_csv_reference(path):
    """Field-by-field reference for ``data.load_dataset_csv``. It parses env
    ids with ``int()``, so it is looser than the loader on those."""
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3 or header[-2:] != ["y", "e"]:
            raise DataError(f"{path}: header must end with 'y,e', got {header}")
        names = tuple(header[:-2])
        d = len(names)
        features, labels, envs = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(
                    f"{path}:{lineno}: expected {d + 2} columns, got {len(row)}"
                )
            feat_row = []
            for j, value in enumerate(row[:d]):
                if value not in ("0", "1"):
                    raise DataError(
                        f"{path}:{lineno}: column '{names[j]}': "
                        f"expected 0/1, got {value!r}"
                    )
                feat_row.append(int(value))
            if row[d] not in ("0", "1"):
                raise DataError(
                    f"{path}:{lineno}: column 'y': expected 0/1, got {row[d]!r}"
                )
            try:
                env = int(row[d + 1])
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: column 'e': expected an integer, "
                    f"got {row[d + 1]!r}"
                ) from None
            if env < 0:
                raise DataError(f"{path}:{lineno}: column 'e': negative env id {env}")
            if env >= 2**63:
                raise DataError(
                    f"{path}:{lineno}: column 'e': env id {env} exceeds 2**63 - 1"
                )
            features.append(feat_row)
            labels.append(int(row[d]))
            envs.append(env)
    if not features:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        features=np.array(features, dtype=np.uint8),
        labels=np.array(labels, dtype=np.uint8),
        envs=np.array(envs, dtype=np.int64),
        feature_names=names,
    )


def n_distinct_envs(dataset):
    """The number of distinct environment ids in a dataset."""
    return int(np.unique(dataset.envs).size)


def utility(rule, negative_features, positive_features, p):
    """Covered negatives minus p times misclassified positives."""
    covered = int((evaluate(rule, negative_features) == 0).sum())
    errors = int((evaluate(rule, positive_features) == 0).sum())
    return float(covered) - p * float(errors)


def leaf_invariance_pvalue(rule, dataset, min_leaf=10, method="chi2", active=None):
    """p-value of the label-vs-environment independence test over the
    samples the rule sends to its negative leaf (rule output 0), restricted
    to ``active`` samples when given. Returns 1 when the leaf holds fewer
    than ``min_leaf`` samples."""
    leaf = evaluate(rule, dataset.features) == 0
    if active is not None:
        leaf &= active
    if int(leaf.sum()) < min_leaf:
        return 1.0
    return independence_test(
        dataset.labels[leaf], dataset.envs[leaf], method=method
    ).p_value


def greedy_reference(features, labels, p, max_rules, rules):
    """Independent brute-force re-derivation of the greedy rule sequence.

    Recomputes every utility from scratch each round with per-sample Python
    loops over explicit index sets; ties go to the lowest candidate index.
    """
    pos = {i for i in range(len(labels)) if labels[i] == 1}
    neg = {i for i in range(len(labels)) if labels[i] == 0}
    chosen = []
    used = set()
    while len(chosen) < max_rules and neg:
        best = None
        for idx, rule in enumerate(rules):
            if idx in used:
                continue
            covered = set()
            errors = set()
            for i in pos | neg:
                output = int(features[i][rule.feature_index] == rule.expected_value)
                if output == 0:
                    if i in neg:
                        covered.add(i)
                    else:
                        errors.add(i)
            score = len(covered) - p * len(errors)
            if best is None or score > best[0]:
                best = (score, idx, covered, errors)
        if best is None:
            break
        _, idx, covered, errors = best
        chosen.append(rules[idx])
        used.add(idx)
        neg -= covered
        pos -= errors
    return chosen


def eager_icscm_reference(dataset, config, rules):
    """Unpruned icscm fit that scores every available rule's leaf test each
    round, then takes the argmax utility over the rules that pass (ties to
    the lowest candidate index). Returns (rules, log entries, stop reason);
    a log entry is (rule, utility, leaf p-value, stop p-value).
    """
    features, labels, envs = dataset.features, dataset.labels, dataset.envs
    active = np.ones(dataset.n_samples, dtype=bool)
    used = set()
    chosen, log = [], []
    while True:
        if len(chosen) >= config.max_rules:
            return chosen, log, StopReason.MAX_RULES
        if not (labels[active] == 0).any():
            return chosen, log, StopReason.NO_NEGATIVES_LEFT
        if len(used) == len(rules):
            return chosen, log, StopReason.NO_VALID_RULE
        best = None
        for idx, rule in enumerate(rules):
            if idx in used:
                continue
            p_value = leaf_invariance_pvalue(
                rule, dataset, config.min_leaf, config.test_method, active
            )
            if p_value <= config.alpha:
                continue
            leaf = active & (evaluate(rule, features) == 0)
            score = float((leaf & (labels == 0)).sum()) - config.p * float(
                (leaf & (labels == 1)).sum()
            )
            if best is None or score > best[0]:
                best = (score, idx, p_value)
        if best is None:
            return chosen, log, StopReason.NO_VALID_RULE
        score, idx, p_value = best
        used.add(idx)
        chosen.append(rules[idx])
        active &= evaluate(rules[idx], features) == 1
        gamma = 1.0
        if active.any():
            gamma = independence_test(
                labels[active], envs[active], method=config.test_method
            ).p_value
        log.append((rules[idx], score, p_value, gamma))
        if gamma > config.alpha:
            return chosen, log, StopReason.INVARIANCE_REACHED


def random_instance(rng, max_features=4, max_samples=64):
    """Small random dataset with at least one varying feature column."""
    while True:
        d = int(rng.integers(1, max_features + 1))
        m = int(rng.integers(4, max_samples + 1))
        features = (rng.random((m, d)) < rng.random(d)).astype(np.uint8)
        labels = (rng.random(m) < 0.5).astype(np.uint8)
        envs = (rng.random(m) < 0.5).astype(np.int64)
        if any(
            features[:, j].min() != features[:, j].max() for j in range(d)
        ) and labels.min() != labels.max():
            return Dataset(features=features, labels=labels, envs=envs)


@pytest.fixture
def xor_and_dataset():
    """All four input combinations of y = x0 AND x1, replicated 25 times,
    with environments assigned in a balanced, label-independent pattern."""
    base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    features = np.repeat(base, 25, axis=0)
    labels = features[:, 0] & features[:, 1]
    envs = np.tile(np.array([0, 1], dtype=np.int64), 50)
    return Dataset(features=features, labels=labels, envs=envs)


def table_to_vectors(table):
    """Expand a 2 x k contingency table into (y, e) sample vectors."""
    ys, es = [], []
    for y_value, row in enumerate(table):
        for e_value, count in enumerate(row):
            ys.extend([y_value] * count)
            es.extend([e_value] * count)
    return np.array(ys, dtype=np.int64), np.array(es, dtype=np.int64)


def no_enumeration(*args):
    """Stands in for ``icp.combinations`` in feasibility tests, so that a run
    the check should refuse fails at once instead of enumerating subsets."""
    raise AssertionError("subsets enumerated before the feasibility check")
