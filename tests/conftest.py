import numpy as np
import pytest

from rulecover.data import Dataset, StopReason
from rulecover.icscm import leaf_invariance_pvalue
from rulecover.stats import independence_test


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
            leaf = active & (rule.evaluate(features) == 0)
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
        active &= rules[idx].evaluate(features) == 1
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
