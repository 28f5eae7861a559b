"""Greedy set-covering learner for conjunctions (and, via De Morgan,
disjunctions) of binary rules.

Each iteration scores every candidate rule by utility
``|covered negatives| - p * |misclassified positives|``, appends the argmax
(ties broken by lowest candidate index) and discards the samples the new rule
settles. Training stops when no negatives remain, the length cap is hit, or
the candidate pool is exhausted. Every candidate is a stump on a 0/1 column,
so one pass of per-(label, env) column sums over the samples not yet covered
gives every candidate's leaf table: an iteration costs O(m * d) counting plus
O(|rules|) gathering, and the appended rule is applied to those samples only.

The greedy loop (``_greedy_fit``) is shared with the invariance-filtered
learner, which adds a leaf filter and a stopping test to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .data import (
    Conjunction,
    FitReport,
    IterationRecord,
    StopReason,
    _rule_arrays,
    candidate_rules,
    prediction_matrix,
)
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class ScmConfig:
    """p: utility trade-off, the finite positive penalty on each
    misclassified positive; max_rules: cap on the conjunction length."""

    p: float = 1.0
    max_rules: int = 10

    def __post_init__(self):
        # p = inf would make 0 * p NaN for every rule with no errors
        if not 0 < self.p < math.inf:
            raise ConfigError(f"p must be finite and positive, got {self.p}")
        if self.max_rules < 1:
            raise ConfigError(f"max_rules must be >= 1, got {self.max_rules}")


def scm_fit(dataset, config, rules=None, model_type="conjunction"):
    """Fit a conjunction (or disjunction) greedily.

    ``rules`` defaults to the dataset's candidate stumps. A disjunction is
    fitted as the conjunction of the negated rules on negated labels (De
    Morgan) and reported with the caller's rules.
    """
    return _greedy_fit(dataset, rules, model_type, config.p, config.max_rules)


def _greedy_fit(
    dataset, rules, model_type, p, max_rules, leaf_filter=None, stop_test=None
):
    """The greedy engine shared by scm and icscm.

    The engine holds the features, labels and dense env ids of the samples
    still to cover. Each iteration orders the available candidates by
    (-utility, index). Without a filter the first is appended: the argmax,
    lowest index on ties. ``leaf_filter(counts, order)`` instead returns the
    first candidate it accepts as (rule index, leaf p-value), or None to stop
    with ``no_valid_rule``; ``counts`` holds every rule's (label, env) leaf
    table over the remaining samples, counted from the feature columns. Each
    appended rule is applied to the remaining samples only, and the samples
    it settles are dropped. ``stop_test(labels, envs)`` on what is left then
    returns (p-value, stop), and stop ends the fit with
    ``invariance_reached``. Env ids are densified once, so the cost does not
    depend on their values. A disjunction is fitted on flipped labels:
    candidates are counted and applied negated (De Morgan), while the model
    and the log keep the caller's rules. Default candidates on data where no
    column varies raise DataError; an explicit empty rule list raises
    ConfigError.
    """
    if model_type not in ("conjunction", "disjunction"):
        raise ConfigError(f"unknown model_type {model_type!r}")
    if rules is None:
        rules = candidate_rules(dataset)
        if not rules:
            raise DataError("no feature column varies, so there is no candidate rule")
    rules = list(rules)
    if not rules:
        raise ConfigError("empty candidate rule set")
    is_disjunction = model_type == "disjunction"
    features, labels = dataset.features, dataset.labels
    applied = rules
    if is_disjunction:
        labels = 1 - labels
        applied = [r.negated() for r in rules]

    index, values = _rule_arrays(applied, features.shape[1])
    _, envs = np.unique(dataset.envs, return_inverse=True)
    n_envs = int(envs.max()) + 1
    available = np.ones(len(rules), dtype=bool)
    chosen = []
    log = []

    while True:
        if len(chosen) >= max_rules:
            stop = StopReason.MAX_RULES
            break
        if not (labels == 0).any():
            stop = StopReason.NO_NEGATIVES_LEFT
            break
        if not available.any():
            stop = StopReason.NO_VALID_RULE
            break

        counts = kernels.leaf_label_env_counts(
            features, labels, envs, n_envs, index, values
        )
        covered = counts[:, 0, :].sum(axis=1)
        errors = counts[:, 1, :].sum(axis=1)
        utilities = covered.astype(np.float64) - p * errors.astype(np.float64)
        order = np.flatnonzero(available)
        order = order[np.argsort(-utilities[order], kind="stable")]
        if leaf_filter is None:
            best, leaf_p = int(order[0]), None
        else:
            found = leaf_filter(counts, order)
            if found is None:
                stop = StopReason.NO_VALID_RULE
                break
            best, leaf_p = found

        chosen.append(rules[best])
        available[best] = False
        kept = prediction_matrix(features, [applied[best]])[:, 0] == 1
        features, labels, envs = features[kept], labels[kept], envs[kept]
        stop_p = reached = None
        if stop_test is not None:
            stop_p, reached = stop_test(labels, envs)
        log.append(
            IterationRecord(
                rule=rules[best],
                utility=float(utilities[best]),
                leaf_p_value=leaf_p,
                stop_p_value=stop_p,
            )
        )
        if reached:
            stop = StopReason.INVARIANCE_REACHED
            break

    model = Conjunction(rules=tuple(chosen), is_disjunction=is_disjunction)
    return FitReport(
        model=model,
        selected_features=model.feature_indices(),
        per_iteration_log=tuple(log),
        stop_reason=stop,
    )
