"""Greedy set-covering learner for conjunctions (and, via De Morgan,
disjunctions) of binary rules.

Each iteration scores every candidate rule by utility
``|covered negatives| - p * |misclassified positives|``, appends the argmax
(ties broken by lowest candidate index) and discards the samples the new rule
settles. Training stops when no negatives remain, the length cap is hit, or
the candidate pool is exhausted. A fit reads the data once, as the table
``_kernels._greedy_table`` builds. On the count table's R <= 2**d distinct
feature rows, every candidate's leaf table comes from one pass of
count-weighted column sums over the rows not yet covered: O(R * d) per
iteration, and the appended rule is applied to those rows only. On
bit-packed columns a leaf count is a popcount of column AND (label, env)
group mask, O(d * m / 64) words per group, and applying a rule ANDs each
mask with one column. The default candidates are held as (index, value)
arrays, and the first leaf count shows the constant columns.

The greedy loop (``_greedy_fit``) and its table are shared with the
invariance-filtered learner, which adds a leaf filter and a stopping test.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .data import (
    _MODEL_TYPES,
    Conjunction,
    FitReport,
    IterationRecord,
    Rule,
    StopReason,
    _rule_arrays,
    prediction_matrix,
)
from .errors import ConfigError, DataError, _require_fields, _require_int
from .errors import _require_real

# Not called here (a fit's candidates come from the fit's table); the traced
# benchmark (perfbench/layers.py) rebinds this name on this module.
from .data import candidate_rules  # noqa: F401


@dataclass(frozen=True)
class ScmConfig:
    """p: utility trade-off, the finite positive penalty on each
    misclassified positive; max_rules: cap on the conjunction length."""

    p: float = 1.0
    max_rules: int = 10

    def __post_init__(self):
        # p = inf would make 0 * p NaN for every rule with no errors
        _require_fields(
            self, _require_real, "p", low=0, high=math.inf, what="finite and positive"
        )
        _require_fields(self, _require_int, "max_rules", minimum=1)


def scm_fit(dataset, config, rules=None, model_type="conjunction"):
    """Fit a conjunction (or disjunction) greedily.

    ``rules`` defaults to the dataset's candidate stumps. A disjunction is
    fitted as the conjunction of the negated rules on negated labels (De
    Morgan) and reported with the caller's rules.
    """
    table = kernels._greedy_table(dataset)
    return _greedy_fit(table, rules, model_type, config.p, config.max_rules)


def _greedy_fit(
    table, rules, model_type, p, max_rules, leaf_filter=None, stop_test=None
):
    """The greedy engine shared by scm and icscm.

    ``table`` is the dataset's table from ``_kernels._greedy_table``, and the
    engine holds the samples of it still to cover (``_RowsLeft`` or
    ``_BitsLeft``). ``rules`` defaults to the 2d stumps in
    ``candidate_rules``' order, held as (index, value) arrays; the first leaf
    count, made before any stop check, drops a constant column's pair (one
    of its leaves is empty) and raises DataError when no column varies. An
    explicit empty list raises ConfigError. Each iteration orders the
    available candidates by (-utility, index). Without a filter the first is
    appended: the argmax, lowest index on ties. ``leaf_filter(leaves,
    order)`` instead returns the first candidate it accepts as (index, leaf
    p-value), or None to stop with ``no_valid_rule``; ``leaves`` holds every
    candidate's (label, env) leaf table over the remaining samples, summed
    from the feature columns. Only an appended candidate becomes a ``Rule``;
    the samples it settles are dropped. ``stop_test(left)`` on the (2, k)
    label/environment table of what is left then returns (p-value, stop),
    and stop ends the fit with ``invariance_reached``; with neither function
    nothing reads env ids, so the holder sums the env axis away (k = 1). A
    disjunction is fitted on flipped labels: candidates are counted and
    applied negated (De Morgan), while the model and the log keep the
    caller's rules.
    """
    if model_type not in _MODEL_TYPES:
        raise ConfigError(f"unknown model_type {model_type!r}")
    is_disjunction = bool(_MODEL_TYPES.index(model_type))
    holder = _BitsLeft if kernels._is_packed(table[0]) else _RowsLeft
    held = holder(*table, is_disjunction, leaf_filter is None and stop_test is None)
    d = held.n_features
    if rules is None:
        index, values = np.repeat(np.arange(d), 2), np.tile([1, 0], d)
    else:
        rules = list(rules)
        if not rules:
            raise ConfigError("empty candidate rule set")
        index, values = _rule_arrays(rules, d)
    applied = 1 - values if is_disjunction else values

    leaves = held.leaves(index, applied)
    available = np.ones(len(index), dtype=bool)
    if rules is None:
        available = leaves.any(axis=(1, 2)).reshape(d, 2).all(axis=1).repeat(2)
        if not available.any():
            raise DataError("no feature column varies, so there is no candidate rule")
    # The (label, env) table of the samples left: each appended rule's leaf
    # table is exactly what it drops.
    left = held.totals()
    log = []

    while True:
        if len(log) >= max_rules:
            stop = StopReason.MAX_RULES
            break
        if not left[0].any():
            stop = StopReason.NO_NEGATIVES_LEFT
            break
        if not available.any():
            stop = StopReason.NO_VALID_RULE
            break

        if log:
            leaves = held.leaves(index, applied)
        covered = leaves[:, 0, :].sum(axis=1)
        errors = leaves[:, 1, :].sum(axis=1)
        utilities = covered.astype(np.float64) - p * errors.astype(np.float64)
        order = np.flatnonzero(available)
        order = order[np.argsort(-utilities[order], kind="stable")]
        if leaf_filter is None:
            best, leaf_p = int(order[0]), None
        else:
            found = leaf_filter(leaves, order)
            if found is None:
                stop = StopReason.NO_VALID_RULE
                break
            best, leaf_p = found

        rule = Rule(int(index[best]), int(values[best]))
        available[best] = False
        held.keep(rule.negated() if is_disjunction else rule)
        left = left - leaves[best]
        stop_p = reached = None
        if stop_test is not None:
            stop_p, reached = stop_test(left)
        log.append(IterationRecord(rule, float(utilities[best]), leaf_p, stop_p))
        if reached:
            stop = StopReason.INVARIANCE_REACHED
            break

    model = Conjunction(tuple(record.rule for record in log), is_disjunction)
    return FitReport(model, model.feature_indices(), log, stop)


class _RowsLeft:
    """Uncovered samples as count-table rows and their (R, 2, k) counts,
    summed over env if ``pooled``: applying a rule keeps the rows it fires on."""

    def __init__(self, rows, counts, is_disjunction, pooled):
        if pooled:
            counts = np.einsum("ryk->ry", counts)[:, :, None]
        if is_disjunction:
            counts = np.ascontiguousarray(counts[:, ::-1])
        self.rows, self.counts = rows, counts
        self.n_features = rows.shape[1]

    def totals(self):
        return np.einsum("ryk->yk", self.counts)

    def leaves(self, index, applied):
        return kernels.leaf_label_env_counts(self.rows, self.counts, index, applied)

    def keep(self, rule):
        kept = prediction_matrix(self.rows, [rule])[:, 0] == 1
        self.rows = np.compress(kept, self.rows, axis=0)
        self.counts = np.compress(kept, self.counts, axis=0)


class _BitsLeft:
    """Uncovered samples as (2, k, W) group masks over the (d, W) packed
    columns, ORed over env if ``pooled`` (the env groups are disjoint):
    applying a rule ANDs every mask with its column, or with the complement
    (the masks' padding bits stay 0)."""

    def __init__(self, columns, masks, is_disjunction, pooled):
        if pooled:
            masks = np.bitwise_or.reduce(masks, axis=1, keepdims=True)
        if is_disjunction:
            masks = np.ascontiguousarray(masks[::-1])
        self.columns, self.masks = columns, masks
        self.n_features = columns.shape[0]

    def totals(self):
        return np.bitwise_count(self.masks).sum(axis=2, dtype=np.int64)

    def leaves(self, index, applied):
        return kernels.leaf_label_env_counts(self.columns, self.masks, index, applied)

    def keep(self, rule):
        column = self.columns[rule.feature_index]
        self.masks = self.masks & (column if rule.expected_value else ~column)
