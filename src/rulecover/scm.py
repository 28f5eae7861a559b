"""Greedy set-covering learner for conjunctions (and, via De Morgan,
disjunctions) of binary rules.

Each iteration scores every candidate rule by utility
``|covered negatives| - p * |misclassified positives|``, appends the argmax
(ties broken by lowest candidate index) and discards the samples the new rule
settles. Training stops when no negatives remain, the length cap is hit, or
the candidate pool is exhausted. A fit reads the data once, as a count table:
its R distinct feature rows (R <= 2**d, or one row per sample when 2**d is
too large for that to pay), each with a (label, env) table of counts. Every
candidate is a stump on a 0/1 column, so one pass of count-weighted column
sums over the rows not yet covered gives every candidate's leaf table: an
iteration costs O(R * d) counting plus O(|rules|) gathering, and the appended
rule is applied to those rows only. The default candidates are held as
(index, value) arrays, and the first leaf count shows the constant columns.

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
    Rule,
    StopReason,
    _rule_arrays,
    prediction_matrix,
)
from .errors import ConfigError, DataError, _require_int_fields
from .icp import _count_table

# Not called here (a fit's candidates come from the count table); the traced
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
        if not 0 < self.p < math.inf:
            raise ConfigError(f"p must be finite and positive, got {self.p}")
        _require_int_fields(self, max_rules=1)


def scm_fit(dataset, config, rules=None, model_type="conjunction"):
    """Fit a conjunction (or disjunction) greedily.

    ``rules`` defaults to the dataset's candidate stumps. A disjunction is
    fitted as the conjunction of the negated rules on negated labels (De
    Morgan) and reported with the caller's rules.
    """
    table = _count_table(dataset, sort_wide=False, pool_envs=True)
    return _greedy_fit(table, rules, model_type, config.p, config.max_rules)


def _greedy_fit(
    table, rules, model_type, p, max_rules, leaf_filter=None, stop_test=None
):
    """The greedy engine shared by scm and icscm.

    ``table`` is the dataset's count table, ``(rows, counts)`` from
    ``icp._count_table``, and the engine holds the part of it still to
    cover. ``rules`` defaults to the 2d stumps in ``candidate_rules``' order,
    held as (index, value) arrays; the first leaf count, made before any stop
    check, drops a constant column's pair (one of its leaves is empty) and
    raises DataError when no column varies. An explicit empty list raises
    ConfigError. Each iteration orders the available candidates by
    (-utility, index). Without a filter the first is appended: the argmax,
    lowest index on ties. ``leaf_filter(leaves, order)`` instead returns the
    first candidate it accepts as (index, leaf p-value), or None to stop with
    ``no_valid_rule``; ``leaves`` holds every candidate's (label, env) leaf
    table over the remaining rows, summed from the feature columns. Only an
    appended candidate becomes a ``Rule``; it is applied to the remaining
    rows, and the rows it settles are dropped. ``stop_test(left)`` on the
    (2, k) label/environment table of what is left then returns (p-value,
    stop), and stop ends the fit with ``invariance_reached``. A disjunction
    is fitted on flipped labels: candidates are counted and applied negated
    (De Morgan), while the model and the log keep the caller's rules.
    """
    if model_type not in ("conjunction", "disjunction"):
        raise ConfigError(f"unknown model_type {model_type!r}")
    is_disjunction = model_type == "disjunction"
    rows, counts = table
    d = rows.shape[1]
    if rules is None:
        index, values = np.repeat(np.arange(d), 2), np.tile([1, 0], d)
    else:
        rules = list(rules)
        if not rules:
            raise ConfigError("empty candidate rule set")
        index, values = _rule_arrays(rules, d)
    applied = values
    if is_disjunction:
        counts = np.ascontiguousarray(counts[:, ::-1])
        applied = 1 - values

    leaves = kernels.leaf_label_env_counts(rows, counts, index, applied)
    available = np.ones(len(index), dtype=bool)
    if rules is None:
        available = leaves.any(axis=(1, 2)).reshape(d, 2).all(axis=1).repeat(2)
        if not available.any():
            raise DataError("no feature column varies, so there is no candidate rule")
    # The (label, env) table of the rows left: each appended rule's leaf
    # table is exactly what it drops.
    left = np.einsum("ryk->yk", counts)
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
            leaves = kernels.leaf_label_env_counts(rows, counts, index, applied)
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
        kept = prediction_matrix(rows, [rule.negated() if is_disjunction else rule])
        kept = kept[:, 0] == 1
        rows = np.compress(kept, rows, axis=0)
        counts = np.compress(kept, counts, axis=0)
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
