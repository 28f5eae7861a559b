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
rule is applied to those rows only.

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
from .icp import _count_table


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
    table = _count_table(dataset, sort_wide=False, pool_envs=True)
    return _greedy_fit(
        dataset, table, rules, model_type, config.p, config.max_rules
    )


def _greedy_fit(
    dataset, table, rules, model_type, p, max_rules, leaf_filter=None,
    stop_test=None,
):
    """The greedy engine shared by scm and icscm.

    ``table`` is the dataset's count table, ``(rows, counts)`` from
    ``icp._count_table``, and the engine holds the part of it still to
    cover. Each iteration orders the available candidates by (-utility,
    index). Without a filter the first is appended: the argmax, lowest index
    on ties. ``leaf_filter(leaves, order)`` instead returns the first
    candidate it accepts as (rule index, leaf p-value), or None to stop with
    ``no_valid_rule``; ``leaves`` holds every rule's (label, env) leaf table
    over the remaining rows, summed from the feature columns. Each appended
    rule is applied to the remaining rows only, and the rows it settles are
    dropped. ``stop_test(left)`` on the (2, k) label/environment table of
    what is left then returns (p-value, stop), and stop ends the fit with
    ``invariance_reached``. A disjunction is fitted on flipped labels:
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
    rows, counts = table
    applied = rules
    if is_disjunction:
        counts = np.ascontiguousarray(counts[:, ::-1])
        applied = [r.negated() for r in rules]

    index, values = _rule_arrays(applied, rows.shape[1])
    # The (label, env) table of the rows left: each appended rule's leaf
    # table is exactly what it drops.
    left = np.einsum("ryk->yk", counts)
    available = np.ones(len(rules), dtype=bool)
    chosen = []
    log = []

    while True:
        if len(chosen) >= max_rules:
            stop = StopReason.MAX_RULES
            break
        if not left[0].any():
            stop = StopReason.NO_NEGATIVES_LEFT
            break
        if not available.any():
            stop = StopReason.NO_VALID_RULE
            break

        leaves = kernels.leaf_label_env_counts(rows, counts, index, values)
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

        chosen.append(rules[best])
        available[best] = False
        kept = prediction_matrix(rows, [applied[best]])[:, 0] == 1
        rows = np.compress(kept, rows, axis=0)
        counts = np.compress(kept, counts, axis=0)
        left = left - leaves[best]
        stop_p = reached = None
        if stop_test is not None:
            stop_p, reached = stop_test(left)
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
