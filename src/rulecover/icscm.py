"""Invariance-filtered set covering: greedy construction where every
candidate rule must leave the label independent of the environment inside its
negative leaf, with an environment-independence stopping test on the samples
that remain, plus iterative pruning of rules whose removal keeps the label
independent of the environment given the other selected features.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import Conjunction, _rule_arrays
from .errors import ConfigError, _require_int_fields
from .icp import _count_table, _subset_counts, _unpack_keys
from .scm import ScmConfig, _greedy_fit
from .stats import _require_environments, chi2_sf, stratified_tests, table_stats

# Not called here: the greedy engine in scm.py reads the default candidates
# from the count table and applies each appended rule, the stop test and
# pruning score count tables, and icp.py numbers the strata. The traced
# benchmark (perfbench/layers.py) rebinds these names on this module, so
# they stay importable from here.
from .data import candidate_rules, prediction_matrix  # noqa: F401
from .stats import conditional_gtest, independence_test, joint_strata  # noqa: F401


@dataclass(frozen=True)
class IcscmConfig(ScmConfig):
    """Hyperparameters of the invariance-filtered learner: ScmConfig's p and
    max_rules, plus these. alpha: threshold on independence-test p-values,
    both for the per-rule leaf filter and the stopping test. min_leaf: leaves
    smaller than this are treated as degenerate (p = 1, not refutable); the
    asymptotic chi-square null is meaningless on a handful of samples.
    test_method: 'chi2' or 'gtest' for the leaf and stopping tests. prune:
    apply the conditional G-test pruning pass to the fitted model.
    """

    alpha: float = 0.05
    min_leaf: int = 10
    test_method: str = "chi2"
    prune: bool = True

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        _require_int_fields(self, min_leaf=1)
        if self.test_method not in ("chi2", "gtest"):
            raise ConfigError(
                f"test_method must be 'chi2' or 'gtest', got {self.test_method!r}"
            )


def icscm_fit(dataset, config, rules=None, model_type="conjunction"):
    """Greedy fit with the per-rule invariance filter and stopping test.

    Candidates whose negative-leaf test rejects independence (p <= alpha)
    are disregarded for that iteration; if every candidate is disregarded
    the fit stops with ``no_valid_rule``. After each append, the label/
    environment test on the surviving samples decides whether invariance is
    reached. Pruning is applied afterwards when configured. Disjunctions are
    fitted through De Morgan, as in ``scm_fit``.
    """
    _require_environments(dataset.envs)
    table = _count_table(dataset, sort_wide=False)
    report = _greedy_fit(
        table, rules, model_type, config.p, config.max_rules,
        leaf_filter=partial(_first_invariant_leaf, config),
        stop_test=partial(_invariance_reached, config),
    )
    if config.prune and len(report.model) > 0:
        model = prune(report.model, dataset, config.alpha, table=table)
        report = replace(
            report, model=model, selected_features=model.feature_indices()
        )
    return report


def _first_invariant_leaf(config, leaves, order):
    """The first candidate in ``order`` whose negative leaf passes the
    label/environment test, with its p-value; None when none passes.

    ``leaves`` holds every candidate's (label, env) leaf table. A leaf below
    ``min_leaf`` samples or with a degenerate table passes with p = 1.
    chi2_sf runs only until a candidate passes.
    """
    leaf_sizes = leaves.sum(axis=(1, 2))
    stat, dof = table_stats(leaves, config.test_method)
    for r in order:
        p_value = 1.0
        if leaf_sizes[r] >= config.min_leaf and dof[r] > 0:
            p_value = chi2_sf(stat[r], int(dof[r]))
        if p_value > config.alpha:
            return int(r), p_value
    return None


def _invariance_reached(config, left):
    """Stopping test on the (2, k) label/environment table of the samples
    not yet covered, with its empty env columns dropped: (p-value,
    p > alpha). An all-empty table scores p = 1, degenerate."""
    table = left[:, left.any(axis=0)]
    gamma = stratified_tests(table[None, None], config.test_method)[0].p_value
    return gamma, gamma > config.alpha


def prune(model, dataset, alpha, table=None):
    """Iteratively drop rules that are not needed for invariance.

    For each rule, test label-environment independence conditioned on the
    joint value of the features of the *other* rules; a p-value above alpha
    certifies the rule's feature is not a causal parent and the rule is
    removed. The scan restarts after each removal (the conditioning set has
    changed) and repeats until a full pass removes nothing. Each test sums
    the strata from the dataset's count table (``icp._count_table``), which
    a caller that already holds it passes as ``table``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    _require_environments(dataset.envs)
    _rule_arrays(model.rules, dataset.n_features)
    if table is None:
        table = _count_table(dataset, sort_wide=False)
    rows, counts = table
    k = counts.shape[2]
    flat = counts.reshape(len(rows), 2 * k).astype(np.float64)
    # Every test conditions on some of the model's features, so the table is
    # first summed over their 2**f joint values when those are fewer rows.
    columns = sorted(model.feature_indices())
    if 2 ** len(columns) <= len(rows):
        flat = _subset_counts(flat, rows, columns)
        rows = _unpack_keys(np.arange(2 ** len(columns)), len(columns))
    else:
        rows = rows[:, columns]
    position = {feature: i for i, feature in enumerate(columns)}
    rules = list(model.rules)
    removed = True
    while removed and rules:
        removed = False
        for idx in range(len(rules)):
            remaining = {
                position[r.feature_index] for j, r in enumerate(rules) if j != idx
            }
            strata = _subset_counts(flat, rows, remaining)
            result = stratified_tests(strata.reshape(1, -1, 2, k))[0]
            if result.p_value > alpha:
                del rules[idx]
                removed = True
                break
    return Conjunction(rules=tuple(rules), is_disjunction=model.is_disjunction)
