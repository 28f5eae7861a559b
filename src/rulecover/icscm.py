"""Invariance-filtered set covering: greedy construction where every
candidate rule must leave the label independent of the environment inside its
negative leaf, with an environment-independence stopping test on the samples
that remain, plus iterative pruning of rules whose removal keeps the label
independent of the environment given the other selected features.
"""

from dataclasses import dataclass, replace
from functools import partial

from .data import Conjunction
from .errors import ConfigError, DataError
from .scm import ScmConfig, _greedy_fit
from .stats import (
    _require_environments,
    chi2_sf,
    conditional_gtest,
    independence_test,
    joint_strata,
    table_stats,
)

# Not called here: the greedy engine in scm.py builds the candidates and
# applies each appended rule, and the traced benchmark (perfbench/layers.py)
# rebinds these names on this module, so they stay importable from here.
from .data import candidate_rules, prediction_matrix  # noqa: F401


@dataclass(frozen=True)
class IcscmConfig:
    """Hyperparameters of the invariance-filtered learner.

    p, max_rules: as in ScmConfig, which checks them. alpha: threshold on
    independence-test p-values, both for the per-rule leaf filter and the
    stopping test. min_leaf: leaves smaller than this are treated as
    degenerate (p = 1, not refutable); the asymptotic chi-square null is
    meaningless on a handful of samples. test_method: 'chi2' or 'gtest' for
    the leaf and stopping tests. prune: apply the conditional G-test pruning
    pass to the fitted model.
    """

    p: float = 1.0
    max_rules: int = 10
    alpha: float = 0.05
    min_leaf: int = 10
    test_method: str = "chi2"
    prune: bool = True

    def __post_init__(self):
        ScmConfig(self.p, self.max_rules)
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.min_leaf < 1:
            raise ConfigError(f"min_leaf must be >= 1, got {self.min_leaf}")
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
    report = _greedy_fit(
        dataset,
        rules,
        model_type,
        config.p,
        config.max_rules,
        leaf_filter=partial(_first_invariant_leaf, config),
        stop_test=partial(_invariance_reached, config),
    )
    if config.prune and len(report.model) > 0:
        model = prune(report.model, dataset, config.alpha)
        report = replace(
            report, model=model, selected_features=model.feature_indices()
        )
    return report


def _first_invariant_leaf(config, counts, order):
    """The first candidate in ``order`` whose negative leaf passes the
    label/environment test, with its p-value; None when none passes.

    ``counts`` holds every candidate's (label, env) leaf table. A leaf below
    ``min_leaf`` samples or with a degenerate table passes with p = 1.
    chi2_sf runs only until a candidate passes.
    """
    leaf_sizes = counts.sum(axis=(1, 2))
    stat, dof = table_stats(counts, config.test_method)
    for r in order:
        p_value = 1.0
        if leaf_sizes[r] >= config.min_leaf and dof[r] > 0:
            p_value = chi2_sf(stat[r], int(dof[r]))
        if p_value > config.alpha:
            return int(r), p_value
    return None


def _invariance_reached(config, labels, envs):
    """Stopping test on the samples not yet covered: (p-value, p > alpha)."""
    if labels.size == 0:
        return 1.0, True
    gamma = independence_test(labels, envs, method=config.test_method).p_value
    return gamma, gamma > config.alpha


def prune(model, dataset, alpha):
    """Iteratively drop rules that are not needed for invariance.

    For each rule, test label-environment independence conditioned on the
    joint value of the features of the *other* rules; a p-value above alpha
    certifies the rule's feature is not a causal parent and the rule is
    removed. The scan restarts after each removal (the conditioning set has
    changed) and repeats until a full pass removes nothing.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    _require_environments(dataset.envs)
    for rule in model.rules:
        if rule.feature_index >= dataset.n_features:
            raise DataError(
                f"model rule {rule} names feature {rule.feature_index} of "
                f"{dataset.n_features}-feature data"
            )
    rules = list(model.rules)
    labels, envs, features = dataset.labels, dataset.envs, dataset.features
    removed = True
    while removed and rules:
        removed = False
        for idx in range(len(rules)):
            remaining = {
                r.feature_index for j, r in enumerate(rules) if j != idx
            }
            strata = joint_strata(features, remaining)
            result = conditional_gtest(labels, envs, strata)
            if result.p_value > alpha:
                del rules[idx]
                removed = True
                break
    return Conjunction(rules=tuple(rules), is_disjunction=model.is_disjunction)
