"""Invariance-filtered set covering: greedy construction where every
candidate rule must leave the label independent of the environment inside its
negative leaf, with an environment-independence stopping test on the samples
that remain, plus iterative pruning of rules whose removal keeps the label
independent of the environment given the other selected features.
"""

from dataclasses import dataclass, replace
from functools import partial

from . import _kernels as kernels
from .data import Conjunction, _rule_arrays
from .errors import ConfigError, _require_bool, _require_fields, _require_int
from .errors import _require_real
from .scm import ScmConfig, _greedy_fit
from .stats import _TEST_METHODS, _require_environments, chi2_sf
from .stats import stratified_tests, table_stats

# Not called here: the greedy engine in scm.py reads the default candidates
# from the fit's table and applies each appended rule, the stop test and
# pruning score count tables, and _kernels packs the strata. The traced
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
        _require_fields(self, _require_real, "alpha", low=0, high=1)
        _require_fields(self, _require_bool, "prune")
        _require_fields(self, _require_int, "min_leaf", minimum=1)
        if self.test_method not in _TEST_METHODS:
            choices = " or ".join(map(repr, _TEST_METHODS))
            raise ConfigError(
                f"test_method must be {choices}, got {self.test_method!r}"
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
    table = kernels._greedy_table(dataset)
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
    _, _, p_values = stratified_tests(table[None, None], config.test_method)
    gamma = p_values[0]
    return gamma, gamma > config.alpha


def prune(model, dataset, alpha, table=None):
    """Iteratively drop rules that are not needed for invariance.

    For each rule, test label-environment independence conditioned on the
    joint value of the features of the *other* rules; a p-value above alpha
    certifies the rule's feature is not a causal parent and the rule is
    removed. Each pass scores every rule in one ``stratified_tests`` call
    and removes the first that passes (the rule a scan restarting after each
    removal removes), until a pass removes nothing. Each test sums its strata
    from the count table of the model's columns: summed from the dataset's
    count table (``_kernels._count_table``) when a caller that holds it
    passes it as ``table``, else counted from the samples, as it is
    when ``table`` is packed (``_kernels._packed_table``) and holds no rows.
    """
    alpha = _require_real("alpha", alpha, 0, 1)
    _require_environments(dataset.envs)
    _rule_arrays(model.rules, dataset.n_features)
    # Every test conditions on some of the model's features, so the table is
    # first summed over their strata, each a row of the model's columns.
    columns = sorted(model.feature_indices())
    if table is None or kernels._is_packed(table[0]):
        rows, counts = kernels._count_table(dataset, columns=columns)
    else:
        keys, counts = kernels._subset_counts(table[1], table[0], columns)
        rows = kernels._unpack_keys(keys, len(columns))
    position = {feature: i for i, feature in enumerate(columns)}
    rules = list(model.rules)
    while rules:
        positions = [position[rule.feature_index] for rule in rules]
        others = [{*positions[:i], *positions[i + 1 :]} for i in range(len(rules))]
        strata = [kernels._subset_counts(counts, rows, s)[1] for s in others]
        _, _, p_values = stratified_tests(strata)
        passing = [i for i, p_value in enumerate(p_values) if p_value > alpha]
        if not passing:
            break
        del rules[passing[0]]
    return Conjunction(rules=tuple(rules), is_disjunction=model.is_disjunction)
