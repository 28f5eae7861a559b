"""Independent numpy re-derivations of the two greedy learners, used to
check the benchmark's outputs outside the timed region.

They share no code with the package: candidates are (j, 1), (j, 0) for every
non-constant feature j, ties go to the lowest candidate index, and the
chi-square survival function uses the closed forms for integer degrees of
freedom instead of the package's incomplete-gamma routines.
"""

import math

import numpy as np

NO_NEGATIVES_LEFT = "no_negatives_left"
MAX_RULES = "max_rules"
INVARIANCE_REACHED = "invariance_reached"
NO_VALID_RULE = "no_valid_rule"


def chi2_sf(x, dof):
    """P(chi2_dof > x) for integer dof >= 1 (closed forms in exp and erfc)."""
    h = x / 2.0
    if h <= 0.0:
        return 1.0
    if dof % 2 == 0:
        term = total = math.exp(-h)
        for i in range(1, dof // 2):
            term *= h / i
            total += term
        return total
    total = math.erfc(math.sqrt(h))
    term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    for i in range(1, (dof - 1) // 2 + 1):
        total += term
        term *= h / (i + 0.5)
    return total


def _table_stat(counts, gtest):
    """(statistic, dof) of one label x environment table; dof counts only
    rows and columns with a nonzero margin."""
    counts = counts.astype(np.float64)
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    n = counts.sum()
    dof = max(int((rows > 0).sum()) - 1, 0) * max(int((cols > 0).sum()) - 1, 0)
    if dof == 0:
        return 0.0, 0
    expected = np.outer(rows, cols) / n
    if gtest:
        seen = counts > 0
        stat = 2.0 * float((counts[seen] * np.log(counts[seen] / expected[seen])).sum())
    else:
        seen = expected > 0
        stat = float((((counts - expected) ** 2)[seen] / expected[seen]).sum())
    return max(stat, 0.0), dof


def _label_env_table(y, e, n_env):
    table = np.zeros((2, n_env), dtype=np.int64)
    np.add.at(table, (y.astype(np.int64), e), 1)
    return table


def candidates(features):
    varying = [j for j in range(features.shape[1])
               if features[:, j].min() != features[:, j].max()]
    rules = [(j, v) for j in varying for v in (1, 0)]
    fires = features[:, [j for j, _ in rules]] == np.array(
        [v for _, v in rules], dtype=np.uint8
    )
    return rules, fires


def scm(dataset, p, max_rules):
    """Set-covering greedy argmax. Returns (rules, stop reason)."""
    y = dataset.labels
    rules, fires = candidates(dataset.features)
    active = np.ones(len(y), dtype=bool)
    open_ = np.ones(len(rules), dtype=bool)
    chosen = []
    while True:
        if len(chosen) >= max_rules:
            return chosen, MAX_RULES
        negatives = active & (y == 0)
        if not negatives.any():
            return chosen, NO_NEGATIVES_LEFT
        if not open_.any():
            return chosen, NO_VALID_RULE
        covered = (~fires[negatives]).sum(axis=0)
        errors = (~fires[active & (y == 1)]).sum(axis=0)
        score = np.where(open_, covered - p * errors, -np.inf)
        best = int(np.argmax(score))
        chosen.append(rules[best])
        open_[best] = False
        active &= fires[:, best]


def icscm(dataset, p, max_rules, alpha, min_leaf):
    """Invariance-filtered greedy (chi-square leaf and stopping tests) and
    conditional-G-test pruning. Returns (greedy rules, their (leaf p, stop p)
    pairs, stop reason, pruned rules)."""
    x, y = dataset.features, dataset.labels
    _, e = np.unique(dataset.envs, return_inverse=True)
    n_env = int(e.max()) + 1
    rules, fires = candidates(x)
    active = np.ones(len(y), dtype=bool)
    open_ = np.ones(len(rules), dtype=bool)
    chosen, p_values = [], []
    while True:
        if len(chosen) >= max_rules:
            stop = MAX_RULES
            break
        if not (active & (y == 0)).any():
            stop = NO_NEGATIVES_LEFT
            break
        if not open_.any():
            stop = NO_VALID_RULE
            break
        counts = np.zeros((len(rules), 2, n_env), dtype=np.int64)
        for a in (0, 1):
            for b in range(n_env):
                counts[:, a, b] = (~fires[active & (y == a) & (e == b)]).sum(axis=0)
        leaf_p = np.ones(len(rules))
        for r in np.flatnonzero(open_ & (counts.sum(axis=(1, 2)) >= min_leaf)):
            stat, dof = _table_stat(counts[r], gtest=False)
            if dof:
                leaf_p[r] = chi2_sf(stat, dof)
        utility = counts[:, 0, :].sum(axis=1) - p * counts[:, 1, :].sum(axis=1)
        valid = open_ & (leaf_p > alpha)
        if not valid.any():
            stop = NO_VALID_RULE
            break
        best = int(np.argmax(np.where(valid, utility, -np.inf)))
        chosen.append(rules[best])
        open_[best] = False
        active &= fires[:, best]
        gamma = 1.0
        if active.any():
            stat, dof = _table_stat(
                _label_env_table(y[active], e[active], n_env), gtest=False
            )
            gamma = chi2_sf(stat, dof) if dof else 1.0
        p_values.append((float(leaf_p[best]), gamma))
        if gamma > alpha:
            stop = INVARIANCE_REACHED
            break
    return chosen, p_values, stop, prune(chosen, x, y, e, n_env, alpha)


def prune(rules, x, y, e, n_env, alpha):
    """Drop the first rule whose feature the label is independent of the
    environment without (conditional G-test given the other rules'
    features), and rescan until a pass drops nothing."""
    rules = list(rules)
    removed = True
    while removed and rules:
        removed = False
        for idx in range(len(rules)):
            others = sorted({j for k, (j, _) in enumerate(rules) if k != idx})
            strata = x[:, others].astype(np.int64) @ (1 << np.arange(len(others)))
            stat, dof = 0.0, 0
            for s in np.unique(strata):
                rows = strata == s
                s_stat, s_dof = _table_stat(
                    _label_env_table(y[rows], e[rows], n_env), gtest=True
                )
                stat += s_stat
                dof += s_dof
            if (chi2_sf(stat, dof) if dof else 1.0) > alpha:
                del rules[idx]
                removed = True
                break
    return rules
