"""Counting kernels behind the fitting algorithms, in numpy."""

import numpy as np

# Recorded in experiment manifests and benchmark records.
BACKEND = "python"


def leaf_label_env_counts(preds, y, e, n_env):
    """Per-rule (label, environment) counts over samples the rule maps to 0.

    ``preds`` is an (m, n_rules) 0/1 matrix of rule outputs. Returns an
    (n_rules, 2, n_env) int64 array where cell [r, a, b] counts the samples
    with preds[i, r] == 0, y[i] == a and e[i] == b.
    """
    preds = np.ascontiguousarray(preds, dtype=np.uint8)
    y = np.ascontiguousarray(y, dtype=np.uint8)
    e = np.ascontiguousarray(e, dtype=np.int64)
    if preds.ndim != 2 or y.ndim != 1 or e.ndim != 1:
        raise ValueError("preds must be 2-D; y and e must be 1-D")
    if not (preds.shape[0] == y.shape[0] == e.shape[0]):
        raise ValueError("preds, y and e disagree on the sample count")
    n_env, n_rules = int(n_env), preds.shape[1]
    # rule-fire totals per (label, env) group; zero-counts are the group
    # size minus the fires
    groups = y.astype(np.int64) * n_env + e
    sizes = np.bincount(groups, minlength=2 * n_env)
    fires = np.zeros((2 * n_env, n_rules), dtype=np.int64)
    for g in np.flatnonzero(sizes):
        fires[g] = preds[groups == g].sum(axis=0, dtype=np.int32)
    zeros = sizes[:, None] - fires
    return np.ascontiguousarray(zeros.reshape(2, n_env, n_rules).transpose(2, 0, 1))


def stratified_label_env_counts(strata, n_strata, y, e, n_env):
    """(label, environment) counts per stratum.

    ``strata`` holds dense ids in [0, n_strata). Returns an
    (n_strata, 2, n_env) int64 array of counts.
    """
    strata = np.ascontiguousarray(strata, dtype=np.int64)
    y = np.ascontiguousarray(y, dtype=np.uint8)
    e = np.ascontiguousarray(e, dtype=np.int64)
    if not (strata.shape[0] == y.shape[0] == e.shape[0]):
        raise ValueError("strata, y and e disagree on the sample count")
    n_env = int(n_env)
    idx = (strata * 2 + y) * n_env + e
    flat = np.bincount(idx, minlength=int(n_strata) * 2 * n_env)
    return flat.reshape(int(n_strata), 2, n_env).astype(np.int64)
