"""Counting kernels behind the fitting algorithms, in numpy."""

import numpy as np

# Recorded in experiment manifests and benchmark records.
BACKEND = "python"


def leaf_label_env_counts(features, y, e, n_env, index, value):
    """Per-rule (label, environment) counts over samples the rule maps to 0.

    ``features`` is an (m, d) 0/1 matrix, and rule r is the stump
    ``features[:, index[r]] == value[r]``. Returns an (n_rules, 2, n_env)
    int64 array where cell [r, a, b] counts the samples the rule maps to 0
    with y[i] == a and e[i] == b.
    """
    features = np.ascontiguousarray(features, dtype=np.uint8)
    y = np.ascontiguousarray(y, dtype=np.uint8)
    e = np.ascontiguousarray(e, dtype=np.int64)
    index = np.asarray(index, dtype=np.intp)
    value = np.asarray(value, dtype=np.uint8)
    if features.ndim != 2 or y.ndim != 1 or e.ndim != 1:
        raise ValueError("features must be 2-D; y and e must be 1-D")
    if not (features.shape[0] == y.shape[0] == e.shape[0]):
        raise ValueError("features, y and e disagree on the sample count")
    if index.ndim != 1 or index.shape != value.shape:
        raise ValueError("index and value must be 1-D and of equal length")
    n_env, n_rules = int(n_env), index.shape[0]
    # Column sums per (label, env) group. A rule (j, 0) maps to 0 the rows
    # where column j is 1, and a rule (j, 1) the rest of the group.
    groups = y.astype(np.int64) * n_env + e
    sizes = np.bincount(groups, minlength=2 * n_env)
    ones = np.zeros((2 * n_env, features.shape[1]), dtype=np.int64)
    for g in np.flatnonzero(sizes):
        ones[g] = features[groups == g].sum(axis=0, dtype=np.int32)
    ones = ones[:, index]
    zeros = np.where(value == 1, sizes[:, None] - ones, ones)
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
