"""Counting kernels behind the fitting algorithms, in numpy."""

import numpy as np

# Recorded in experiment manifests and benchmark records.
BACKEND = "python"


def leaf_label_env_counts(rows, counts, index, value):
    """Per-rule (label, environment) counts over the rows a rule maps to 0.

    ``rows`` is an (R, d) 0/1 matrix with (R, 2, k) per-row (label, env)
    ``counts``, and rule r is the stump ``rows[:, index[r]] == value[r]``.
    Returns an (n_rules, 2, k) int64 array where cell [r, a, b] sums
    ``counts[i, a, b]`` over the rows i the rule maps to 0.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    index = np.asarray(index, dtype=np.intp)
    value = np.asarray(value, dtype=np.uint8)
    if rows.ndim != 2 or counts.ndim != 3 or counts.shape[1] != 2:
        raise ValueError("rows must be 2-D and counts (n_rows, 2, n_env)")
    if rows.shape[0] != counts.shape[0]:
        raise ValueError("rows and counts disagree on the row count")
    if index.ndim != 1 or index.shape != value.shape:
        raise ValueError("index and value must be 1-D and of equal length")
    n_rows, _, n_env = counts.shape
    n_rules = index.shape[0]
    # Column sums per (label, env) group. A rule (j, 0) maps to 0 the rows
    # where column j is 1, and a rule (j, 1) the rest of the group.
    groups = counts.reshape(n_rows, 2 * n_env)
    if n_rows and groups.max() > 1:
        # count-weighted sums, exact in float64 below 2**53 samples
        weights = np.ascontiguousarray(groups.T, dtype=np.float64)
        sizes = weights.sum(axis=1).astype(np.int64)
        ones = (weights @ rows).astype(np.int64)
    else:
        # at most one sample per row: sum each group's rows as they are
        sizes = np.zeros(2 * n_env, dtype=np.int64)
        ones = np.zeros((2 * n_env, rows.shape[1]), dtype=np.int64)
        for g in range(2 * n_env):
            members = groups[:, g] == 1
            sizes[g] = np.count_nonzero(members)
            if sizes[g]:
                group = np.compress(members, rows, axis=0)
                ones[g] = group.sum(axis=0, dtype=np.int32)
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
    return flat.reshape(int(n_strata), 2, n_env).astype(np.int64, copy=False)
