"""Exhaustive invariant-set search baseline.

Every feature subset S is scored with a conditional G-test of the label
against the environment given the joint value of S; the result is the
intersection of all subsets whose test does not reject independence. Costs
2**d tests, which is why it only runs at desk scale.

The data is read once: each sample is reduced to the id of its distinct
feature row, and one count gives a (label, environment) table per distinct
row (cached sufficient statistics, Moore & Lee, JAIR 1998). A subset's
stratified table is then summed from that cache, so each test costs
O(min(m, 2**d)) instead of O(m).
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from . import _kernels as kernels
from .errors import ConfigError, InfeasibleError
from .stats import _check_pair, joint_strata, stratified_gtest

# Not called here: icp_report reproduces conditional_gtest over joint_strata
# bit for bit (tests/test_icp.py checks it), and the traced benchmark
# (perfbench/layers.py) rebinds this module's conditional_gtest, so the name
# stays importable from here.
from .stats import conditional_gtest  # noqa: F401


@dataclass(frozen=True)
class IcpConfig:
    """alpha: rejection threshold for the conditional tests.
    max_subset_size: optional cap on |S|, for the largest runtime-benchmark
    points only; identification experiments never cap. min_samples_per_cell:
    declare a subset's test degenerate (p = 1, accepted) unless the data
    provides this many samples per cell of the full (label, env, S) table;
    0 disables the guard. feasibility_limit: refuse uncapped runs beyond
    this many features."""

    alpha: float = 0.05
    max_subset_size: Optional[int] = None
    min_samples_per_cell: int = 10
    feasibility_limit: int = 20

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.max_subset_size is not None and self.max_subset_size < 0:
            raise ConfigError("max_subset_size must be >= 0")
        if self.min_samples_per_cell < 0:
            raise ConfigError("min_samples_per_cell must be >= 0")


@dataclass(frozen=True)
class SubsetTest:
    features: tuple
    p_value: float
    accepted: bool
    degenerate: bool


@dataclass(frozen=True)
class IcpReport:
    selected: frozenset
    tests: tuple


def icp_report(dataset, config):
    """Run the full subset scan and keep the per-subset log."""
    if dataset.n_distinct_envs < 2:
        raise ConfigError(
            "invariance is untestable on single-environment data "
            f"(got {dataset.n_distinct_envs} distinct environment id)"
        )
    d = dataset.n_features
    if config.max_subset_size is None and d > config.feasibility_limit:
        raise InfeasibleError(
            f"2**{d} subset tests refused (limit 2**{config.feasibility_limit}); "
            "set max_subset_size to cap the search"
        )
    max_size = d if config.max_subset_size is None else min(d, config.max_subset_size)

    labels, envs = _check_pair(dataset.labels, dataset.envs)
    _, envs = np.unique(envs, return_inverse=True)
    k = int(envs.max()) + 1
    rows, row_ids = _distinct_rows(dataset.features)
    table = kernels.stratified_label_env_counts(row_ids, len(rows), labels, envs, k)
    table = table.reshape(len(rows), 2 * k).astype(np.float64)

    tests = []
    selected = None
    for size in range(max_size + 1):
        # the guard depends on |S| only: 2 * k * 2**|S| cells need filling
        guarded = bool(config.min_samples_per_cell) and (
            dataset.n_samples < config.min_samples_per_cell * 2 * k * 2 ** size
        )
        for subset in combinations(range(d), size):
            if guarded:
                p_value, degenerate = 1.0, True
            else:
                result = stratified_gtest(_subset_counts(table, rows, subset, k))
                p_value, degenerate = float(result.p_value), result.degenerate
            accepted = p_value > config.alpha
            tests.append(
                SubsetTest(
                    features=subset,
                    p_value=p_value,
                    accepted=accepted,
                    degenerate=degenerate,
                )
            )
            if accepted:
                subset_set = frozenset(subset)
                selected = subset_set if selected is None else selected & subset_set
    return IcpReport(
        selected=frozenset() if selected is None else selected, tests=tuple(tests)
    )


def _distinct_rows(features):
    """The distinct rows of a 0/1 matrix, and the index into them of every
    sample. Rows of up to 62 features are keyed by one packed integer, wider
    rows by their packed bytes."""
    d = features.shape[1]
    if d <= 62:
        keys = joint_strata(features, range(d))
    else:
        packed = np.packbits(features, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, row_ids = np.unique(keys, return_index=True, return_inverse=True)
    return features[first], row_ids


def _subset_counts(table, rows, subset, k):
    """(n_strata, 2, k) counts of the non-empty strata of ``subset``, in
    ascending stratum id as ``joint_strata`` packs it, summed from the
    per-row ``table``."""
    strata = joint_strata(rows, subset)
    width = table.shape[1]
    if 2 ** len(subset) <= len(rows):
        n_strata = 2 ** len(subset)
    else:
        # more possible strata than rows: number only the occupied ones
        occupied, strata = np.unique(strata, return_inverse=True)
        n_strata = len(occupied)
    cells = (strata[:, None] * width + np.arange(width)).ravel()
    counts = np.bincount(cells, weights=table.ravel(), minlength=n_strata * width)
    counts = counts.reshape(n_strata, width)
    return counts[counts.any(axis=1)].reshape(-1, 2, k)


def icp_fit(dataset, config):
    """Intersection of all feature subsets whose conditional test does not
    reject independence; empty when no subset is accepted."""
    return set(icp_report(dataset, config).selected)
