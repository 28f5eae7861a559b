"""Exhaustive invariant-set search baseline.

Every feature subset S is scored with a conditional G-test of the label
against the environment given the joint value of S; the result is the
intersection of all subsets whose test does not reject independence. Costs
2**d tests, which is why it only runs at desk scale; ``check_feasible``
refuses a run of more than 2**20 tests, capped or not.

The data is read once, by ``_count_table``, the builder every fit uses: it
gives each of the R distinct feature rows a (label, environment) table of
counts (cached sufficient statistics, Moore & Lee, JAIR 1998). When the
(row, label, env) key space 2**d * 2k is at most ``_KEYS_PER_SAMPLE`` keys
per sample, one bincount over the packed rows makes the table, with no sort;
on a wider key space the distinct rows are found by sorting. Every subset's
table is summed from these (``_subset_counts``, which pruning in icscm.py
shares), one size s at a time from the largest tested size down to 0. With
k environments:

- If 2**s <= R and the level's C(d, s) * 2**s tables of 2k cells fit in
  ``_LEVEL_CELLS``, the level is held whole. It is summed from the held level
  above when there is one (a subset's table is a marginal of its parent's,
  the subset plus its smallest missing column): O(2**s) per subset. The
  first held level of a scan is counted subset by subset over the distinct
  rows: O(R) per subset. A held level is scored a block of subsets at a
  time, with a fixed handful of numpy calls per block.
- Otherwise (2**s > R, or the level does not fit) each subset is counted and
  scored on its own over the distinct rows, numbering only its occupied
  strata when 2**s > R: O(R) time and memory per subset.

Env ids and occupied strata are numbered by ``stats._dense_ids``, as in the
sample-level tests.

Memory is O(R) per subset in the second case. In the first it is at most
three level arrays of ``_LEVEL_CELLS`` float64 cells (the held level, the
level summed from it and one temporary) plus scoring blocks of
``_BLOCK_CELLS`` cells.
Counts are exact integers, and every subset is scored by
``stats.stratified_tests``, which sums its statistic over its own tables in
ascending stratum order, so p-values do not depend on how the subsets were
grouped.
"""

import math
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Optional

import numpy as np

from . import _kernels as kernels
from .errors import ConfigError, InfeasibleError
from .stats import (
    TestResult,
    _dense_ids,
    _require_environments,
    joint_strata,
    stratified_tests,
)

# Not called here (icp_report sums the same tables from a cache); the traced
# benchmark (perfbench/layers.py) rebinds this module's conditional_gtest.
from .stats import conditional_gtest  # noqa: F401


# Table cells (float64) of the largest level held whole, and table cells per
# block of subsets scored together: bound the memory a level takes.
_LEVEL_CELLS = 2**20
_BLOCK_CELLS = 2**14
# The data is compressed to its distinct rows by one bincount when the
# (row, label, env) key space is at most this many keys per sample.
_KEYS_PER_SAMPLE = 2
# A scan of more than 2**_FEASIBILITY_LIMIT subset tests is refused.
_FEASIBILITY_LIMIT = 20
# The outcome of a subset size the min_samples_per_cell guard skips.
_UNTESTED = TestResult(statistic=0.0, dof=0, p_value=1.0, degenerate=True)


@dataclass(frozen=True)
class IcpConfig:
    """alpha: rejection threshold for the conditional tests.
    max_subset_size: optional cap on |S|, for the largest runtime-benchmark
    points only; identification experiments never cap. min_samples_per_cell:
    declare a subset's test degenerate (p = 1, accepted) unless the data
    provides this many samples per cell of the full (label, env, S) table;
    0 disables the guard."""

    alpha: float = 0.05
    max_subset_size: Optional[int] = None
    min_samples_per_cell: int = 10

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


def check_feasible(n_features, config):
    """Refuse with InfeasibleError a scan of more than
    2**_FEASIBILITY_LIMIT subset tests: sum C(d, s) for s up to
    max_subset_size, which is 2**d uncapped."""
    max_size = config.max_subset_size
    if max_size is None or max_size >= n_features:
        n_tests = 2**n_features
    else:
        n_tests = sum(math.comb(n_features, s) for s in range(max_size + 1))
    if n_tests > 2**_FEASIBILITY_LIMIT:
        raise InfeasibleError(
            f"icp over {n_features} features needs {n_tests} subset tests "
            f"(limit 2**{_FEASIBILITY_LIMIT}); set or lower max_subset_size"
        )


def icp_report(dataset, config):
    """Run the full subset scan and keep the per-subset log."""
    _require_environments(dataset.envs)
    d = dataset.n_features
    check_feasible(d, config)
    max_size = d if config.max_subset_size is None else min(d, config.max_subset_size)
    rows, table = _count_table(dataset, sort_wide=True)
    k = table.shape[2]
    table = table.reshape(len(rows), 2 * k).astype(np.float64)
    # the guard depends on |S| only: 2 * k * 2**|S| cells need filling
    top = max_size
    while top >= 0 and config.min_samples_per_cell and (
        dataset.n_samples < config.min_samples_per_cell * 2 * k * 2**top
    ):
        top -= 1

    outcomes = {}
    held = None
    for size in range(top, -1, -1):
        subsets = list(combinations(range(d), size))
        outcomes[size] = []
        if 2**size > len(rows) or len(subsets) * 2**size * 2 * k > _LEVEL_CELLS:
            held = None
            for subset in subsets:
                counts = _subset_counts(table, rows, subset)
                outcomes[size] += stratified_tests(counts.reshape(1, -1, 2, k))
            continue
        if held is None:
            held = np.empty((len(subsets), 2**size, 2 * k))
            for i, subset in enumerate(subsets):
                held[i] = _subset_counts(table, rows, subset)
        else:
            held = _marginal_level_counts(held, held_subsets, subsets)
        held_subsets = subsets
        level = held.reshape(len(subsets), -1, 2, k)
        step = max(1, _BLOCK_CELLS // level[0].size)
        for start in range(0, len(level), step):
            outcomes[size] += stratified_tests(level[start : start + step])

    tests = []
    selected = None
    for size in range(max_size + 1):
        for subset, result in zip(
            combinations(range(d), size), outcomes.get(size, repeat(_UNTESTED))
        ):
            accepted = result.p_value > config.alpha
            tests.append(
                SubsetTest(
                    features=subset,
                    p_value=result.p_value,
                    accepted=accepted,
                    degenerate=result.degenerate,
                )
            )
            if accepted:
                subset_set = frozenset(subset)
                selected = subset_set if selected is None else selected & subset_set
    return IcpReport(
        selected=frozenset() if selected is None else selected, tests=tuple(tests)
    )


def _count_table(dataset, sort_wide, pool_envs=False):
    """The data as distinct feature rows and their (label, env) counts:
    ``rows`` (R, d) 0/1 and ``counts`` (R, 2, k) int64, with env ids
    numbered densely in ascending order. ``pool_envs`` counts every sample
    in one environment (k = 1), for a fit that never reads env ids.

    When the key space of (row, label, env) is at most
    ``_KEYS_PER_SAMPLE`` times the sample count, one bincount over the
    packed rows counts it and the occupied rows are kept in ascending
    packed order, with no sort. On a wider key space, ``sort_wide`` finds
    the distinct rows by sorting (same rows, same order); otherwise every
    sample is its own row, with a count of 1.
    """
    features = dataset.features
    m, d = features.shape
    if pool_envs:
        envs, k = np.zeros(m, dtype=np.int64), 1
    else:
        envs, k = _dense_ids(dataset.envs)
    if 2**d * 2 * k <= _KEYS_PER_SAMPLE * m:
        keys = joint_strata(features, range(d))
        counts = kernels.stratified_label_env_counts(
            keys, 2**d, dataset.labels, envs, k
        )
        occupied = np.flatnonzero(np.bincount(keys, minlength=2**d))
        return _unpack_keys(occupied, d), np.take(counts, occupied, axis=0)
    if sort_wide:
        rows, row_ids = _distinct_rows(features)
    else:
        rows, row_ids = features, np.arange(m)
    counts = kernels.stratified_label_env_counts(
        row_ids, len(rows), dataset.labels, envs, k
    )
    return rows, counts


def _unpack_keys(keys, width):
    """The 0/1 rows that ``joint_strata`` packs into ``keys`` over ``width``
    columns: a row is its key's bits, lowest first."""
    key_bytes = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(key_bytes, axis=1, count=width, bitorder="little")


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


def _subset_counts(table, rows, subset):
    """(n_strata, width) counts of the strata of ``subset`` in ascending
    stratum id as ``joint_strata`` packs it, summed from the per-row
    ``table``: all 2**|S| strata when they are at most the distinct rows,
    else only the occupied ones, numbered by ``stats._dense_ids``."""
    strata = joint_strata(rows, subset)
    if 2 ** len(subset) <= len(rows):
        n_strata = 2 ** len(subset)
    else:
        strata, n_strata = _dense_ids(strata)
    return np.stack(
        [np.bincount(strata, weights=cell, minlength=n_strata) for cell in table.T],
        axis=1,
    )


def _marginal_level_counts(parents, parent_subsets, subsets):
    """Counts of the size-s ``subsets`` from ``parents``, the held counts of
    ``parent_subsets``, every size-(s + 1) subset in ``combinations`` order.
    A subset's parent adds its smallest missing column c and is found by its
    position in ``parent_subsets``; c sits at bit c of the parent's stratum
    id, and the subset's table sums the parent's two strata that differ only
    in that bit."""
    position = {subset: i for i, subset in enumerate(parent_subsets)}
    columns = np.array(subsets, dtype=np.intp)
    size = columns.shape[1]
    missing = (columns == np.arange(size)).sum(axis=1)
    parent = [
        position[subset[:c] + (c,) + subset[c:]]
        for subset, c in zip(subsets, missing.tolist())
    ]
    bit = 1 << missing[:, None]
    strata = np.arange(2**size)[None, :]
    low = strata & (bit - 1)
    strata = low | ((strata ^ low) << 1)
    strata += (np.array(parent, dtype=np.intp) * 2 ** (size + 1))[:, None]
    flat = parents.reshape(-1, parents.shape[2])
    counts = flat[strata]
    counts += flat[strata | bit]
    return counts

