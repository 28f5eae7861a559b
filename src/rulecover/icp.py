"""Exhaustive invariant-set search baseline.

Every feature subset S is scored with a conditional G-test of the label
against the environment given the joint value of S; the result is the
intersection of all subsets whose test does not reject independence. Costs
2**d tests, which is why it only runs at desk scale; ``check_feasible``
refuses a run of more than 2**20 tests, capped or not.

The data is read once, as ``_kernels``' count table: each distinct feature
row with its (label, environment) counts; above 62 features, which only a
capped scan reaches, each sample is its own row. Every subset's table is summed
from it (``_subset_counts``, which pruning in icscm.py shares), in one scan
over the sizes s from the largest tested size down to 0. Each size is
decided, scored and recorded in that scan, and takes one of three branches.
With k environments:

- With fewer than ``min_samples_per_cell`` samples per cell of a size-s
  table's 2k * 2**s cells, the size is skipped and each of its subsets is
  recorded untested (p = 1, degenerate); only the largest sizes can be.
- If the level's C(d, s) * 2**s tables of 2k cells fit in ``_LEVEL_CELLS``,
  the level is held whole. It is summed from the held level above when there
  is one (a subset's table is a marginal of its parent's, the subset plus
  its smallest missing column): O(2**s) per subset. The first held level of
  a scan is counted subset by subset over the distinct rows, O(R) per
  subset, each subset's strata placed by their keys. A held level, one
  (C(d, s), 2**s, 2, k) array, is scored a block of subsets at a time, with
  a fixed handful of numpy calls per block.
- Otherwise each subset is counted and scored on its own over the distinct
  rows, in the strata ``_subset_counts`` holds: O(R) time and memory.

Memory is O(R) per subset counted on its own. A held level takes at most
three level arrays of ``_LEVEL_CELLS`` float64 cells (the held level, the
level summed from it and one temporary) plus scoring blocks of
``_BLOCK_CELLS`` cells.
Counts are exact integers, in a float64 copy of the count table made once,
because every subset's ``np.bincount`` reads float64 weights (an int64
table is cast on each call). Every subset is scored by
``stats.stratified_tests``, which sums its statistic over its own tables:
the terms in ascending stratum order, grouped as numpy's ``.sum`` groups a
contiguous run of them. So p-values do not depend on how the subsets were
batched. A subset's (p-value, dof), Python scalars, become its ``SubsetTest``.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_
from typing import Optional

import numpy as np

from . import _kernels as kernels
from .errors import InfeasibleError, _require_fields, _require_int, _require_real
from .stats import _require_environments, stratified_tests

# Not called here (icp_report sums the same tables from the count table, and
# _kernels packs the strata); the traced benchmark (perfbench/layers.py)
# rebinds these names on this module.
from .stats import conditional_gtest, joint_strata  # noqa: F401


# Table cells (float64) of the largest level held whole, and table cells per
# block of subsets scored together: bound the memory a level takes.
_LEVEL_CELLS = 2**20
_BLOCK_CELLS = 2**14
# A scan of more than 2**_FEASIBILITY_LIMIT subset tests is refused.
_FEASIBILITY_LIMIT = 20


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
        _require_fields(self, _require_real, "alpha", low=0, high=1)
        if self.max_subset_size is not None:
            _require_fields(self, _require_int, "max_subset_size", minimum=0)
        _require_fields(self, _require_int, "min_samples_per_cell", minimum=0)


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
    """Run the full subset scan and keep the per-subset log. One scan from
    the largest tested size down to 0 takes one branch per size: skipped by
    the guard, counted subset by subset, counted subset by subset to seed the
    held chain, or summed from the held size above. Every size, skipped or
    not, is recorded in that pass; ``tests`` lists them by ascending size,
    and ``selected`` is the intersection of the accepted subsets."""
    _require_environments(dataset.envs)
    d = dataset.n_features
    check_feasible(d, config)
    max_size = d if config.max_subset_size is None else min(d, config.max_subset_size)
    rows, table = kernels._count_table(dataset)
    k = table.shape[2]
    # once: each subset's np.bincount reads float64 weights
    table = table.astype(np.float64)
    levels, held = [], None
    for size in range(max_size, -1, -1):
        subsets = list(combinations(range(d), size))
        # the guard depends on |S| only: 2 * k * 2**|S| cells need filling
        if dataset.n_samples < config.min_samples_per_cell * 2 * k * 2**size:
            scores = [(1.0, 0)] * len(subsets)  # untested: degenerate
        elif len(subsets) * 2**size * 2 * k > _LEVEL_CELLS:
            held, scores = None, []
            for subset in subsets:
                _, counts = kernels._subset_counts(table, rows, subset)
                _, dofs, p_values = stratified_tests(counts[None])
                scores += zip(p_values, dofs)
        else:
            if held is None:
                held = np.zeros((len(subsets), 2**size, 2, k))
                for i, subset in enumerate(subsets):
                    keys, counts = kernels._subset_counts(table, rows, subset)
                    held[i, keys] = counts
            else:
                held = kernels._marginal_level_counts(held, held_subsets, subsets)
            held_subsets, scores = subsets, []
            step = max(1, _BLOCK_CELLS // held[0].size)
            for start in range(0, len(held), step):
                _, dofs, p_values = stratified_tests(held[start : start + step])
                scores += zip(p_values, dofs)
        levels.append(zip(subsets, scores))
    tests = tuple(
        SubsetTest(subset, p, p > config.alpha, dof == 0)
        for level in reversed(levels)
        for subset, (p, dof) in level
    )
    accepted = [frozenset(test.features) for test in tests if test.accepted]
    return IcpReport(
        selected=reduce(and_, accepted) if accepted else frozenset(), tests=tests
    )
