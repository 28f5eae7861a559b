"""Statistical testing kernel.

Provides the chi-square survival function (via regularized incomplete gamma),
unconditional chi-square/G independence tests on (label, environment)
contingency tables, and the stratified (conditional) G-test used by pruning
and the exhaustive-subset baseline. Every one of these tests is scored by
``stratified_tests`` into plain numbers; only the public tests build a TestResult.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .data import _exact_cast
from .errors import ConfigError, DataError

# Defined with the count table whose rows it packs; exported from here.
from ._kernels import joint_strata  # noqa: F401

# The test methods table_stats scores; every other module reads them here.
_TEST_METHODS = ("chi2", "gtest")

_EPS = 1e-15
_TINY = 1e-300


def _max_terms(a):
    # Near x = a both expansions need O(sqrt(a)) terms: about 8 * sqrt(a) for
    # the series, fewer for the continued fraction.
    return 800 + int(16.0 * math.sqrt(a))


def _regularized_lower_gamma_series(a, x):
    # P(a, x) = x^a e^-x / Gamma(a) * sum_{n>=0} x^n / (a(a+1)...(a+n)).
    # Converges quickly for x < a + 1.
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_max_terms(a)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"gamma series did not converge at a={a}, x={x}")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _regularized_upper_gamma_cf(a, x):
    # Q(a, x) by the Legendre continued fraction, evaluated with the
    # modified Lentz algorithm. Converges quickly for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _max_terms(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(
            f"gamma continued fraction did not converge at a={a}, x={x}"
        )
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def chi2_sf(x, dof):
    """Survival function of the chi-square distribution,
    1 - P(dof/2, x/2) with P the regularized lower incomplete gamma.

    Raises ArithmeticError if the expansion fails to converge, and
    DataError for a non-real or negative statistic or a non-integer dof.
    """
    # float (np.float64 too) first: the numbers.Real check alone costs ~1 us
    try:
        bad = not isinstance(x, (float, numbers.Real)) or not math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        bad = True
    if bad or x < 0.0:
        raise DataError(f"chi2_sf needs a finite non-negative statistic, got {x!r}")
    x = float(x)
    try:
        dof = operator.index(dof)
    except TypeError:
        raise DataError(f"chi2_sf needs an integer dof, got {dof!r}") from None
    if dof < 1:
        raise DataError(f"chi2_sf needs dof >= 1, got {dof}")
    a = dof / 2.0
    half = x / 2.0
    if half == 0.0:  # includes subnormal x underflowing in the halving
        return 1.0
    if half < a + 1.0:
        value = 1.0 - _regularized_lower_gamma_series(a, half)
    else:
        value = _regularized_upper_gamma_cf(a, half)
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: int
    p_value: float
    degenerate: bool


def _table_sums(terms):
    """Each table's terms, from an (r, c, T) array, summed in row-major order
    and grouped as ``.sum(axis=(1, 2))`` groups them on (T, r, c). Below 8
    terms numpy adds left to right, as a sum over the cell axis does across
    the whole batch; from 8 up it sums each table's contiguous run pairwise,
    so the terms are first copied table-major."""
    r, c, n_tables = terms.shape
    terms = terms.reshape(r * c, n_tables)
    if r * c < 8:
        return terms.sum(axis=0)
    return np.ascontiguousarray(terms.T).sum(axis=1)


def table_stats(counts, method):
    """Statistic and dof for a batch of contingency tables.

    ``counts`` has shape (T, r, c); returns (stat, dof) arrays of length T.
    Degrees of freedom count only rows/columns with a nonzero marginal, so
    value levels absent from the data contribute nothing.

    The batch is scored cell by cell: each cell's counts, one per table, are
    a contiguous column of a (r, c, T) copy, so every numpy call runs over T
    tables at once instead of over an axis of length r or c per table, with
    the per-table reductions' bits (``_table_sums``).
    """
    cells = np.asarray(counts).transpose(1, 2, 0).astype(np.float64, order="C")
    # marginals are sums of integer counts: exact in any order
    row = cells.sum(axis=1)
    col = cells.sum(axis=0)
    n = row.sum(axis=0)
    nz_rows = (row > 0).sum(axis=0, dtype=np.int64)
    nz_cols = (col > 0).sum(axis=0, dtype=np.int64)
    dof = np.maximum(nz_rows - 1, 0) * np.maximum(nz_cols - 1, 0)
    safe_n = np.where(n > 0, n, 1.0)
    expected = row[:, None, :] * col[None, :, :] / safe_n
    if method == "chi2":
        diff_sq = (cells - expected) ** 2
        terms = np.divide(
            diff_sq, expected, out=np.zeros_like(expected), where=expected > 0
        )
        stat = _table_sums(terms)
    elif method == "gtest":
        # 2 * sum O * ln(O / E), with the 0 * ln 0 := 0 convention.
        ratio = np.divide(cells, expected, out=np.ones_like(expected), where=cells > 0)
        stat = 2.0 * _table_sums(cells * np.log(ratio))
    else:
        choices = " or ".join(map(repr, _TEST_METHODS))
        raise DataError(f"unknown test method {method!r}; use {choices}")
    # both statistics are nonnegative; clear float dust from cancelling terms
    stat = np.maximum(np.where(dof > 0, stat, 0.0), 0.0)
    return stat, dof


def _label_env_counts(y, e, strata=None):
    """(n_strata, 2, k) label-by-environment counts, one table per distinct
    stratum id in ascending order (one stratum when ``strata`` is None), with
    the k distinct env ids numbered densely. Every table in this module is
    counted here. y, e and strata are checked as ``Dataset`` checks its ids
    (``data._exact_cast``): a value the int64 cast would change, such as a
    fraction or a uint64 id of 2**63 or more, is refused with DataError."""
    y = _exact_cast(y, np.int64, "labels must be 0/1 valued")
    e = _exact_cast(e, np.int64, "environment ids must be integers")
    if strata is None:
        strata = np.zeros_like(y)
    strata = _exact_cast(strata, np.int64, "strata must be integers")
    if y.ndim != 1 or e.shape != y.shape or strata.shape != y.shape:
        raise DataError(
            "y, e and strata must be equal-length vectors, "
            f"got {y.shape}, {e.shape} and {strata.shape}"
        )
    if y.shape[0] < 1:
        raise DataError("need at least one sample")
    if y.min() < 0 or y.max() > 1:
        raise DataError("labels must be 0/1 valued")
    e, env_ids = kernels._dense_ids(e)
    strata, keys = kernels._dense_ids(strata)
    return kernels.stratified_label_env_counts(strata, len(keys), y, e, len(env_ids))


def independence_test(y, e, method="chi2"):
    """Test independence of a binary label vector against environment ids.

    Degenerate data (a constant label or a single environment) yields dof 0
    and p = 1: independence is not refutable, so callers that filter on
    dependence treat the test as passing.
    """
    return _test_result(stratified_tests(_label_env_counts(y, e)[None], method))


def _require_environments(envs):
    """Refuse data with one environment id, on which no invariance test can
    reject: every label/environment table has one column."""
    if envs.min() == envs.max():
        raise ConfigError(
            "invariance is untestable on single-environment data "
            "(got 1 distinct environment id)"
        )


def conditional_gtest(y, e, strata):
    """G-test of y against e within strata, summed across strata.

    The statistic and dof are accumulated over non-empty strata only, with
    per-stratum dof counting nonzero marginals.
    """
    return _test_result(stratified_tests(_label_env_counts(y, e, strata)[None]))


def _test_result(scores):
    """The one set ``stratified_tests`` scored, as a TestResult."""
    (stat,), (dof,), (p_value,) = scores
    return TestResult(statistic=stat, dof=dof, p_value=p_value, degenerate=dof == 0)


def stratified_tests(counts, method="gtest"):
    """One test of label against environment, summed over strata, per set.

    ``counts`` has shape (n_sets, n_strata, 2, k), strata in ascending id.
    Empty strata are dropped and one ``table_stats`` scores the rest. Each
    set's statistic and dof are then summed over its own strata: its terms in
    ascending stratum order, grouped as numpy's ``.sum`` groups them over a
    contiguous run (``stat[a:b].sum()``). The sets with the same number of
    occupied strata are summed together, one gathered row each, so equal
    tables give bit-identical p-values however the sets are batched.

    Returns per-set lists of Python scalars: statistics (float), dofs (int)
    and p-values (float; 1.0, with no ``chi2_sf`` call, at dof 0).
    """
    n_sets, n_strata, r, c = counts.shape
    tables = counts.reshape(n_sets * n_strata, r, c)
    # any nonzero cell, reduced over a cell-major copy as in table_stats
    cells = tables.reshape(n_sets * n_strata, r * c).T.astype(bool, order="C")
    occupied = cells.any(axis=0)
    stat, dof = table_stats(np.compress(occupied, tables, axis=0), method)
    n_occupied = occupied.reshape(n_sets, n_strata).sum(axis=1)
    starts = np.cumsum(n_occupied) - n_occupied
    set_stats, set_dofs = np.zeros(n_sets), np.zeros(n_sets, dtype=np.int64)
    for size in np.flatnonzero(np.bincount(n_occupied)).tolist():
        group = n_occupied == size
        strata = starts[group][:, None] + np.arange(size)
        set_stats[group] = stat[strata].sum(axis=1)
        set_dofs[group] = dof[strata].sum(axis=1)
    set_stats, set_dofs = set_stats.tolist(), set_dofs.tolist()
    p_values = [chi2_sf(x, dof) if dof else 1.0 for x, dof in zip(set_stats, set_dofs)]
    return set_stats, set_dofs, p_values
