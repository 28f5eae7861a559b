"""Statistical testing kernel.

Provides the chi-square survival function (via regularized incomplete gamma),
unconditional chi-square/G independence tests on (label, environment)
contingency tables, and the stratified (conditional) G-test used by pruning
and the exhaustive-subset baseline.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .data import _exact_cast
from .errors import ConfigError, DataError

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

    Raises ArithmeticError if the expansion fails to converge.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DataError(f"chi2_sf needs a finite non-negative statistic, got {x}")
    dof = int(dof)
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


def table_stats(counts, method):
    """Statistic and dof for a batch of contingency tables.

    ``counts`` has shape (T, r, c); returns (stat, dof) arrays of length T.
    Degrees of freedom count only rows/columns with a nonzero marginal, so
    value levels absent from the data contribute nothing.
    """
    counts = np.asarray(counts, dtype=np.float64)
    row = counts.sum(axis=2)
    col = counts.sum(axis=1)
    n = row.sum(axis=1)
    nz_rows = (row > 0).sum(axis=1)
    nz_cols = (col > 0).sum(axis=1)
    dof = np.maximum(nz_rows - 1, 0) * np.maximum(nz_cols - 1, 0)
    safe_n = np.where(n > 0, n, 1.0)
    expected = row[:, :, None] * col[:, None, :] / safe_n[:, None, None]
    if method == "chi2":
        diff_sq = (counts - expected) ** 2
        stat = np.divide(
            diff_sq, expected, out=np.zeros_like(expected), where=expected > 0
        ).sum(axis=(1, 2))
    elif method == "gtest":
        # 2 * sum O * ln(O / E), with the 0 * ln 0 := 0 convention.
        ratio = np.divide(
            counts, expected, out=np.ones_like(expected), where=counts > 0
        )
        stat = 2.0 * (counts * np.log(ratio)).sum(axis=(1, 2))
    else:
        raise DataError(f"unknown test method {method!r}; use 'chi2' or 'gtest'")
    # both statistics are nonnegative; clear float dust from cancelling terms
    stat = np.maximum(np.where(dof > 0, stat, 0.0), 0.0)
    return stat, dof.astype(np.int64)


def _result_from(stat, dof):
    stat = float(stat)
    dof = int(dof)
    if dof == 0:
        return TestResult(statistic=stat, dof=0, p_value=1.0, degenerate=True)
    return TestResult(
        statistic=stat, dof=dof, p_value=chi2_sf(stat, dof), degenerate=False
    )


def _label_env_counts(y, e, strata=None):
    """(n_strata, 2, k) label-by-environment counts, one table per distinct
    stratum id in ascending order (one stratum when ``strata`` is None), with
    the k distinct env ids numbered densely. Every table in this module is
    counted here."""
    y = _int64_ids(y, "labels must be 0/1 valued")
    e = _int64_ids(e, "environment ids must be integers")
    one_stratum = strata is None
    if one_stratum:
        strata = np.zeros_like(y)  # already dense
    strata = _int64_ids(strata, "strata must be integers")
    if y.ndim != 1 or e.shape != y.shape or strata.shape != y.shape:
        raise DataError(
            "y, e and strata must be equal-length vectors, "
            f"got {y.shape}, {e.shape} and {strata.shape}"
        )
    if y.shape[0] < 1:
        raise DataError("need at least one sample")
    if y.min() < 0 or y.max() > 1:
        raise DataError("labels must be 0/1 valued")
    _, e_dense = np.unique(e, return_inverse=True)
    if not one_stratum:
        _, strata = np.unique(strata, return_inverse=True)
    return kernels.stratified_label_env_counts(
        strata, int(strata.max()) + 1, y, e_dense, int(e_dense.max()) + 1
    )


def _int64_ids(values, message):
    """``values`` as a contiguous int64 array. Integer and bool arrays are
    cast as they are; any other dtype follows ``Dataset``'s rule and refuses
    a value the cast would change, such as a fraction, with DataError."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return np.ascontiguousarray(values, dtype=np.int64)
    return _exact_cast(values, np.int64, message)


def independence_test(y, e, method="chi2"):
    """Test independence of a binary label vector against environment ids.

    Degenerate data (a constant label or a single environment) yields dof 0
    and p = 1: independence is not refutable, so callers that filter on
    dependence treat the test as passing.
    """
    stat, dof = table_stats(_label_env_counts(y, e), method)
    return _result_from(stat[0], dof[0])


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
    return stratified_gtest(_label_env_counts(y, e, strata))


def stratified_gtest(counts):
    """G-test of label against environment summed over strata.

    ``counts`` is an (n_strata, 2, k) array holding only non-empty strata, in
    ascending stratum id: the order fixes how the floating-point sum groups
    its terms, so every caller gets bit-identical p-values for equal tables.
    """
    stat, dof = table_stats(counts, "gtest")
    return _result_from(stat.sum(), dof.sum())


def joint_strata(features, feature_indices):
    """Stratum ids from the joint value of binary feature columns.

    An empty index set yields a single all-zero stratum, which reduces the
    conditional G-test to the unconditional one. An index that is negative,
    not below the column count, or repeated raises DataError.
    """
    features = np.asarray(features)
    cols = sorted(feature_indices)
    if not cols:
        return np.zeros(features.shape[0], dtype=np.int64)
    d = features.shape[1]
    if cols[0] < 0 or cols[-1] >= d or len(set(cols)) < len(cols):
        raise DataError(
            f"feature indices must be distinct columns of {d}-column data, "
            f"got {cols}"
        )
    if len(cols) > 62:
        raise DataError(f"cannot pack {len(cols)} features into stratum ids")
    weights = np.int64(1) << np.arange(len(cols), dtype=np.int64)
    return features[:, cols].astype(np.int64) @ weights
