import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulecover import icp, stats
from rulecover.errors import DataError
from rulecover._kernels import _dense_ids
from rulecover.icp import IcpConfig, icp_report
from rulecover.icscm import IcscmConfig, icscm_fit
from rulecover.simulator import SimConfig, simulate
from rulecover.stats import (
    _label_env_counts,
    chi2_sf,
    conditional_gtest,
    independence_test,
    joint_strata,
    stratified_tests,
    table_stats,
)

from conftest import table_stats_reference, table_to_vectors


class TestChi2Sf:
    def test_survival_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 7) == 1.0

    def test_critical_value_dof1(self):
        assert chi2_sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)

    def test_critical_value_dof2(self):
        # chi-square(2) survival is exp(-x/2)
        assert chi2_sf(9.2103, 2) == pytest.approx(0.01, abs=1e-4)
        for x in (0.5, 3.0, 11.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)

    def test_matches_quad_oracle(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")

        def oracle(x, dof):
            def density(t):
                return (
                    t ** (dof / 2 - 1)
                    * math.exp(-t / 2)
                    / (2 ** (dof / 2) * math.gamma(dof / 2))
                )

            value, _ = scipy_integrate.quad(density, 0.0, x, limit=200)
            return 1.0 - value

        for dof in (1, 3, 10, 40):
            for x in (0.2, 1.0, 4.0, 15.0, 70.0):
                assert chi2_sf(x, dof) == pytest.approx(oracle(x, dof), abs=1e-8)

    def test_large_dof_matches_scipy(self):
        # near x = dof both expansions need O(sqrt(dof)) terms, far more than
        # the 800 that once capped them
        scipy_stats = pytest.importorskip("scipy.stats")
        for dof in (10**3, 10**5, 10**6, 2 * 10**6):
            sigma = math.sqrt(2 * dof)
            for z in (-6, -3, -1, 0, 1, 3, 6):
                x = dof + z * sigma
                expected = scipy_stats.chi2.sf(x, dof)
                assert chi2_sf(x, dof) == pytest.approx(expected, rel=1e-7)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "_max_terms", lambda a: 800)
        with pytest.raises(ArithmeticError):
            chi2_sf(2e6, 2 * 10**6)
        with pytest.raises(ArithmeticError):
            chi2_sf(5e5, 5 * 10**5)
        # x/2 >= dof/2 + 1 takes the continued fraction
        with pytest.raises(ArithmeticError, match="continued fraction"):
            chi2_sf(2e6 + 4, 2 * 10**6)
        assert chi2_sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)

    def test_vanishes_at_infinity(self):
        assert chi2_sf(1e4, 3) < 1e-300 or chi2_sf(1e4, 3) == 0.0

    def test_input_errors(self):
        with pytest.raises(DataError):
            chi2_sf(float("nan"), 1)
        with pytest.raises(DataError):
            chi2_sf(-1.0, 1)
        with pytest.raises(DataError):
            chi2_sf(1.0, 0)

    @pytest.mark.parametrize("x", [10**400, -(10**400)])
    def test_integer_beyond_float_range_is_refused(self, x):
        # math.isfinite raised OverflowError on these
        with pytest.raises(DataError, match="finite non-negative statistic"):
            chi2_sf(x, 1)

    @pytest.mark.parametrize(
        "x, dof",
        [(3.0, 2.7), (3.0, 2.0), (3.0, "2"), (3.0, None), ("3.0", 2), (None, 2)],
        ids=["dof 2.7", "dof 2.0", "dof '2'", "dof None", "x '3.0'", "x None"],
    )
    def test_non_integer_dof_and_non_real_statistic_are_refused(self, x, dof):
        # 2.7 was truncated to dof 2, and "3.0" parsed as a statistic
        with pytest.raises(DataError, match="chi2_sf needs"):
            chi2_sf(x, dof)
        # integer and real numpy scalars are taken as they are
        assert chi2_sf(np.float64(3.0), np.int64(2)) == chi2_sf(3.0, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 500.0),
        st.floats(0.0, 500.0),
        st.integers(1, 50),
    )
    def test_non_increasing_in_x(self, x1, x2, dof):
        lo, hi = sorted((x1, x2))
        assert chi2_sf(lo, dof) >= chi2_sf(hi, dof) - 1e-12


class TestIndependenceTest:
    def test_perfectly_independent_table(self):
        y, e = table_to_vectors([[25, 25], [25, 25]])
        for method in ("chi2", "gtest"):
            result = independence_test(y, e, method=method)
            assert result.statistic == pytest.approx(0.0, abs=1e-12)
            assert result.p_value == 1.0
            assert not result.degenerate

    def test_constant_label_is_degenerate(self):
        y = np.zeros(40, dtype=np.int64)
        e = np.tile([0, 1], 20)
        result = independence_test(y, e)
        assert result.degenerate and result.dof == 0 and result.p_value == 1.0

    def test_hand_expanded_chi2(self):
        y, e = table_to_vectors([[40, 10], [10, 40]])
        result = independence_test(y, e, method="chi2")
        assert result.statistic == pytest.approx(36.0, abs=1e-9)
        assert result.dof == 1
        assert result.p_value < 1e-8

    def test_hand_expanded_gtest(self):
        y, e = table_to_vectors([[40, 10], [10, 40]])
        result = independence_test(y, e, method="gtest")
        assert result.statistic == pytest.approx(38.5489514043515, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            independence_test(np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize(
        "y, e, match",
        [
            ([0.5, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 1], "labels"),
            ([0, 1, 0, 1], [0.2, 1.5, 0, 1], "environment ids"),
            ([0, 1, 0, 1], [0, 1, float("nan"), 1], "environment ids"),
            ([0, 2, 0, 1], [0, 0, 1, 1], "labels"),
            ([], [], "at least one sample"),
        ],
    )
    def test_fractional_labels_and_envs_are_refused(self, y, e, match):
        # 0.5 used to be read as label 0 (p = 0.414), 0.2/1.5 as envs 0/1;
        # a label of 2 and empty vectors are refused the same way
        with pytest.raises(DataError, match=match):
            independence_test(y, e)
        with pytest.raises(DataError, match=match):
            conditional_gtest(y, e, np.zeros(len(y), dtype=np.int64))

    def test_unknown_method_is_refused(self):
        y, e = table_to_vectors([[3, 1], [2, 4]])
        with pytest.raises(DataError, match="unknown test method 'bogus'"):
            independence_test(y, e, method="bogus")

    def test_fractional_strata_are_refused(self):
        with pytest.raises(DataError, match="strata"):
            conditional_gtest([0, 1, 0, 1], [0, 1, 0, 1], [0.3, 1.9, 0, 1])

    def test_integral_floats_and_bools_are_read_as_ids(self):
        y = np.array([0, 1, 0, 1, 1, 0], dtype=np.int64)
        e = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        expected = independence_test(y, e)
        assert independence_test(y.astype(bool), e.astype(np.float64)) == expected
        assert independence_test(y.astype(np.float32), e.astype(np.uint8)) == expected

    def test_contingency_table_from_vectors(self):
        y, e = table_to_vectors([[3, 1], [2, 4]])
        counts = _label_env_counts(y, e)
        assert counts.tolist() == [[[3, 1], [2, 4]]]
        assert counts.sum() == 10

    def test_agreement_chi2_vs_g_on_heavy_tables(self):
        # asymptotic equivalence when all expected cells are >= 20
        rng = np.random.default_rng(4)
        for _ in range(20):
            table = rng.integers(40, 200, size=(2, 3))
            y, e = table_to_vectors(table.tolist())
            chi2 = independence_test(y, e, method="chi2").statistic
            g = independence_test(y, e, method="gtest").statistic
            if chi2 > 1e-6:
                assert abs(chi2 - g) / chi2 < 0.10

    def test_null_pvalues_roughly_uniform(self):
        rng = np.random.default_rng(7)
        pvalues = []
        for _ in range(200):
            y = (rng.random(500) < 0.5).astype(np.int64)
            e = (rng.random(500) < 0.5).astype(np.int64)
            pvalues.append(independence_test(y, e).p_value)
        assert 0.40 < float(np.mean(pvalues)) < 0.60


class TestConditionalGtest:
    def test_single_stratum_reduction_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            y = (rng.random(80) < 0.4).astype(np.int64)
            e = rng.integers(0, 3, size=80)
            flat = independence_test(y, e, method="gtest")
            cond = conditional_gtest(y, e, np.zeros(80, dtype=np.int64))
            # one table builder and one table_stats: equal bit for bit
            assert cond.statistic == flat.statistic
            assert cond.dof == flat.dof
            assert cond.p_value == flat.p_value

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(17, 60))
    def test_constant_strata_never_changes_result(self, seed, n):
        rng = np.random.default_rng(seed)
        y = (rng.random(n) < 0.5).astype(np.int64)
        e = (rng.random(n) < 0.5).astype(np.int64)
        flat = independence_test(y, e, method="gtest")
        cond = conditional_gtest(y, e, np.full(n, 7, dtype=np.int64))
        assert (cond.statistic, cond.dof) == (
            pytest.approx(flat.statistic, abs=1e-12),
            flat.dof,
        )

    def test_two_independent_strata(self):
        y1, e1 = table_to_vectors([[10, 10], [10, 10]])
        y = np.concatenate([y1, y1])
        e = np.concatenate([e1, e1])
        strata = np.repeat([0, 1], len(y1))
        result = conditional_gtest(y, e, strata)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0

    def test_y_equal_e_within_strata(self):
        # each stratum is a diagonal 25/25 table: per-stratum G is 100 ln 2
        y1, e1 = table_to_vectors([[25, 0], [0, 25]])
        y = np.concatenate([y1, y1])
        e = np.concatenate([e1, e1])
        strata = np.repeat([0, 1], 50)
        result = conditional_gtest(y, e, strata)
        assert result.statistic == pytest.approx(200 * math.log(2), abs=1e-9)
        assert result.dof == 2
        assert result.p_value < 1e-6

    def test_sparse_stratum_ids_are_densified(self):
        y, e = table_to_vectors([[25, 0], [0, 25]])
        strata = np.full(50, 1234567, dtype=np.int64)
        result = conditional_gtest(y, e, strata)
        assert result.statistic == pytest.approx(100 * math.log(2), abs=1e-9)

    def test_degenerate_strata(self):
        y = np.zeros(30, dtype=np.int64)
        e = np.tile([0, 1, 2], 10)
        result = conditional_gtest(y, e, np.arange(30) % 5)
        assert result.degenerate and result.p_value == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.integers(1, 4),
    st.sampled_from(["chi2", "gtest"]),
    st.sampled_from([np.int64, np.float64]),
    st.integers(0, 2**32 - 1),
)
def test_stratified_tests_match_per_set_reference(
    n_sets, n_strata, k, method, dtype, seed
):
    # the reference scores each set on its own: one table_stats over the
    # set's occupied strata, summed; empty strata sit between occupied ones,
    # and a set may have none
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 8, (n_sets, n_strata, 2, k)).astype(dtype)
    counts[rng.random((n_sets, n_strata)) < 0.4] = 0
    scores = stratified_tests(counts, method)
    assert [len(values) for values in scores] == [n_sets] * 3
    for *score, tables in zip(*scores, counts):
        stat, dof = table_stats(tables[tables.any(axis=(1, 2))], method)
        _assert_score_is(score, stat.sum(), dof.sum())
    # a list of sets with 1 to n_strata strata each, padded by the scorer:
    # each scores as it does alone, at k = 4 past 8 cells per table too
    lengths = rng.integers(1, n_strata, n_sets, endpoint=True)
    ragged = [tables[:length] for tables, length in zip(counts, lengths)]
    scores = stratified_tests(ragged, method)
    assert [len(values) for values in scores] == [n_sets] * 3
    for *score, tables in zip(*scores, ragged):
        stat, dof = table_stats(tables[tables.any(axis=(1, 2))], method)
        _assert_score_is(score, stat.sum(), dof.sum())


def _assert_score_is(score, stat, dof):
    # one set's (statistic, dof, p-value) from stratified_tests, bit for bit
    # against its summed statistic and dof: p = chi2_sf of those, 1.0 at dof 0
    set_stat, set_dof, p_value = score
    want_stat, want_dof = float(stat), int(dof)
    assert set_stat.hex() == want_stat.hex()
    assert type(set_dof) is int and set_dof == want_dof
    want_p = chi2_sf(want_stat, want_dof) if want_dof else 1.0
    assert p_value.hex() == want_p.hex()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0, 1, 2, 3, 7, 8, 9, 64, 1000, 5000]),
    st.integers(0, 10),
    st.sampled_from([2, 50, 2**20, 2**40]),
    st.sampled_from(["chi2", "gtest"]),
    st.integers(0, 2**32 - 1),
)
def test_table_stats_match_reference(n_tables, k, high, method, seed):
    # k runs from 0 (the stop test's all-empty table) past 2k = 8, where
    # numpy's sum stops adding left to right; tables, label rows and env
    # columns are emptied at random
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, high, (n_tables, 2, k), endpoint=True)
    counts[rng.random(n_tables) < 0.1] = 0
    counts[rng.random((n_tables, 2)) < 0.2] = 0
    counts.transpose(0, 2, 1)[rng.random((n_tables, k)) < 0.2] = 0
    stat, dof = table_stats(counts, method)
    want_stat, want_dof = table_stats_reference(counts, method)
    assert stat.view(np.int64).tolist() == want_stat.view(np.int64).tolist()
    assert dof.dtype == want_dof.dtype and dof.tolist() == want_dof.tolist()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["chi2", "gtest"]), st.integers(0, 2**32 - 1))
def test_stratified_tests_group_sums_match_per_set_sums(method, seed):
    # one batch mixes sets with 0, 1-7, 8-128 and more than 128 occupied
    # strata, the sizes at which numpy's pairwise sum changes how it groups
    # terms, with several sets of each size in shuffled order; each set
    # must score bit for bit as stat[a:b].sum() over its own strata
    rng = np.random.default_rng(seed)
    sizes = rng.permutation([0, 0, 1, 1, 5, 7, 7, 8, 9, 31, 128, 128, 129, 300])
    n_strata, k = 320, int(rng.integers(2, 5))
    counts = np.zeros((len(sizes), n_strata, 2, k))
    for counts_of_set, size in zip(counts, sizes):
        strata = np.sort(rng.choice(n_strata, size, replace=False))
        counts_of_set[strata] = rng.integers(0, 30, (size, 2, k))
        counts_of_set[strata, 0, 0] += 1  # every chosen stratum occupied
    scores = stratified_tests(counts, method)
    tables = counts.reshape(-1, 2, k)
    stat, dof = table_stats(tables[tables.any(axis=(1, 2))], method)
    ends = np.cumsum(sizes)
    for *score, a, b in zip(*scores, ends - sizes, ends):
        _assert_score_is(score, stat[a:b].sum(), dof[a:b].sum())


_ID_LISTS = st.one_of(
    # negative ids, and ids around their count
    st.lists(st.integers(-5, 40), min_size=1, max_size=40),
    # sparse ids, most of them far above their count
    st.lists(st.integers(0, 10**12), min_size=1, max_size=40),
    # dense ids, every one below the count
    st.integers(1, 40).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ),
    # one repeated value
    st.builds(lambda v, n: [v] * n, st.integers(-(10**12), 10**12), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None)
@given(_ID_LISTS)
def test_dense_ids_number_as_unique(ids):
    ids = np.array(ids, dtype=np.int64)
    distinct, expected = np.unique(ids, return_inverse=True)
    dense, numbered = _dense_ids(ids)
    assert numbered.tolist() == distinct.tolist()
    assert dense.tolist() == expected.tolist()


@pytest.mark.parametrize("wrapped", [2**63, 2**64 - 1])
def test_uint64_ids_beyond_int64_are_refused(wrapped):
    # cast to int64 these ids would wrap to negative numbers; Dataset and the
    # CSV loader refuse them, and so do the sample-level tests
    y = np.array([0, 1, 0, 1, 1, 0])
    ids = np.array([wrapped, 0, wrapped, 0, 1, 1], dtype=np.uint64)
    small = np.array([0, 0, 1, 1, 2, 2])
    with pytest.raises(DataError, match="environment ids must be integers"):
        independence_test(y, ids)
    with pytest.raises(DataError, match="environment ids must be integers"):
        conditional_gtest(y, ids, small)
    with pytest.raises(DataError, match="strata must be integers"):
        conditional_gtest(y, small, ids)


def test_uint64_and_int64_ids_give_equal_results():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, 200)
    e = rng.choice(np.array([0, 9, 2**40, 2**63 - 1], dtype=np.int64), 200)
    strata = rng.choice(np.array([1, 2**50, 2**63 - 2], dtype=np.int64), 200)
    for method in ("chi2", "gtest"):
        assert independence_test(y, e.astype(np.uint64), method) == (
            independence_test(y, e, method)
        )
    assert conditional_gtest(y, e.astype(np.uint64), strata.astype(np.uint64)) == (
        conditional_gtest(y, e, strata)
    )


def test_joint_strata_packs_bits():
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert joint_strata(X, [0, 1]).tolist() == [0, 1, 2, 3]
    assert joint_strata(X, []).tolist() == [0, 0, 0, 0]
    assert joint_strata(X, [1]).tolist() == [0, 0, 1, 1]
    wide = np.ones((1, 63), dtype=np.uint8)
    assert joint_strata(wide, range(62)).tolist() == [2**62 - 1]
    # every width on both sides of the 24 columns packed in float32
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, (50, 30), dtype=np.uint8)
    X[0] = 1
    for width in range(1, 31):
        cols = rng.permutation(30)[:width].tolist()
        bits = list(enumerate(sorted(cols)))
        packed = [sum(int(row[c]) << i for i, c in bits) for row in X]
        assert joint_strata(X, cols).tolist() == packed
    with pytest.raises(DataError, match="cannot pack 63 features"):
        joint_strata(wide, range(63))
    # only the indexed columns must be 0/1, in any dtype, and no rows is fine
    X = np.array([[0, 7], [1, 7], [0, 7]], dtype=np.uint8)
    assert joint_strata(X, [0]).tolist() == [0, 1, 0]
    assert joint_strata(X, []).tolist() == [0, 0, 0]
    for dtype in (bool, np.int64, np.float64):
        assert joint_strata(X[:, :1].astype(dtype), [0]).tolist() == [0, 1, 0]
    assert joint_strata(np.zeros((0, 2), dtype=np.uint8), [0, 1]).tolist() == []


@pytest.mark.parametrize(
    "columns", [[0.0], [1.5], [np.float64(1)], ["1"], [None], [0, 1.0]]
)
def test_joint_strata_refuses_non_integer_columns(columns):
    # floats failed in numpy's indexing, "1" and None in sorting or packing
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(DataError, match="feature indices must be integers"):
        joint_strata(X, columns)
    # what operator.index takes, numpy integers included, is a column
    assert joint_strata(X, [np.int64(1)]).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize(
    "features",
    [
        np.array([0, 1, 1, 0], dtype=np.uint8),
        np.zeros((2, 2, 2), dtype=np.uint8),
        np.uint8(1),
    ],
)
def test_joint_strata_refuses_features_that_are_not_2d(features):
    # a 1-D array used to raise IndexError
    for columns in ([0], []):
        with pytest.raises(DataError, match="features must be a 2-D matrix"):
            joint_strata(features, columns)


@pytest.mark.parametrize(
    "features",
    [
        [[2, 0], [1, 1]],
        [[0.5, 0], [1, 1]],
        [[0, 0], [1, -1]],
        [[0, 0], [np.nan, 1]],
        [[256, 0], [1, 1]],
        np.array([[0, 3], [1, 1]], dtype=np.uint8),
    ],
)
def test_joint_strata_refuses_values_other_than_0_1(features):
    # [[2, 0], ...] gave row 0 stratum 2, the stratum of a real (0, 1) row,
    # and 0.5 packed as 0
    with pytest.raises(DataError, match="features must be 0/1 valued"):
        joint_strata(features, [0, 1])


@pytest.mark.parametrize("columns", [[-1], [2], [5], [1, 1], [0, 1, 0]])
def test_joint_strata_refuses_bad_columns(columns):
    # [-1] used to pack the last column, [1, 1] x1 twice, [5] an IndexError
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(DataError, match="distinct columns of 2-column data"):
        joint_strata(X, columns)


@pytest.mark.parametrize("level_cells", [None, 0])
def test_reports_hold_python_scalars_only(level_cells):
    # numpy 2 reprs a numpy scalar as np.float64(0.5), and callers compare
    # flags with `is`: every score that reaches a report is a Python scalar,
    # from ICP's guard-skipped sizes, held levels (level_cells None) and
    # subsets counted on their own (0), icscm's leaf and stop tests with
    # pruning, and the two public tests, degenerate or not
    ds, _ = simulate(SimConfig(n_distractors=2, seed=1, n_samples_per_env=300))
    cells = icp._LEVEL_CELLS if level_cells is None else level_cells
    with mock.patch.object(icp, "_LEVEL_CELLS", cells):
        report = icp_report(ds, IcpConfig(min_samples_per_cell=10))
    # 600 samples fill 2 * 2 * 2**|S| cells 10 deep up to |S| = 3 only
    assert {t.degenerate for t in report.tests} == {True, False}
    for t in report.tests:
        assert type(t.p_value) is float
        assert type(t.accepted) is bool and type(t.degenerate) is bool
    fit = icscm_fit(ds, IcscmConfig(prune=True))
    assert fit.per_iteration_log
    for rec in fit.per_iteration_log:
        assert type(rec.leaf_p_value) is float and type(rec.stop_p_value) is float
    y, e = ds.labels, ds.envs
    results = [
        independence_test(y, e, "chi2"),
        independence_test(y, e, "gtest"),
        independence_test(np.zeros_like(y), e),
        conditional_gtest(y, e, ds.features[:, 0]),
        conditional_gtest(np.zeros_like(y), e, ds.features[:, 0]),
    ]
    assert [r.degenerate for r in results] == [False, False, True, False, True]
    for r in results:
        assert type(r.statistic) is float and type(r.p_value) is float
        assert type(r.dof) is int and type(r.degenerate) is bool
