import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rulecover import stats
from rulecover.errors import DataError
from rulecover.stats import (
    _label_env_counts,
    chi2_sf,
    conditional_gtest,
    independence_test,
    joint_strata,
)

from conftest import table_to_vectors


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
        ],
    )
    def test_fractional_labels_and_envs_are_refused(self, y, e, match):
        # 0.5 used to be read as label 0 (p = 0.414), 0.2/1.5 as envs 0/1
        with pytest.raises(DataError, match=match):
            independence_test(y, e)
        with pytest.raises(DataError, match=match):
            conditional_gtest(y, e, np.zeros(len(y), dtype=np.int64))

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



def test_joint_strata_packs_bits():
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert joint_strata(X, [0, 1]).tolist() == [0, 1, 2, 3]
    assert joint_strata(X, []).tolist() == [0, 0, 0, 0]
    assert joint_strata(X, [1]).tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("columns", [[-1], [2], [5], [1, 1], [0, 1, 0]])
def test_joint_strata_refuses_bad_columns(columns):
    # [-1] used to pack the last column, [1, 1] x1 twice, [5] an IndexError
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(DataError, match="distinct columns of 2-column data"):
        joint_strata(X, columns)
