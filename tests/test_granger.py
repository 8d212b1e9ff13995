import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from causalcast import Frequency, granger, mvgc_test, select_features_gc, stats
from causalcast.errors import InsufficientHistory
from causalcast.granger import FeatureMethod, lagged_design, results_to_dict

from conftest import make_dataset, noise_dataset


def count_stacked_fits(monkeypatch):
    """Wrap granger.ols; returns the column count of every fit it sees."""
    widths = []

    def counted(design, response):
        widths.append(design.shape[1])
        return stats.ols(design, response)

    monkeypatch.setattr(granger, "ols", counted)
    return widths


def var_with_two_drivers(seed, T=5000, n_vars=11):
    """VAR(3) panel where only v1 and v4 feed the target v0."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((T + 100, n_vars))
    vals[:3] = rng.standard_normal((3, n_vars))
    for t in range(3, T + 100):
        eps = rng.standard_normal(n_vars)
        vals[t] = 0.3 * vals[t - 1] + eps
        vals[t, 0] += 0.4 * vals[t - 1, 1] + 0.3 * vals[t - 3, 4]
    return make_dataset(
        vals[100:], names=[f"v{i}" for i in range(n_vars)], frequency=Frequency.DAILY
    )


class TestLaggedDesign:
    def test_column_layout(self):
        vals = np.arange(12.0).reshape(6, 2)
        design = lagged_design(vals, 2)
        assert design.shape == (4, 4)
        # variable 0, lag 1 then lag 2; variable 1 likewise
        np.testing.assert_array_equal(design[:, 0], vals[1:5, 0])
        np.testing.assert_array_equal(design[:, 1], vals[0:4, 0])
        np.testing.assert_array_equal(design[:, 2], vals[1:5, 1])
        np.testing.assert_array_equal(design[:, 3], vals[0:4, 1])


class TestMvgc:
    def test_recovers_planted_drivers(self):
        ds = var_with_two_drivers(0)
        results = mvgc_test(ds, max_lag=3, alpha=0.05)
        chosen = {r.variable for r in results if r.selected}
        assert chosen == {"v1", "v4"}

    def test_recovery_across_seeds(self):
        hits = 0
        for seed in range(20):
            ds = var_with_two_drivers(seed, T=5000)
            results = mvgc_test(ds, max_lag=3, alpha=0.05)
            if {r.variable for r in results if r.selected} == {"v1", "v4"}:
                hits += 1
        assert hits >= 19

    def test_null_false_positive_rate(self):
        # under independence, selections per run should stay near alpha * (N-1)
        alpha, n_vars = 0.05, 5
        total = 0
        runs = 60
        for seed in range(runs):
            ds = noise_dataset(1000 + seed, T=400, N=n_vars)
            results = mvgc_test(ds, max_lag=3, alpha=alpha)
            total += sum(r.selected for r in results)
        expect = alpha * (n_vars - 1)
        sigma = np.sqrt(expect * (1 - expect) / runs)
        assert total / runs <= expect + 2 * sigma + 1e-12

    def test_f_statistics_nonnegative(self):
        ds = noise_dataset(3, T=300, N=4)
        for r in mvgc_test(ds, max_lag=2):
            assert r.f_statistic >= 0.0
            assert 0.0 <= r.p_value <= 1.0

    def test_affine_invariance(self):
        ds = var_with_two_drivers(2, T=1500, n_vars=5)
        base = mvgc_test(ds, max_lag=3)
        scaled = mvgc_test(
            ds.with_values(ds.values * np.array([2.0, 0.01, 300.0, 1.0, 5.0]) + 7.0),
            max_lag=3,
        )
        for a, b in zip(base, scaled):
            assert b.f_statistic == pytest.approx(a.f_statistic, rel=1e-8)

    def test_driver_far_from_zero_keeps_every_column(self):
        # beside the stacked design's intercept, v3 + 1e7 pushed the
        # intercept below the pivoted QR's rank tolerance, and it was
        # dropped with a warning; the centered blocks see only the spread
        ds = var_with_two_drivers(2, T=1500, n_vars=5)
        base = mvgc_test(ds, max_lag=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shifted = mvgc_test(
                ds.with_values(ds.values + np.array([0.0, 0.0, 0.0, 1e7, 0.0])), max_lag=3
            )
        assert shifted.columns_dropped == 0
        for a, b in zip(base, shifted):
            assert b.dof == a.dof
            assert b.f_statistic == pytest.approx(a.f_statistic, rel=1e-6)

    def test_deterministic(self):
        ds = noise_dataset(4, T=300, N=4)
        a = mvgc_test(ds, max_lag=3)
        b = mvgc_test(ds, max_lag=3)
        assert [(r.variable, r.f_statistic, r.p_value) for r in a] == [
            (r.variable, r.f_statistic, r.p_value) for r in b
        ]

    def test_p_values_match_scipy_tail(self):
        # the planted drivers sit far below 1e-16, where 1 - cdf reads 0
        ds = var_with_two_drivers(1, T=3000, n_vars=6)
        results = mvgc_test(ds, max_lag=3)
        assert min(r.p_value for r in results) < 1e-30
        for r in results:
            oracle = scipy_stats.f.sf(r.f_statistic, *r.dof)
            assert r.p_value == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_duplicate_column_handled(self, monkeypatch):
        # an exact copy of another variable must not crash the solver: its
        # block trips the pivot guard, and the stacked fits drop the copy's
        # lag columns with a warning
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 3))
        vals = np.column_stack([x, x[:, 1]])
        ds = make_dataset(vals, names=["y", "a", "b", "a_copy"], target="y")
        fits = count_stacked_fits(monkeypatch)
        with pytest.warns(UserWarning, match="dropped 2 collinear"):
            results = mvgc_test(ds, max_lag=2)
        assert len(results) == 3
        assert [r.dof for r in results] == [(2, 391), (2, 391), (0, 391)]
        assert (results.regressions, results.columns_kept, results.columns_dropped) == (3, 6, 2)
        assert fits == [7, 5, 5]
        doc = results_to_dict(results, ds, max_lag=2, alpha=0.05)
        assert (doc["regressions"], doc["columns_kept"], doc["columns_dropped"]) == (3, 6, 2)

    def test_block_path_matches_stacked_fits(self, monkeypatch):
        panels = [var_with_two_drivers(seed, T=300, n_vars=5) for seed in range(20)]
        fits = count_stacked_fits(monkeypatch)
        block = [mvgc_test(ds, max_lag=3) for ds in panels]
        assert fits == []  # every RSS came from a cross-product block
        monkeypatch.setattr(stats, "PIVOT_RTOL", np.inf)  # no pivot passes
        stacked = [mvgc_test(ds, max_lag=3) for ds in panels]
        assert len(fits) == 20 * 5
        for got, want in zip(block, stacked):
            work = (got.regressions, got.columns_kept, got.columns_dropped)
            assert work == (want.regressions, want.columns_kept, want.columns_dropped)
            assert work == (5, 15, 0)
            for g, w in zip(got, want):
                assert (g.variable, g.dof, g.selected) == (w.variable, w.dof, w.selected)
                assert g.f_statistic == pytest.approx(w.f_statistic, rel=1e-9, abs=0.0)
                assert g.p_value == pytest.approx(w.p_value, rel=1e-9, abs=0.0)

    def test_short_series_rejected(self):
        ds = noise_dataset(6, T=30, N=5)
        with pytest.raises(InsufficientHistory):
            mvgc_test(ds, max_lag=21)

    def test_results_cover_all_nontarget_variables(self):
        ds = noise_dataset(7, T=200, N=6)
        results = mvgc_test(ds, max_lag=2)
        assert [r.variable for r in results] == [f"v{i}" for i in range(1, 6)]


class TestSelection:
    def test_target_always_included(self):
        ds = noise_dataset(8, T=300, N=4)
        results = mvgc_test(ds, max_lag=2)
        fs = select_features_gc(results, ds)
        assert fs.method is FeatureMethod.GC
        assert "v0" in fs.features

    def test_column_order_preserved(self):
        ds = var_with_two_drivers(1, T=3000, n_vars=6)
        fs = select_features_gc(mvgc_test(ds, max_lag=3), ds)
        assert list(fs.features) == sorted(fs.features, key=ds.variable_names.index)

    def test_dict_round_trip_fields(self):
        ds = noise_dataset(9, T=200, N=3)
        results = mvgc_test(ds, max_lag=2, alpha=0.1)
        doc = results_to_dict(results, ds, max_lag=2, alpha=0.1)
        assert (doc["regressions"], doc["columns_kept"], doc["columns_dropped"]) == (3, 6, 0)
        assert doc["method"] == "mvgc"
        assert doc["target"] == "v0"
        assert len(doc["results"]) == 2
        assert set(doc["results"][0]) == {"variable", "F", "p", "dof", "selected"}
