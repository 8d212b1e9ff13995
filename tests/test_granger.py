import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from causalcast import Frequency, mvgc_test
from causalcast.errors import InputError
from causalcast.stats import benjamini_hochberg

from conftest import make_dataset, noise_dataset


def lstsq_granger(ds, max_lag):
    """(variable, F, p, dof) of every non-target variable from
    np.linalg.lstsq fits on the stacked design [1, lags 1..max_lag of
    every variable], with p from scipy's F tail."""
    values = ds.values
    T, N = values.shape
    t = ds.variable_names.index(ds.target_name)
    lags = [
        np.column_stack([values[max_lag - lag : T - lag, i] for lag in range(1, max_lag + 1)])
        for i in range(N)
    ]
    response = values[max_lag:, t]

    def rss(skip):
        design = np.column_stack(
            [np.ones(T - max_lag)] + [cols for i, cols in enumerate(lags) if i != skip]
        )
        resid = response - design @ np.linalg.lstsq(design, response, rcond=None)[0]
        return float(resid @ resid)

    rss_full, d2 = rss(None), T - max_lag - N * max_lag - 1
    out = []
    for i, name in enumerate(ds.variable_names):
        if i != t:
            f = (rss(i) - rss_full) / max_lag / (rss_full / d2)
            out.append((name, f, scipy_stats.f.sf(f, max_lag, d2), (max_lag, d2)))
    return out


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
            replace(ds, values=ds.values * np.array([2.0, 0.01, 300.0, 1.0, 5.0]) + 7.0),
            max_lag=3,
        )
        for a, b in zip(base, scaled):
            assert b.f_statistic == pytest.approx(a.f_statistic, rel=1e-8)

    def test_driver_far_from_zero_keeps_every_column(self):
        # beside an intercept column, v3 + 1e7 falls below a rank
        # tolerance on singular values; the centered blocks see only the
        # spread
        ds = var_with_two_drivers(2, T=1500, n_vars=5)
        base = mvgc_test(ds, max_lag=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shifted = mvgc_test(
                replace(ds, values=ds.values + np.array([0.0, 0.0, 0.0, 1e7, 0.0])), max_lag=3
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

    def test_duplicate_column_handled(self):
        # an exact copy of another variable must not crash the solver: the
        # copy's lag columns trip the pivot guard and are dropped with a
        # warning
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 3))
        vals = np.column_stack([x, x[:, 1]])
        ds = make_dataset(vals, names=["y", "a", "b", "a_copy"], target="y")
        with pytest.warns(UserWarning, match="dropped 2 collinear"):
            results = mvgc_test(ds, max_lag=2)
        assert len(results) == 3
        assert [r.dof for r in results] == [(2, 391), (2, 391), (0, 391)]
        assert (results.regressions, results.columns_kept, results.columns_dropped) == (3, 6, 2)
        doc = results.to_dict()
        assert (doc["regressions"], doc["columns_kept"], doc["columns_dropped"]) == (3, 6, 2)

    def test_near_duplicate_column_dropped(self):
        # a copy of a plus noise at 1e-7 of its spread keeps far less than
        # PIVOT_RTOL of its sum of squares: the one collinearity rule drops
        # its lag columns as it drops an exact copy's
        rng = np.random.default_rng(5)
        x = rng.standard_normal((400, 3))
        vals = np.column_stack([x, x[:, 1] + 1e-7 * rng.standard_normal(400)])
        ds = make_dataset(vals, names=["y", "a", "b", "a_near"], target="y")
        with pytest.warns(UserWarning, match="dropped 2 collinear"):
            results = mvgc_test(ds, max_lag=2)
        assert [r.dof for r in results] == [(2, 391), (2, 391), (0, 391)]
        assert (results.regressions, results.columns_kept, results.columns_dropped) == (3, 6, 2)
        assert (results[2].f_statistic, results[2].p_value) == (0.0, 1.0)

    def test_block_path_matches_stacked_fits(self):
        for seed in range(20):
            ds = var_with_two_drivers(seed, T=300, n_vars=5)
            got = mvgc_test(ds, max_lag=3)
            assert (got.regressions, got.columns_kept, got.columns_dropped) == (5, 15, 0)
            want = lstsq_granger(ds, 3)
            selected = benjamini_hochberg([w[2] for w in want], 0.05)
            for g, (name, f, p, dof), sel in zip(got, want, selected):
                assert (g.variable, g.dof, g.selected) == (name, dof, sel)
                assert g.f_statistic == pytest.approx(f, rel=1e-9, abs=0.0)
                assert g.p_value == pytest.approx(p, rel=1e-9, abs=0.0)

    def test_short_series_rejected(self):
        ds = noise_dataset(6, T=30, N=5)
        with pytest.raises(InputError, match="max_lag 21 with 5 variables needs T > 136"):
            mvgc_test(ds, max_lag=21)

    def test_results_cover_all_nontarget_variables(self):
        ds = noise_dataset(7, T=200, N=6)
        results = mvgc_test(ds, max_lag=2)
        assert [r.variable for r in results] == [f"v{i}" for i in range(1, 6)]


class TestSelection:
    def test_target_always_included(self):
        ds = noise_dataset(8, T=300, N=4)
        results = mvgc_test(ds, max_lag=2)
        assert "v0" in results.drivers("v0")

    def test_column_order_preserved(self):
        ds = var_with_two_drivers(1, T=3000, n_vars=6)
        drivers = mvgc_test(ds, max_lag=3).drivers("v0")
        assert drivers == ("v0", "v1", "v4")

    def test_drivers_of_another_target_rejected(self):
        results = mvgc_test(noise_dataset(8, T=300, N=4), max_lag=2)
        with pytest.raises(InputError, match="MVGC tested drivers of 'v0', not 'v1'"):
            results.drivers("v1")

    def test_dict_round_trip_fields(self):
        ds = noise_dataset(9, T=200, N=3)
        results = mvgc_test(ds, max_lag=2, alpha=0.1)
        doc = results.to_dict()
        assert (doc["regressions"], doc["columns_kept"], doc["columns_dropped"]) == (3, 6, 0)
        assert (doc["method"], doc["target"], doc["max_lag"], doc["alpha"]) == ("mvgc", "v0", 2, 0.1)
        assert doc["variables"] == ["v0", "v1", "v2"]
        assert doc["features"] == list(results.drivers("v0"))
        assert len(doc["results"]) == 2
        assert set(doc["results"][0]) == {"variable", "F", "p", "dof", "selected"}

    def test_dot_draws_every_variable_and_each_selected_edge(self):
        ds = var_with_two_drivers(1, T=3000, n_vars=6)
        dot = mvgc_test(ds, max_lag=3).to_dot()
        nodes = "".join(f'  "v{i}";\n' for i in range(6))
        assert dot == (
            f"digraph causal {{\n  rankdir=LR;\n{nodes}"
            '  "v1" -> "v0" [label="GC"];\n  "v4" -> "v0" [label="GC"];\n}\n'
        )
