import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scipy_stats
from scipy import special as scipy_special
from scipy.linalg.lapack import dpotrf

from causalcast.errors import InputError, NumericalError
from causalcast.stats import (
    LaggedCrossProducts,
    _cholesky,
    _column,
    benjamini_hochberg,
    betainc,
    f_cdf,
    t_cdf,
)

from conftest import lstsq_partial_correlation


def f_pdf(x, d1, d2):
    log_num = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
        + (d1 / 2.0 - 1.0) * math.log(x)
        - ((d1 + d2) / 2.0) * math.log(1.0 + d1 * x / d2)
    )
    return math.exp(log_num)


def t_pdf(x, dof):
    log_num = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
        - ((dof + 1) / 2.0) * math.log1p(x * x / dof)
    )
    return math.exp(log_num)


class TestOls:
    """LaggedCrossProducts.fit as least squares: one node regressed on
    lagged nodes and an intercept, from one Cholesky of their centered
    block, reports the residual sum of squares of that regression."""

    def test_exact_line_through_origin(self):
        # y_t = 2 x_{t-1}: the response's last pivot cancels to rounding
        x = np.arange(1.0, 9.0)
        values = np.column_stack([np.r_[0.0, 2.0 * x[:-1]], x])
        kept, rss = LaggedCrossProducts(values, 1).fit([(1, 1)], (0, 0))
        assert kept == [(1, 1)]
        assert 0.0 <= rss <= 1e-12 * float(np.var(values[1:, 0]) * 7)

    def test_slope_three(self):
        # y_t = 3 x_{t-1} + 2 over noise: the intercept absorbs the offset
        x = np.random.default_rng(1).standard_normal(100)
        values = np.column_stack([np.r_[0.0, 3.0 * x[:-1] + 2.0], x])
        kept, rss = LaggedCrossProducts(values, 1).fit([(1, 1)], (0, 0))
        assert kept == [(1, 1)]
        assert 0.0 <= rss <= 1e-12 * float(np.var(values[1:, 0]) * 99)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((50, 3))
        regressors = [(i, 1) for i in range(3)]
        kept, rss = LaggedCrossProducts(values, 1).fit(regressors, (0, 0))
        X = np.column_stack(
            [np.ones(49)] + [_column(values, 1, node) for node in regressors]
        )
        y = values[1:, 0]
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        assert kept == regressors
        assert rss == pytest.approx(float(y @ y - (X.T @ y) @ beta), rel=1e-10, abs=0.0)

    def test_rss_consistent_with_residuals(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((200, 3))
        regressors = [(i, lag) for i in range(3) for lag in (1, 2)]
        kept, rss = LaggedCrossProducts(values, 2).fit(regressors, (0, 0))
        design = np.column_stack(
            [np.ones(198)] + [_column(values, 2, node) for node in regressors]
        )
        response = values[2:, 0]
        resid = response - design @ np.linalg.lstsq(design, response, rcond=None)[0]
        assert kept == regressors
        assert rss == pytest.approx(float(resid @ resid), rel=1e-12, abs=0.0)


class TestFit:
    """LaggedCrossProducts.fit drops a regressor collinear with those
    before it instead of rejecting the design."""

    def test_collinear_regressor_dropped(self):
        # v3 is constant, v2 an affine copy of v1 and v4 a copy of v1 plus
        # noise at 1e-7 of its spread: each is dropped where its pivot trips
        # the guard or the factorization stops, and the fit on what is kept
        # is unchanged
        rng = np.random.default_rng(2)
        x = rng.standard_normal((300, 2))
        near = x[:, 1] + 1e-7 * rng.standard_normal(300)
        values = np.column_stack([x, 2.0 * x[:, 1] + 1.0, np.full(300, 0.5), near])
        cross = LaggedCrossProducts(values, 2)
        regressors = [(3, 1), (1, 1), (2, 1), (4, 1), (1, 2), (0, 1)]
        kept, rss = cross.fit(regressors, (0, 0))
        assert kept == [(1, 1), (1, 2), (0, 1)]
        assert cross.fit(kept, (0, 0)) == (kept, rss)

    def test_exact_response_has_zero_rss(self):
        # y_t = x1_{t-1} + 2 x2_{t-1} over small integers: the factorization
        # stops at the response, whose residual is then exactly 0
        x = np.random.default_rng(1).integers(-3, 4, (60, 2)).astype(np.float64)
        values = np.column_stack([np.r_[0.0, x[:-1, 0] + 2.0 * x[:-1, 1]], x])
        assert LaggedCrossProducts(values, 1).fit([(1, 1), (2, 1)], (0, 0)) == (
            [(1, 1), (2, 1)], 0.0
        )


class TestCholesky:
    """_cholesky stops where LAPACK's dpotrf does, which is where
    _factor's drop rule looks for the collinear column."""

    @staticmethod
    def gram(column, fill):
        x = np.random.default_rng(1).standard_normal((300, 100))
        x[:, column] = fill(x)
        x -= x.mean(axis=0)
        return x.T @ x

    @pytest.mark.parametrize("column, fill", [
        (80, lambda x: x[:, 17]),                       # a duplicated column
        (60, lambda x: x[:, 3] - 2.0 * x[:, 40]),       # an exact combination
        (70, lambda x: 0.0),                            # a zero column
    ])
    def test_stops_where_dpotrf_does(self, column, fill):
        block = self.gram(column, fill)
        oracle, info = dpotrf(block, lower=1, clean=0)
        low, stop = _cholesky(block)
        assert stop == info == column + 1
        assert low.shape == (column, column)
        np.testing.assert_allclose(np.diagonal(low), np.diagonal(oracle)[:column], rtol=1e-12)


def ci_test(x, y, conditioning=None):
    """Partial correlation of x and y given the conditioning columns, as
    lag-0 nodes of the cross-product core over every row: (statistic,
    p-value)."""
    n = len(x)
    z = np.empty((n, 0)) if conditioning is None else np.reshape(conditioning, (n, -1))
    k = z.shape[1]
    cross = LaggedCrossProducts(np.column_stack([z, x, y]), 1)
    (stat,), (p,) = cross.test([(k, 0)], (k + 1, 0), [(i, 0) for i in range(k)], start=0)
    return float(stat), float(p)


class TestPartialCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        stat, p = ci_test(x, x)
        assert stat == pytest.approx(1.0)
        assert p < 1e-10

    def test_independent_series_not_significant(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(10000)
        y = rng.standard_normal(10000)
        stat, p = ci_test(x, y)
        assert abs(stat) < 0.05
        assert p > 0.01

    def test_common_cause_explained_away(self):
        rng = np.random.default_rng(5)
        n = 5000
        z = rng.standard_normal(n)
        x = 0.8 * z + 0.3 * rng.standard_normal(n)
        y = 0.8 * z + 0.3 * rng.standard_normal(n)
        plain, _ = ci_test(x, y)
        given_z, _ = ci_test(x, y, z[:, None])
        assert plain > 0.3
        assert abs(given_z) < 0.05

    def test_dof_accounts_for_conditions(self):
        rng = np.random.default_rng(6)
        n = 50
        z = rng.standard_normal((n, 3))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        # the p-value is read at n - 3 - 2 degrees of freedom
        want = lstsq_partial_correlation(x, y, z, dof=n - 3 - 2)
        assert ci_test(x, y, z) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_constant_series_reports_independence(self):
        rng = np.random.default_rng(7)
        x = np.ones(100)
        y = rng.standard_normal(100)
        assert ci_test(x, y) == (0.0, 1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        n = 400
        z = rng.standard_normal((n, 2))
        x = z @ [0.5, -0.2] + rng.standard_normal(n)
        y = z @ [0.1, 0.7] + rng.standard_normal(n)
        base = ci_test(x, y, z)
        scaled = ci_test(1000.0 * x - 3.0, 0.01 * y + 7.0, 5.0 * z + 2.0)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_condition_far_from_zero_still_conditions(self):
        # beside an intercept, z + 1e6 is all but collinear with it until
        # centered; the statistic must still see z's spread
        rng = np.random.default_rng(8)
        n = 2000
        z = rng.standard_normal(n)
        x = z + rng.standard_normal(n)
        y = z + rng.standard_normal(n)
        base, _ = ci_test(x, y, z)
        shifted, _ = ci_test(x, y, z + 1e6)
        assert abs(base) < 0.05
        assert shifted == pytest.approx(base, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("k", [0, 1, 4, 12])
    def test_matches_least_squares_residuals(self, k):
        rng = np.random.default_rng(11 + k)
        n = 600
        z = rng.standard_normal((n, k))
        x = z @ rng.standard_normal(k) + rng.standard_normal(n) + 3.0
        y = 0.2 * x + z @ rng.standard_normal(k) + rng.standard_normal(n)
        stat, p = ci_test(x, y, z)
        want_stat, want_p = lstsq_partial_correlation(x, y, z, dof=n - k - 2)
        assert stat == pytest.approx(want_stat, rel=1e-12, abs=0.0)
        assert p == pytest.approx(want_p, rel=1e-9, abs=0.0)

    def test_duplicated_offset_conditions_are_dropped(self):
        # a repeated column trips the pivot guard and is dropped, so the
        # test and its dof are those of one copy; it must still see w's
        # spread under a 1e6 offset
        rng = np.random.default_rng(12)
        n = 2000
        w = rng.standard_normal(n)
        x = w + rng.standard_normal(n)
        y = w + rng.standard_normal(n)
        once = ci_test(x, y, w)
        twice = ci_test(x, y, np.column_stack([w, w]) + 1e6)
        assert abs(once[0]) < 0.05
        assert once == pytest.approx(
            lstsq_partial_correlation(x, y, w, dof=n - 1 - 2), rel=1e-9, abs=0.0
        )
        assert twice == pytest.approx(once, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("swap", [False, True])
    def test_near_collinear_x_or_y_reports_independence(self, swap):
        # x lies within 1e-6 of z: its residual given z trips the pivot
        # guard, so the test is degenerate although that residual, e,
        # drives y (an exact residual correlation would read about 0.65)
        rng = np.random.default_rng(3)
        n = 1000
        z = rng.standard_normal(n)
        e = rng.standard_normal(n)
        x = z + 1e-6 * e
        y = z + e + rng.standard_normal(n)
        pair = (y, x) if swap else (x, y)
        assert ci_test(*pair, z) == (0.0, 1.0)
        # without z neither trips the guard: the verdict at n - 2 dof
        want = lstsq_partial_correlation(*pair, dof=n - 2)
        assert ci_test(*pair) == pytest.approx(want, rel=1e-9, abs=0.0)
        # the same nodes over rows 1..n-1, from the shared matrix
        cross = LaggedCrossProducts(np.column_stack([*pair, z]), 1)
        stat, p = cross.test([(0, 0)], (1, 0), [(2, 0)])
        assert (stat.tolist(), p.tolist()) == ([0.0], [1.0])

    @pytest.mark.parametrize("coef", [0.0, 0.1, 0.3, 0.6, 2.0])
    def test_p_value_matches_scipy_tail(self, coef):
        # p spans 0.5 down to 1e-199; 2 * (1 - cdf) reads 0 below ~1e-16
        rng = np.random.default_rng(10)
        n = 500
        z = rng.standard_normal((n, 2))
        x = rng.standard_normal(n)
        y = coef * x + z @ [0.3, -0.2] + rng.standard_normal(n)
        r, p = ci_test(x, y, z)
        dof = n - 2 - 2
        t = r * math.sqrt(dof / (1.0 - r * r))
        oracle = 2.0 * scipy_stats.t.sf(abs(t), dof)
        assert p == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_null_calibration(self):
        # p-values should be uniform under the null: ~5% below 0.05
        rng = np.random.default_rng(9)
        hits = 0
        trials = 1000
        for _ in range(trials):
            x = rng.standard_normal(80)
            y = rng.standard_normal(80)
            if ci_test(x, y)[1] < 0.05:
                hits += 1
        assert 0.03 <= hits / trials <= 0.07


class TestDistributions:
    def test_f_cdf_at_zero(self):
        assert f_cdf(0.0, 3, 7) == 0.0
        assert f_cdf(-1.5, 3, 7) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_f_cdf_median_equal_dof(self, d):
        assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    def test_f_cdf_against_quadrature(self):
        val, err = integrate.quad(f_pdf, 0.0, 3.0, args=(5, 10))
        assert err < 1e-8
        assert f_cdf(3.0, 5, 10) == pytest.approx(val, abs=1e-10)

    def test_t_cdf_at_zero(self):
        assert t_cdf(0.0, 5) == 0.5

    def test_t_cdf_against_quadrature(self):
        # integrate the finite half and use symmetry about zero
        for x, dof in [(1.3, 4), (-2.1, 9), (0.4, 30)]:
            half, err = integrate.quad(t_pdf, 0.0, abs(x), args=(dof,))
            assert err < 1e-12
            val = 0.5 + half if x > 0 else 0.5 - half
            assert t_cdf(x, dof) == pytest.approx(val, abs=1e-10)

    def test_t_cdf_symmetry(self):
        for x in (0.5, 1.0, 2.5):
            assert t_cdf(x, 7) + t_cdf(-x, 7) == pytest.approx(1.0, abs=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(InputError, match="degrees of freedom must be >= 1, got 0, 5"):
            f_cdf(1.0, 0, 5)
        with pytest.raises(InputError, match="non-finite x: nan"):
            f_cdf(math.nan, 5, 5)
        with pytest.raises(InputError, match="dof must be >= 1, got 0"):
            t_cdf(1.0, 0)


class TestIncompleteBeta:
    """betainc against closed forms deep into the tail, its symmetry, and
    SciPy's betainc on the shapes the program's F and t tests use."""

    def test_closed_forms_in_the_tail(self):
        # p from 1 down to about 1e-250 at each shape
        for a in (0.5, 3.0, 40.0, 400.0):
            x = 10.0 ** -np.linspace(0.0, 250.0 / a, 60)[1:]
            np.testing.assert_allclose(betainc(a, 1.0, x), x ** a, rtol=1e-12, atol=0.0)
        for b in (0.5, 3.0, 40.0, 400.0):
            x = 10.0 ** -np.linspace(0.01, 250.0, 60)
            exact = -np.expm1(b * np.log1p(-x))
            np.testing.assert_allclose(betainc(1.0, b, x), exact, rtol=1e-12, atol=0.0)
        x = np.r_[10.0 ** -np.linspace(0.01, 300.0, 60), 1.0 - 10.0 ** -np.arange(1.0, 16.0)]
        # near 1, through 1 - x (exact there), where arcsin is well conditioned
        exact = np.where(x < 0.5, np.arcsin(np.sqrt(x)), np.pi / 2.0 - np.arcsin(np.sqrt(1.0 - x)))
        exact *= 2.0 / np.pi
        np.testing.assert_allclose(betainc(0.5, 0.5, x), exact, rtol=1e-12, atol=0.0)

    def test_ends_and_shape(self):
        x = np.array([[0.0, 0.25], [0.5, 1.0]])
        out = betainc(2.5, 4.0, x)
        assert out.shape == x.shape and out[0, 0] == 0.0 and out[1, 1] == 1.0
        assert betainc(2.5, 4.0, 0.25).shape == ()
        assert np.isnan(betainc(2.5, 4.0, math.nan))

    def test_unconverged_fraction_raises(self):
        # about sqrt(a) terms would be needed, far past the cap
        with pytest.raises(NumericalError):
            betainc(1e12, 1e12, 0.5)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (3.0, 0.5), (12.5, 40.0), (4000.0, 0.5), (0.5, 900.0)])
    def test_symmetry(self, a, b):
        x = np.linspace(0.0, 1.0, 129)
        np.testing.assert_allclose(betainc(a, b, x) + betainc(b, a, 1.0 - x), 1.0, rtol=0.0, atol=1e-14)

    def test_matches_scipy_on_t_and_f_shapes(self):
        # SciPy itself drifts by 1e-9 within 1e-13 of x = 1
        x = np.r_[10.0 ** -np.linspace(0.0, 12.0, 40), np.linspace(0.01, 0.99, 40),
                  1.0 - 10.0 ** -np.linspace(2.0, 12.0, 20)]
        shapes = [(nu / 2.0, 0.5) for nu in (1, 2, 3, 7, 20, 99, 400, 1500, 4001, 8000)]
        shapes += [(d2 / 2.0, d1 / 2.0) for d2 in (5, 60, 517, 7950) for d1 in (1, 3, 21, 100)]
        for a, b in shapes:
            oracle = scipy_special.betainc(a, b, x)
            keep = oracle >= 1e-250
            np.testing.assert_allclose(betainc(a, b, x[keep]), oracle[keep], rtol=1e-9, atol=0.0)

    def test_converges_beside_the_switch(self):
        # the continued fractions are slowest where they swap, at
        # x = (a + 1) / (a + b + 2)
        a, b = 4000.0, 0.5
        switch = (a + 1.0) / (a + b + 2.0)
        x = switch * (1.0 + np.array([-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-6, 1e-5]))
        np.testing.assert_allclose(betainc(a, b, x), scipy_special.betainc(a, b, x), rtol=1e-9, atol=0.0)


class TestBenjaminiHochberg:
    def test_all_tiny_all_rejected(self):
        mask = benjamini_hochberg([0.001] * 6, 0.05)
        assert mask.all()

    def test_all_large_none_rejected(self):
        mask = benjamini_hochberg([0.9] * 6, 0.05)
        assert not mask.any()

    def test_step_up_example(self):
        mask = benjamini_hochberg([0.01, 0.02, 0.04, 0.9], 0.05)
        assert mask.tolist() == [True, True, False, False]

    def test_order_invariance(self):
        p = [0.9, 0.04, 0.01, 0.02]
        mask = benjamini_hochberg(p, 0.05)
        assert mask.tolist() == [False, False, True, True]

    def test_empty_input(self):
        assert benjamini_hochberg([], 0.05).size == 0

    def test_invalid_inputs(self):
        with pytest.raises(InputError, match=r"p-values must lie in \[0, 1\]"):
            benjamini_hochberg([0.5, 1.5], 0.05)
        with pytest.raises(InputError, match=r"alpha must lie in \(0, 1\), got 0.0"):
            benjamini_hochberg([0.5], 0.0)
