"""Shared statistical machinery for both causal-discovery engines.

One core answers all of discovery: :class:`LaggedCrossProducts` holds
the centered cross-products of a panel's lagged columns, and each MVGC
regression and each PCMCI+ CI test is one small Cholesky factorization
of a block of it (a PC1 round's tests share one).  One pivot guard,
:func:`_kept`, is the collinearity rule for both: an MVGC fit drops a
lag column that trips it.  Around that core: linear partial correlation
with a t-distributed statistic, whose verdict rules live once, in
:func:`_verdicts`; SVD least squares as the exact fallback for CI-test
blocks too close to singular; F/t distribution tails
through the regularized incomplete beta function; and Benjamini-Hochberg
step-up FDR control.  The functions are pure; callers may evaluate many
tests in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.special import betainc

from .errors import InsufficientHistory, InvalidArgument

# Singular values below RANK_RTOL * s_max count as zero in
# partial_correlation's SVD fallback.
RANK_RTOL = 1e-10

# A Cholesky pivot that keeps less than this share of its column's
# centered sum of squares marks a duplicated or collinear column: an MVGC
# fit drops that lag column, and a CI test takes the SVD path, whose
# verdicts on such blocks are exact.
PIVOT_RTOL = 1e-8

# Discovery defaults shared by both engines, the experiment config and
# the CLI: test level, and the longest lag a driver may act over.
DEFAULT_ALPHA = 0.05
DEFAULT_MAX_LAG = 21


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """Raise unless ``alpha`` is a test level in (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise InvalidArgument(f"{name} must lie in (0, 1), got {alpha}")


def check_max_lag(max_lag: int) -> None:
    """Raise unless ``max_lag`` reaches at least one step back."""
    if max_lag < 1:
        raise InvalidArgument(f"max_lag must be >= 1, got {max_lag}")


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    p_value: float
    effective_dof: int


def partial_correlation(
    x: np.ndarray, y: np.ndarray, conditioning: np.ndarray | None = None
) -> CITestResult:
    """Linear partial correlation of x and y given the conditioning columns.

    Both series are regressed on [conditioning, intercept]; the statistic
    is the Pearson correlation of the residuals, with a two-sided t-test
    at dof = n - #conditions - 2.  Zero-variance residuals are reported
    as independence (statistic 0, p 1) so constant columns are silently
    non-causal.  The residual sums come from :func:`partial_correlation_block`
    on the columns' own cross-products, or from an SVD least-squares fit
    where that block is too close to singular.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    if y.shape[0] != n:
        raise InvalidArgument("x and y must have equal length")
    if conditioning is None or (hasattr(conditioning, "size") and conditioning.size == 0):
        z = np.empty((n, 0), dtype=np.float64)
    else:
        z = np.asarray(conditioning, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None]
        if z.shape[0] != n:
            raise InvalidArgument("conditioning rows must match x length")
    norm_x, norm_y = math.sqrt(float(x @ x)), math.sqrt(float(y @ y))
    cols = np.column_stack([z, x, y])
    centered = cols - cols.mean(axis=0)
    res = partial_correlation_block(centered.T @ centered, norm_x, norm_y, n)
    if res is not None:
        return res

    # Centered columns carry the intercept, so the rank rule sees each
    # column's spread, not its mean (beside an intercept column, a column
    # at 1e6 +- 1 falls below RANK_RTOL).  lstsq without a rank gate:
    # collinear conditioning columns simply waste dof here, they do not
    # invalidate the residualization.
    design, rhs = centered[:, :-2], centered[:, -2:]
    beta, _, _, _ = np.linalg.lstsq(design, rhs, rcond=RANK_RTOL)
    resid = rhs - design @ beta
    rx, ry = resid[:, 0], resid[:, 1]
    return _verdict(
        float(rx @ ry),
        math.sqrt(float(rx @ rx)),
        math.sqrt(float(ry @ ry)),
        norm_x,
        norm_y,
        n - z.shape[1] - 2,
    )


def partial_correlation_block(
    cross: np.ndarray, norm_x: float, norm_y: float, n: int
) -> CITestResult | None:
    """Partial correlation of the last two of k+2 columns given the first k.

    ``cross`` is the columns' centered cross-product matrix over ``n``
    rows, so the intercept is already regressed out; ``norm_x`` and
    ``norm_y`` are the raw (uncentered) norms of x and y.  With
    cross = L L^T, the last 2x2 block of L holds the residual sums of x
    and y given [Z, intercept]: r_xx = L[x,x]^2, r_xy = L[y,x] L[x,x] and
    r_yy = L[y,x]^2 + L[y,y]^2.  Returns None, for the caller to take the
    SVD path, where :func:`_cholesky` does.
    """
    k = cross.shape[0] - 2
    _check_history(n, k)
    low = _cholesky(cross)
    if low is None:
        return None
    sx, yx, yy = float(low[k, k]), float(low[k + 1, k]), float(low[k + 1, k + 1])
    return _verdict(yx * sx, sx, math.hypot(yx, yy), norm_x, norm_y, n - k - 2)


def _check_history(n: int, k: int) -> None:
    """Raise unless ``n`` rows leave dof >= 2 after ``k`` conditioning columns."""
    if n <= k + 3:
        raise InsufficientHistory(f"{n} samples cannot support {k} conditioning columns")


def _kept(pivot_sq: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Where a squared Cholesky pivot is positive and keeps at least
    PIVOT_RTOL of its column's centered sum of squares ``diag``."""
    return (pivot_sq > 0.0) & (pivot_sq >= PIVOT_RTOL * diag)


def _cholesky(cross: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a centered cross-product block (the upper
    triangle is left as it was), or None where the factorization fails or
    a pivot trips :func:`_kept`."""
    low, info = dpotrf(cross, lower=1, clean=0)
    if info != 0 or not _kept(np.diagonal(low) ** 2, np.diagonal(cross)).all():
        return None
    return low


def _verdicts(rxy, sx, sy, norm_x, norm_y, dof: int) -> tuple[np.ndarray, np.ndarray]:
    """Statistics and p-values, elementwise, from the residual
    cross-products ``rxy``, the residual norms ``sx``/``sy`` and the raw
    norms of x and y."""
    # a degenerate test is folded into the independence verdict
    degenerate = (sx <= 1e-12 * (norm_x + 1.0)) | (sy <= 1e-12 * (norm_y + 1.0))
    r = np.where(degenerate, 0.0, rxy / np.where(degenerate, 1.0, sx * sy))
    r = np.minimum(np.maximum(r, -1.0), 1.0)
    # two-sided tail of t = r sqrt(dof / (1 - r^2)), taken directly so it
    # does not cancel to 0: I_x(dof/2, 1/2) at x = dof / (dof + t^2) = 1 - r^2,
    # which is exactly 0 where |r| = 1
    return r, np.where(degenerate, 1.0, betainc(dof / 2.0, 0.5, 1.0 - r * r))


def _verdict(
    rxy: float, sx: float, sy: float, norm_x: float, norm_y: float, dof: int
) -> CITestResult:
    """One test's :func:`_verdicts`."""
    r, p = _verdicts(*(np.float64(v) for v in (rxy, sx, sy, norm_x, norm_y)), dof)
    return CITestResult(statistic=float(r), p_value=float(p), effective_dof=dof)


def _column(values: np.ndarray, start: int, node: tuple[int, int]) -> np.ndarray:
    """Variable i at t - lag, for node (i, lag), over rows t = start..T-1."""
    i, lag = node
    return values[start - lag : values.shape[0] - lag, i]


def _conditions(
    values: np.ndarray, start: int, nodes: list[tuple[int, int]]
) -> np.ndarray | None:
    """Conditioning matrix over rows t = start..T-1: one :func:`_column`
    per distinct node, in order of first appearance; None if no nodes."""
    distinct = list(dict.fromkeys(nodes))
    if not distinct:
        return None
    return np.column_stack([_column(values, start, node) for node in distinct])


# ---------------------------------------------------------------------------
# lagged cross-products
# ---------------------------------------------------------------------------

Node = tuple[int, int]


class LaggedCrossProducts:
    """Centered cross-products of every node (variable i at t - lag, lag
    0..max_lag) over rows t = max_lag..T-1, and the blocks of any other
    row range.

    Every MVGC regression and every PC1 and contemporaneous CI test reads
    these rows, so each is answered from its block by a small Cholesky
    factorization: :meth:`fit`, :meth:`test`, and :meth:`test_each` for a
    PC1 round's shared conditioning set.  MCI tests start later and reach
    further back; :meth:`test` builds their blocks from each variable's
    contiguous centered series.  The pivot guard is the one collinearity
    rule: :meth:`fit` drops a lag column that trips it, and a CI test
    whose block trips it falls back to :func:`partial_correlation` on the
    stacked columns.  Counts the CI tests it answers and their largest
    conditioning set.
    """

    def __init__(self, values: np.ndarray, max_lag: int):
        T, N = values.shape
        check_max_lag(max_lag)
        if T <= max_lag + 4:
            raise InsufficientHistory(
                f"T = {T} leaves no testable samples at max_lag = {max_lag}"
            )
        self.values, self.max_lag, self.n = values, max_lag, T - max_lag
        # centering each variable first keeps the per-block mean correction
        # n * mu_a mu_b^T small next to the products it corrects
        centered = values - values.mean(axis=0)
        views = [centered[max_lag - lag : T - lag] for lag in range(max_lag + 1)]
        means = [view.mean(axis=0) for view in views]
        size = N * (max_lag + 1)
        self.cross = np.empty((size, size))
        for a in range(max_lag + 1):
            for b in range(a, max_lag + 1):
                block = views[a].T @ views[b] - self.n * np.outer(means[a], means[b])
                self.cross[a * N : (a + 1) * N, b * N : (b + 1) * N] = block
                self.cross[b * N : (b + 1) * N, a * N : (a + 1) * N] = block.T
        # raw (uncentered) norm of every node, for the degenerate-test rule
        self.norms = np.sqrt(np.concatenate([
            np.einsum("ij,ij->j", raw, raw)
            for raw in (values[max_lag - lag : T - lag] for lag in range(max_lag + 1))
        ]))
        # one row per variable, so node (i, lag) over rows start..T-1 is
        # the contiguous slice series[i, start - lag : T - lag]
        self.series = np.ascontiguousarray(centered.T)
        self.tests = 0
        self.max_cond_dim = 0

    def count(self, n_conds: int, tests: int = 1) -> None:
        """Record ``tests`` CI tests with ``n_conds`` distinct conditioning columns."""
        self.tests += tests
        self.max_cond_dim = max(self.max_cond_dim, n_conds)

    def _index(self, nodes: list[Node]) -> np.ndarray:
        n_vars = self.values.shape[1]
        return np.array([lag * n_vars + i for i, lag in nodes], dtype=np.intp)

    def fit(self, regressors: list[Node], response: Node) -> tuple[list[Node], float]:
        """Least-squares fit of ``response`` on ``regressors`` and an
        intercept: the regressors kept, and the residual sum of squares.

        One Cholesky of their block, with the response last, gives the RSS
        as its squared last pivot (0 where the factorization stops there).
        The first regressor whose pivot trips :func:`_kept`, or where the
        factorization stops, is collinear with those before it: it is
        dropped and the block is factored again.
        """
        kept = list(regressors)
        while True:
            k = len(kept)
            idx = self._index(kept + [response])
            block = self.cross.take(idx, 0).take(idx, 1)
            low, info = dpotrf(block, lower=1, clean=0)
            # dpotrf stops at column info - 1; the pivots before it are final
            done = min(info - 1 if info else k, k)
            pivot_sq, diag = np.diagonal(low)[:done] ** 2, np.diagonal(block)[:done]
            tripped = np.flatnonzero(~_kept(pivot_sq, diag))
            drop = int(tripped[0]) if tripped.size else done
            if drop == k:
                return kept, 0.0 if info else float(low[-1, -1]) ** 2
            del kept[drop]

    def test(
        self, x: Node, y: Node, conds: list[Node], start: int | None = None
    ) -> CITestResult:
        """Partial correlation of nodes x and y given the distinct ``conds``
        over rows t = start..T-1 (by default max_lag..T-1), for nodes at
        any lag up to ``start``."""
        start = self.max_lag if start is None else start
        nodes = list(dict.fromkeys(conds))
        _check_history(self.values.shape[0] - start, len(nodes))
        self.count(len(nodes))
        return self._answer(x, y, nodes, start)

    def _answer(self, x: Node, y: Node, nodes: list[Node], start: int) -> CITestResult:
        res = partial_correlation_block(*self._block(start, nodes + [x, y]))
        return res if res is not None else self._stacked(start, x, y, nodes)

    def _block(self, start: int, nodes: list[Node]) -> tuple[np.ndarray, float, float, int]:
        """Centered cross-products of ``nodes`` over rows t = start..T-1,
        the raw norms of the last two, and the row count.

        Over rows max_lag..T-1 these are read from the shared matrix.  Any
        later start (MCI tests reach further back) takes the Gram matrix of
        the nodes' contiguous centered series over those rows, less
        n mu mu^T for their means over the same rows.
        """
        if start == self.max_lag:
            idx = self._index(nodes)
            block = self.cross.take(idx, 0).take(idx, 1)
            return block, float(self.norms[idx[-2]]), float(self.norms[idx[-1]]), self.n
        T = self.values.shape[0]
        n = T - start
        # windows[i * T + s] is series[i, s : s + n]
        windows = sliding_window_view(self.series.ravel(), n)
        rows = windows[[i * T + start - lag for i, lag in nodes]]
        sums = rows.sum(axis=1)
        norm_x, norm_y = (
            math.sqrt(float(col @ col))
            for col in (_column(self.values, start, node) for node in nodes[-2:])
        )
        return rows @ rows.T - np.outer(sums, sums / n), norm_x, norm_y, n

    def test_each(
        self, xs: list[Node], y: Node, conds: list[Node]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Statistic and p-value of every node in ``xs`` against ``y``, each
        given the same distinct ``conds`` (none of them in ``xs``).

        One Cholesky of the conditioning block, C_ZZ = L L^T, and one
        triangular solve W = L^-1 C_Z[xs, y] answer them all: the residual
        cross-products given [Z, intercept] are C_AB - W_A^T W_B.  The
        pivots that x and y would add to L are checked against the guard
        for each x, and one that trips it takes :meth:`test`'s path.
        """
        k, m = len(conds), len(xs)
        _check_history(self.n, k)
        self.count(k, tests=m)
        z, a = self._index(conds), self._index(xs)
        yi = int(self._index([y])[0])
        low = _cholesky(self.cross[np.ix_(z, z)])
        c_aa, c_ay, c_yy = self.cross[a, a], self.cross[a, yi], self.cross[yi, yi]
        if low is None:
            ok = np.zeros(m, dtype=bool)
        else:
            w = self.cross[np.ix_(z, np.append(a, yi))]
            if k:  # W = L^-1 C_Z[xs, y]; LAPACK takes no empty system
                w = dtrtrs(low, w, lower=1)[0]
            wa, wy = w[:, :-1], w[:, -1]
            r_aa = c_aa - np.einsum("ij,ij->j", wa, wa)
            r_ay = c_ay - wy @ wa
            r_yy = c_yy - wy @ wy
            with np.errstate(divide="ignore", invalid="ignore"):
                ok = _kept(r_aa, c_aa) & _kept(r_yy - r_ay * r_ay / r_aa, c_yy)
        stat, p = np.zeros(m), np.ones(m)
        if ok.any():
            stat[ok], p[ok] = _verdicts(
                r_ay[ok], np.sqrt(r_aa[ok]), math.sqrt(r_yy),
                self.norms[a[ok]], self.norms[yi], self.n - k - 2,
            )
        for j in np.flatnonzero(~ok):
            res = self._answer(xs[j], y, conds, self.max_lag)
            stat[j], p[j] = res.statistic, res.p_value
        return stat, p

    def _stacked(self, start: int, x: Node, y: Node, nodes: list[Node]) -> CITestResult:
        """The test on stacked columns over rows start..T-1: the exact SVD
        path for blocks too close to singular."""
        return partial_correlation(
            _column(self.values, start, x),
            _column(self.values, start, y),
            _conditions(self.values, start, nodes),
        )


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F distribution via the regularized incomplete beta."""
    if d1 < 1 or d2 < 1:
        raise InvalidArgument(f"degrees of freedom must be >= 1, got {d1}, {d2}")
    if not math.isfinite(x):
        raise InvalidArgument(f"non-finite x: {x}")
    if x <= 0.0:
        return 0.0
    w = d1 * x / (d1 * x + d2)
    return float(betainc(d1 / 2.0, d2 / 2.0, w))


def t_cdf(x: float, dof: int) -> float:
    """CDF of Student's t via the regularized incomplete beta."""
    if dof < 1:
        raise InvalidArgument(f"dof must be >= 1, got {dof}")
    if not math.isfinite(x):
        raise InvalidArgument(f"non-finite x: {x}")
    if x == 0.0:
        return 0.5
    tail = 0.5 * float(betainc(dof / 2.0, 0.5, dof / (dof + x * x)))
    return 1.0 - tail if x > 0 else tail


def benjamini_hochberg(p_values, alpha: float) -> np.ndarray:
    """Step-up FDR control; True marks rejected (significant) hypotheses."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if ((p < 0) | (p > 1)).any():
        raise InvalidArgument("p-values must lie in [0, 1]")
    check_alpha(alpha)
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = alpha * (np.arange(1, m + 1) / m)
    passed = p[order] <= thresholds
    mask = np.zeros(m, dtype=bool)
    if passed.any():
        k = int(np.max(np.nonzero(passed)[0]))
        mask[order[: k + 1]] = True
    return mask
