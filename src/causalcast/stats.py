"""Shared statistical machinery for both causal-discovery engines.

One core answers all of discovery: :class:`LaggedCrossProducts` holds
the centered cross-products of a panel's lagged columns, and each MVGC
regression and each PCMCI+ CI test is one small Cholesky factorization
of a block of it (a PC1 round's tests share one).  One helper,
:func:`_factor`, makes every such factorization, and one pivot guard,
:func:`_kept`, is the collinearity rule for all of them: a regressor or
conditioning column that trips it is dropped, and an x or y that trips
it given the conditions is a degenerate test.  Around that core: linear
partial correlation with a t-distributed statistic, whose verdict rules
live once, in :func:`_verdicts`; F/t distribution tails through the
regularized incomplete beta function; and Benjamini-Hochberg step-up
FDR control.  The functions are pure; callers may evaluate many tests
in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.special import betainc

from .errors import InsufficientHistory, InvalidArgument

# A Cholesky pivot that keeps less than this share of its column's
# centered sum of squares marks a duplicated or collinear column: an MVGC
# fit or a CI test drops that regressor or conditioning column, and a CI
# test whose x or y trips it given the conditions reports independence.
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
    at dof = n - #conditions kept - 2.  The columns are centered here, and
    :func:`partial_correlation_block` answers from their cross-products.
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
    cols = np.column_stack([z, x, y])
    centered = cols - cols.mean(axis=0)
    return partial_correlation_block(
        centered.T @ centered, math.sqrt(float(x @ x)), math.sqrt(float(y @ y)), n
    )


def partial_correlation_block(
    cross: np.ndarray, norm_x: float, norm_y: float, n: int
) -> CITestResult:
    """Partial correlation of the last two of k+2 columns given the first k.

    ``cross`` is the columns' centered cross-product matrix over ``n``
    rows, so the intercept is already regressed out; ``norm_x`` and
    ``norm_y`` are the raw (uncentered) norms of x and y.  With
    cross = L L^T over the conditioning columns :func:`_factor` keeps,
    the last 2x2 block of L holds the residual sums of x and y given
    [Z, intercept]: r_xx = L[x,x]^2, r_xy = L[y,x] L[x,x] and
    r_yy = L[y,x]^2 + L[y,y]^2.  An x or y whose residual trips
    :func:`_kept` is degenerate (statistic 0, p 1), so constant and
    duplicated columns are silently non-causal.
    """
    k = cross.shape[0] - 2
    _check_history(n, k)
    low, kept, info = _factor(cross, k)
    k = len(kept)
    # dpotrf stops at x where x lies in the span of Z, and at y where y
    # lies in that of Z and x; that pivot and any after it read 0
    pivots = np.diagonal(low)[k:].copy()
    if info:
        pivots[info - k - 1 :] = 0.0
    sx, yx = float(pivots[0]), float(low[k + 1, k])
    sy = math.hypot(yx, float(pivots[1]))
    c_xx, c_yy = np.diagonal(cross)[-2:]
    sx = sx if _kept(sx * sx, c_xx) else 0.0
    sy = sy if _kept(sy * sy, c_yy) else 0.0
    return _verdict(yx * sx, sx, sy, norm_x, norm_y, n - k - 2)


def _check_history(n: int, k: int) -> None:
    """Raise unless ``n`` rows leave dof >= 2 after ``k`` conditioning columns."""
    if n <= k + 3:
        raise InsufficientHistory(f"{n} samples cannot support {k} conditioning columns")


def _kept(pivot_sq: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Where a squared Cholesky pivot is positive and keeps at least
    PIVOT_RTOL of its column's centered sum of squares ``diag``."""
    return (pivot_sq > 0.0) & (pivot_sq >= PIVOT_RTOL * diag)


def _factor(block: np.ndarray, k: int) -> tuple[np.ndarray, list[int], int]:
    """Lower Cholesky factor of a centered cross-product block whose first
    ``k`` columns are regressors or conditions (the upper triangle is left
    as it was): the factor, the indices of the first k columns kept, and
    dpotrf's ``info``, 0 or 1 + the column after them where it stopped.

    The first of those k columns whose pivot trips :func:`_kept`, or where
    the factorization stops, is collinear with those before it: it is
    dropped, and the block of what is left is factored again.
    """
    kept, sub = list(range(k)), block
    while True:
        low, info = dpotrf(sub, lower=1, clean=0)
        # dpotrf stops at column info - 1; the pivots before it are final
        done = min(info - 1 if info else len(kept), len(kept))
        pivot_sq, diag = np.diagonal(low)[:done] ** 2, np.diagonal(sub)[:done]
        tripped = np.flatnonzero(~_kept(pivot_sq, diag))
        drop = int(tripped[0]) if tripped.size else done
        if drop == len(kept):
            return low, kept, info
        del kept[drop]
        idx = kept + list(range(k, block.shape[0]))
        sub = block.take(idx, 0).take(idx, 1)


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
    contiguous centered series.  :func:`_factor` makes every one of those
    factorizations, so the pivot guard is the one collinearity rule: a
    regressor or conditioning column that trips it is dropped.  Counts the
    CI tests it answers and their largest conditioning set.
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

    def _check(self, nodes: list[Node], start: int) -> None:
        """Raise InvalidArgument naming the first node whose variable is
        not in 0..N-1 or whose lag is not in 0..start: such a node would
        read another node's rows, or none."""
        n_vars = self.values.shape[1]
        for node in nodes:
            if not (0 <= node[0] < n_vars and 0 <= node[1] <= start):
                raise InvalidArgument(
                    f"node {node} outside variables 0..{n_vars - 1} and lags 0..{start}"
                )

    def _index(self, nodes: list[Node]) -> np.ndarray:
        n_vars = self.values.shape[1]
        return np.array([lag * n_vars + i for i, lag in nodes], dtype=np.intp)

    def fit(self, regressors: list[Node], response: Node) -> tuple[list[Node], float]:
        """Least-squares fit of ``response`` on ``regressors`` and an
        intercept: the regressors kept, and the residual sum of squares.

        One Cholesky of their block, with the response last, gives the RSS
        as its squared last pivot (0 where the factorization stops there);
        :func:`_factor` drops the regressors collinear with those before them.
        """
        self._check(regressors + [response], self.max_lag)
        idx = self._index(regressors + [response])
        low, kept, info = _factor(self.cross.take(idx, 0).take(idx, 1), len(regressors))
        return [regressors[i] for i in kept], 0.0 if info else float(low[-1, -1]) ** 2

    def test(
        self, x: Node, y: Node, conds: list[Node], start: int | None = None
    ) -> CITestResult:
        """Partial correlation of nodes x and y given the distinct ``conds``
        over rows t = start..T-1 (by default max_lag..T-1), for nodes at
        any lag up to ``start``."""
        start = self.max_lag if start is None else start
        self._check([x, y, *conds], start)
        nodes = list(dict.fromkeys(conds))
        _check_history(self.values.shape[0] - start, len(nodes))
        self.count(len(nodes))
        return partial_correlation_block(*self._block(start, nodes + [x, y]))

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

        One Cholesky of the conditioning block, C_ZZ = L L^T over the
        columns :func:`_factor` keeps, and one triangular solve
        W = L^-1 C_Z[xs, y] answer them all: the residual cross-products
        given [Z, intercept] are C_AB - W_A^T W_B.  An x or y whose
        residual trips the pivot guard is degenerate (statistic 0, p 1),
        as in :func:`partial_correlation_block`.
        """
        self._check([*xs, y, *conds], self.max_lag)
        _check_history(self.n, len(conds))
        self.count(len(conds), tests=len(xs))
        z, a = self._index(conds), self._index(xs)
        yi = int(self._index([y])[0])
        low, kept, _ = _factor(self.cross[np.ix_(z, z)], len(z))
        w = self.cross[np.ix_(z[kept], np.append(a, yi))]
        if kept:  # W = L^-1 C_Z[xs, y]; LAPACK takes no empty system
            w = dtrtrs(low, w, lower=1)[0]
        wa, wy = w[:, :-1], w[:, -1]
        c_aa, c_yy = self.cross[a, a], self.cross[yi, yi]
        r_aa = c_aa - np.einsum("ij,ij->j", wa, wa)
        r_ay = self.cross[a, yi] - wy @ wa
        r_yy = c_yy - wy @ wy
        sx = np.sqrt(np.where(_kept(r_aa, c_aa), r_aa, 0.0))
        sy = math.sqrt(r_yy) if _kept(r_yy, c_yy) else 0.0
        return _verdicts(
            r_ay, sx, sy, self.norms[a], self.norms[yi], self.n - len(kept) - 2
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
