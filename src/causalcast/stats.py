"""Shared statistical machinery for both causal-discovery engines.

One core answers all of discovery: :class:`LaggedCrossProducts` holds
the centered cross-products of a panel's lagged columns.  Each MVGC
regression is one small Cholesky factorization of a block of it, and one
call, :meth:`LaggedCrossProducts.test`, answers every CI test of every
PCMCI+ phase, for one x or a PC1 round's batch, through one routine,
:func:`_partial`: one factorization of the conditioning block and one
solve.  One helper, :func:`_factor`, makes every such numpy Cholesky
factorization, and one pivot guard, :func:`_kept`, is the collinearity
rule for all of them: a regressor or conditioning column that trips it
is dropped, and an x or y that trips it given the conditions is a
degenerate test.  Around that core: linear partial correlation with a
t-distributed statistic, whose verdict rules live once, in
:func:`_verdicts`; every F/t p-value through one regularized incomplete
beta function, :func:`betainc`, a continued fraction in the ``math``
module; and Benjamini-Hochberg step-up FDR control.  Both engines' results
write their Graphviz form through one function, :func:`digraph_dot`.
The functions are pure; callers may evaluate many tests in parallel.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, NumericalError, at_least

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
        raise InputError(f"{name} must lie in (0, 1), got {alpha}")


def _partial(
    cross: np.ndarray, z: np.ndarray, xy: np.ndarray, norms: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partial correlation of each of the columns ``xy`` but the last (the
    xs) with the last (y), each given the columns ``z``, from their centered
    cross-product matrix ``cross`` over ``n`` rows (so the intercept is
    already regressed out): the statistics and the p-values, at n less
    the kept conditioning columns less 2 degrees of freedom.
    ``norms`` holds the raw (uncentered) norms of the ``xy`` columns.

    One Cholesky of the conditioning block, C_ZZ = L L^T over the columns
    :func:`_factor` keeps, and one solve W = L^-1 C_Z[xs, y]
    answer them all: the residual cross-products given [Z, intercept] are
    C_AB - W_A^T W_B.  An x or y whose residual trips :func:`_kept` is
    degenerate (statistic 0, p 1), so constant and duplicated columns are
    silently non-causal.
    """
    low, kept, _ = _factor(cross.take(z, 0).take(z, 1), len(z))
    w = np.linalg.solve(low, cross.take(z[kept], 0).take(xy, 1))
    wa, wy = w[:, :-1], w[:, -1]
    xs, y = xy[:-1], xy[-1]
    c_aa, c_yy = cross[xs, xs], cross[y, y]
    r_aa = c_aa - np.einsum("ij,ij->j", wa, wa)
    r_ay = cross[xs, y] - wy @ wa
    r_yy = c_yy - wy @ wy
    sx = np.sqrt(np.where(_kept(r_aa, c_aa), r_aa, 0.0))
    sy = math.sqrt(r_yy) if _kept(r_yy, c_yy) else 0.0
    dof = n - len(kept) - 2
    return _verdicts(r_ay, sx, sy, norms[:-1], norms[-1], dof)


def _kept(pivot_sq: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Where a squared Cholesky pivot is positive and keeps at least
    PIVOT_RTOL of its column's centered sum of squares ``diag``."""
    return (pivot_sq > 0.0) & (pivot_sq >= PIVOT_RTOL * diag)


def _factor(block: np.ndarray, k: int) -> tuple[np.ndarray, list[int], int]:
    """Lower Cholesky factor of a centered cross-product block whose first
    ``k`` columns are regressors or conditions: the factor, the indices of
    the first k columns kept, and LAPACK dpotrf's ``info``, 0 or 1 + the
    column after them where the factorization stops (and then the factor
    of the columns before it).

    The first of those k columns whose pivot trips :func:`_kept`, or where
    the factorization stops, is collinear with those before it: it is
    dropped, and the block of what is left is factored again.
    """
    kept, sub = list(range(k)), block
    while True:
        low, info = _cholesky(sub)
        # the factorization stops at column info - 1; the pivots before it are final
        done = min(info - 1 if info else len(kept), len(kept))
        pivot_sq, diag = np.diagonal(low)[:done] ** 2, np.diagonal(sub)[:done]
        tripped = np.flatnonzero(~_kept(pivot_sq, diag))
        drop = int(tripped[0]) if tripped.size else done
        if drop == len(kept):
            return low, kept, info
        del kept[drop]
        idx = kept + list(range(k, block.shape[0]))
        sub = block.take(idx, 0).take(idx, 1)


def _cholesky(block: np.ndarray) -> tuple[np.ndarray, int]:
    """``block``'s lower Cholesky factor and info 0 or, where a pivot is
    not positive, the factor of the largest leading block that factors
    and info = 1 + its size: the column where dpotrf would stop."""
    # a leading block factors exactly when all its pivots are positive, so
    # try the whole block, then bisect for the largest leading one
    low, hi, size = block[:0, :0], len(block), len(block)
    while len(low) < hi:
        try:
            low = np.linalg.cholesky(block[:size, :size])
        except np.linalg.LinAlgError:
            hi = size - 1
        size = (len(low) + hi + 1) // 2
    return low, 0 if len(low) == len(block) else len(low) + 1


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


def betainc(a: float, b: float, x) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), elementwise over
    the array ``x`` in [0, 1], for a, b > 0.

    Below x = (a + 1) / (a + b + 2) the continued fraction for I_x(a, b)
    converges quickly, and above it the one for I_{1-x}(b, a) = 1 - I_x(a, b)
    does (Numerical Recipes 6.4).  The prefactor x^a (1-x)^b / B(a, b) is
    taken in logs, so none of its factors underflows alone and a tail keeps
    its relative accuracy down to about 1e-300.
    """
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    switch = (a + 1.0) / (a + b + 2.0)
    x = np.asarray(x, dtype=np.float64)
    out = []
    for v in x.ravel().tolist():
        if 0.0 < v < 1.0:  # the ends, and nan, stand as they are
            front = math.exp(log_norm + a * math.log(v) + b * math.log1p(-v))
            v = (front * _beta_fraction(a, b, v) / a if v < switch
                 else 1.0 - front * _beta_fraction(b, a, 1.0 - v) / b)
        out.append(v)
    return np.array(out).reshape(x.shape)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), for x at most (a + 1) /
    (a + b + 2), by modified Lentz (Thompson and Barnett 1986) in
    O(sqrt(max(a, b))) terms: 60-80 at worst, beside the switch, for the
    (dof/2, 1/2) of a t-test at any dof up to 8000."""
    tiny, eps = 1e-300, math.ulp(1.0)  # tiny stands in for a zero denominator
    c, h = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    d = h
    for m in range(1, 10_000):
        term = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / (1.0 + term * d or tiny)
        c = 1.0 + term / c or tiny
        h *= d * c
        term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / (1.0 + term * d or tiny)
        c = 1.0 + term / c or tiny
        h *= d * c
        if abs(d * c - 1.0) <= eps:
            return h
    raise NumericalError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


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
    these rows: :meth:`fit` answers a regression from its block, and
    :meth:`test` answers CI tests (one, or a PC1 round's batch sharing one
    conditioning set) through :func:`_partial`.  MCI tests start later and
    reach further back; :meth:`test` builds their Gram matrix from each
    variable's contiguous centered series.  :func:`_factor` makes every
    factorization, so the pivot guard is the one collinearity rule: a
    regressor or conditioning column that trips it is dropped.  Counts the
    CI tests it answers and their largest conditioning set.
    """

    def __init__(self, values: np.ndarray, max_lag: int):
        T, N = values.shape
        at_least("max_lag", max_lag, 1)
        if T <= max_lag + 4:
            raise InputError(
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

    def _check(self, nodes: list[Node], start: int) -> None:
        """Raise InputError naming the first node whose variable is
        not in 0..N-1 or whose lag is not in 0..start: such a node would
        read another node's rows, or none."""
        n_vars = self.values.shape[1]
        for node in nodes:
            if not (0 <= node[0] < n_vars and 0 <= node[1] <= start):
                raise InputError(
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
        self, xs: list[Node], y: Node, conds: list[Node], start: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Partial correlation of every node in ``xs`` with node ``y``, each
        given the distinct ``conds`` (none of them in ``xs``), over rows
        t = start..T-1 (by default max_lag..T-1), for nodes at any lag up to
        ``start``: the statistics and the p-values, one per x.  Too few
        rows for ``conds`` (under 2 degrees of freedom) is an InputError.

        Over rows max_lag..T-1 it is read from the shared matrix.  Any
        later start (MCI tests reach further back) takes the Gram matrix of
        the nodes' contiguous centered series over those rows, less
        n mu mu^T for their means over the same rows.
        """
        start = self.max_lag if start is None else start
        self._check([*xs, y, *conds], start)
        nodes = list(dict.fromkeys(conds)) + [*xs, y]
        k = len(nodes) - len(xs) - 1
        T = self.values.shape[0]
        n = max(T - start, 0)
        if n <= k + 3:  # dof would fall below 2
            raise InputError(
                f"{T} rows leave {n} for a CI test starting at row {start}; "
                f"its {k} conditioning columns need {k + 4}"
            )
        if start == self.max_lag:
            cross, idx = self.cross, self._index(nodes)
            norms = self.norms[idx[k:]]
        else:
            # windows[i * T + s] is series[i, s : s + n]
            windows = sliding_window_view(self.series.ravel(), n)
            rows = windows[[i * T + start - lag for i, lag in nodes]]
            sums = rows.sum(axis=1)
            cross, idx = rows @ rows.T - np.outer(sums, sums / n), np.arange(len(nodes))
            raw = [_column(self.values, start, node) for node in nodes[k:]]
            norms = np.sqrt([col @ col for col in raw])
        self.tests += len(xs)
        self.max_cond_dim = max(self.max_cond_dim, k)
        return _partial(cross, idx[:k], idx[k:], norms, n)


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F distribution via the regularized incomplete beta."""
    if d1 < 1 or d2 < 1:
        raise InputError(f"degrees of freedom must be >= 1, got {d1}, {d2}")
    if not math.isfinite(x):
        raise InputError(f"non-finite x: {x}")
    if x <= 0.0:
        return 0.0
    w = d1 * x / (d1 * x + d2)
    return float(betainc(d1 / 2.0, d2 / 2.0, w))


def t_cdf(x: float, dof: int) -> float:
    """CDF of Student's t via the regularized incomplete beta."""
    if dof < 1:
        raise InputError(f"dof must be >= 1, got {dof}")
    if not math.isfinite(x):
        raise InputError(f"non-finite x: {x}")
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
        raise InputError("p-values must lie in [0, 1]")
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


def digraph_dot(variables, edges) -> str:
    """Graphviz source: a node per variable, then an edge per
    ``(source, target, attributes)``, its bracketed attribute text."""
    lines = ["digraph causal {", "  rankdir=LR;", *(f'  "{v}";' for v in variables)]
    lines += (f'  "{s}" -> "{t}" [{attrs}];' for s, t, attrs in edges)
    return "\n".join([*lines, "}"]) + "\n"
