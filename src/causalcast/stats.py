"""Shared statistical machinery for both causal-discovery engines.

Least squares (SVD-backed) for MVGC; linear partial correlation with a
t-distributed statistic, answered from a centered cross-product block
by one small Cholesky factorization, with an SVD least-squares
residualization as the exact fallback for near-singular blocks; F/t
distribution tails through the regularized incomplete beta function;
and Benjamini-Hochberg step-up FDR control.  All functions are pure;
callers may evaluate many tests in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf
from scipy.special import betainc

from .errors import InsufficientHistory, InvalidArgument, RankDeficient

# Singular values below RANK_RTOL * s_max count as zero when deciding rank.
RANK_RTOL = 1e-10

# A Cholesky pivot that keeps less than this share of its column's
# centered sum of squares marks a duplicated or collinear column; such
# blocks take the SVD path, whose verdicts on them are exact.
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
class OlsFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    n_obs: int
    n_params: int


@dataclass(frozen=True)
class CITestResult:
    statistic: float
    p_value: float
    effective_dof: int


def ols(design: np.ndarray, response: np.ndarray) -> OlsFit:
    """Least-squares fit of ``response`` on the columns of ``design``.

    Solved via SVD (numpy lstsq); singular values below
    ``RANK_RTOL * s_max`` are treated as zero and trip
    :class:`RankDeficient` so callers can drop collinear columns.
    """
    design = np.asarray(design, dtype=np.float64)
    response = np.asarray(response, dtype=np.float64)
    if design.ndim != 2:
        raise InvalidArgument(f"design must be 2-D, got shape {design.shape}")
    n, k = design.shape
    if response.shape != (n,):
        raise InvalidArgument(
            f"response shape {response.shape} does not match design rows {n}"
        )
    if n <= k:
        raise InsufficientHistory(
            f"need more observations ({n}) than parameters ({k})"
        )
    beta, _, rank, _ = np.linalg.lstsq(design, response, rcond=RANK_RTOL)
    if rank < k:
        raise RankDeficient(
            f"design rank {rank} below column count {k}"
        )
    residuals = response - design @ beta
    return OlsFit(
        coefficients=beta,
        residuals=residuals,
        rss=float(residuals @ residuals),
        n_obs=n,
        n_params=k,
    )


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
    SVD path, when the factorization fails or a pivot keeps less than
    PIVOT_RTOL of its column's centered sum of squares.
    """
    k = cross.shape[0] - 2
    if n <= k + 3:
        raise InsufficientHistory(f"{n} samples cannot support {k} conditioning columns")
    low, info = dpotrf(cross, lower=1, clean=0)
    if info != 0:
        return None
    pivots = np.diagonal(low)
    if (pivots * pivots < PIVOT_RTOL * np.diagonal(cross)).any():
        return None
    sx, yx, yy = float(low[k, k]), float(low[k + 1, k]), float(low[k + 1, k + 1])
    return _verdict(yx * sx, sx, math.hypot(yx, yy), norm_x, norm_y, n - k - 2)


def _verdict(
    rxy: float, sx: float, sy: float, norm_x: float, norm_y: float, dof: int
) -> CITestResult:
    """Test result from the residual cross-product ``rxy``, the residual
    norms ``sx``/``sy`` and the raw norms of x and y."""
    if sx <= 1e-12 * (norm_x + 1.0) or sy <= 1e-12 * (norm_y + 1.0):
        # degenerate test, folded into the independence verdict
        return CITestResult(statistic=0.0, p_value=1.0, effective_dof=dof)
    r = rxy / (sx * sy)
    r = max(-1.0, min(1.0, r))
    if abs(r) >= 1.0:
        return CITestResult(statistic=r, p_value=0.0, effective_dof=dof)
    # two-sided tail of t = r sqrt(dof / (1 - r^2)), taken directly so it
    # does not cancel to 0: I_x(dof/2, 1/2) at x = dof / (dof + t^2) = 1 - r^2
    p = float(betainc(dof / 2.0, 0.5, 1.0 - r * r))
    return CITestResult(statistic=r, p_value=min(max(p, 0.0), 1.0), effective_dof=dof)


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
