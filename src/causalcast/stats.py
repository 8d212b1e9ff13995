"""Shared statistical machinery for both causal-discovery engines.

Least squares (SVD-backed), linear partial correlation with a
t-distributed statistic, F/t distribution tails through the regularized
incomplete beta function, and Benjamini-Hochberg step-up FDR control.
All functions are pure; callers may evaluate many tests in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import InsufficientHistory, InvalidArgument, RankDeficient

# Singular values below RANK_RTOL * s_max count as zero when deciding rank.
RANK_RTOL = 1e-10

# Discovery defaults shared by both engines, the experiment config and
# the CLI: test level, and the longest lag a driver may act over.
DEFAULT_ALPHA = 0.05
DEFAULT_MAX_LAG = 21


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
    non-causal.
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
    n_cond = z.shape[1]
    if n <= n_cond + 3:
        raise InsufficientHistory(
            f"{n} samples cannot support {n_cond} conditioning columns"
        )

    design = np.column_stack([z, np.ones(n)])
    # lstsq without a rank gate: collinear conditioning columns simply
    # waste dof here, they do not invalidate the residualization.
    rhs = np.column_stack([x, y])
    beta, _, _, _ = np.linalg.lstsq(design, rhs, rcond=RANK_RTOL)
    resid = rhs - design @ beta
    rx, ry = resid[:, 0], resid[:, 1]

    dof = n - n_cond - 2
    sx = math.sqrt(float(rx @ rx))
    sy = math.sqrt(float(ry @ ry))
    if sx <= 1e-12 * (math.sqrt(float(x @ x)) + 1.0) or sy <= 1e-12 * (
        math.sqrt(float(y @ y)) + 1.0
    ):
        # degenerate test, folded into the independence verdict
        return CITestResult(statistic=0.0, p_value=1.0, effective_dof=dof)
    r = float(rx @ ry) / (sx * sy)
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
    if not (0.0 < alpha < 1.0):
        raise InvalidArgument(f"alpha must lie in (0, 1), got {alpha}")
    m = p.size
    order = np.argsort(p, kind="stable")
    thresholds = alpha * (np.arange(1, m + 1) / m)
    passed = p[order] <= thresholds
    mask = np.zeros(m, dtype=bool)
    if passed.any():
        k = int(np.max(np.nonzero(passed)[0]))
        mask[order[: k + 1]] = True
    return mask
