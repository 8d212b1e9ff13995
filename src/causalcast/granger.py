"""Conditional multivariate Granger causality into a single target.

For each variable v, the full model regresses the target on an intercept
plus lags 1..max_lag of every variable; the reduced model drops v's lags.
The RSS-based F statistic decides whether v's history improves prediction
of the target beyond everything else's history.  Only the target's
equation is fit: the test is used purely for feature selection.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .data import TimeSeriesDataset
from .errors import InputError, at_least
from .stats import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_LAG,
    LaggedCrossProducts,
    benjamini_hochberg,
    betainc,
)


@dataclass(frozen=True)
class GrangerResult:
    variable: str
    f_statistic: float
    p_value: float
    dof: tuple[int, int]
    selected: bool

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "F": self.f_statistic,
            "p": self.p_value,
            "dof": list(self.dof),
            "selected": self.selected,
        }


class GrangerResults(list):
    """One :func:`mvgc_test` call's results, in dataset column order, with
    what it ran on (the dataset's ``variables``, its ``target``,
    ``max_lag`` and ``alpha``) and the work it did: the ``regressions``
    whose RSS the F-tests read, and the lag columns kept in and dropped
    from the full model as collinear."""

    def __init__(self, results, variables, target, max_lag, alpha,
                 regressions: int, columns_kept: int, columns_dropped: int):
        super().__init__(results)
        self.variables = tuple(variables)
        self.target = target
        self.max_lag = max_lag
        self.alpha = alpha
        self.regressions = regressions
        self.columns_kept = columns_kept
        self.columns_dropped = columns_dropped

    def drivers(self, target: str) -> tuple[str, ...]:
        """``target`` plus every selected variable, in dataset column order."""
        if target != self.target:
            raise InputError(f"MVGC tested drivers of {self.target!r}, not {target!r}")
        chosen = {r.variable for r in self if r.selected} | {target}
        return tuple(v for v in self.variables if v in chosen)

    def to_dict(self) -> dict:
        return {
            "method": "mvgc",
            "target": self.target,
            "max_lag": self.max_lag,
            "alpha": self.alpha,
            "regressions": self.regressions,
            "columns_kept": self.columns_kept,
            "columns_dropped": self.columns_dropped,
            "variables": list(self.variables),
            "results": [r.to_dict() for r in self],
            "features": list(self.drivers(self.target)),
        }

    def to_dot(self) -> str:
        """Graphviz digraph: every variable, and a "GC" edge from each
        selected driver to the target."""
        lines = ["digraph causal {", "  rankdir=LR;"]
        lines.extend(f'  "{v}";' for v in self.variables)
        lines.extend(
            f'  "{r.variable}" -> "{self.target}" [label="GC"];' for r in self if r.selected
        )
        lines.append("}")
        return "\n".join(lines) + "\n"


def mvgc_test(
    dataset: TimeSeriesDataset,
    max_lag: int = DEFAULT_MAX_LAG,
    alpha: float = DEFAULT_ALPHA,
) -> GrangerResults:
    """Granger F-tests of every other variable into the dataset's target.

    Expects a preprocessed (imputed, normalized) dataset.  Every RSS is
    the squared last pivot of one Cholesky of the lag columns' centered
    cross-products with the target last (centering stands in for the
    intercept).  A lag column whose pivot trips the guard is collinear
    with the columns before it: the full model drops it with a warning,
    and a variable whose lag columns all drop out scores F = 0, p = 1.
    ``selected`` flags come from Benjamini-Hochberg FDR across the N-1
    tests at ``alpha``.
    """
    at_least("max_lag", max_lag, 1)
    values = dataset.values
    T, N = values.shape
    if T <= N * max_lag + max_lag + 10:
        raise InputError(
            f"T = {T} but conditional Granger testing at max_lag {max_lag} "
            f"with {N} variables needs T > {N * max_lag + max_lag + 10}"
        )
    t = dataset.target_index
    cross = LaggedCrossProducts(values, max_lag)
    lags = range(1, max_lag + 1)
    kept, rss_full = cross.fit([(i, lag) for i in range(N) for lag in lags], (t, 0))
    dropped = N * max_lag - len(kept)
    if dropped:
        warnings.warn(
            f"dropped {dropped} collinear lag column(s) before Granger testing",
            stacklevel=2,
        )
    d2 = cross.n - len(kept) - 1

    results = []
    for i, name in enumerate(dataset.variable_names):
        if i == t:
            continue
        rest = [node for node in kept if node[0] != i]
        d1 = len(kept) - len(rest)
        f_stat, p = _f_test(cross.fit(rest, (t, 0))[1], rss_full, d1, d2) if d1 else (0.0, 1.0)
        results.append((name, f_stat, p, (d1, d2)))
    mask = benjamini_hochberg([r[2] for r in results], alpha)
    return GrangerResults(
        [
            GrangerResult(
                variable=name, f_statistic=f, p_value=p, dof=dof, selected=bool(sel)
            )
            for (name, f, p, dof), sel in zip(results, mask)
        ],
        variables=dataset.variable_names,
        target=dataset.target_name,
        max_lag=max_lag,
        alpha=alpha,
        regressions=1 + sum(d1 > 0 for *_, (d1, _) in results),
        columns_kept=len(kept),
        columns_dropped=dropped,
    )


def _f_test(rss_r: float, rss_f: float, d1: int, d2: int) -> tuple[float, float]:
    if d2 < 1:
        raise InputError("no residual degrees of freedom")
    num = max(rss_r - rss_f, 0.0) / d1
    if rss_f <= 0.0:
        # perfect full fit: any reduction in fit is infinitely significant
        return (math.inf, 0.0) if num > 0.0 else (0.0, 1.0)
    f_stat = num / (rss_f / d2)
    # upper tail taken directly, so tiny p-values do not cancel to 0
    return f_stat, float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f_stat)))
