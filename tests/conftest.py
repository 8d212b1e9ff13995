"""Shared test helpers plus the acceptance-criteria summary hook."""

import datetime as dt
import math
import tracemalloc

import numpy as np

from causalcast import Frequency, TimeSeriesDataset
from causalcast.stats import _column, _verdicts

# Singular values below RANK_RTOL * s_max count as zero in the
# least-squares oracle.
RANK_RTOL = 1e-10

# Filled by tests/test_acceptance.py; printed after the run so each
# criterion gets exactly one visible pass/fail line.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that ``fn(*args, **kwargs)`` holds at once above what
    was allocated before the call, as ``tracemalloc`` traces it (numpy
    reports its array buffers to it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def monthly_dates(n: int, start: dt.date = dt.date(2000, 1, 1)):
    out = []
    year, month = start.year, start.month
    for _ in range(n):
        out.append(dt.date(year, month, 1))
        month += 1
        if month > 12:
            month, year = 1, year + 1
    return tuple(out)


def daily_dates(n: int, start: dt.date = dt.date(2000, 1, 1)):
    return tuple(start + dt.timedelta(days=k) for k in range(n))


def make_dataset(
    values,
    target=None,
    names=None,
    frequency=Frequency.MONTHLY,
    start=dt.date(2000, 1, 1),
):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    n_rows, n_cols = values.shape
    if names is None:
        names = tuple(f"v{i}" for i in range(n_cols))
    if target is None:
        target = names[0]
    dates = (
        daily_dates(n_rows, start)
        if frequency is Frequency.DAILY
        else monthly_dates(n_rows, start)
    )
    return TimeSeriesDataset(
        variable_names=tuple(names),
        timestamps=dates,
        values=values,
        frequency=frequency,
        target_name=target,
    )


def noise_dataset(seed: int, T: int = 500, N: int = 5, frequency=Frequency.MONTHLY):
    rng = np.random.default_rng(seed)
    return make_dataset(
        rng.standard_normal((T, N)),
        frequency=frequency,
        start=dt.date(1979, 1, 1),
    )


def conditions(values, start, nodes):
    """Conditioning matrix over rows t = start..T-1: one column per
    distinct node, in order of first appearance; None if no nodes."""
    distinct = list(dict.fromkeys(nodes))
    if not distinct:
        return None
    return np.column_stack([_column(values, start, node) for node in distinct])


def lstsq_partial_correlation(x, y, conditioning=None, dof=None):
    """Reference partial correlation: x and y regressed on [conditioning,
    intercept] by SVD least squares, and the verdict on their residuals,
    as (statistic, p-value).

    The dof defaults to n - #conditioning columns - 2; a caller whose
    columns are collinear passes the dof of their known rank.
    """
    n = len(x)
    z = np.empty((n, 0)) if conditioning is None else np.reshape(conditioning, (n, -1))
    cols = np.column_stack([z, x, y])
    # centered columns carry the intercept, so the rank rule sees each
    # column's spread, not its mean (beside an intercept column, a column
    # at 1e6 +- 1 falls below RANK_RTOL)
    centered = cols - cols.mean(axis=0)
    design, rhs = centered[:, :-2], centered[:, -2:]
    rx, ry = (rhs - design @ np.linalg.lstsq(design, rhs, rcond=RANK_RTOL)[0]).T
    dof = n - z.shape[1] - 2 if dof is None else dof
    r, p = _verdicts(
        rx @ ry,
        np.sqrt(rx @ rx),
        np.sqrt(ry @ ry),
        np.sqrt(x @ x),
        np.sqrt(y @ y),
        dof,
    )
    return float(r), float(p)
