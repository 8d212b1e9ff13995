"""Dataset loading, preprocessing, windowing, and chronological splits.

The toolkit ingests already-aggregated per-timestep CSV series
(``date,<var1>,...,<varN>`` with ISO-8601 dates; empty cell = missing)
and owns every transformation between raw file and supervised windows:
imputation, z-score normalization fitted on the training range only,
daily-to-monthly aggregation, lag-window construction, and
train/validation/test splitting by target date.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import json
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputError, ParseError, at_least


class Frequency(str, Enum):
    DAILY = "daily"
    MONTHLY = "monthly"


def as_frequency(value) -> Frequency:
    """``value`` as a Frequency, given as one or by its name; an
    InputError naming the choices otherwise."""
    if value not in list(Frequency):
        choices = [f.value for f in Frequency]
        raise InputError(f"frequency must be one of {choices}, got {value!r}")
    return Frequency(value)


def _check_spacing(timestamps: Sequence[dt.date], frequency: Frequency) -> None:
    """Raise at the first neighboring pair not one step (day or calendar
    month) apart: a duplicate, a decrease, or a gap."""
    if frequency is Frequency.DAILY:
        steps = [d.toordinal() for d in timestamps]
    else:
        steps = [d.year * 12 + d.month for d in timestamps]
    bad = np.flatnonzero(np.diff(steps) != 1)
    if bad.size == 0:
        return
    prev, cur = timestamps[bad[0]], timestamps[bad[0] + 1]
    if cur == prev:
        raise InputError(f"duplicate timestamp {cur.isoformat()}")
    if cur < prev:
        raise InputError(
            f"timestamps not strictly increasing at {cur.isoformat()}"
        )
    if frequency is Frequency.DAILY:
        raise ParseError(
            f"daily series has a gap between {prev.isoformat()} "
            f"and {cur.isoformat()}"
        )
    raise ParseError(
        f"monthly series does not advance by one calendar month "
        f"between {prev.isoformat()} and {cur.isoformat()}"
    )


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Timestamped multivariate series with frequency metadata.

    ``values`` is a T x N float matrix (row = timestep, column = variable);
    missing cells are NaN until :func:`impute` clears them.  Instances are
    immutable and safe to share across threads.
    """

    variable_names: tuple[str, ...]
    timestamps: tuple[dt.date, ...]
    values: np.ndarray
    frequency: Frequency
    target_name: str

    def __post_init__(self):
        self._settle(cut=False)

    def _settle(self, cut: bool) -> None:
        object.__setattr__(self, "frequency", as_frequency(self.frequency))
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ParseError(f"values must be 2-D, got shape {values.shape}")
        if values.shape != (len(self.timestamps), len(self.variable_names)):
            raise ParseError(
                f"values shape {values.shape} inconsistent with "
                f"{len(self.timestamps)} timestamps x "
                f"{len(self.variable_names)} variables"
            )
        if self.target_name not in self.variable_names:
            raise InputError(
                f"target {self.target_name!r} not among variables "
                f"{list(self.variable_names)}"
            )
        if not cut:  # a caller's dates are checked, and its array copied
            _check_spacing(self.timestamps, self.frequency)
            values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        object.__setattr__(self, "timestamps", tuple(self.timestamps))

    @property
    def n_timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def n_variables(self) -> int:
        return self.values.shape[1]

    @property
    def target_index(self) -> int:
        return self.variable_names.index(self.target_name)

    def rows(self, start: int, stop: int | None = None) -> "TimeSeriesDataset":
        """Rows ``start:stop`` as a dataset of their own."""
        return self._cut(self.timestamps[start:stop], self.values[start:stop])

    def _cut(self, timestamps, values) -> "TimeSeriesDataset":
        """This dataset's variables on ``timestamps``, a run of its own
        dates, holding ``values``, a fresh array or a view of this one's
        that no one else writes: neither is checked or copied again."""
        out = object.__new__(TimeSeriesDataset)
        for key, value in {**vars(self), "timestamps": timestamps, "values": values}.items():
            object.__setattr__(out, key, value)
        out._settle(cut=True)
        return out

    def summary(self) -> dict:
        """Per-variable ranges and missing counts, for sanity-checking
        against known climatologies of the supplied series."""
        out = {
            "frequency": self.frequency.value,
            "target": self.target_name,
            "n_timesteps": self.n_timesteps,
            "start": self.timestamps[0].isoformat(),
            "end": self.timestamps[-1].isoformat(),
            "variables": [],
        }
        for j, name in enumerate(self.variable_names):
            col = self.values[:, j]
            observed = col[~np.isnan(col)]
            out["variables"].append(
                {
                    "name": name,
                    "min": float(observed.min()) if observed.size else None,
                    "max": float(observed.max()) if observed.size else None,
                    "missing": int(np.isnan(col).sum()),
                }
            )
        return out


@dataclass(frozen=True)
class NormalizationStats:
    """Per-variable mean and population std, fitted on the training range."""

    variable_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    fitted_on: tuple[dt.date, dt.date]

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != (len(self.variable_names),) or std.shape != mean.shape:
            raise InputError("stats arrays inconsistent with variable names")
        if (std < 0).any():
            raise InputError("negative standard deviation")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "variable_names", tuple(self.variable_names))

    def index_of(self, variable: str) -> int:
        if variable not in self.variable_names:
            raise InputError(f"stats do not cover variable {variable!r}")
        return self.variable_names.index(variable)

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variable_names),
            "mean": [float(m) for m in self.mean],
            "std": [float(s) for s in self.std],
            "fitted_on": [d.isoformat() for d in self.fitted_on],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationStats":
        first, last = map(dt.date.fromisoformat, d["fitted_on"])
        if last < first:
            raise ParseError(f"fitted_on ends {last} before it starts {first}")
        return cls(
            variable_names=tuple(d["variables"]),
            mean=np.array(d["mean"], dtype=np.float64),
            std=np.array(d["std"], dtype=np.float64),
            fitted_on=(first, last),
        )


@dataclass(frozen=True)
class LagWindowSet:
    """Supervised samples: S windows of shape tau x F and S scalar targets.

    ``sample_dates[s]`` is the calendar date of the target value, i.e. the
    date the model is asked to predict for sample s.  The dates increase
    strictly, so every date range is one contiguous slice.
    """

    inputs: np.ndarray       # S x tau x F
    targets: np.ndarray      # S
    sample_dates: tuple[dt.date, ...]

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if inputs.ndim != 3:
            raise ParseError(f"inputs must be S x tau x F, got {inputs.shape}")
        if targets.shape != (inputs.shape[0],):
            raise ParseError("targets length inconsistent with inputs")
        if len(self.sample_dates) != inputs.shape[0]:
            raise ParseError("sample_dates length inconsistent with inputs")
        if any(b <= a for a, b in zip(self.sample_dates, self.sample_dates[1:])):
            raise ParseError("sample_dates must increase strictly")
        inputs.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "sample_dates", tuple(self.sample_dates))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def subset(self, rows: slice) -> "LagWindowSet":
        """Samples ``rows``, as views of this set's arrays.  Any run of a
        checked set's samples holds its checks, so they are not run
        again."""
        if (rows.step or 1) < 0:
            raise InputError("a subset keeps its samples in date order")
        out = object.__new__(LagWindowSet)
        for key in ("inputs", "targets", "sample_dates"):
            object.__setattr__(out, key, getattr(self, key)[rows])
        return out

    def between(self, first: dt.date, last: dt.date) -> "LagWindowSet":
        """Samples with target dates in ``first..last``, both included."""
        dates = self.sample_dates
        return self.subset(
            slice(bisect.bisect_left(dates, first), bisect.bisect_right(dates, last))
        )


@dataclass(frozen=True)
class SplitSpec:
    """Chronological split: train up to ``train_end`` (with the trailing
    ``validation_fraction`` of those samples held out), test inside
    ``test_range`` (inclusive)."""

    train_end: dt.date
    validation_fraction: float = 0.1
    test_range: tuple[dt.date, dt.date] = field(default=None)

    def __post_init__(self):
        if not (0.0 < self.validation_fraction < 1.0):
            raise InputError(
                f"validation_fraction must lie in (0,1), "
                f"got {self.validation_fraction}"
            )
        if self.test_range is not None:
            start, end = self.test_range
            if end < start:
                raise InputError("test_range end precedes start")
            if self.train_end >= start:
                raise InputError(
                    f"train_end {self.train_end} must precede test_range "
                    f"start {start}"
                )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def load_csv(path, target_name: str, frequency: Frequency | str) -> TimeSeriesDataset:
    """Load a ``date,<var1>,...,<varN>`` CSV into a dataset.

    Empty and ``nan`` cells are missing (NaN).  Rows are sorted by date;
    duplicate dates raise :class:`InputError`.  Each row is
    checked and converted (by ``float``) as it is read, so the first
    malformed row, non-numeric or infinite cell in file order raises
    :class:`ParseError` with row/column context, and no more of the file
    than its converted values is held.
    """
    path = Path(path)
    dates, values = [], array("d")
    # utf-8-sig drops the byte-order mark of spreadsheet "CSV UTF-8" exports
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty") from None
        if not header or header[0].strip().lower() != "date":
            raise ParseError(
                f"first header column must be 'date', got {header[:1]}"
            )
        variable_names = [h.strip() for h in header[1:]]
        if len(set(variable_names)) != len(variable_names):
            raise ParseError("duplicate variable names in header")
        if not variable_names:
            raise ParseError("no variable columns in header")

        for r, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(row)}", row=r)
            try:
                dates.append(dt.date.fromisoformat(row[0].strip()))
            except ValueError:
                raise ParseError(
                    f"unparseable ISO-8601 date {row[0]!r}", row=r, column="date"
                ) from None
            try:
                cells = list(map(float, row[1:]))
            except ValueError:  # a missing cell, or a malformed one
                cells = None
            if cells is None or math.inf in cells or -math.inf in cells:
                cells = _row_values(row, r, variable_names)
            values.extend(cells)

    if not dates:
        raise ParseError(f"{path} has no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return TimeSeriesDataset(
        variable_names=tuple(variable_names),
        timestamps=tuple(dates[i] for i in order),
        values=np.frombuffer(values).reshape(len(dates), len(variable_names))[order],
        frequency=frequency,
        target_name=target_name,
    )


def _row_values(row: list[str], r: int, names: list[str]) -> list[float]:
    """The cells of ``row``, read from file line ``r``, as floats, blank
    cells as NaN; raises ParseError at the first non-numeric or infinite
    cell."""
    values = []
    for name, cell in zip(names, row[1:]):
        cell = cell.strip()
        try:
            value = float(cell or "nan")
        except ValueError:
            raise ParseError(f"non-numeric cell {cell!r}", row=r, column=name) from None
        if math.isinf(value):
            raise ParseError(f"infinite cell {cell!r}", row=r, column=name)
        values.append(value)
    return values


def save_csv(dataset: TimeSeriesDataset, path) -> None:
    """Write the canonical CSV form (missing cells as empty strings)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *dataset.variable_names])
        for date, row in zip(dataset.timestamps, dataset.values):
            cells = ["" if math.isnan(v) else repr(float(v)) for v in row]
            writer.writerow([date.isoformat(), *cells])


def impute(dataset: TimeSeriesDataset, cut: dt.date | None = None) -> TimeSeriesDataset:
    """Fill missing cells by per-variable linear interpolation.

    Interior gaps interpolate linearly between the nearest observed
    neighbors; leading/trailing gaps copy the nearest observed value.
    Rows dated up to ``cut`` are filled from themselves alone, then every
    row with those fixed; with no cut, every row fills every other.
    """
    values = dataset.values.copy()
    n = len(values)
    stop = n if cut is None else bisect.bisect_right(dataset.timestamps, cut)
    for end in [n] if stop in (0, n) else [stop, n]:
        idx = np.arange(end, dtype=np.float64)
        for j, name in enumerate(dataset.variable_names):
            col = values[:end, j]
            observed = ~np.isnan(col)
            if not observed.any():
                raise InputError(
                    f"variable {name!r} has no observed values in "
                    f"{dataset.timestamps[0]}..{dataset.timestamps[end - 1]}"
                )
            if observed.all():
                continue
            values[:end, j] = np.interp(idx, idx[observed], col[observed])
    return dataset._cut(dataset.timestamps, values)


def fit_normalization(train: TimeSeriesDataset) -> NormalizationStats:
    """Per-variable mean and population std over every row of ``train``."""
    return NormalizationStats(
        variable_names=train.variable_names,
        mean=train.values.mean(axis=0),
        std=train.values.std(axis=0, ddof=0),
        fitted_on=(train.timestamps[0], train.timestamps[-1]),
    )


def apply_normalization(
    dataset: TimeSeriesDataset, stats: NormalizationStats
) -> TimeSeriesDataset:
    """z-score transform; constant (std = 0) columns map to 0."""
    if stats.variable_names != dataset.variable_names:
        raise InputError(
            "stats were fitted on a different variable set/order"
        )
    std = np.where(stats.std == 0.0, 1.0, stats.std)
    z = dataset.values - stats.mean
    z /= std
    z[:, stats.std == 0.0] = 0.0
    return dataset._cut(dataset.timestamps, z)


def invert_normalization(
    values: np.ndarray, stats: NormalizationStats, variable: str
) -> np.ndarray:
    """Map z-scored values of one variable back to physical units."""
    j = stats.index_of(variable)
    return np.asarray(values, dtype=np.float64) * stats.std[j] + stats.mean[j]


def aggregate_daily_to_monthly(dataset: TimeSeriesDataset) -> TimeSeriesDataset:
    """Calendar-month arithmetic means of a daily series.

    Output timestamps are the first day of each month.  NaN cells
    propagate, so imputation should normally run first.
    """
    if dataset.frequency is not Frequency.DAILY:
        raise InputError("aggregation requires a daily dataset")
    keys: list[tuple[int, int]] = []
    groups: dict[tuple[int, int], list[int]] = {}
    for i, ts in enumerate(dataset.timestamps):
        key = (ts.year, ts.month)
        if key not in groups:
            groups[key] = []
            keys.append(key)
        groups[key].append(i)
    values = np.empty((len(keys), dataset.n_variables), dtype=np.float64)
    timestamps = []
    for m, key in enumerate(keys):
        values[m] = dataset.values[groups[key]].mean(axis=0)
        timestamps.append(dt.date(key[0], key[1], 1))
    return TimeSeriesDataset(
        variable_names=dataset.variable_names,
        timestamps=tuple(timestamps),
        values=values,
        frequency=Frequency.MONTHLY,
        target_name=dataset.target_name,
    )


def build_lag_windows(
    dataset: TimeSeriesDataset,
    features: Sequence[str],
    lookback: int,
    lead: int,
) -> LagWindowSet:
    """Slice a gap-free series into supervised (window, target) samples.

    Sample s covers rows [s, s+lookback) of the feature columns and
    predicts the target column at row s + lookback + lead - 1, giving
    S = T - lookback - lead + 1 samples.  The inputs are read-only views
    of one (T - lead) x F copy of the feature columns, window s
    starting one row after window s - 1, and the targets a view of the
    dataset's target column.
    """
    at_least("lookback", lookback, 1)
    at_least("lead", lead, 1)
    for f in features:
        if f not in dataset.variable_names:
            raise InputError(f"feature {f!r} not in dataset")
    T = dataset.n_timesteps
    S = T - lookback - lead + 1
    if S < 1:
        raise InputError(
            f"series length {T} too short for lookback {lookback} + lead {lead}"
        )
    cols = [dataset.variable_names.index(f) for f in features]
    windowed = np.lib.stride_tricks.sliding_window_view(
        np.take(dataset.values[: S + lookback - 1], cols, axis=1), lookback, axis=0
    )  # S x F x lookback
    first = lookback + lead - 1
    return LagWindowSet(
        inputs=windowed.transpose(0, 2, 1),
        targets=dataset.values[first:, dataset.target_index],
        sample_dates=dataset.timestamps[first:],
    )


def split_windows(
    windows: LagWindowSet, split: SplitSpec
) -> tuple[LagWindowSet, LagWindowSet, LagWindowSet]:
    """Partition samples chronologically by their target dates.

    Samples dated <= train_end form train+validation, with the
    chronologically last ceil(fraction * count) held out as validation;
    samples inside test_range form the test set.  Anything between
    train_end and the test range is dropped.  All three are views of
    ``windows``.
    """
    if split.test_range is None:
        raise InputError("split has no test_range")
    train = windows.between(dt.date.min, split.train_end)
    start, end = split.test_range
    test = windows.between(start, end)
    if test.n_samples == 0:
        raise InputError(
            f"no samples with target dates inside test range "
            f"[{start.isoformat()}, {end.isoformat()}]"
        )
    if train.n_samples == 0:
        raise InputError(
            f"no samples with target dates at or before "
            f"{split.train_end.isoformat()}"
        )
    n_val = math.ceil(split.validation_fraction * train.n_samples)
    n_fit = train.n_samples - n_val
    if n_fit <= 0:
        raise InputError(
            f"validation fraction {split.validation_fraction} leaves no "
            f"training samples out of {train.n_samples}"
        )
    return train.subset(slice(n_fit)), train.subset(slice(n_fit, None)), test


def write_summary(dataset: TimeSeriesDataset, path) -> None:
    Path(path).write_text(json.dumps(dataset.summary(), indent=2) + "\n")
