import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest

from causalcast import (
    Frequency,
    LagWindowSet,
    NormalizationStats,
    SplitSpec,
    TimeSeriesDataset,
    aggregate_daily_to_monthly,
    build_lag_windows,
    apply_normalization,
    fit_normalization,
    impute,
    invert_normalization,
    load_csv,
    save_csv,
    split_windows,
)
from causalcast.data import write_summary
from causalcast.pipeline import prepare
from causalcast.errors import (
    AllMissingColumn,
    DuplicateTimestamp,
    EmptySplit,
    InsufficientHistory,
    InvalidArgument,
    ParseError,
    StatsMismatch,
    UnknownTarget,
    UnknownVariable,
)

from conftest import daily_dates, make_dataset, monthly_dates


class TestDataset:
    def test_basic_properties(self):
        ds = make_dataset(np.arange(12.0).reshape(4, 3), target="v1")
        assert ds.n_timesteps == 4
        assert ds.n_variables == 3
        assert ds.target_index == 1

    def test_values_are_immutable(self):
        ds = make_dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownTarget):
            make_dataset(np.zeros((3, 2)), target="nope")

    def test_duplicate_timestamps_rejected(self):
        dates = monthly_dates(3)
        with pytest.raises(DuplicateTimestamp):
            TimeSeriesDataset(
                variable_names=("a",),
                timestamps=(dates[0], dates[1], dates[1]),
                values=np.zeros((3, 1)),
                frequency=Frequency.MONTHLY,
                target_name="a",
            )

    def test_daily_gap_rejected(self):
        dates = daily_dates(3)
        with pytest.raises(ParseError):
            TimeSeriesDataset(
                variable_names=("a",),
                timestamps=(dates[0], dates[1], dates[1] + dt.timedelta(days=2)),
                values=np.zeros((3, 1)),
                frequency=Frequency.DAILY,
                target_name="a",
            )

    def test_monthly_gap_rejected(self):
        with pytest.raises(ParseError):
            TimeSeriesDataset(
                variable_names=("a",),
                timestamps=(dt.date(2000, 1, 1), dt.date(2000, 3, 1)),
                values=np.zeros((2, 1)),
                frequency=Frequency.MONTHLY,
                target_name="a",
            )

    @pytest.mark.parametrize("frequency, days, error, message", [
        ("monthly", [0, 31, 31, 0], DuplicateTimestamp, "duplicate timestamp 2000-02-01"),
        ("monthly", [31, 0, 60], DuplicateTimestamp, "not strictly increasing at 2000-01-01"),
        ("daily", [0, 2, 1, 1], ParseError, "gap between 2000-01-01 and 2000-01-03"),
        ("monthly", [14, 19], ParseError, "one calendar month between 2000-01-15 and 2000-01-20"),
    ])
    def test_first_bad_spacing_is_reported(self, frequency, days, error, message):
        with pytest.raises(error, match=message):
            TimeSeriesDataset(
                variable_names=("a",),
                timestamps=tuple(dt.date(2000, 1, 1) + dt.timedelta(days=d) for d in days),
                values=np.zeros((len(days), 1)),
                frequency=Frequency(frequency),
                target_name="a",
            )

    @pytest.mark.parametrize("frequency, dates", [
        ("daily", daily_dates(40)),
        ("monthly", monthly_dates(3)),
    ])
    def test_frequency_given_by_name(self, frequency, dates):
        ds = TimeSeriesDataset(("a",), dates, np.zeros((len(dates), 1)), frequency, "a")
        assert ds.frequency is Frequency(frequency)
        assert ds.summary()["frequency"] == frequency

    @pytest.mark.parametrize("frequency", ["weekly", None, 1])
    def test_unknown_frequency_names_the_choices(self, frequency):
        with pytest.raises(
            InvalidArgument,
            match=rf"frequency must be one of \['daily', 'monthly'\], got {frequency!r}",
        ):
            TimeSeriesDataset(("a",), daily_dates(3), np.zeros((3, 1)), frequency, "a")

    def test_summary_reports_missing(self):
        vals = np.array([[1.0, np.nan], [2.0, 4.0], [3.0, np.nan]])
        s = make_dataset(vals).summary()
        assert s["n_timesteps"] == 3
        assert s["variables"][0] == {"name": "v0", "min": 1.0, "max": 3.0, "missing": 0}
        assert s["variables"][1]["missing"] == 2


class TestCsv:
    def test_round_trip(self, tmp_path):
        vals = np.array([[1.5, np.nan], [2.25, -3.0], [0.1, 4.0]])
        ds = make_dataset(vals, target="v1")
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path, "v1", Frequency.MONTHLY)
        assert back.variable_names == ds.variable_names
        assert back.timestamps == ds.timestamps
        np.testing.assert_array_equal(back.values, vals)

    def test_unknown_frequency_names_the_choices(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(make_dataset(np.zeros((3, 1))), path)
        with pytest.raises(InvalidArgument, match=r"\['daily', 'monthly'\], got 'weekly'"):
            load_csv(path, "v0", "weekly")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; save_csv writes none
        ds = make_dataset(np.array([[1.5, np.nan], [2.25, -3.0]]), target="v1")
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_csv(ds, plain)
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = (load_csv(p, "v1", "monthly") for p in (plain, marked))
        assert (b.variable_names, b.timestamps) == (a.variable_names, a.timestamps)
        np.testing.assert_array_equal(b.values, a.values)

    def test_missing_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-01-01,\n2000-02-01,2.0\n")
        ds = load_csv(path, "x", "monthly")
        assert math.isnan(ds.values[0, 0])
        assert ds.values[1, 0] == 2.0

    def test_rows_sorted_by_date(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-03-01,3\n2000-01-01,1\n2000-02-01,2\n")
        ds = load_csv(path, "x", "monthly")
        np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0, 3.0])

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x,y\n2000-01-01,1.0,2.0\n2000-02-01,oops,4.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "x", "monthly")
        assert "row 3" in str(err.value)
        assert "'x'" in str(err.value)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_cell_reports_row_and_column(self, tmp_path, cell):
        # an infinite cell would spread NaN through discovery's products
        path = tmp_path / "d.csv"
        path.write_text(f"date,x,y\n2000-01-01,1.0,2.0\n2000-02-01,3.0,{cell}\n")
        with pytest.raises(ParseError, match=r"infinite cell .*\(row 3, column 'y'\)"):
            load_csv(path, "x", "monthly")

    def test_nan_cell_is_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-01-01,nan\n2000-02-01,2.0\n")
        assert math.isnan(load_csv(path, "x", "monthly").values[0, 0])

    def test_whitespace_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x,y\n2000-01-01,  ,1.0\n2000-02-01,2.0,\t\n")
        values = load_csv(path, "x", "monthly").values
        np.testing.assert_array_equal(values, [[np.nan, 1.0], [2.0, np.nan]])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-01-01,1\n\n , \n2000-02-01,2\n")
        ds = load_csv(path, "x", "monthly")
        assert ds.timestamps == (dt.date(2000, 1, 1), dt.date(2000, 2, 1))
        np.testing.assert_array_equal(ds.values[:, 0], [1.0, 2.0])

    def test_wrong_cell_count_names_the_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x,y\n2000-01-01,1,2\n2000-02-01,3\n")
        with pytest.raises(ParseError, match=r"expected 3 cells, got 2 \(row 3,"):
            load_csv(path, "x", "monthly")

    def test_quoted_number_parses(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('date,x\n2000-01-01,"1.5"\n2000-02-01," -2e1 "\n')
        np.testing.assert_array_equal(load_csv(path, "x", "monthly").values[:, 0], [1.5, -20.0])

    @pytest.mark.parametrize("rows, message", [
        ("2000-02-01,3,oops\n2000-03-01,5,6\nnot-a-date,7,8",
         r"non-numeric cell 'oops' \(row 3, column 'y'\)"),
        ("2000-02-01,3,inf\n2000-03-01,oops,6", r"infinite cell 'inf' \(row 3, column 'y'\)"),
        ("not-a-date,3,4\n2000-03-01,oops,6", r"date 'not-a-date' \(row 3, column 'date'\)"),
        ("2000-02-01,3,4,5\n2000-03-01,oops,6", r"expected 3 cells, got 4 \(row 3,"),
    ])
    def test_first_problem_in_file_order_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "d.csv"
        path.write_text(f"date,x,y\n2000-01-01,1,2\n{rows}\n")
        with pytest.raises(ParseError, match=message):
            load_csv(path, "x", "monthly")

    def test_missing_cell_next_to_a_bad_one(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x,y,z\n2000-01-01,1,2,3\n2000-02-01,,-inf,oops\n")
        with pytest.raises(ParseError, match=r"infinite cell '-inf' \(row 3, column 'y'\)"):
            load_csv(path, "x", "monthly")

    def test_load_holds_little_more_than_the_values(self, tmp_path):
        # an 8000 x 11 daily panel: 0.7 MB of values, about 11.5 MB traced when
        # the whole file was held as strings
        rng = np.random.default_rng(0)
        values = rng.standard_normal((8000, 11))
        values[rng.random(values.shape) < 0.02] = np.nan
        path = tmp_path / "daily.csv"
        save_csv(make_dataset(values, frequency=Frequency.DAILY), path)
        tracemalloc.start()
        try:
            loaded = load_csv(path, "v0", "daily")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.values, values)
        assert peak <= 5e6

    def test_bad_date_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\nnot-a-date,1.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, "x", "monthly")
        assert "row 2" in str(err.value)

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-01-01,1\n2000-01-01,2\n")
        with pytest.raises(DuplicateTimestamp, match="duplicate timestamp 2000-01-01"):
            load_csv(path, "x", "monthly")

    def test_duplicate_date_found_after_sort(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-02-01,1\n2000-01-01,2\n2000-02-01,3\n")
        with pytest.raises(DuplicateTimestamp, match="duplicate timestamp 2000-02-01"):
            load_csv(path, "x", "monthly")

    def test_header_must_start_with_date(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,x\n2000-01-01,1\n")
        with pytest.raises(ParseError):
            load_csv(path, "x", "monthly")

    def test_unknown_target_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("date,x\n2000-01-01,1\n")
        with pytest.raises(UnknownTarget, match="not among variables"):
            load_csv(path, "y", "monthly")

    def test_summary_file(self, tmp_path):
        ds = make_dataset(np.ones((3, 2)))
        write_summary(ds, tmp_path / "s.json")
        assert (tmp_path / "s.json").exists()


class TestImpute:
    def test_interior_gap(self):
        ds = make_dataset([1.0, np.nan, 3.0])
        np.testing.assert_allclose(impute(ds).values[:, 0], [1.0, 2.0, 3.0])

    def test_leading_gap_copies_first_observation(self):
        ds = make_dataset([np.nan, 5.0, 5.0])
        np.testing.assert_allclose(impute(ds).values[:, 0], [5.0, 5.0, 5.0])

    def test_two_step_gap(self):
        ds = make_dataset([2.0, np.nan, np.nan, 8.0])
        np.testing.assert_allclose(impute(ds).values[:, 0], [2.0, 4.0, 6.0, 8.0])

    def test_all_missing_column_rejected(self):
        ds = make_dataset(np.full((4, 1), np.nan))
        with pytest.raises(AllMissingColumn):
            impute(ds)

    def test_complete_column_unchanged(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((20, 3))
        ds = make_dataset(vals)
        np.testing.assert_array_equal(impute(ds).values, vals)

    def test_rows_up_to_the_cut_are_filled_from_themselves(self):
        # v1's gap runs from March to the cut (April) and on to June: the
        # rows up to the cut copy February, and May and June interpolate
        # from April to July
        ds = make_dataset([[0.0, 1.0], [1.0, 3.0], [2.0, np.nan], [3.0, np.nan],
                           [4.0, np.nan], [5.0, np.nan], [6.0, 9.0]])
        filled = impute(ds, dt.date(2000, 4, 1))
        np.testing.assert_array_equal(filled.values[:, 1], [1.0, 3.0, 3.0, 3.0, 5.0, 7.0, 9.0])
        np.testing.assert_array_equal(filled.values[:, 0], ds.values[:, 0])
        assert filled.timestamps == ds.timestamps

    @pytest.mark.parametrize("cut", [dt.date(1999, 12, 31), dt.date(2000, 7, 1),
                                     dt.date(2001, 1, 1)],
                             ids=["before-first-row", "at-last-row", "after-last-row"])
    def test_cut_outside_the_rows_fills_from_every_row(self, cut):
        ds = make_dataset([[np.nan, 1.0], [1.0, 3.0], [2.0, np.nan], [np.nan, np.nan],
                           [4.0, np.nan], [5.0, np.nan], [6.0, 9.0]])
        np.testing.assert_array_equal(impute(ds, cut).values, impute(ds).values)

    def test_column_unobserved_up_to_the_cut_names_those_rows(self):
        ds = make_dataset([[0.0, np.nan], [1.0, np.nan], [2.0, 5.0]])
        with pytest.raises(AllMissingColumn, match="2000-01-01..2000-02-01"):
            impute(ds, dt.date(2000, 2, 1))


class TestNormalization:
    def test_fit_population_std(self):
        stats = fit_normalization(make_dataset([1.0, 2.0, 3.0]))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(0.8165, abs=1e-4)

    def test_apply(self):
        ds = make_dataset([1.0, 2.0, 3.0])
        stats = fit_normalization(ds)
        z = apply_normalization(ds, stats).values[:, 0]
        np.testing.assert_allclose(z, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_fit_uses_only_train_rows(self):
        ds = make_dataset([1.0, 2.0, 3.0, 100.0])
        stats = fit_normalization(ds.rows(0, 3))
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.fitted_on == (dt.date(2000, 1, 1), dt.date(2000, 3, 1))

    def test_constant_column_maps_to_zero(self):
        ds = make_dataset(np.full((5, 1), 7.0))
        stats = fit_normalization(ds)
        z = apply_normalization(ds, stats)
        np.testing.assert_array_equal(z.values, np.zeros((5, 1)))

    def test_invert_round_trip(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(10.0, 3.0, size=(50, 2)))
        stats = fit_normalization(ds.rows(0, 48))
        z = apply_normalization(ds, stats)
        back = invert_normalization(z.values[:, 1], stats, "v1")
        np.testing.assert_allclose(back, ds.values[:, 1], rtol=1e-12)

    def test_mismatched_stats_rejected(self):
        ds = make_dataset(np.ones((3, 1)))
        stats = NormalizationStats(
            variable_names=("other",),
            mean=np.zeros(1),
            std=np.ones(1),
            fitted_on=(dt.date(2000, 1, 1), dt.date(2000, 3, 1)),
        )
        with pytest.raises(StatsMismatch):
            apply_normalization(ds, stats)

    def test_round_trip_dict(self):
        stats = fit_normalization(make_dataset(np.ones((3, 2))))
        back = NormalizationStats.from_dict(stats.to_dict())
        assert back.variable_names == stats.variable_names
        np.testing.assert_array_equal(back.mean, stats.mean)

    def test_no_train_rows_rejected(self):
        # the training cut belongs to prepare, which fits the statistics
        ds = make_dataset(np.ones((3, 1)), start=dt.date(2010, 1, 1))
        with pytest.raises(EmptySplit, match="no rows at or before train_end 2000-01-01"):
            prepare(ds, SplitSpec(dt.date(2000, 1, 1), 0.2))


class TestAggregation:
    def test_january_mean(self):
        # 30 days of 1.0 plus one day of 32.0 average to exactly 2.0
        vals = np.full(31, 1.0)
        vals[30] = 32.0
        ds = make_dataset(vals, frequency=Frequency.DAILY, start=dt.date(2000, 1, 1))
        monthly = aggregate_daily_to_monthly(ds)
        assert monthly.n_timesteps == 1
        assert monthly.timestamps[0] == dt.date(2000, 1, 1)
        assert monthly.values[0, 0] == pytest.approx(2.0)

    def test_mass_conservation(self):
        rng = np.random.default_rng(7)
        n = 365 * 3
        ds = make_dataset(
            rng.standard_normal((n, 2)),
            frequency=Frequency.DAILY,
            start=dt.date(2001, 1, 1),
        )
        monthly = aggregate_daily_to_monthly(ds)
        # month mean times days in month recovers the daily sum
        for m, ts in enumerate(monthly.timestamps):
            in_month = [
                i for i, d in enumerate(ds.timestamps)
                if (d.year, d.month) == (ts.year, ts.month)
            ]
            daily_sum = ds.values[in_month].sum(axis=0)
            np.testing.assert_allclose(
                monthly.values[m] * len(in_month), daily_sum, rtol=1e-9
            )

    def test_requires_daily_input(self):
        ds = make_dataset(np.ones((3, 1)))
        with pytest.raises(InvalidArgument):
            aggregate_daily_to_monthly(ds)

    def test_output_is_monthly_first_of_month(self):
        ds = make_dataset(
            np.ones((60, 1)), frequency=Frequency.DAILY, start=dt.date(2000, 1, 15)
        )
        monthly = aggregate_daily_to_monthly(ds)
        assert monthly.frequency is Frequency.MONTHLY
        assert [t.day for t in monthly.timestamps] == [1, 1, 1]


class TestLagWindows:
    def test_minimal_series_yields_one_sample(self):
        ds = make_dataset(np.arange(22.0))
        w = build_lag_windows(ds, ["v0"], lookback=21, lead=1)
        assert w.n_samples == 1
        np.testing.assert_array_equal(w.inputs[0, :, 0], np.arange(21.0))
        assert w.targets[0] == 21.0

    def test_sample_count_with_long_lead(self):
        ds = make_dataset(np.arange(100.0))
        w = build_lag_windows(ds, ["v0"], lookback=21, lead=30)
        assert w.n_samples == 50

    def test_window_identity(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((40, 3))
        ds = make_dataset(vals, target="v2")
        lookback, lead = 5, 2
        w = build_lag_windows(ds, ["v0", "v2"], lookback, lead)
        cols = [0, 2]
        for s in range(w.n_samples):
            np.testing.assert_array_equal(w.inputs[s], vals[s : s + lookback, cols])
            assert w.targets[s] == vals[s + lookback + lead - 1, 2]
            assert w.sample_dates[s] == ds.timestamps[s + lookback + lead - 1]

    def test_too_short_series_rejected(self):
        ds = make_dataset(np.arange(21.0))
        with pytest.raises(InsufficientHistory):
            build_lag_windows(ds, ["v0"], lookback=21, lead=1)

    def test_unknown_feature_rejected(self):
        ds = make_dataset(np.arange(30.0))
        with pytest.raises(UnknownVariable):
            build_lag_windows(ds, ["nope"], lookback=3, lead=1)

    def test_windows_are_read_only_views_of_one_copy(self):
        ds = make_dataset(np.random.default_rng(4).standard_normal((40, 3)), target="v2")
        w = build_lag_windows(ds, ["v0", "v2"], lookback=5, lead=2)
        assert not w.inputs.flags.writeable and not w.targets.flags.writeable
        # window s + 1 is window s moved on by one row, in the same memory
        assert np.shares_memory(w.inputs[0], w.inputs[1])
        # over one copy of the 40 - 2 rows that some window reads
        assert w.inputs.strides == (2 * 8, 2 * 8, 8)
        low, high = np.lib.array_utils.byte_bounds(w.inputs)
        assert high - low == (40 - 2) * 2 * 8
        with pytest.raises(ValueError):
            w.inputs[0, 0, 0] = 1.0

    def test_sample_dates_must_increase(self):
        # a date range is cut by bisection, which unordered dates would defeat
        dates = tuple(dt.date(2000, m, 1) for m in (3, 1, 2))
        with pytest.raises(ParseError, match="increase strictly"):
            LagWindowSet(np.zeros((3, 2, 1)), np.zeros(3), dates)


class TestSplit:
    def _windows(self, n=120):
        ds = make_dataset(np.arange(float(n + 4)), start=dt.date(2000, 1, 1))
        return build_lag_windows(ds, ["v0"], lookback=4, lead=1)

    def test_validation_fraction(self):
        w = self._windows(120)
        dates = w.sample_dates
        split = SplitSpec(dates[99], 0.10, (dates[100], dates[-1]))
        # 100 eligible samples, ceil(0.10 * 100) = 10 held out
        train, val, test = split_windows(w, split)
        assert train.n_samples == 90
        assert val.n_samples == 10
        assert test.n_samples == 20
        assert max(train.sample_dates) < min(val.sample_dates)
        assert all(np.shares_memory(part.inputs, w.inputs) for part in (train, val, test))

    def test_cuts_skip_the_checks_their_parent_passed(self, monkeypatch):
        w = self._windows(60)
        checks = []
        check = LagWindowSet.__post_init__
        monkeypatch.setattr(LagWindowSet, "__post_init__",
                            lambda self: checks.append(1) or check(self))
        dates = w.sample_dates
        parts = split_windows(w, SplitSpec(dates[39], 0.1, (dates[45], dates[-1])))
        assert [p.n_samples for p in parts] == [36, 4, 15] and checks == []
        with pytest.raises(InvalidArgument, match="date order"):
            w.subset(slice(None, None, -1))

    def test_between_includes_both_ends(self):
        w = self._windows(30)
        dates = w.sample_dates
        inner = w.between(dates[3], dates[7])
        assert inner.sample_dates == dates[3:8]
        np.testing.assert_array_equal(inner.targets, w.targets[3:8])
        # a bound that falls between two samples' dates keeps the inner one
        day = dt.timedelta(days=1)
        assert w.between(dates[3] + day, dates[7] - day).sample_dates == dates[4:7]
        assert w.between(dt.date.min, dates[0]).sample_dates == dates[:1]
        for first, last in ((dates[7], dates[3]), (dates[-1] + day, dt.date.max)):
            empty = w.between(first, last)
            assert (empty.n_samples, empty.sample_dates) == (0, ())

    def test_boundary_dates(self):
        ds = make_dataset(
            np.arange(60.0), frequency=Frequency.DAILY, start=dt.date(2013, 12, 1)
        )
        w = build_lag_windows(ds, ["v0"], lookback=2, lead=1)
        split = SplitSpec(
            dt.date(2013, 12, 31),
            0.25,
            (dt.date(2014, 1, 1), dt.date(2014, 1, 29)),
        )
        train, val, test = split_windows(w, split)
        in_sample = list(train.sample_dates) + list(val.sample_dates)
        assert dt.date(2013, 12, 31) in in_sample
        assert test.sample_dates[0] == dt.date(2014, 1, 1)

    def test_gap_samples_dropped(self):
        w = self._windows(100)
        dates = w.sample_dates
        split = SplitSpec(dates[49], 0.10, (dates[60], dates[-1]))
        train, val, test = split_windows(w, split)
        assert train.n_samples + val.n_samples == 50
        assert test.n_samples == len(dates) - 60

    def test_empty_test_rejected(self):
        w = self._windows(50)
        split = SplitSpec(
            w.sample_dates[-1],
            0.1,
            (w.sample_dates[-1] + dt.timedelta(days=5), w.sample_dates[-1] + dt.timedelta(days=9)),
        )
        with pytest.raises(EmptySplit):
            split_windows(w, split)

    def test_bad_fraction_rejected(self):
        with pytest.raises(EmptySplit):
            SplitSpec(dt.date(2000, 1, 1), 0.0)
        with pytest.raises(EmptySplit):
            SplitSpec(dt.date(2000, 1, 1), 1.0)

    def test_train_end_must_precede_test(self):
        with pytest.raises(EmptySplit):
            SplitSpec(
                dt.date(2014, 1, 1),
                0.1,
                (dt.date(2014, 1, 1), dt.date(2015, 1, 1)),
            )
