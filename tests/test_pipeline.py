import datetime as dt
import json
import math

import numpy as np
import pytest

from causalcast import (
    EvalRecord,
    EvalReport,
    ExperimentConfig,
    PlantedGraph,
    SplitSpec,
    TrainConfig,
    derive_seed,
    generate_var,
    load_checkpoint,
    load_csv,
    mae,
    percentage_metrics,
    r2,
    rmse,
    run_experiment,
    save_csv,
)
from causalcast.errors import (
    ConfigError,
    DegeneratePercentage,
    DegenerateR2,
    EmptySplit,
    InputError,
    InvalidArgument,
    ShapeError,
)
from causalcast import data, pipeline
from causalcast.data import Frequency
from causalcast.pipeline import REPORT_COLUMNS, prepare

from conftest import make_dataset


class TestMetrics:
    def test_perfect_prediction(self):
        obs = np.array([3.0, -1.0, 2.5, 0.5])
        assert rmse(obs, obs) == 0.0
        assert mae(obs, obs) == 0.0
        assert r2(obs, obs) == 1.0

    def test_mean_predictor_r2_is_exactly_zero(self):
        obs = np.array([4.0, 7.0, 1.0, 8.0, 5.0])
        pred = np.full(5, obs.mean())
        assert r2(pred, obs) == 0.0

    def test_worked_example(self):
        pred = [1.0, 2.0, 3.0]
        obs = [2.0, 2.0, 5.0]
        assert rmse(pred, obs) == pytest.approx(math.sqrt(5.0 / 3.0), abs=1e-12)
        assert mae(pred, obs) == pytest.approx(1.0, abs=1e-15)
        assert r2(pred, obs) == pytest.approx(1.0 - 5.0 / 6.0, abs=1e-12)

    def test_percentage_of_mean(self):
        obs = np.full(10, 10.0)
        rmse_pct, mae_pct = percentage_metrics(1.0, 0.5, obs)
        assert rmse_pct == pytest.approx(10.0, abs=1e-13)
        assert mae_pct == pytest.approx(5.0, abs=1e-13)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = rng.integers(2, 50)
            pred = rng.standard_normal(n)
            obs = rng.standard_normal(n)
            d = pred - obs
            assert rmse(pred, obs) == pytest.approx(
                math.sqrt(sum(d * d) / n), rel=1e-12
            )
            assert mae(pred, obs) == pytest.approx(sum(abs(d)) / n, rel=1e-12)
            ss_tot = sum((obs - obs.mean()) ** 2)
            assert r2(pred, obs) == pytest.approx(
                1.0 - sum(d * d) / ss_tot, rel=1e-12
            )

    def test_degenerate_cases(self):
        with pytest.raises(DegenerateR2):
            r2([1.0, 2.0], [3.0, 3.0])
        with pytest.raises(DegeneratePercentage):
            percentage_metrics(1.0, 1.0, [-1.0, 1.0])
        with pytest.raises(ShapeError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(InvalidArgument):
            mae([], [])


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a:b") == derive_seed(7, "a:b")

    def test_labels_and_roots_separate(self):
        seeds = {
            derive_seed(root, label)
            for root in (0, 1, 2)
            for label in ("x", "y", "monthly:gc:lead1")
        }
        assert len(seeds) == 9

    def test_in_64_bit_range(self):
        s = derive_seed(123, "anything")
        assert 0 <= s < 2**64


class TestConfig:
    def _base(self, tmp_path, **kw):
        (tmp_path / "m.csv").write_text("date,y\n2000-01-01,1.0\n")
        args = dict(
            target="y",
            split=SplitSpec(dt.date(2005, 12, 31), 0.2,
                            (dt.date(2006, 1, 1), dt.date(2007, 1, 1))),
            output_dir=str(tmp_path / "out"),
            monthly_path=str(tmp_path / "m.csv"),
            variants=("vanilla", "gc", "pcmci+"),
        )
        args.update(kw)
        return ExperimentConfig(**args)

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            self._base(tmp_path, variants=("vanilla", "mystery"))

    def test_variant_strings_coerced(self, tmp_path):
        cfg = self._base(tmp_path, variants=("vanilla", "pcmci+"))
        assert [v.value for v in cfg.variants] == ["vanilla", "pcmci+"]

    def test_dpcmci_needs_daily_data(self, tmp_path):
        with pytest.raises(ConfigError):
            self._base(tmp_path, variants=("dpcmci+",))

    def test_frequencies_default_to_available_paths(self, tmp_path):
        cfg = self._base(tmp_path)
        assert [f.value for f in cfg.frequencies] == ["monthly"]

    def test_listed_frequency_needs_a_path(self, tmp_path):
        with pytest.raises(ConfigError):
            self._base(tmp_path, frequencies=("daily",))

    def test_lead_steps(self, tmp_path):
        cfg = self._base(tmp_path, daily_steps_per_month=30)
        from causalcast import Frequency
        assert cfg.lead_steps(Frequency.MONTHLY, 3) == 3
        assert cfg.lead_steps(Frequency.DAILY, 3) == 90

    @pytest.mark.parametrize("field, value", [
        ("gc_alpha", 1.5),
        ("pcmci_alpha", 0.0),
        ("discovery_max_lag", 0),
        ("max_samples", -1),
        ("gru_units", 0),
        ("dropout_rate", 1.0),
        ("leads", (1.5, 2.9)),
        ("frequencies", ("weekly",)),
        # an integer field holds an integer: not a float, not a bool
        ("gru_units", 4.0),
        ("gru_units", True),
        ("jobs", 2.0),
        ("seed", 1.0),
        ("discovery_max_lag", 3.0),
        ("max_samples", 100.0),
        ("leads", (True,)),
        # a repeated roster entry would train and write the same cells twice
        ("leads", (1, 1)),
        ("frequencies", ("monthly", "monthly")),
    ])
    def test_bad_value_rejected_at_construction(self, tmp_path, field, value):
        # each message names the field as the config file spells it
        with pytest.raises(InputError, match=field.removeprefix("discovery_")):
            self._base(tmp_path, **{field: value})

    def test_train_config_integer_fields(self):
        with pytest.raises(InvalidArgument, match="batch_size"):
            TrainConfig(batch_size=8.0)
        with pytest.raises(InvalidArgument, match="max_epochs"):
            TrainConfig(max_epochs=True)
        assert TrainConfig(batch_size=np.int64(8)).batch_size == 8

    def test_no_datasets_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                target="y",
                split=SplitSpec(dt.date(2005, 12, 31), 0.2,
                                (dt.date(2006, 1, 1), dt.date(2007, 1, 1))),
                output_dir=str(tmp_path / "out"),
            )


class TestReportContainer:
    def _rec(self, **kw):
        base = dict(frequency="monthly", variant="gc", lead=1, rmse=0.5, mae=0.4,
                    rmse_pct=5.0, mae_pct=4.0, r2=0.8, n_test=24)
        base.update(kw)
        return EvalRecord(**base)

    def test_csv_layout(self):
        report = EvalReport(records=(self._rec(), self._rec(lead=2, r2=0.7)))
        lines = report.to_csv().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1].startswith("monthly,gc,1,0.5,0.4,5.0,4.0,0.8,24")
        assert len(lines) == 3

    def test_r2_series_pivot(self):
        report = EvalReport(records=(
            self._rec(variant="vanilla", lead=1, r2=0.5),
            self._rec(variant="gc", lead=1, r2=0.8),
            self._rec(variant="vanilla", lead=2, r2=0.4),
            self._rec(variant="gc", lead=2, r2=0.7),
        ))
        lines = report.r2_series_csv("monthly").splitlines()
        assert lines[0] == "lead,vanilla,gc"
        assert lines[1] == "1,0.5,0.8"
        assert lines[2] == "2,0.4,0.7"

    def test_invalid_metrics_rejected(self):
        with pytest.raises(InvalidArgument):
            EvalReport(records=(self._rec(rmse=-1.0),))
        with pytest.raises(InvalidArgument):
            EvalReport(records=(self._rec(r2=1.5),))


class TestPrepare:
    def test_training_gap_is_filled_from_training_rows(self):
        # v1's gap runs from March to train_end (April) and on to June: the
        # training rows copy February, and May and June interpolate from
        # April to July
        ds = make_dataset([[0.0, 1.0], [1.0, 3.0], [2.0, np.nan], [3.0, np.nan],
                           [4.0, np.nan], [5.0, np.nan], [6.0, 9.0]])
        train_rows, stats, normalized = prepare(ds, SplitSpec(dt.date(2000, 4, 1), 0.2))
        np.testing.assert_array_equal(train_rows.values[:, 1], [1.0, 3.0, 3.0, 3.0])
        assert stats.fitted_on == (dt.date(2000, 1, 1), dt.date(2000, 4, 1))
        assert stats.mean[1] == 2.5
        z = normalized.values[:, 1] * stats.std[1] + stats.mean[1]
        np.testing.assert_allclose(z, [1.0, 3.0, 3.0, 3.0, 5.0, 7.0, 9.0])

    @pytest.mark.parametrize("trains", [True, False])
    def test_dates_are_checked_once_per_panel(self, monkeypatch, trains):
        # the imputed, cut and normalized panels share the raw panel's dates
        calls = []
        check = data._check_spacing
        monkeypatch.setattr(data, "_check_spacing",
                            lambda *args: calls.append(args[1]) or check(*args))
        ds = make_dataset(np.random.default_rng(5).standard_normal((300, 3)),
                          frequency=Frequency.DAILY)
        assert calls == [Frequency.DAILY]
        parts = prepare(ds, SplitSpec(dt.date(2000, 6, 30), 0.2), trains)
        assert len(parts[0].timestamps) == 182
        assert calls == [Frequency.DAILY]

    def test_panel_no_cell_trains_on_gets_its_training_rows_only(self):
        ds = make_dataset([[0.0, 1.0], [1.0, np.nan], [2.0, np.nan], [3.0, 4.0],
                           [4.0, np.nan], [5.0, 9.0]])
        split = SplitSpec(dt.date(2000, 3, 1), 0.2)
        train_rows, stats, normalized = prepare(ds, split, trains=False)
        assert stats is None and normalized is None
        full_cut = prepare(ds, split)[0]
        assert train_rows.timestamps == full_cut.timestamps
        np.testing.assert_array_equal(train_rows.values, full_cut.values)
        np.testing.assert_array_equal(train_rows.values[:, 1], [1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def experiment_data(tmp_path_factory):
    """Small monthly panel with one planted driver of the target."""
    root = tmp_path_factory.mktemp("expdata")
    graph = PlantedGraph(
        variables=("y", "drv", "other"),
        links=(("drv", "y", 1, 0.6), ("y", "y", 1, 0.3), ("other", "other", 1, 0.4)),
    )
    ds = generate_var(graph, 180, seed=11, target="y")
    path = root / "monthly.csv"
    save_csv(ds, path)
    return str(path), ds.timestamps


def small_config(data_path, timestamps, out_dir, **kw):
    train_end = timestamps[139]
    args = dict(
        target="y",
        split=SplitSpec(train_end, 0.15, (timestamps[140], timestamps[-1])),
        output_dir=str(out_dir),
        monthly_path=data_path,
        lookback=4,
        leads=(1, 2),
        variants=("vanilla", "gc"),
        discovery_max_lag=3,
        gru_units=4,
        lstm_units=8,
        dense_units=4,
        dropout_rate=0.1,
        train=TrainConfig(batch_size=32, max_epochs=6, patience=6, learning_rate=0.01),
        seed=3,
    )
    args.update(kw)
    return ExperimentConfig(**args)


class TestRunExperiment:
    def test_full_roster_and_determinism(self, experiment_data, tmp_path):
        path, stamps = experiment_data
        report = run_experiment(small_config(path, stamps, tmp_path / "a"))
        # one record per variant x lead
        assert len(report.records) == 4
        assert report.failures == ()
        combos = {(r.variant, r.lead) for r in report.records}
        assert combos == {("vanilla", 1), ("vanilla", 2), ("gc", 1), ("gc", 2)}
        for rec in report.records:
            assert rec.frequency == "monthly"
            assert rec.n_test > 0
            assert rec.rmse > 0.0

        out = tmp_path / "a"
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "r2_series_monthly.csv").exists()
        assert (out / "granger_monthly.json").exists()
        assert (out / "model_monthly_gc_lead1.json").exists()
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "frequency,variant,lead,rmse,mae,rmse_pct,mae_pct,r2,n_test"

        # byte-identical rerun, serial and parallel
        run_experiment(small_config(path, stamps, tmp_path / "b"))
        run_experiment(small_config(path, stamps, tmp_path / "c", jobs=2))
        first = (out / "report.csv").read_bytes()
        assert (tmp_path / "b" / "report.csv").read_bytes() == first
        assert (tmp_path / "c" / "report.csv").read_bytes() == first

    def test_report_json_records_training(self, experiment_data, tmp_path):
        path, stamps = experiment_data
        report = run_experiment(small_config(path, stamps, tmp_path / "o"))
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        cells = doc["training"]
        assert [(c["frequency"], c["variant"], c["lead"]) for c in cells] == [
            (r.frequency, r.variant, r.lead) for r in report.records
        ]
        for cell in cells:
            assert cell["n_train"] > cell["n_val"] > 0
            # each entry names the input columns its checkpoint holds
            ck = load_checkpoint(
                tmp_path / "o"
                / f"model_{cell['frequency']}_{cell['variant']}_lead{cell['lead']}.json"
            )
            assert cell["features"] == list(ck.features)
            curve = cell["validation_loss"]
            assert len(curve) == cell["stopped_epoch"] <= 6
            assert curve[cell["best_epoch"] - 1] == min(curve)
        # the training record stays out of the CSV table
        header = (tmp_path / "o" / "report.csv").read_text().splitlines()[0]
        assert header.split(",") == list(REPORT_COLUMNS)

    def test_timings_stay_out_of_the_reports(self, experiment_data, tmp_path):
        path, stamps = experiment_data
        report = run_experiment(small_config(path, stamps, tmp_path / "o", jobs=2))
        out = tmp_path / "o"
        timings = json.loads((out / "timings.json").read_text())
        assert str(out / "timings.json") in report.artifacts
        assert [(d["frequency"], d["load_s"] >= 0, d["prepare_s"] >= 0)
                for d in timings["datasets"]] == [("monthly", True, True)]
        assert [(d["method"], d["frequency"], d["seconds"] >= 0)
                for d in timings["discovery"]] == [("mvgc", "monthly", True)]
        assert [(c["variant"], c["lead"]) for c in timings["cells"]] == [
            (r.variant, r.lead) for r in report.records
        ]
        assert all(c["train_s"] >= 0 and c["predict_s"] >= 0 for c in timings["cells"])
        for name in ("report.csv", "report.json", "granger_monthly.json"):
            assert "_s\"" not in (out / name).read_text()

    def test_artifacts_in_write_order(self, experiment_data, tmp_path):
        # discovery files, the checkpoints in record order, then the reports
        path, stamps = experiment_data
        out = tmp_path / "o"
        report = run_experiment(small_config(
            path, stamps, out, variants=("vanilla", "gc", "pcmci+"),
        ))
        assert len(report.records) == 6
        checkpoints = [
            f"model_{r.frequency}_{r.variant}_lead{r.lead}.json" for r in report.records
        ]
        assert list(report.artifacts) == [str(out / name) for name in [
            "granger_monthly.json", "granger_monthly.dot",
            "graph_monthly_pcmci.json", "graph_monthly_pcmci.dot",
            *checkpoints,
            "report.csv", "report.json", "timings.json", "r2_series_monthly.csv",
        ]]
        doc = json.loads((out / "report.json").read_text())
        assert doc["artifacts"] == list(report.artifacts)

    def test_report_json_same_serial_and_parallel(self, experiment_data, tmp_path):
        path, stamps = experiment_data
        docs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_experiment(small_config(
                path, stamps, out, jobs=jobs, discovery_max_lag=60,
                variants=("vanilla", "gc", "pcmci+"),
            ))
            doc = json.loads((out / "report.json").read_text())
            doc.pop("artifacts")
            docs.append(doc)
        assert docs[0]["records"] and docs[0]["failures"]
        assert docs[0] == docs[1]

    def test_gc_selects_planted_driver(self, experiment_data, tmp_path):
        path, stamps = experiment_data
        run_experiment(small_config(path, stamps, tmp_path / "o"))
        doc = json.loads((tmp_path / "o" / "granger_monthly.json").read_text())
        assert "drv" in doc["features"]
        assert "other" not in doc["features"]

    def test_failed_cells_isolated(self, experiment_data, tmp_path):
        # a discovery horizon the series cannot support fails gc cells only
        path, stamps = experiment_data
        report = run_experiment(
            small_config(path, stamps, tmp_path / "o", discovery_max_lag=60)
        )
        assert {r.variant for r in report.records} == {"vanilla"}
        assert [(f["frequency"], f["variant"], f["lead"]) for f in report.failures] == [
            ("monthly", "gc", 1), ("monthly", "gc", 2),
        ]
        for failure in report.failures:
            # each entry names its cell and the error, nothing more
            assert set(failure) == {"frequency", "variant", "lead", "error"}
            assert "InsufficientHistory" in failure["error"]
        # failures live in the JSON report, not the CSV table
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert len(doc["failures"]) == 2
        csv_text = (tmp_path / "o" / "report.csv").read_text()
        assert "gc" not in csv_text.splitlines()[1]

    def test_discovery_sees_training_rows_only(self, experiment_data, tmp_path):
        # rewriting only the test-range rows leaves every graph unchanged
        path, stamps = experiment_data
        ds = load_csv(path, "y", "monthly")
        test_rows = np.array([t > stamps[139] for t in ds.timestamps])[:, None]
        moved = tmp_path / "moved.csv"
        save_csv(ds.with_values(np.where(test_rows, 1.5 * ds.values + 0.3, ds.values)), moved)
        for name, data in (("a", path), ("b", str(moved))):
            run_experiment(small_config(data, stamps, tmp_path / name, leads=(1,),
                                        variants=("gc", "pcmci+")))
        graphs = ("granger_monthly", "graph_monthly_pcmci")
        for graph in graphs:
            for suffix in (".json", ".dot"):
                a = (tmp_path / "a" / f"{graph}{suffix}").read_bytes()
                assert (tmp_path / "b" / f"{graph}{suffix}").read_bytes() == a

    def test_test_range_cell_next_to_a_training_gap(self, experiment_data, tmp_path):
        # drv is missing up to train_end; moving its first test-range value
        # leaves every graph and every checkpoint as it was
        path, stamps = experiment_data
        ds = load_csv(path, "y", "monthly")
        values = ds.values.copy()
        values[136:140, 1] = np.nan
        for name, shift in (("a", 0.0), ("b", 5.0)):
            values[140, 1] = ds.values[140, 1] + shift
            save_csv(ds.with_values(values), tmp_path / f"{name}.csv")
            run_experiment(small_config(str(tmp_path / f"{name}.csv"), stamps,
                                        tmp_path / name, leads=(1,),
                                        variants=("vanilla", "gc", "pcmci+")))
        names = ["granger_monthly.json", "granger_monthly.dot", "graph_monthly_pcmci.json",
                 "graph_monthly_pcmci.dot", *(f"model_monthly_{v}_lead1.json"
                                              for v in ("vanilla", "gc", "pcmci+"))]
        for name in names:
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize("variants", [("vanilla", "dpcmci+"), ("vanilla", "gc")],
                             ids=["read", "unread"])
    def test_panel_without_training_rows_stops_the_experiment(self, experiment_data,
                                                              tmp_path, variants):
        # a daily panel dated after train_end stops a roster that reads it
        # (dpcmci+ discovers on it); one that does not never loads it
        path, stamps = experiment_data
        graph = PlantedGraph(variables=("y", "drv", "other"), links=(("drv", "y", 1, 0.6),))
        daily = generate_var(graph, 300, seed=12, frequency="daily", start=stamps[140],
                             target="y")
        save_csv(daily, tmp_path / "daily.csv")
        config = small_config(
            path, stamps, tmp_path / "o", daily_path=str(tmp_path / "daily.csv"),
            frequencies=("monthly",), variants=variants, leads=(1,),
        )
        if "dpcmci+" in variants:
            with pytest.raises(EmptySplit, match="no rows at or before train_end"):
                run_experiment(config)
            return
        report = run_experiment(config)
        assert len(report.records) == 2 and report.failures == ()
        timings = json.loads((tmp_path / "o" / "timings.json").read_text())
        assert [d["frequency"] for d in timings["datasets"]] == ["monthly"]

    def test_discovery_only_panel_is_never_normalized(self, experiment_data, tmp_path,
                                                      monkeypatch):
        # dpcmci+ discovers on the daily panel, but only monthly cells train
        path, stamps = experiment_data
        graph = PlantedGraph(variables=("y", "drv", "other"), links=(("drv", "y", 1, 0.6),))
        daily = generate_var(graph, 400, seed=12, frequency="daily", start=stamps[128],
                             target="y")
        save_csv(daily, tmp_path / "daily.csv")
        normalized = []

        def recorded(dataset, stats):
            normalized.append(dataset.frequency)
            return apply_normalization(dataset, stats)

        apply_normalization = pipeline.apply_normalization
        monkeypatch.setattr(pipeline, "apply_normalization", recorded)
        report = run_experiment(small_config(
            path, stamps, tmp_path / "o", daily_path=str(tmp_path / "daily.csv"),
            frequencies=("monthly",), variants=("vanilla", "dpcmci+"), leads=(1,),
        ))
        assert len(report.records) == 2 and report.failures == ()
        assert (tmp_path / "o" / "graph_daily_pcmci.json").exists()
        assert normalized == [Frequency.MONTHLY]

    def test_train_range_too_short_for_max_lag(self, experiment_data, tmp_path):
        # the whole series supports max_lag 16, its first 20 rows do not
        path, stamps = experiment_data
        report = run_experiment(small_config(
            path, stamps, tmp_path / "o", leads=(1,), discovery_max_lag=16,
            variants=("vanilla", "gc", "pcmci+"),
            split=SplitSpec(stamps[19], 0.15, (stamps[20], stamps[-1])),
        ))
        assert {r.variant for r in report.records} == {"vanilla"}
        assert [f["variant"] for f in report.failures] == ["gc", "pcmci+"]
        for failure in report.failures:
            assert "InsufficientHistory" in failure["error"]

    def test_program_bug_is_not_a_failed_cell(self, experiment_data, tmp_path,
                                              monkeypatch):
        def broken_train(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr("causalcast.pipeline.train", broken_train)
        path, stamps = experiment_data
        with pytest.raises(TypeError, match="unsupported operand"):
            run_experiment(small_config(path, stamps, tmp_path / "o"))

    def test_seed_changes_results(self, experiment_data, tmp_path):
        path, stamps = experiment_data
        a = run_experiment(small_config(path, stamps, tmp_path / "a", seed=0))
        b = run_experiment(small_config(path, stamps, tmp_path / "b", seed=1))
        assert [r.rmse for r in a.records] != [r.rmse for r in b.records]
