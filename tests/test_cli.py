import bisect
import datetime as dt
import hashlib
import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from causalcast import (
    Checkpoint,
    ExperimentConfig,
    Frequency,
    ModelConfig,
    PlantedGraph,
    SplitSpec,
    derive_seed,
    generate_var,
    impute,
    init_model,
    load_csv,
    random_planted_graph,
    save_checkpoint,
    save_csv,
)
from causalcast import pipeline
from causalcast.cli import load_experiment_config, main
from causalcast.pcmci import CausalGraph

from conftest import make_dataset, run_python


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def write_panel(path, T=180, seed=11):
    graph = PlantedGraph(
        variables=("y", "drv", "other"),
        links=(("drv", "y", 1, 0.6), ("y", "y", 1, 0.3), ("other", "other", 1, 0.4)),
    )
    ds = generate_var(graph, T, seed=seed, target="y")
    save_csv(ds, path)
    return ds


class TestBasics:
    def test_version(self, runner):
        result = invoke(runner, "--version")
        assert result.exit_code == 0
        assert "causalcast" in result.output

    def test_help_lists_commands(self, runner):
        result = invoke(runner, "--help")
        assert result.exit_code == 0
        for cmd in ("preprocess", "discover", "train", "evaluate", "experiment", "synth"):
            assert cmd in result.output

    def test_import_loads_no_scipy(self):
        # numpy and CPython's math compute every statistic; SciPy is only
        # a test oracle, and importing it would double set-up time.  The
        # process pool is imported only when --jobs > 1 starts one.
        code = (
            "import causalcast.cli, sys; print([m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'])"
        )
        assert run_python("-c", code).strip() == "[]"

    def test_usage_error_is_exit_two(self, runner):
        result = invoke(runner, "preprocess", "/nonexistent.csv", "-o", "x.csv",
                        "--target", "y", "--frequency", "monthly")
        assert result.exit_code == 2


class TestSynth:
    def test_writes_data_and_graph(self, runner, tmp_path):
        prefix = tmp_path / "sim"
        result = invoke(runner, "synth", "--n-vars", 4, "--n-links", 3,
                        "--max-lag", 2, "-T", 300, "--seed", 5, "-o", prefix)
        assert result.exit_code == 0
        ds = load_csv(f"{prefix}.csv", "v3", "monthly")
        assert ds.n_timesteps == 300
        assert ds.n_variables == 4
        graph = PlantedGraph.load(f"{prefix}.graph.json")
        assert len(graph.links) == 3

    def test_deterministic(self, runner, tmp_path):
        for name in ("a", "b"):
            invoke(runner, "synth", "-T", 200, "--seed", 9, "-o", tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_defaults_are_the_library_defaults(self, runner, tmp_path):
        # --max-lag, --frequency and --start-date left out: the series is
        # the one random_planted_graph and generate_var give by default
        invoke(runner, "synth", "-T", 120, "--seed", 4, "-o", tmp_path / "cli")
        graph = random_planted_graph(5, 6, derive_seed(4, "graph"))
        save_csv(generate_var(graph, 120, derive_seed(4, "series")),
                 tmp_path / "lib.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert PlantedGraph.load(tmp_path / "cli.graph.json").links == graph.links

    def test_reuses_saved_graph(self, runner, tmp_path):
        invoke(runner, "synth", "-T", 200, "--seed", 1, "-o", tmp_path / "a")
        result = invoke(runner, "synth", "--graph", tmp_path / "a.graph.json",
                        "-T", 150, "--seed", 2, "--frequency", "daily",
                        "-o", tmp_path / "b")
        assert result.exit_code == 0
        a = PlantedGraph.load(tmp_path / "a.graph.json")
        b = PlantedGraph.load(tmp_path / "b.graph.json")
        assert a.links == b.links

    def test_invalid_request_is_exit_two(self, runner, tmp_path):
        # 2 variables at the default max_lag 5 admit only 10 distinct triples
        result = invoke(runner, "synth", "--n-vars", 2, "--n-links", 11,
                        "-o", tmp_path / "x")
        assert result.exit_code == 2
        assert "11 links exceed the 10 distinct" in result.stderr

    @pytest.mark.parametrize("args, message", [
        (("--max-lag", 0), "max_lag must be >= 1, got 0"),
        (("--n-vars", 0, "--n-links", 0), "n_vars must be >= 1, got 0"),
        (("--n-links", -1), "n_links must be >= 0, got -1"),
        (("--start-date", "9999-12-01"), "2000 monthly steps from 9999-12-01 run past 9999-12-31"),
    ], ids=["max-lag-0", "no-variables", "negative-links", "past-the-last-date"])
    def test_bad_argument_is_exit_two(self, runner, tmp_path, args, message):
        result = invoke(runner, "synth", *args, "-o", tmp_path / "x")
        assert result.exit_code == 2, result.exception
        assert message in result.stderr
        assert not (tmp_path / "x.csv").exists()


class TestPreprocess:
    def test_imputes_and_saves(self, runner, tmp_path):
        ds = make_dataset([[1.0], [np.nan], [3.0]], names=["y"])
        save_csv(ds, tmp_path / "in.csv")
        result = invoke(runner, "preprocess", tmp_path / "in.csv",
                        "-o", tmp_path / "out.csv", "--target", "y",
                        "--frequency", "monthly")
        assert result.exit_code == 0
        out = load_csv(tmp_path / "out.csv", "y", "monthly")
        np.testing.assert_allclose(out.values[:, 0], [1.0, 2.0, 3.0])
        assert (tmp_path / "out.summary.json").exists()

    def test_aggregates_daily_to_monthly(self, runner, tmp_path):
        ds = make_dataset(np.ones((62, 1)), names=["y"], frequency=Frequency.DAILY)
        save_csv(ds, tmp_path / "d.csv")
        result = invoke(runner, "preprocess", tmp_path / "d.csv",
                        "-o", tmp_path / "m.csv", "--target", "y",
                        "--frequency", "daily", "--aggregate", "monthly")
        assert result.exit_code == 0
        out = load_csv(tmp_path / "m.csv", "y", "monthly")
        assert out.n_timesteps == 3

    def test_unknown_target_is_exit_two(self, runner, tmp_path):
        save_csv(make_dataset(np.ones((3, 1)), names=["y"]), tmp_path / "in.csv")
        result = invoke(runner, "preprocess", tmp_path / "in.csv",
                        "-o", tmp_path / "out.csv", "--target", "nope",
                        "--frequency", "monthly")
        assert result.exit_code == 2
        assert "nope" in result.stderr


class TestDiscover:
    def test_mvgc_finds_planted_driver(self, runner, tmp_path):
        write_panel(tmp_path / "data.csv", T=600)
        result = invoke(runner, "discover", tmp_path / "data.csv",
                        "--method", "mvgc", "--target", "y",
                        "--frequency", "monthly", "--max-lag", 3,
                        "-o", tmp_path / "gc")
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "gc.json").read_text())
        assert "drv" in doc["features"]
        assert "other" not in doc["features"]
        dot = (tmp_path / "gc.dot").read_text()
        assert '"drv" -> "y"' in dot

    def test_pcmci_graph_round_trips(self, runner, tmp_path):
        write_panel(tmp_path / "data.csv", T=600)
        result = invoke(runner, "discover", tmp_path / "data.csv",
                        "--method", "pcmci+", "--target", "y",
                        "--frequency", "monthly", "--max-lag", 3,
                        "--alpha", 0.01, "-o", tmp_path / "pc")
        assert result.exit_code == 0
        graph = CausalGraph.from_dict(json.loads((tmp_path / "pc.json").read_text()))
        assert ("drv", "y", 1) in {(l.source, l.target, l.lag) for l in graph.links}
        assert (tmp_path / "pc.dot").read_text().startswith("digraph")

    def test_negative_max_samples_is_exit_two(self, runner, tmp_path):
        write_panel(tmp_path / "data.csv", T=200)
        result = invoke(runner, "discover", tmp_path / "data.csv",
                        "--method", "pcmci+", "--target", "y",
                        "--frequency", "monthly", "--max-lag", 3,
                        "--max-samples", -5, "-o", tmp_path / "pc")
        assert result.exit_code == 2
        assert "max_samples must be >= 0, got -5" in result.stderr
        assert not (tmp_path / "pc.json").exists()

    def test_mci_rows_running_out_is_exit_two(self, runner, tmp_path):
        # max_lag 100 leaves 80 rows for PC1, but an MCI test of a parent
        # at a long lag starts past the last of the 180 rows
        write_panel(tmp_path / "data.csv", T=180)
        result = invoke(runner, "discover", tmp_path / "data.csv",
                        "--method", "pcmci+", "--target", "y",
                        "--frequency", "monthly", "--max-lag", 100, "-o", tmp_path / "pc")
        assert result.exit_code == 2, result.exception
        assert result.stderr.startswith("error: 180 rows leave 0 for a CI test")
        assert not (tmp_path / "pc.json").exists()

    @pytest.mark.parametrize("method", ["mvgc", "pcmci+"])
    @pytest.mark.parametrize("alpha", [1.5, 0])
    def test_alpha_outside_unit_interval_is_exit_two(self, runner, tmp_path, method, alpha):
        write_panel(tmp_path / "data.csv", T=200)
        result = invoke(runner, "discover", tmp_path / "data.csv",
                        "--method", method, "--target", "y",
                        "--frequency", "monthly", "--max-lag", 3,
                        "--alpha", alpha, "-o", tmp_path / "out")
        assert result.exit_code == 2
        assert f"alpha must lie in (0, 1), got {float(alpha)}" in result.stderr

    def test_infeasible_horizon_is_exit_two(self, runner, tmp_path):
        write_panel(tmp_path / "data.csv", T=120)
        result = invoke(runner, "discover", tmp_path / "data.csv",
                        "--method", "mvgc", "--target", "y",
                        "--frequency", "monthly", "--max-lag", 60,
                        "-o", tmp_path / "gc")
        assert result.exit_code == 2


# the settings of TestExperiment.CONFIG, for one monthly lead-1 cell
TRAIN_ARGS = ("--target", "y", "--frequency", "monthly", "--lead", 1,
              "--train-end", "1990-08-01", "--validation-fraction", 0.15,
              "--test-start", "1990-09-01", "--test-end", "1993-12-01",
              "--lookback", 4, "--gru-units", 4, "--lstm-units", 8,
              "--dense-units", 4, "--dropout", 0.1,
              "--batch-size", 32, "--max-epochs", 5, "--patience", 5,
              "--learning-rate", 0.01)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    data = root / "data.csv"
    write_panel(data, T=180)
    ck = root / "model.json"
    runner = CliRunner()
    result = invoke(runner, "train", data, *TRAIN_ARGS, "-o", ck)
    assert result.exit_code == 0, result.output
    return root, data, ck


class TestTrainEvaluate:
    def test_train_writes_checkpoint(self, trained):
        _, _, ck = trained
        blob = json.loads(ck.read_text())
        assert blob["target"] == "y"
        assert blob["lead"] == 1
        assert blob["method"] == "vanilla"

    def test_evaluate_reports_metrics(self, runner, trained):
        root, data, ck = trained
        result = invoke(runner, "evaluate", ck, "--data", data,
                        "-o", root / "eval")
        assert result.exit_code == 0
        lines = (root / "eval.csv").read_text().splitlines()
        assert lines[0].startswith("frequency,variant,lead")
        assert len(lines) == 2
        assert lines[1].startswith("monthly,vanilla,1,")

    def test_evaluate_window_restriction(self, runner, trained):
        root, data, ck = trained
        result = invoke(runner, "evaluate", ck, "--data", data,
                        "--test-start", "1992-01-01", "--test-end", "1992-12-01",
                        "-o", root / "restricted")
        assert result.exit_code == 0
        doc = json.loads((root / "restricted.json").read_text())
        assert doc["records"][0]["n_test"] == 12

    def test_evaluate_reads_the_csv_once(self, runner, trained, tmp_path, monkeypatch):
        # three checkpoints with one target and frequency share one read
        _, data, ck = trained
        copies = [tmp_path / f"model{k}.json" for k in range(3)]
        for copy in copies:
            copy.write_bytes(ck.read_bytes())
        reads = []

        def counted(*args):
            reads.append(args)
            return load_csv(*args)

        monkeypatch.setattr("causalcast.cli.load_csv", counted)
        result = invoke(runner, "evaluate", *copies, "--data", data, "-o", tmp_path / "eval")
        assert result.exit_code == 0, result.output
        assert len(reads) == 1
        assert len((tmp_path / "eval.csv").read_text().splitlines()) == 4

    def test_model_inputs_are_imputed_by_the_cut_alone(self, runner, trained, tmp_path,
                                                       monkeypatch):
        # train and evaluate impute model inputs with a training cut only
        _, data, _ = trained

        def cut_only(dataset, cut=None):
            if cut is None:
                raise AssertionError("model inputs imputed without a training cut")
            return impute(dataset, cut)

        monkeypatch.setattr("causalcast.cli.impute", cut_only)
        monkeypatch.setattr("causalcast.pipeline.impute", cut_only)
        ck = tmp_path / "m.json"
        result = invoke(runner, "train", data, *TRAIN_ARGS, "-o", ck)
        assert result.exit_code == 0, result.output
        result = invoke(runner, "evaluate", ck, "--data", data, "-o", tmp_path / "eval")
        assert result.exit_code == 0, result.output

    def test_panel_after_the_cut_is_imputed_from_itself(self, runner, trained, tmp_path):
        # no row at or before the last training date: the file fills its own gaps
        _, data, ck = trained
        ds = load_csv(data, "y", "monthly")
        tail = ds.rows(ds.timestamps.index(dt.date(1990, 9, 1)))
        values = tail.values.copy()
        values[:3, 1] = np.nan  # a leading gap in drv
        values[10:14, 0] = np.nan  # an interior gap in y
        save_csv(replace(tail, values=values), tmp_path / "gappy.csv")
        save_csv(impute(load_csv(tmp_path / "gappy.csv", "y", "monthly")), tmp_path / "filled.csv")
        for name in ("gappy", "filled"):
            result = invoke(runner, "evaluate", ck, "--data", tmp_path / f"{name}.csv",
                            "-o", tmp_path / name)
            assert result.exit_code == 0, result.output
        for suffix in (".csv", ".json"):
            assert ((tmp_path / f"gappy{suffix}").read_bytes()
                    == (tmp_path / f"filled{suffix}").read_bytes())

    def test_degenerate_evaluation_is_exit_one(self, runner, trained, tmp_path):
        root, data, ck = trained
        ds = load_csv(data, "y", "monthly")
        flat = ds.values.copy()
        flat[:, 0] = 5.0
        save_csv(replace(ds, values=flat), tmp_path / "flat.csv")
        result = invoke(runner, "evaluate", ck, "--data", tmp_path / "flat.csv",
                        "-o", tmp_path / "eval")
        assert result.exit_code == 1
        assert "constant" in result.stderr

    @pytest.mark.parametrize("rate", ["-1", "0", "nan"])
    def test_bad_learning_rate_is_exit_two(self, runner, trained, tmp_path, rate):
        _, data, _ = trained
        args = list(TRAIN_ARGS)
        args[args.index("--learning-rate") + 1] = rate
        result = invoke(runner, "train", data, *args, "-o", tmp_path / "m.json")
        assert result.exit_code == 2
        assert "learning_rate" in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_negative_seed_is_exit_two(self, runner, trained, tmp_path):
        _, data, _ = trained
        result = invoke(runner, "train", data, *TRAIN_ARGS, "--seed", -1,
                        "-o", tmp_path / "m.json")
        assert result.exit_code == 2, result.exception
        assert "seed must be >= 0, got -1" in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_incomplete_checkpoint_is_exit_two(self, runner, trained, tmp_path):
        _, data, _ = trained
        bare = tmp_path / "bare.json"
        save_checkpoint(bare, Checkpoint(model=init_model(ModelConfig(feature_count=3))))
        result = invoke(runner, "evaluate", bare, "--data", data, "-o", tmp_path / "eval")
        assert result.exit_code == 2
        for field in ("target", "lead", "lead_steps", "frequency", "normalization", "method",
                      "features"):
            assert field in result.stderr

    @pytest.mark.parametrize("command, case", [
        ("evaluate", "not-json"),
        ("evaluate", "no-head_b"),
        ("evaluate", "gru_U-shape"),
        ("train", "not-json"),
        ("train", "mvgc-no-features"),
        ("train", "pcmci-no-max_lag"),
        ("synth", "not-json"),
        ("synth", "link-no-coefficient"),
        ("evaluate", "array"),
        ("evaluate", "lead_steps-string"),
        ("evaluate", "lead_steps-float"),
        ("evaluate", "lead-zero"),
        ("evaluate", "lead-bool"),
        ("evaluate", "features-string"),
        ("evaluate", "features-not-strings"),
        ("evaluate", "target-int"),
        ("evaluate", "method-list"),
        ("evaluate", "fitted_on-empty"),
        ("evaluate", "fitted_on-three"),
        ("evaluate", "fitted_on-reversed"),
        ("evaluate", "features-short"),
        ("train", "array"),
        ("train", "mvgc-features-string"),
        ("synth", "array"),
    ])
    def test_malformed_json_is_exit_two(self, runner, trained, tmp_path, command, case):
        _, data, ck = trained

        def checkpoint(edit):
            blob = json.loads(ck.read_text())
            edit(blob["model"]["params"])
            return blob

        def meta(key, value):
            return {**json.loads(ck.read_text()), key: value}

        def fitted_on(dates):
            blob = json.loads(ck.read_text())
            blob["normalization"]["fitted_on"] = dates
            return blob

        docs = {
            "no-head_b": lambda: checkpoint(lambda p: p.pop("head_b")),
            # 48 values under a (4, 11) shape
            "gru_U-shape": lambda: checkpoint(lambda p: p["gru_U"].update(shape=[4, 11])),
            "array": lambda: [],
            "lead_steps-string": lambda: meta("lead_steps", "1"),
            "lead_steps-float": lambda: meta("lead_steps", 1.5),
            "lead-zero": lambda: meta("lead", 0),
            "lead-bool": lambda: meta("lead", True),
            "features-string": lambda: meta("features", "drv"),
            "features-not-strings": lambda: meta("features", ["drv", 2]),
            "target-int": lambda: meta("target", 3),
            "method-list": lambda: meta("method", ["gc"]),
            "fitted_on-empty": lambda: fitted_on([]),
            "fitted_on-three": lambda: fitted_on(["1975-01-01", "1990-08-01", "1993-12-01"]),
            "fitted_on-reversed": lambda: fitted_on(["1990-08-01", "1979-01-01"]),
            # two names for a model of three inputs
            "features-short": lambda: meta("features", ["y", "drv"]),
            "mvgc-no-features": lambda: {"method": "mvgc"},
            "mvgc-features-string": lambda: {"method": "mvgc", "features": "drv"},
            "pcmci-no-max_lag": lambda: {"method": "pcmci+", "variables": ["y", "drv", "other"],
                                         "alpha": 0.05, "links": []},
            "link-no-coefficient": lambda: {"variables": ["a", "b"], "max_lag": 1,
                                            "links": [{"source": "a", "target": "b", "lag": 1}]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(docs[case]()) if case in docs else "{not json")
        args = {
            "evaluate": ("evaluate", path, "--data", data, "-o", tmp_path / "eval"),
            "train": ("train", data, *TRAIN_ARGS, "--features-from", path,
                      "-o", tmp_path / "m.json"),
            "synth": ("synth", "--graph", path, "-T", 50, "-o", tmp_path / "sim"),
        }[command]
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.exception
        assert result.stderr.startswith(f"error: {path}: ")
        if case == "array":
            assert "expected a JSON object" in result.stderr

    @pytest.mark.parametrize("command, key, value", [
        ("train", "max_lag", 2.5),
        ("train", "ci_tests", True),
        ("train", "max_cond_dim", 1.0),
        ("train", "alpha", "0.05"),
        ("train", "lag", 1.7),
        ("train", "stat", True),
        ("train", "p", "0.001"),
        ("train", "oriented", "false"),
        ("train", "frequency", 3),
        ("train", "frequency", "weekly"),
        ("synth", "lag", 2.9),
        ("synth", "lag", True),
        ("synth", "coefficient", "0.3"),
    ])
    def test_mistyped_graph_field_is_exit_two(self, runner, trained, tmp_path, command, key,
                                              value):
        # each document is valid but for the one field, which no loader coerces
        _, data, _ = trained
        link = {"source": "drv", "target": "y", "lag": 1}
        doc = {
            "train": {"method": "pcmci+", "frequency": "monthly", "variables": ["y", "drv", "other"],
                      "max_lag": 2, "alpha": 0.05, "ci_tests": 3, "max_cond_dim": 1,
                      "links": [{**link, "stat": 0.5, "p": 0.001, "oriented": True}]},
            "synth": {"variables": ["y", "drv"], "links": [{**link, "coefficient": 0.3}]},
        }[command]
        (doc if key in doc else doc["links"][0])[key] = value
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        args = {
            "train": ("train", data, *TRAIN_ARGS, "--features-from", path,
                      "-o", tmp_path / "m.json"),
            "synth": ("synth", "--graph", path, "-T", 100, "-o", tmp_path / "sim"),
        }[command]
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.exception
        assert f"{key} must be" in result.stderr
        assert repr(value) in result.stderr

    def test_manifest_hash_covers_every_option(self, runner, trained, tmp_path):
        _, data, _ = trained
        hashes = []
        for units in (4, 8):
            manifest = tmp_path / f"manifest{units}.json"
            result = invoke(runner, "train", data, *TRAIN_ARGS, "--max-epochs", 1,
                            "--gru-units", units, "-o", tmp_path / f"m{units}.json",
                            "--manifest", manifest)
            assert result.exit_code == 0, result.output
            doc = json.loads(manifest.read_text())
            assert doc["command"] == "train"
            assert doc["seed"] == 0
            hashes.append(doc["config_hash"])
        assert hashes[0] != hashes[1]

    def test_manifest_hashes_feature_source(self, runner, trained, tmp_path):
        _, data, _ = trained
        gc = tmp_path / "gc"
        result = invoke(runner, "discover", data, "--method", "mvgc", "--target", "y",
                        "--frequency", "monthly", "--max-lag", 3, "-o", gc)
        assert result.exit_code == 0, result.output
        manifest = tmp_path / "manifest.json"
        result = invoke(runner, "train", data, *TRAIN_ARGS, "--max-epochs", 1,
                        "--features-from", f"{gc}.json", "-o", tmp_path / "m.json",
                        "--manifest", manifest)
        assert result.exit_code == 0, result.output
        inputs = json.loads(manifest.read_text())["inputs"]
        assert [Path(e["path"]).name for e in inputs] == ["data.csv", "gc.json"]
        for entry in inputs:
            digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
            assert entry["sha256"] == digest


class TestBlasThreads:
    """Every command runs numpy's OpenBLAS on one thread, so no artifact
    depends on how many threads OpenBLAS started with.  Each check runs
    in fresh processes: the in-process commands above pin this one."""

    # 11 variables at max_lag 12: the 132-column Cholesky is large enough
    # for OpenBLAS to split it among threads
    CONFIG = """\
target: v0
datasets:
  monthly: panel.csv
split:
  train_end: 1994-10-01
  test_start: 1994-11-01
  test_end: 1998-12-01
leads: [1]
variants: [vanilla, gc, pcmci+]
discovery:
  max_lag: 12
model:
  lookback: 4
  gru_units: 4
  lstm_units: 8
  dense_units: 4
train:
  max_epochs: 2
output_dir: out
seed: 3
"""

    @pytest.fixture()
    def panel(self, runner, tmp_path):
        result = invoke(runner, "synth", "--n-vars", 11, "--n-links", 20, "--max-lag", 3,
                        "-T", 240, "--seed", 1, "-o", tmp_path / "panel")
        assert result.exit_code == 0, result.output
        return tmp_path / "panel.csv"

    def test_import_keeps_the_thread_count_and_a_command_pins_it(self, tmp_path):
        code = (
            "import sys, causalcast.cli as cli, causalcast.pipeline as p\n"
            "before = p.blas_threads()\n"
            "cli.main(['synth', '-T', '100', '-o', sys.argv[1]], standalone_mode=False)\n"
            "print(before, p.blas_threads())"
        )
        out = run_python("-c", code, tmp_path / "sim", threads=2)
        assert out.splitlines()[-1].split() == [str(min(2, len(os.sched_getaffinity(0)))), "1"]

    def test_manifest_records_null_without_openblas(self, runner, tmp_path, monkeypatch):
        # a numpy on another BLAS runs every command as it is
        monkeypatch.setattr(pipeline, "_openblas", lambda: None)
        result = invoke(runner, "synth", "-T", 100, "-o", tmp_path / "sim",
                        "--manifest", tmp_path / "m.json")
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "m.json").read_text())["blas_threads"] is None

    def test_mvgc_json_does_not_depend_on_openblas_threads(self, panel, tmp_path):
        for threads in (1, 2):
            run_python("-m", "causalcast", "discover", panel, "--method", "mvgc",
                       "--target", "v0", "--frequency", "monthly", "--max-lag", 12,
                       "-o", tmp_path / f"gc{threads}", threads=threads)
        assert (tmp_path / "gc1.json").read_bytes() == (tmp_path / "gc2.json").read_bytes()

    def test_experiment_artifacts_do_not_depend_on_threads_or_jobs(self, panel, tmp_path):
        (tmp_path / "exp.yaml").write_text(self.CONFIG)
        runs = []
        for threads in (1, 2):
            cwd = tmp_path / f"run{threads}"
            cwd.mkdir()
            run_python("-m", "causalcast", "experiment", tmp_path / "exp.yaml",
                       "--output-dir", "out", "--jobs", threads, cwd=cwd, threads=threads)
            files = {p.name: p.read_bytes() for p in (cwd / "out").iterdir()
                     if p.name not in ("timings.json", "manifest.json")}
            runs.append(files)
        assert {"granger_monthly.json", "graph_monthly_pcmci.json", "report.csv",
                "model_monthly_gc_lead1.json"} <= set(runs[0])
        assert runs[0] == runs[1]


class TestExperiment:
    CONFIG = """\
target: y
datasets:
  monthly: monthly.csv
split:
  train_end: 1990-08-01
  validation_fraction: 0.15
  test_start: 1990-09-01
  test_end: 1993-12-01
leads: [1, 2]
variants: [vanilla, gc]
discovery:
  max_lag: 3
model:
  lookback: 4
  gru_units: 4
  lstm_units: 8
  dense_units: 4
  dropout_rate: 0.1
train:
  batch_size: 32
  max_epochs: 5
  patience: 5
  learning_rate: 0.01
output_dir: out
seed: 3
"""

    def _setup(self, tmp_path):
        write_panel(tmp_path / "monthly.csv", T=180)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(self.CONFIG)
        return cfg

    def test_runs_and_writes_manifest(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 0
        assert "4 cells succeeded, 0 failed" in result.output
        out = tmp_path / "out"
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "experiment"
        assert manifest["seed"] == 3
        assert len(manifest["config_hash"]) == 64
        assert str(out / "report.csv") in manifest["artifacts"]
        assert manifest["numpy"] == np.__version__
        assert manifest["python"] == platform.python_version()
        assert "scipy" not in manifest
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == f"{blas['name']} {blas['version']}"
        assert manifest["blas_threads"] == 1
        assert manifest["cpu_count"] == os.cpu_count()
        names = {Path(e["path"]).name for e in manifest["inputs"]}
        assert names == {"exp.yaml", "monthly.csv"}
        for entry in manifest["inputs"]:
            digest = hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()
            assert entry["sha256"] == digest

    def test_unread_panel_is_neither_loaded_nor_hashed(self, runner, tmp_path):
        # vanilla and gc read only the monthly panel: a daily path that does
        # not exist stays out of the run and of the manifest
        cfg = self._setup(tmp_path)
        cfg.write_text(cfg.read_text().replace(
            "  monthly: monthly.csv\n", "  monthly: monthly.csv\n  daily: absent.csv\n"
        ).replace("split:", "frequencies: [monthly]\nsplit:"))
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        names = [Path(e["path"]).name for e in manifest["inputs"]]
        assert names == ["exp.yaml", "monthly.csv"]

    @pytest.mark.parametrize("gap", [False, True], ids=["no-gap", "gap"])
    def test_cli_train_and_evaluate_reproduce_a_cell(self, runner, tmp_path, gap):
        cfg = self._setup(tmp_path)
        if gap:
            # evaluate imputes as training did: no test-range row fills the gap
            self._blank(tmp_path, "drv", dt.date(1990, 5, 1), dt.date(1990, 8, 1))
        assert invoke(runner, "experiment", cfg).exit_code == 0
        data, ck = tmp_path / "monthly.csv", tmp_path / "cli_model.json"
        result = invoke(runner, "train", data, *TRAIN_ARGS, "-o", ck,
                        "--seed", derive_seed(3, "monthly:vanilla:lead1"))
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        assert ck.read_bytes() == (out / "model_monthly_vanilla_lead1.json").read_bytes()
        result = invoke(runner, "evaluate", ck, "--data", data,
                        "--test-start", "1990-09-01", "--test-end", "1993-12-01",
                        "-o", tmp_path / "eval")
        assert result.exit_code == 0, result.output
        row = (tmp_path / "eval.csv").read_text().splitlines()[1]
        assert row in (out / "report.csv").read_text().splitlines()
        assert row.startswith("monthly,vanilla,1,")

    def _blank(self, tmp_path, column, first, last):
        """Make ``column`` of monthly.csv missing from ``first`` to ``last``."""
        ds = load_csv(tmp_path / "monthly.csv", "y", "monthly")
        values = ds.values.copy()
        rows = [first <= t <= last for t in ds.timestamps]
        values[rows, ds.variable_names.index(column)] = np.nan
        save_csv(replace(ds, values=values), tmp_path / "monthly.csv")

    def _add_daily(self, tmp_path, cfg):
        """Give the config a daily panel, read by dpcmci+ alone."""
        graph = PlantedGraph(variables=("y", "drv", "other"),
                             links=(("drv", "y", 1, 0.6), ("y", "y", 1, 0.3)))
        save_csv(generate_var(graph, 500, seed=12, frequency="daily",
                              start=dt.date(1989, 6, 1), target="y"), tmp_path / "daily.csv")
        cfg.write_text(cfg.read_text().replace(
            "  monthly: monthly.csv\n", "  monthly: monthly.csv\n  daily: daily.csv\n"
        ).replace("split:", "frequencies: [monthly]\nsplit:"))

    @pytest.mark.parametrize("method, variant, artifact, gap", [
        ("mvgc", "gc", "granger_monthly", False),
        ("pcmci+", "pcmci+", "graph_monthly_pcmci", False),
        ("pcmci+", "dpcmci+", "graph_daily_pcmci", False),
        ("mvgc", "gc", "granger_monthly", True),
        ("pcmci+", "pcmci+", "graph_monthly_pcmci", True),
    ], ids=["mvgc-gc-granger_monthly", "pcmci+-pcmci+-graph_monthly_pcmci",
            "pcmci+-dpcmci+-graph_daily_pcmci",
            "mvgc-gc-granger_monthly-gap", "pcmci+-pcmci+-graph_monthly_pcmci-gap"])
    def test_discover_writes_the_experiment_graph(self, runner, tmp_path, method,
                                                  variant, artifact, gap):
        cfg = self._setup(tmp_path)
        self._add_daily(tmp_path, cfg)
        if gap:
            # a training gap up to train_end is filled from training rows only
            self._blank(tmp_path, "drv", dt.date(1990, 5, 1), dt.date(1990, 8, 1))
        cfg.write_text(
            cfg.read_text()
            .replace("[vanilla, gc]", f"[{variant}]")
            .replace("leads: [1, 2]", "leads: [1]")
            .replace("  max_lag: 3\n", "  max_lag: 3\n  gc_alpha: 0.1\n  pcmci_alpha: 0.1\n")
        )
        assert invoke(runner, "experiment", cfg).exit_code == 0
        # the experiment discovers on the rows up to train_end only
        frequency = artifact.split("_")[1]
        ds = load_csv(tmp_path / f"{frequency}.csv", "y", frequency)
        save_csv(ds.rows(0, bisect.bisect_right(ds.timestamps, dt.date(1990, 8, 1))),
                 tmp_path / "train.csv")
        result = invoke(runner, "discover", tmp_path / "train.csv", "--method", method,
                        "--target", "y", "--frequency", frequency, "--max-lag", 3,
                        "--alpha", 0.1, "-o", tmp_path / "cli")
        assert result.exit_code == 0, result.output
        assert json.loads((tmp_path / "cli.json").read_text())["frequency"] == frequency
        for suffix in (".json", ".dot"):
            expected = (tmp_path / "out" / f"{artifact}{suffix}").read_bytes()
            assert (tmp_path / f"cli{suffix}").read_bytes() == expected

    def test_train_features_from_reproduces_the_experiment_cells(self, runner, tmp_path):
        # `train --features-from` each source of an experiment's cells trains
        # that cell: the same features, under the same variant, byte for byte
        cfg = self._setup(tmp_path)
        self._add_daily(tmp_path, cfg)
        cfg.write_text(cfg.read_text().replace("[vanilla, gc]", "[vanilla, gc, pcmci+, dpcmci+]")
                       .replace("[1, 2]", "[1]"))
        assert invoke(runner, "experiment", cfg).exit_code == 0
        out = tmp_path / "out"
        sources = {"vanilla": "all", "gc": out / "granger_monthly.json",
                   "pcmci+": out / "graph_monthly_pcmci.json",
                   "dpcmci+": out / "graph_daily_pcmci.json"}
        for variant, source in sources.items():
            ck = tmp_path / f"cli_{variant}.json"
            result = invoke(runner, "train", tmp_path / "monthly.csv", *TRAIN_ARGS,
                            "--features-from", source, "-o", ck,
                            "--seed", derive_seed(3, f"monthly:{variant}:lead1"))
            assert result.exit_code == 0, result.output
            want = out / f"model_monthly_{variant}_lead1.json"
            got_doc, want_doc = json.loads(ck.read_text()), json.loads(want.read_text())
            assert len(want_doc["features"]) > 1
            assert (got_doc["features"], got_doc["method"]) == (want_doc["features"], variant)
            assert ck.read_bytes() == want.read_bytes()

    def test_graph_without_a_frequency_trains_as_pcmci(self, runner, tmp_path):
        # a graph JSON written before discovery recorded its panel
        cfg = self._setup(tmp_path)
        self._add_daily(tmp_path, cfg)
        cfg.write_text(cfg.read_text().replace("[vanilla, gc]", "[dpcmci+]")
                       .replace("[1, 2]", "[1]"))
        assert invoke(runner, "experiment", cfg).exit_code == 0
        doc = json.loads((tmp_path / "out" / "graph_daily_pcmci.json").read_text())
        assert doc.pop("frequency") == "daily"
        (tmp_path / "old.json").write_text(json.dumps(doc))
        ck = tmp_path / "cli.json"
        result = invoke(runner, "train", tmp_path / "monthly.csv", *TRAIN_ARGS, "--max-epochs", 1,
                        "--features-from", tmp_path / "old.json", "-o", ck)
        assert result.exit_code == 0, result.output
        got = json.loads(ck.read_text())
        want = json.loads((tmp_path / "out" / "model_monthly_dpcmci+_lead1.json").read_text())
        assert (got["method"], got["features"]) == ("pcmci+", want["features"])

    def test_mvgc_drivers_of_another_target_are_exit_two(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        assert invoke(runner, "experiment", cfg).exit_code == 0
        ck = tmp_path / "m.json"
        args = list(TRAIN_ARGS)
        args[args.index("--target") + 1] = "other"
        result = invoke(runner, "train", tmp_path / "monthly.csv", *args,
                        "--features-from", tmp_path / "out" / "granger_monthly.json", "-o", ck)
        assert result.exit_code == 2, result.output
        assert "MVGC drivers of 'y', not 'other'" in result.stderr
        assert not ck.exists()

    @pytest.mark.parametrize("command", ["experiment", "train"])
    def test_variable_unobserved_in_training_is_exit_two(self, runner, tmp_path, command):
        # observed in the test range only: nothing in training can fill it
        cfg = self._setup(tmp_path)
        self._blank(tmp_path, "other", dt.date.min, dt.date(1990, 8, 1))
        args = {
            "experiment": ("experiment", cfg),
            "train": ("train", tmp_path / "monthly.csv", *TRAIN_ARGS, "-o", tmp_path / "m.json"),
        }[command]
        result = invoke(runner, *args)
        assert result.exit_code == 2, result.output
        assert "variable 'other' has no observed values in 1979-01-01..1990-08-01" in result.stderr

    def test_loader_adds_no_defaults(self, tmp_path):
        cfg = tmp_path / "minimal.yaml"
        cfg.write_text(
            "target: y\n"
            "datasets: {daily: d.csv, monthly: m.csv}\n"
            "split: {train_end: 1990-08-01, test_start: 1990-09-01, test_end: 1993-12-01}\n"
            "output_dir: out\n"
        )
        config, _ = load_experiment_config(cfg)
        base = tmp_path.resolve()
        assert config == ExperimentConfig(
            target="y",
            split=SplitSpec(
                dt.date(1990, 8, 1), test_range=(dt.date(1990, 9, 1), dt.date(1993, 12, 1))
            ),
            output_dir=str(base / "out"),
            daily_path=str(base / "d.csv"),
            monthly_path=str(base / "m.csv"),
        )

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        invoke(runner, "experiment", cfg, "--output-dir", tmp_path / "o1")
        invoke(runner, "experiment", cfg, "--output-dir", tmp_path / "o2")
        assert (tmp_path / "o1" / "report.csv").read_bytes() == (
            tmp_path / "o2" / "report.csv"
        ).read_bytes()

    def test_seed_override_changes_report(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        invoke(runner, "experiment", cfg, "--output-dir", tmp_path / "o1")
        invoke(runner, "experiment", cfg, "--output-dir", tmp_path / "o2",
               "--seed", 99)
        assert (tmp_path / "o1" / "report.csv").read_text() != (
            tmp_path / "o2" / "report.csv"
        ).read_text()

    def test_missing_required_key_is_exit_two(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        doc = cfg.read_text().replace("target: y\n", "")
        cfg.write_text(doc)
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2
        assert "target" in result.stderr

    def test_missing_nested_key_names_the_path(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        cfg.write_text(cfg.read_text().replace("  test_end: 1993-12-01\n", ""))
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2
        assert "split" in result.stderr
        assert "test_end" in result.stderr

    def test_unknown_key_is_exit_two(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        cfg.write_text(cfg.read_text() + "mystery_knob: 7\n")
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2

    def test_duplicate_lead_is_exit_two(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        cfg.write_text(cfg.read_text().replace("leads: [1, 2]", "leads: [1, 1]"))
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2
        assert "duplicate leads" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_bad_variant_is_exit_two(self, runner, tmp_path):
        cfg = self._setup(tmp_path)
        cfg.write_text(cfg.read_text().replace("[vanilla, gc]", "[vanilla, magic]"))
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2
        assert "variants" in result.stderr

    @pytest.mark.parametrize("old, new, where", [
        ("  gru_units: 4\n", "  gru_units: 4.0\n", "model/gru_units"),
        ("  max_epochs: 5\n", "  max_epochs: 2.0\n", "train/max_epochs"),
        ("  batch_size: 32\n", "  batch_size: 4.0\n", "train/batch_size"),
        ("seed: 3\n", "seed: 3\njobs: 2.0\n", "jobs"),
        ("  max_lag: 3\n", "  max_lag: 2.0\n", "discovery/max_lag"),
        ("  gru_units: 4\n", "  gru_units: true\n", "model/gru_units"),
        ("seed: 3\n", "seed: 3\nfrequencies: [weekly]\n", "frequencies"),
    ], ids=["gru_units-float", "max_epochs-float", "batch_size-float", "jobs-float",
            "max_lag-float", "gru_units-bool", "frequencies-weekly"])
    def test_wrong_type_is_exit_two(self, runner, tmp_path, old, new, where):
        cfg = self._setup(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new))
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2
        assert where in result.stderr

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Experiment config\n", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(block)
        config, _ = load_experiment_config(cfg)
        assert config.target == "v0"
        assert config.output_dir == str(tmp_path.resolve() / "out")

    def test_readme_python_api_runs(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Python API\n", 1)[1].split("\n## ", 1)[0]
        blocks = [b.split("```", 1)[0] for b in section.split("```python\n")[1:]]
        assert len(blocks) == 3
        graph = random_planted_graph(6, 6, seed=7, max_lag=3)
        save_csv(generate_var(graph, 420, seed=7, target="v0"), tmp_path / "panel.csv")
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["features"][0] == "v0"
        assert namespace["checkpoint"].method == "gc"
        assert (tmp_path / "graph.json").is_file() and (tmp_path / "graph.dot").is_file()

    def test_malformed_yaml_is_exit_two(self, runner, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("target: [unclosed\n")
        result = invoke(runner, "experiment", cfg)
        assert result.exit_code == 2
