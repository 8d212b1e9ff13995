"""Command-line surface: preprocess, discover, train, evaluate, experiment, synth.

Every command is a thin binding to one library operation with uniform
exit codes: 0 on success, 1 on runtime failure, 2 on invalid input or
configuration.  Experiment runs are driven by a YAML/JSON config file
checked against a published schema; a few flags (output dir, seed,
jobs) override file values.  Each run can record a manifest listing the
config hash, seed, toolkit, numpy and scipy versions, a sha256 of every
input file, and every artifact written.
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import jsonschema
import numpy as np
import scipy
import yaml

from . import __version__
from .data import (
    Frequency,
    SplitSpec,
    aggregate_daily_to_monthly,
    apply_normalization,
    build_lag_windows,
    fit_normalization,
    impute,
    invert_normalization,
    load_csv,
    save_csv,
    split_windows,
    write_summary,
)
from .errors import CausalcastError, ConfigError, InputError
from .granger import FeatureMethod, FeatureSet, mvgc_test, results_to_dict
from .nn import (
    Checkpoint,
    ModelConfig,
    TrainConfig,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .pcmci import CausalGraph, run_pcmci_plus, select_features_pcmci
from .pipeline import (
    EvalRecord,
    EvalReport,
    ExperimentConfig,
    derive_seed,
    mae,
    percentage_metrics,
    r2,
    rmse,
    run_experiment,
)
from .synth import PlantedGraph, generate_var, random_planted_graph

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["target", "datasets", "split", "output_dir"],
    "additionalProperties": False,
    "properties": {
        "target": {"type": "string"},
        "datasets": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "properties": {
                "daily": {"type": "string"},
                "monthly": {"type": "string"},
            },
        },
        "split": {
            "type": "object",
            "required": ["train_end", "test_start", "test_end"],
            "additionalProperties": False,
            "properties": {
                "train_end": {"type": "string"},
                "validation_fraction": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
                "test_start": {"type": "string"},
                "test_end": {"type": "string"},
            },
        },
        "frequencies": {
            "type": "array",
            "items": {"type": "string", "enum": [f.value for f in Frequency]},
            "minItems": 1,
        },
        "leads": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "variants": {
            "type": "array",
            "items": {
                "type": "string",
                "enum": [m.value for m in FeatureMethod],
            },
            "minItems": 1,
        },
        "discovery": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_lag": {"type": "integer", "minimum": 1},
                "gc_alpha": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
                "pcmci_alpha": {
                    "type": "number",
                    "exclusiveMinimum": 0,
                    "exclusiveMaximum": 1,
                },
                "max_samples": {"type": "integer", "minimum": 0},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lookback": {"type": "integer", "minimum": 1},
                "gru_units": {"type": "integer", "minimum": 1},
                "lstm_units": {"type": "integer", "minimum": 1},
                "dense_units": {"type": "integer", "minimum": 1},
                "dropout_rate": {
                    "type": "number",
                    "minimum": 0,
                    "exclusiveMaximum": 1,
                },
            },
        },
        "train": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "batch_size": {"type": "integer", "minimum": 1},
                "max_epochs": {"type": "integer", "minimum": 1},
                "patience": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "daily_steps_per_month": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
        "seed": {"type": "integer"},
        "jobs": {"type": "integer", "minimum": 1},
    },
}


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except CausalcastError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_date(value: str) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise ConfigError(f"invalid date {value!r}: expected YYYY-MM-DD")


def _write_manifest(path, command: str, config_data, seed, inputs, artifacts) -> None:
    payload = json.dumps(config_data, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "seed": seed,
        "version": __version__,
        # the numeric stack decides the last digits of every reported metric
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "created": dt.datetime.now(dt.timezone.utc).isoformat(),
        "inputs": [
            {"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in inputs
        ],
        "artifacts": [str(p) for p in artifacts],
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="causalcast")
def main():
    """Causality-driven time-series forecasting toolkit."""


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", required=True, type=click.Path(dir_okay=False))
@click.option("--target", required=True, help="name of the forecast target column")
@click.option(
    "--frequency",
    type=click.Choice([f.value for f in Frequency]),
    required=True,
)
@click.option(
    "--aggregate",
    type=click.Choice(["monthly"]),
    default=None,
    help="aggregate a daily series to calendar-month means",
)
@click.option("--manifest", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def preprocess(input_csv, output, target, frequency, aggregate, manifest):
    """Load a CSV, impute gaps, optionally aggregate, and re-save it."""
    dataset = impute(load_csv(input_csv, target, frequency))
    if aggregate == "monthly":
        dataset = aggregate_daily_to_monthly(dataset)
    save_csv(dataset, output)
    summary_path = Path(output).with_suffix(".summary.json")
    write_summary(dataset, summary_path)
    if manifest:
        _write_manifest(
            manifest,
            "preprocess",
            {
                "input": input_csv,
                "target": target,
                "frequency": frequency,
                "aggregate": aggregate,
            },
            None,
            [input_csv],
            [output, summary_path],
        )
    click.echo(
        f"wrote {output}: {dataset.n_timesteps} rows x "
        f"{dataset.n_variables} variables ({dataset.frequency.value})"
    )


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

def _mvgc_dot(doc: dict) -> str:
    lines = ["digraph causal {", "  rankdir=LR;"]
    for v in doc["variables"]:
        lines.append(f'  "{v}";')
    for r in doc["results"]:
        if r["selected"]:
            lines.append(
                f'  "{r["variable"]}" -> "{doc["target"]}" [label="GC"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


@main.command()
@click.argument("dataset_csv", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--method",
    type=click.Choice(["mvgc", "pcmci+"]),
    required=True,
)
@click.option("--target", required=True)
@click.option(
    "--frequency",
    type=click.Choice([f.value for f in Frequency]),
    required=True,
)
@click.option("--max-lag", type=int, default=21, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option(
    "--max-samples",
    type=int,
    default=8000,
    show_default=True,
    help="pcmci+ keeps only this many most recent steps (0 disables)",
)
@click.option(
    "--output",
    "-o",
    required=True,
    help="output prefix: writes <prefix>.json and <prefix>.dot",
)
@click.option("--manifest", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def discover(dataset_csv, method, target, frequency, max_lag, alpha, max_samples, output, manifest):
    """Run causal discovery and export the graph as JSON and DOT."""
    dataset = impute(load_csv(dataset_csv, target, frequency))
    json_path = Path(f"{output}.json")
    dot_path = Path(f"{output}.dot")
    if method == "mvgc":
        results = mvgc_test(dataset, max_lag=max_lag, alpha=alpha)
        doc = results_to_dict(results, dataset, max_lag=max_lag, alpha=alpha)
        json_path.write_text(json.dumps(doc, indent=2) + "\n")
        dot_path.write_text(_mvgc_dot(doc))
        click.echo(
            f"mvgc selected {len(doc['features'])} features "
            f"(target included): {', '.join(doc['features'])}"
        )
    else:
        graph = run_pcmci_plus(
            dataset,
            max_lag=max_lag,
            pc_alpha=alpha,
            max_samples=max_samples or None,
        )
        graph.save(json_path)
        dot_path.write_text(graph.to_dot())
        features = select_features_pcmci(graph, target)
        click.echo(
            f"pcmci+ found {len(graph.links)} links; features for "
            f"{target!r}: {', '.join(features.features)}"
        )
    if manifest:
        _write_manifest(
            manifest,
            "discover",
            {
                "dataset": dataset_csv,
                "method": method,
                "target": target,
                "max_lag": max_lag,
                "alpha": alpha,
            },
            None,
            [dataset_csv],
            [json_path, dot_path],
        )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_feature_set(source: str, dataset) -> FeatureSet:
    if source == "all":
        return FeatureSet(FeatureMethod.VANILLA, dataset.variable_names)
    doc = json.loads(Path(source).read_text())
    method = doc.get("method")
    if method == "mvgc":
        return FeatureSet(FeatureMethod.GC, tuple(doc["features"]))
    if method == "pcmci+":
        graph = CausalGraph.from_dict(doc)
        return select_features_pcmci(graph, dataset.target_name)
    raise ConfigError(
        f"{source}: unrecognized feature source (method {method!r})"
    )


@main.command("train")
@click.argument("dataset_csv", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--features-from",
    default="all",
    show_default=True,
    help='discovery JSON from `discover`, or "all" for every variable',
)
@click.option("--target", required=True)
@click.option(
    "--frequency",
    type=click.Choice([f.value for f in Frequency]),
    required=True,
)
@click.option("--lead", type=int, default=1, show_default=True, help="horizon in months")
@click.option("--train-end", required=True, help="last training date (YYYY-MM-DD)")
@click.option("--validation-fraction", type=float, default=0.1, show_default=True)
@click.option("--test-start", required=True)
@click.option("--test-end", required=True)
@click.option("--lookback", type=int, default=21, show_default=True)
@click.option("--gru-units", type=int, default=64, show_default=True)
@click.option("--lstm-units", type=int, default=128, show_default=True)
@click.option("--dense-units", type=int, default=64, show_default=True)
@click.option("--dropout", type=float, default=0.2, show_default=True)
@click.option("--batch-size", type=int, default=64, show_default=True)
@click.option("--max-epochs", type=int, default=100, show_default=True)
@click.option("--patience", type=int, default=10, show_default=True)
@click.option("--learning-rate", type=float, default=1e-3, show_default=True)
@click.option(
    "--daily-steps-per-month",
    type=int,
    default=30,
    show_default=True,
    help="daily timesteps per month of lead",
)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", required=True, help="checkpoint path")
@click.option("--manifest", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def train_cmd(
    dataset_csv,
    features_from,
    target,
    frequency,
    lead,
    train_end,
    validation_fraction,
    test_start,
    test_end,
    lookback,
    gru_units,
    lstm_units,
    dense_units,
    dropout,
    batch_size,
    max_epochs,
    patience,
    learning_rate,
    daily_steps_per_month,
    seed,
    output,
    manifest,
):
    """Train one forecaster and save its checkpoint."""
    frequency = Frequency(frequency)
    dataset = impute(load_csv(dataset_csv, target, frequency))
    split = SplitSpec(
        train_end=_parse_date(train_end),
        validation_fraction=validation_fraction,
        test_range=(_parse_date(test_start), _parse_date(test_end)),
    )
    stats = fit_normalization(dataset, split)
    normalized = apply_normalization(dataset, stats)
    features = _load_feature_set(features_from, dataset)
    lead_steps = (
        lead * daily_steps_per_month if frequency is Frequency.DAILY else lead
    )
    windows = build_lag_windows(normalized, features.features, lookback, lead_steps)
    train_w, val_w, _ = split_windows(windows, split)
    model = init_model(
        ModelConfig(
            feature_count=len(features.features),
            lookback=lookback,
            gru_units=gru_units,
            lstm_units=lstm_units,
            dense_units=dense_units,
            dropout_rate=dropout,
        ),
        seed=seed,
    )
    config = TrainConfig(
        batch_size=batch_size,
        max_epochs=max_epochs,
        patience=patience,
        learning_rate=learning_rate,
        seed=seed,
    )
    model, history = train(model, train_w, val_w, config)
    save_checkpoint(
        output,
        Checkpoint(
            model=model,
            features=features.features,
            target=target,
            lead=lead,
            lead_steps=lead_steps,
            frequency=frequency,
            normalization=stats,
            train_config=config,
            method=features.method.value,
        ),
    )
    if manifest:
        _write_manifest(
            manifest,
            "train",
            {
                "dataset": dataset_csv,
                "features_from": features_from,
                "target": target,
                "lead": lead,
                "seed": seed,
            },
            seed,
            [dataset_csv],
            [output],
        )
    click.echo(
        f"wrote {output}: best epoch {history.best_epoch} "
        f"(validation MSE {min(history.validation_loss):.6f}, "
        f"stopped after {history.stopped_epoch} epochs)"
    )


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@main.command()
@click.argument("checkpoints", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "dataset_csv", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--test-start", default=None, help="restrict scoring to this date range")
@click.option("--test-end", default=None)
@click.option(
    "--output",
    "-o",
    required=True,
    help="report prefix: writes <prefix>.csv and <prefix>.json",
)
@click.option("--manifest", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def evaluate(checkpoints, dataset_csv, test_start, test_end, output, manifest):
    """Score saved checkpoints on a dataset and emit a metrics report."""
    records = []
    for ck_path in checkpoints:
        ck = load_checkpoint(ck_path)
        dataset = impute(load_csv(dataset_csv, ck.target, ck.frequency))
        if ck.normalization is not None:
            working = apply_normalization(dataset, ck.normalization)
        else:
            working = dataset
        lead_steps = ck.lead_steps if ck.lead_steps is not None else ck.lead
        windows = build_lag_windows(
            working, ck.features, ck.model.config.lookback, lead_steps
        )
        if test_start is not None or test_end is not None:
            lo = _parse_date(test_start) if test_start else dt.date.min
            hi = _parse_date(test_end) if test_end else dt.date.max
            keep = [
                i for i, d in enumerate(windows.sample_dates) if lo <= d <= hi
            ]
            windows = windows.subset(np.asarray(keep, dtype=int))
        pred = predict(ck.model, windows.inputs)
        obs = windows.targets
        if ck.normalization is not None:
            pred = invert_normalization(pred, ck.normalization, ck.target)
            obs = invert_normalization(obs, ck.normalization, ck.target)
        rmse_value = rmse(pred, obs)
        mae_value = mae(pred, obs)
        rmse_pct, mae_pct = percentage_metrics(rmse_value, mae_value, obs)
        records.append(
            EvalRecord(
                frequency=ck.frequency.value if ck.frequency else "unknown",
                variant=ck.method or "unknown",
                lead=ck.lead if ck.lead is not None else lead_steps,
                rmse=rmse_value,
                mae=mae_value,
                rmse_pct=rmse_pct,
                mae_pct=mae_pct,
                r2=r2(pred, obs),
                n_test=windows.n_samples,
            )
        )
    report = EvalReport(records=tuple(records))
    csv_path = Path(f"{output}.csv")
    json_path = Path(f"{output}.json")
    csv_path.write_text(report.to_csv())
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    if manifest:
        _write_manifest(
            manifest,
            "evaluate",
            {"checkpoints": list(checkpoints), "dataset": dataset_csv},
            None,
            list(checkpoints) + [dataset_csv],
            [csv_path, json_path],
        )
    click.echo(f"wrote {csv_path} ({len(records)} rows)")


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _stringify_dates(node):
    if isinstance(node, dict):
        return {k: _stringify_dates(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_stringify_dates(v) for v in node]
    if isinstance(node, (dt.date, dt.datetime)):
        return node.isoformat()
    return node


def load_experiment_config(
    path,
    output_dir: str | None = None,
    seed: int | None = None,
    jobs: int | None = None,
) -> tuple[ExperimentConfig, dict]:
    """Parse, validate, and resolve an experiment config file.

    Dataset and output paths in the file are taken relative to the
    file's directory; flag overrides are taken relative to the caller's
    working directory.  Returns the config plus the normalized document
    (for hashing into the manifest).
    """
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    doc = _stringify_dates(doc)
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config key {where}: {exc.message}")

    base = Path(path).resolve().parent

    def resolve(p):
        if p is None:
            return None
        return p if Path(p).is_absolute() else str(base / p)

    datasets = doc["datasets"]
    split = doc["split"]
    discovery = doc.get("discovery", {})
    model = doc.get("model", {})
    train_doc = doc.get("train", {})
    max_samples = discovery.get("max_samples", 8000)
    config = ExperimentConfig(
        target=doc["target"],
        split=SplitSpec(
            train_end=_parse_date(split["train_end"]),
            validation_fraction=split.get("validation_fraction", 0.1),
            test_range=(
                _parse_date(split["test_start"]),
                _parse_date(split["test_end"]),
            ),
        ),
        output_dir=(
            output_dir if output_dir is not None else resolve(doc["output_dir"])
        ),
        daily_path=resolve(datasets.get("daily")),
        monthly_path=resolve(datasets.get("monthly")),
        frequencies=tuple(
            Frequency(f) for f in doc.get("frequencies", [])
        ),
        lookback=model.get("lookback", 21),
        leads=tuple(doc.get("leads", [1, 2, 3, 4, 5, 6])),
        variants=tuple(
            doc.get("variants", [m.value for m in FeatureMethod])
        ),
        gc_alpha=discovery.get("gc_alpha", 0.05),
        pcmci_alpha=discovery.get("pcmci_alpha", 0.05),
        discovery_max_lag=discovery.get("max_lag", 21),
        daily_steps_per_month=doc.get("daily_steps_per_month", 30),
        max_samples=max_samples if max_samples else None,
        gru_units=model.get("gru_units", 64),
        lstm_units=model.get("lstm_units", 128),
        dense_units=model.get("dense_units", 64),
        dropout_rate=model.get("dropout_rate", 0.2),
        train=TrainConfig(
            batch_size=train_doc.get("batch_size", 64),
            max_epochs=train_doc.get("max_epochs", 100),
            patience=train_doc.get("patience", 10),
            learning_rate=train_doc.get("learning_rate", 1e-3),
        ),
        seed=seed if seed is not None else doc.get("seed", 0),
        jobs=jobs if jobs is not None else doc.get("jobs", 1),
    )
    doc["output_dir"] = config.output_dir
    doc["seed"] = config.seed
    doc["jobs"] = config.jobs
    return config, doc


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--output-dir", default=None, help="override the config's output_dir")
@click.option("--seed", type=int, default=None, help="override the config's seed")
@click.option("--jobs", type=int, default=None, help="worker processes for training cells")
@_cli_errors
def experiment(config_file, output_dir, seed, jobs):
    """Run the full preprocessing/discovery/training/evaluation roster."""
    config, doc = load_experiment_config(
        config_file, output_dir=output_dir, seed=seed, jobs=jobs
    )
    report = run_experiment(config)
    manifest_path = Path(config.output_dir) / "manifest.json"
    _write_manifest(
        manifest_path,
        "experiment",
        doc,
        config.seed,
        [config_file]
        + [p for p in (config.daily_path, config.monthly_path) if p],
        list(report.artifacts) + [str(manifest_path)],
    )
    for failure in report.failures:
        click.echo(
            f"failed cell {failure['frequency']}/{failure['variant']}"
            f"/lead{failure['lead']}: {failure['error']}",
            err=True,
        )
    click.echo(
        f"{len(report.records)} cells succeeded, {len(report.failures)} "
        f"failed; report at {Path(config.output_dir) / 'report.csv'}"
    )
    if not report.records:
        sys.exit(1)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), default=None, help="planted-graph JSON to simulate (instead of a random graph)")
@click.option("--n-vars", type=int, default=5, show_default=True)
@click.option("--n-links", type=int, default=6, show_default=True)
@click.option("--max-lag", type=int, default=5, show_default=True)
@click.option("--timesteps", "-T", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--frequency",
    type=click.Choice([f.value for f in Frequency]),
    default="monthly",
    show_default=True,
)
@click.option("--start-date", default="1979-01-01", show_default=True)
@click.option("--target", default=None, help="target column (default: last variable)")
@click.option(
    "--output",
    "-o",
    required=True,
    help="output prefix: writes <prefix>.csv and <prefix>.graph.json",
)
@click.option("--manifest", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def synth(graph_path, n_vars, n_links, max_lag, timesteps, seed, frequency, start_date, target, output, manifest):
    """Simulate a planted-graph VAR process and save data plus ground truth."""
    if graph_path is not None:
        graph = PlantedGraph.load(graph_path)
    else:
        graph = random_planted_graph(
            n_vars, n_links, derive_seed(seed, "graph"), max_lag=max_lag
        )
    dataset = generate_var(
        graph,
        timesteps,
        derive_seed(seed, "series"),
        frequency=frequency,
        start=_parse_date(start_date),
        target=target,
    )
    csv_path = f"{output}.csv"
    graph_json = f"{output}.graph.json"
    save_csv(dataset, csv_path)
    graph.save(graph_json)
    if manifest:
        _write_manifest(
            manifest,
            "synth",
            {
                "graph": graph_path,
                "n_vars": n_vars,
                "n_links": n_links,
                "timesteps": timesteps,
                "seed": seed,
            },
            seed,
            [graph_path] if graph_path else [],
            [csv_path, graph_json],
        )
    click.echo(
        f"wrote {csv_path} ({dataset.n_timesteps} x {dataset.n_variables}) "
        f"and {graph_json} ({len(graph.links)} links)"
    )


if __name__ == "__main__":
    main()
