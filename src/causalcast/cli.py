"""Command-line surface: preprocess, discover, train, evaluate, experiment, synth.

Every command is a thin binding to one library operation with uniform
exit codes: 0 on success, 1 on runtime failure, 2 on invalid input or
configuration.  Experiment runs are driven by a YAML/JSON config file
whose keys and value types are checked against the file's layout, and
whose values by the config classes that own them; a few flags (output
dir, seed, jobs) override file values.  Every command runs numpy's
OpenBLAS on one thread (:func:`~causalcast.pipeline.pin_blas_threads`),
so its artifacts do not depend on the core count or
``OPENBLAS_NUM_THREADS``, and ``--jobs`` workers do not compete for the
cores; importing this module changes nothing.  Each run can record a
manifest listing the command, the config hash, seed, toolkit, numpy and
Python versions, the BLAS numpy was built against and the threads it
ran, the core count, a sha256 of every input file, and every artifact
written.  The config hash covers
every option of the command except ``--manifest`` itself (for
``experiment``, the resolved config document), so two runs with the same
hash ran with the same settings.
"""

from __future__ import annotations

import datetime as dt
import functools
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .data import (
    Frequency,
    SplitSpec,
    aggregate_daily_to_monthly,
    apply_normalization,
    as_frequency,
    build_lag_windows,
    impute,
    load_csv,
    save_csv,
    write_summary,
)
from .errors import CausalcastError, InputError, ParseError, json_object, string_list
from .nn import ModelConfig, TrainConfig, load_checkpoint, save_checkpoint
from .pcmci import CausalGraph
from .pipeline import (
    DISCOVERY_METHODS,
    EvalReport,
    ExperimentConfig,
    FeatureMethod,
    blas_threads,
    cell_inputs,
    derive_seed,
    discover as run_discovery,
    fit_cell,
    pin_blas_threads,
    prepare,
    run_experiment,
    score,
)
from .synth import DEFAULT_FREQUENCY, DEFAULT_GRAPH_MAX_LAG, DEFAULT_START, PlantedGraph, generate_var, random_planted_graph


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except CausalcastError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


def _parse_date(value: str) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise InputError(f"invalid date {value!r}: expected YYYY-MM-DD")


def _write_manifest(path, seed, inputs, artifacts, config=None) -> None:
    """Record the running command's provenance at ``path`` (skipped when
    None).  ``config`` defaults to every parameter but ``--manifest``."""
    if path is None:
        return
    ctx = click.get_current_context()
    if config is None:
        config = {k: v for k, v in ctx.params.items() if k != "manifest"}
    payload = json.dumps(config, sort_keys=True, default=str)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": ctx.info_name,
        "config_hash": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "seed": seed,
        "version": __version__,
        # the numeric stack decides the last digits of every reported metric
        # and CI statistic (CPython's math computes every p-value); the
        # thread count would too, but every command pins it to one
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
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
    pin_blas_threads()


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
    _write_manifest(manifest, None, [input_csv], [output, summary_path])
    click.echo(
        f"wrote {output}: {dataset.n_timesteps} rows x "
        f"{dataset.n_variables} variables ({dataset.frequency.value})"
    )


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------

@main.command()
@click.argument("dataset_csv", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--method",
    type=click.Choice(DISCOVERY_METHODS),
    required=True,
)
@click.option("--target", required=True)
@click.option(
    "--frequency",
    type=click.Choice([f.value for f in Frequency]),
    required=True,
)
@click.option("--max-lag", type=int, default=ExperimentConfig.discovery_max_lag, show_default=True)
@click.option("--alpha", type=float, default=ExperimentConfig.pcmci_alpha, show_default=True)
@click.option(
    "--max-samples",
    type=int,
    default=ExperimentConfig.max_samples,
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
    features, paths = run_discovery(
        dataset, method, output, max_lag, alpha, max_samples
    )
    _write_manifest(manifest, None, [dataset_csv], paths)
    click.echo(
        f"{method} selected {len(features)} features for {target!r} "
        f"(target included): {', '.join(features)}"
    )


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _load_feature_set(source: str, dataset) -> tuple[FeatureMethod, tuple[str, ...]]:
    """The variant and the features that ``--features-from`` names, by :func:`cell_inputs`."""
    if source == "all":
        return cell_inputs(None, (), None, dataset)
    with json_object(source) as doc:
        method = doc.get("method")
        found_on = as_frequency(doc["frequency"]) if "frequency" in doc else None
        if method == "mvgc":
            if doc["target"] != dataset.target_name:
                raise InputError(f"{source}: MVGC drivers of {doc['target']!r}, "
                                  f"not {dataset.target_name!r}")
            drivers = string_list(doc["features"], "features")
        elif method == "pcmci+":
            drivers = CausalGraph.from_dict(doc).drivers(dataset.target_name)
        else:
            raise InputError(f"{source}: unrecognized feature source (method {method!r})")
    return cell_inputs(method, drivers, found_on, dataset)


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
@click.option("--validation-fraction", type=float, default=SplitSpec.validation_fraction, show_default=True)
@click.option("--test-start", required=True)
@click.option("--test-end", required=True)
@click.option("--lookback", type=int, default=ModelConfig.lookback, show_default=True)
@click.option("--gru-units", type=int, default=ModelConfig.gru_units, show_default=True)
@click.option("--lstm-units", type=int, default=ModelConfig.lstm_units, show_default=True)
@click.option("--dense-units", type=int, default=ModelConfig.dense_units, show_default=True)
@click.option("--dropout", type=float, default=ModelConfig.dropout_rate, show_default=True)
@click.option("--batch-size", type=int, default=TrainConfig.batch_size, show_default=True)
@click.option("--max-epochs", type=int, default=TrainConfig.max_epochs, show_default=True)
@click.option("--patience", type=int, default=TrainConfig.patience, show_default=True)
@click.option("--learning-rate", type=float, default=TrainConfig.learning_rate, show_default=True)
@click.option(
    "--daily-steps-per-month",
    type=int,
    default=ExperimentConfig.daily_steps_per_month,
    show_default=True,
    help="daily timesteps per month of lead",
)
@click.option("--seed", type=int, default=TrainConfig.seed, show_default=True)
@click.option("--output", "-o", required=True, help="checkpoint path")
@click.option("--manifest", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def train_cmd(
    dataset_csv, features_from, target, frequency, lead, train_end,
    validation_fraction, test_start, test_end, lookback, gru_units, lstm_units,
    dense_units, dropout, batch_size, max_epochs, patience, learning_rate,
    daily_steps_per_month, seed, output, manifest,
):
    """Train one forecaster and save its checkpoint."""
    dataset = load_csv(dataset_csv, target, frequency)
    variant, features = _load_feature_set(features_from, dataset)
    config = ExperimentConfig(
        target=target,
        split=SplitSpec(
            train_end=_parse_date(train_end),
            validation_fraction=validation_fraction,
            test_range=(_parse_date(test_start), _parse_date(test_end)),
        ),
        output_dir=str(Path(output).parent),
        **{f"{frequency}_path": dataset_csv},
        lookback=lookback,
        leads=(lead,),
        daily_steps_per_month=daily_steps_per_month,
        gru_units=gru_units,
        lstm_units=lstm_units,
        dense_units=dense_units,
        dropout_rate=dropout,
        train=TrainConfig(
            batch_size=batch_size,
            max_epochs=max_epochs,
            patience=patience,
            learning_rate=learning_rate,
        ),
    )
    _, stats, normalized = prepare(dataset, config.split)
    checkpoint, _, history = fit_cell(
        config, Frequency(frequency), variant, features, lead, normalized, stats, seed
    )
    save_checkpoint(output, checkpoint)
    inputs = [dataset_csv] + ([] if features_from == "all" else [features_from])
    _write_manifest(manifest, seed, inputs, [output])
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
    """Score checkpoints written by train or experiment on a dataset."""
    first = _parse_date(test_start) if test_start else dt.date.min
    last = _parse_date(test_end) if test_end else dt.date.max
    records = []
    datasets = {}
    for ck_path in checkpoints:
        ck = load_checkpoint(ck_path)
        fields = ("target", "lead", "lead_steps", "frequency", "normalization", "method", "features")
        missing = [f for f in fields if getattr(ck, f) in (None, ())]
        if missing:
            raise ParseError(
                f"{ck_path}: checkpoint lacks {', '.join(missing)}; "
                "evaluate needs one written by train or experiment"
            )
        # imputed as in training: no row after the last training date fills one before
        key = (ck.target, ck.frequency, ck.normalization.fitted_on[1])
        if key not in datasets:
            datasets[key] = impute(load_csv(dataset_csv, *key[:2]), key[2])
        windows = build_lag_windows(
            apply_normalization(datasets[key], ck.normalization),
            ck.features,
            ck.model.config.lookback,
            ck.lead_steps,
        )
        records.append(score(ck, windows.between(first, last)))
    report = EvalReport(records=tuple(records))
    csv_path = Path(f"{output}.csv")
    json_path = Path(f"{output}.json")
    csv_path.write_text(report.to_csv())
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    _write_manifest(
        manifest, None, list(checkpoints) + [dataset_csv], [csv_path, json_path]
    )
    click.echo(f"wrote {csv_path} ({len(records)} rows)")


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

# The experiment file's layout: each key's value type, a nested table,
# or a one-item list for a non-empty list of that type.  Ranges, choices
# and cross-field rules belong to the config classes that read the values.
_LAYOUT = {
    "target": str,
    "datasets": {"daily": str, "monthly": str},
    "split": {"train_end": str, "validation_fraction": float, "test_start": str, "test_end": str},
    "frequencies": [str],
    "leads": [int],
    "variants": [str],
    "discovery": {"max_lag": int, "gc_alpha": float, "pcmci_alpha": float, "max_samples": int},
    "model": {"lookback": int, "gru_units": int, "lstm_units": int, "dense_units": int,
              "dropout_rate": float},
    "train": {"batch_size": int, "max_epochs": int, "patience": int, "learning_rate": float},
    "daily_steps_per_month": int,
    "output_dir": str,
    "seed": int,
    "jobs": int,
}
_REQUIRED = ("target", "datasets", "split", "split/train_end", "split/test_start",
             "split/test_end", "output_dir")
_KINDS = {dict: "a mapping", list: "a non-empty list", str: "a string",
          int: "an integer", float: "a number"}


def _check_layout(node, layout, where: str = "") -> None:
    """Raise an InputError naming the key path (``split/test_end``) of the
    first unknown key, missing required key, or value of the wrong type."""
    kind = type(layout) if isinstance(layout, (dict, list)) else layout
    # a bool is no number, and a number field takes an int
    fits = not isinstance(node, bool) and isinstance(
        node, (int, float) if kind is float else kind
    )
    if not fits or (kind is list and not node):
        raise InputError(
            f"config key {where or '<root>'}: expected {_KINDS[kind]}, got {node!r}"
        )
    prefix = f"{where}/" if where else ""
    if kind is list:
        for i, item in enumerate(node):
            _check_layout(item, layout[0], f"{prefix}{i}")
    elif kind is dict:
        for key in node:
            if key not in layout:
                raise InputError(f"config key {prefix}{key}: unknown key")
        for key, sub in layout.items():
            if key in node:
                _check_layout(node[key], sub, prefix + key)
            elif prefix + key in _REQUIRED:
                raise InputError(f"config key {prefix}{key}: required key missing")


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
    """Parse, check, and resolve an experiment config file.

    Dataset and output paths in the file are taken relative to the
    file's directory; flag overrides are taken relative to the caller's
    working directory.  Returns the config plus the normalized document
    (for hashing into the manifest).
    """
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise InputError(f"cannot parse {path}: {exc}")
    doc = _stringify_dates(doc)
    _check_layout(doc, _LAYOUT)

    base = Path(path).resolve().parent

    def resolve(p):
        if p is None:
            return None
        return p if Path(p).is_absolute() else str(base / p)

    datasets = doc["datasets"]
    split = dict(doc["split"])
    fields = {
        k: doc[k]
        for k in ("frequencies", "leads", "variants", "daily_steps_per_month", "seed", "jobs")
        if k in doc
    }
    fields.update(doc.get("model", {}))
    for key, value in doc.get("discovery", {}).items():
        fields["discovery_max_lag" if key == "max_lag" else key] = value
    for key, value in (("seed", seed), ("jobs", jobs)):
        if value is not None:
            fields[key] = value
    config = ExperimentConfig(
        target=doc["target"],
        split=SplitSpec(
            train_end=_parse_date(split.pop("train_end")),
            test_range=(
                _parse_date(split.pop("test_start")),
                _parse_date(split.pop("test_end")),
            ),
            **split,  # what is left: validation_fraction, if given
        ),
        output_dir=(
            output_dir if output_dir is not None else resolve(doc["output_dir"])
        ),
        daily_path=resolve(datasets.get("daily")),
        monthly_path=resolve(datasets.get("monthly")),
        train=TrainConfig(**doc.get("train", {})),
        **fields,
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
        config.seed,
        [config_file] + [config.path_for(f) for f in config.panels()],
        list(report.artifacts) + [str(manifest_path)],
        config=doc,
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
@click.option("--max-lag", type=int, default=DEFAULT_GRAPH_MAX_LAG, show_default=True)
@click.option("--timesteps", "-T", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--frequency",
    type=click.Choice([f.value for f in Frequency]),
    default=DEFAULT_FREQUENCY.value,
    show_default=True,
)
@click.option("--start-date", default=DEFAULT_START.isoformat(), show_default=True)
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
    _write_manifest(
        manifest, seed, [graph_path] if graph_path else [], [csv_path, graph_json]
    )
    click.echo(
        f"wrote {csv_path} ({dataset.n_timesteps} x {dataset.n_variables}) "
        f"and {graph_json} ({len(graph.links)} links)"
    )


if __name__ == "__main__":
    main()
