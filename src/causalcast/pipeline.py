"""Experiment orchestration: preprocess, discover, train, evaluate.

One :func:`run_experiment` call walks the full roster: for each
listed frequency, discover causal drivers on the training rows
(as required by the requested variants), then train and score one model
per (variant, lead) cell.  Cells are independent: a ``CausalcastError``
or ``OSError`` in one is recorded and the rest proceed (any other
exception is a bug and propagates), and with ``jobs > 1`` they run in a
process pool.  Reports, graphs, and checkpoints land in the configured
output directory, and every random draw descends from the one root
seed, so identical configs yield byte-identical report CSVs.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Frequency,
    LagWindowSet,
    NormalizationStats,
    SplitSpec,
    TimeSeriesDataset,
    apply_normalization,
    build_lag_windows,
    fit_normalization,
    impute,
    invert_normalization,
    load_csv,
    split_windows,
)
from .errors import (
    CausalcastError,
    ConfigError,
    DegeneratePercentage,
    DegenerateR2,
    EmptySplit,
    InvalidArgument,
    ShapeError,
    check_integers,
    is_integer,
)
from .granger import FeatureMethod, FeatureSet, mvgc_dot, mvgc_test, results_to_dict, select_features_gc
from .nn import (
    Checkpoint,
    ModelConfig,
    TrainConfig,
    TrainHistory,
    init_model,
    predict,
    save_checkpoint,
    train,
)
from .pcmci import DEFAULT_MAX_SAMPLES, check_max_samples, run_pcmci_plus, select_features_pcmci
from .stats import DEFAULT_ALPHA, DEFAULT_MAX_LAG, check_alpha, check_max_lag

VARIANTS = (
    FeatureMethod.VANILLA,
    FeatureMethod.GC,
    FeatureMethod.PCMCI_PLUS,
    FeatureMethod.DPCMCI_PLUS,
)

# what :func:`discover` runs, named as in the graph JSON's "method"
DISCOVERY_METHODS = ("mvgc", "pcmci+")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _paired(pred, obs) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    o = np.asarray(obs, dtype=np.float64).reshape(-1)
    if p.shape != o.shape:
        raise ShapeError(
            f"prediction/observation length mismatch: {p.shape[0]} vs {o.shape[0]}"
        )
    if p.shape[0] == 0:
        raise InvalidArgument("metrics need at least one sample")
    return p, o


def rmse(pred, obs) -> float:
    p, o = _paired(pred, obs)
    return float(np.sqrt(np.mean((p - o) ** 2)))


def mae(pred, obs) -> float:
    p, o = _paired(pred, obs)
    return float(np.mean(np.abs(p - o)))


def r2(pred, obs) -> float:
    """1 - SS_res/SS_tot with SS_tot about the observation mean."""
    p, o = _paired(pred, obs)
    center = np.mean(o)
    ss_tot = float(np.sum((o - center) ** 2))
    if ss_tot == 0.0:
        raise DegenerateR2("observations are constant")
    ss_res = float(np.sum((p - o) ** 2))
    return 1.0 - ss_res / ss_tot


def percentage_metrics(rmse_value: float, mae_value: float, obs) -> tuple[float, float]:
    """Errors as percent of the mean observation (the report's % columns)."""
    o = np.asarray(obs, dtype=np.float64).reshape(-1)
    if o.shape[0] == 0:
        raise InvalidArgument("metrics need at least one sample")
    center = float(np.mean(o))
    if center == 0.0:
        raise DegeneratePercentage("observation mean is zero")
    return 100.0 * rmse_value / center, 100.0 * mae_value / center


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

# ExperimentConfig's integer fields; the leads are checked one by one
_INTEGER_FIELDS = (
    "lookback", "discovery_max_lag", "daily_steps_per_month", "max_samples",
    "gru_units", "lstm_units", "dense_units", "seed", "jobs",
)


@dataclass(frozen=True)
class ExperimentConfig:
    target: str
    split: SplitSpec
    output_dir: str
    daily_path: str | None = None
    monthly_path: str | None = None
    frequencies: tuple[Frequency, ...] = ()
    lookback: int = ModelConfig.lookback
    leads: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    variants: tuple[FeatureMethod, ...] = VARIANTS
    gc_alpha: float = DEFAULT_ALPHA
    pcmci_alpha: float = DEFAULT_ALPHA
    discovery_max_lag: int = DEFAULT_MAX_LAG
    daily_steps_per_month: int = 30
    max_samples: int = DEFAULT_MAX_SAMPLES
    gru_units: int = ModelConfig.gru_units
    lstm_units: int = ModelConfig.lstm_units
    dense_units: int = ModelConfig.dense_units
    dropout_rate: float = ModelConfig.dropout_rate
    train: TrainConfig = TrainConfig()
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        check_integers(self, _INTEGER_FIELDS, ConfigError)
        if not self.leads or not all(is_integer(l) and l >= 1 for l in self.leads):
            raise ConfigError(
                f"leads must be a non-empty list of integers >= 1, got {list(self.leads)}"
            )
        object.__setattr__(self, "leads", tuple(int(l) for l in self.leads))
        object.__setattr__(
            self, "variants", _members(FeatureMethod, self.variants, "variants")
        )
        if not self.variants:
            raise ConfigError("variants must be non-empty")
        if self.daily_path is None and self.monthly_path is None:
            raise ConfigError("at least one of daily/monthly datasets required")
        # frequencies = which datasets get trained/reported on; a dataset
        # outside the roster is still available to discovery (dpcmci+)
        freqs = _members(Frequency, self.frequencies, "frequencies")
        if not freqs:
            freqs = tuple(f for f in Frequency if self.path_for(f) is not None)
        object.__setattr__(self, "frequencies", freqs)
        for key in ("leads", "variants", "frequencies"):  # else a cell runs twice
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise ConfigError(f"duplicate {key}")
        for f in self.frequencies:
            if self.path_for(f) is None:
                raise ConfigError(
                    f"frequency {f.value!r} listed but no dataset path given"
                )
        if FeatureMethod.DPCMCI_PLUS in self.variants:
            if Frequency.MONTHLY not in self.frequencies:
                raise ConfigError(
                    f"variant {FeatureMethod.DPCMCI_PLUS.value!r} trains on "
                    "monthly data: monthly dataset required"
                )
            if self.daily_path is None:
                raise ConfigError(
                    f"variant {FeatureMethod.DPCMCI_PLUS.value!r} discovers "
                    "features on daily data: daily dataset required"
                )
        if self.daily_steps_per_month < 1:
            raise ConfigError("daily_steps_per_month must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        check_alpha(self.gc_alpha, "gc_alpha")
        check_alpha(self.pcmci_alpha, "pcmci_alpha")
        check_max_lag(self.discovery_max_lag)
        check_max_samples(self.max_samples)
        self.model_config(feature_count=1)  # ModelConfig owns the layer rules

    def model_config(self, feature_count: int) -> ModelConfig:
        """The forecaster's layout for ``feature_count`` input variables."""
        return ModelConfig(
            feature_count=feature_count,
            lookback=self.lookback,
            gru_units=self.gru_units,
            lstm_units=self.lstm_units,
            dense_units=self.dense_units,
            dropout_rate=self.dropout_rate,
        )

    def path_for(self, frequency: Frequency) -> str | None:
        return (
            self.daily_path
            if frequency is Frequency.DAILY
            else self.monthly_path
        )

    def panels(self) -> tuple[Frequency, ...]:
        """The panels the roster reads, daily first: each listed
        frequency's, and each variant's discovery panel."""
        read = {_discovery_panel(v, f) for f in self.frequencies for v in _roster(self, f)}
        return tuple(f for f in Frequency if f in read)

    def lead_steps(self, frequency: Frequency, lead: int) -> int:
        """Lead times are stated in months; daily data needs them in steps."""
        if frequency is Frequency.DAILY:
            return lead * self.daily_steps_per_month
        return lead


@dataclass(frozen=True)
class EvalRecord:
    frequency: str
    variant: str
    lead: int
    rmse: float
    mae: float
    rmse_pct: float
    mae_pct: float
    r2: float
    n_test: int


# the report's columns, in the CSV's order
REPORT_COLUMNS = tuple(f.name for f in fields(EvalRecord))


@dataclass(frozen=True)
class EvalReport:
    records: tuple[EvalRecord, ...]
    failures: tuple[dict, ...] = ()
    artifacts: tuple[str, ...] = ()
    # one entry per trained cell: its sample counts, best and stopped
    # epoch, and validation curve (report.json only, never the CSV)
    training: tuple[dict, ...] = ()

    def __post_init__(self):
        for rec in self.records:
            if not (rec.rmse >= 0.0 and rec.mae >= 0.0):
                raise InvalidArgument("negative error metric")
            if rec.r2 > 1.0:
                raise InvalidArgument("r2 above 1")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for rec in self.records:
            writer.writerow(repr(v) if isinstance(v, float) else v for v in astuple(rec))
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "records": [asdict(rec) for rec in self.records],
            "failures": list(self.failures),
            "training": list(self.training),
            "artifacts": list(self.artifacts),
        }

    def r2_series_csv(self, frequency: str) -> str:
        """Plot-ready lead-vs-R2 table, one column per variant."""
        records = [rec for rec in self.records if rec.frequency == frequency]
        variants = list(dict.fromkeys(rec.variant for rec in records))
        cell = {(rec.lead, rec.variant): repr(rec.r2) for rec in records}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lead"] + variants)
        for lead in sorted({rec.lead for rec in records}):
            writer.writerow([lead] + [cell.get((lead, v), "") for v in variants])
        return buf.getvalue()


def _members(enum, values, key: str) -> tuple:
    """``values`` as members of ``enum``; an unknown one is a ConfigError
    that names the config ``key``."""
    try:
        return tuple(enum(v) for v in values)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}; choose from {[m.value for m in enum]}")


def derive_seed(root: int, label: str) -> int:
    """Stable per-stage child seed from the one root seed."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def prepare(raw: TimeSeriesDataset, split: SplitSpec):
    """Impute ``raw`` cut at ``split.train_end``; return the imputed
    training rows, the normalization statistics fit on them, and the
    whole series normalized with them."""
    full = impute(raw, split.train_end)
    stop = bisect.bisect_right(full.timestamps, split.train_end)
    if not stop:
        raise EmptySplit(f"no rows at or before train_end {split.train_end.isoformat()}")
    train_rows = full.rows(0, stop)
    stats = fit_normalization(train_rows)
    return train_rows, stats, apply_normalization(full, stats)


def fit_cell(
    config: ExperimentConfig,
    freq: Frequency,
    features: FeatureSet,
    lead: int,
    normalized: TimeSeriesDataset,
    stats: NormalizationStats,
    seed: int,
) -> tuple[Checkpoint, LagWindowSet, TrainHistory]:
    """Train one forecaster on ``features`` of the normalized series.

    Windows -> chronological split -> init -> train, all seeded by
    ``seed``.  Returns (checkpoint, test windows, training history).
    """
    lead_steps = config.lead_steps(freq, lead)
    windows = build_lag_windows(
        normalized, features.features, lookback=config.lookback, lead=lead_steps
    )
    train_w, val_w, test_w = split_windows(windows, config.split)
    model = init_model(config.model_config(len(features.features)), seed=seed)
    train_config = replace(config.train, seed=seed)
    model, history = train(model, train_w, val_w, train_config)
    checkpoint = Checkpoint(
        model=model,
        features=features.features,
        target=config.target,
        lead=lead,
        lead_steps=lead_steps,
        frequency=freq,
        normalization=stats,
        train_config=train_config,
        method=features.method.value,
    )
    return checkpoint, test_w, history


def score(checkpoint: Checkpoint, windows: LagWindowSet) -> EvalRecord:
    """Predict ``windows`` (normalized), map back to physical units, and
    compute the report's metrics."""
    ck = checkpoint
    pred = invert_normalization(
        predict(ck.model, windows.inputs), ck.normalization, ck.target
    )
    obs = invert_normalization(windows.targets, ck.normalization, ck.target)
    rmse_value = rmse(pred, obs)
    mae_value = mae(pred, obs)
    rmse_pct, mae_pct = percentage_metrics(rmse_value, mae_value, obs)
    return EvalRecord(
        frequency=ck.frequency.value,
        variant=ck.method,
        lead=ck.lead,
        rmse=rmse_value,
        mae=mae_value,
        rmse_pct=rmse_pct,
        mae_pct=mae_pct,
        r2=r2(pred, obs),
        n_test=windows.n_samples,
    )


def discover(
    dataset: TimeSeriesDataset,
    method: str,
    prefix,
    max_lag: int,
    alpha: float,
    max_samples: int,
) -> tuple[FeatureSet, list[Path]]:
    """Run one discovery method on ``dataset`` and export its graph.

    ``method`` is "mvgc" or "pcmci+"; ``max_samples`` bounds PCMCI+ only.
    Writes ``<prefix>.json`` and ``<prefix>.dot`` and returns the target's
    drivers (target included) with those two paths.
    """
    if method == "mvgc":
        results = mvgc_test(dataset, max_lag=max_lag, alpha=alpha)
        doc = results_to_dict(results, dataset, max_lag=max_lag, alpha=alpha)
        dot = mvgc_dot(doc)
        features = select_features_gc(results, dataset)
    elif method == "pcmci+":
        graph = run_pcmci_plus(
            dataset, max_lag=max_lag, pc_alpha=alpha, max_samples=max_samples
        )
        doc, dot = graph.to_dict(), graph.to_dot()
        features = select_features_pcmci(graph, dataset.target_name)
    else:
        raise InvalidArgument(
            f"unknown discovery method {method!r}; choose from {list(DISCOVERY_METHODS)}"
        )
    json_path, dot_path = Path(f"{prefix}.json"), Path(f"{prefix}.dot")
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    dot_path.write_text(dot)
    return features, [json_path, dot_path]


def _discover_features(config: ExperimentConfig, datasets: dict, out: Path):
    """FeatureSet (or caught error) per (frequency, variant), the artifact
    files discovery writes, and each discovery run's wall time.

    Each (method, frequency) pair runs :func:`discover` once; dpcmci+
    takes the daily PCMCI+ drivers.  ``datasets`` are the imputed,
    un-normalized training rows; both tests are invariant to per-variable
    affine rescaling, so normalization would change nothing but the
    stored statistics.
    """
    features: dict[tuple[Frequency, FeatureMethod], FeatureSet | Exception] = {}
    runs: dict[tuple[str, Frequency], FeatureSet | Exception] = {}
    artifacts: list[str] = []
    timings: list[dict] = []
    for freq in config.frequencies:
        for variant in _roster(config, freq):
            if variant is FeatureMethod.VANILLA:
                features[(freq, variant)] = FeatureSet(
                    variant, datasets[freq].variable_names
                )
                continue
            method = "mvgc" if variant is FeatureMethod.GC else "pcmci+"
            source = _discovery_panel(variant, freq)
            if (method, source) not in runs:
                if method == "mvgc":
                    prefix, alpha = f"granger_{source.value}", config.gc_alpha
                else:
                    prefix, alpha = f"graph_{source.value}_pcmci", config.pcmci_alpha
                start = time.perf_counter()
                try:
                    runs[(method, source)], paths = discover(
                        datasets[source], method, out / prefix,
                        config.discovery_max_lag, alpha, config.max_samples,
                    )
                    artifacts.extend(str(p) for p in paths)
                except CausalcastError as exc:
                    runs[(method, source)] = exc
                timings.append({
                    "method": method,
                    "frequency": source.value,
                    "seconds": time.perf_counter() - start,
                })
            fs = runs[(method, source)]
            if variant is FeatureMethod.DPCMCI_PLUS and isinstance(fs, FeatureSet):
                # daily-discovered drivers, monthly columns
                monthly = datasets[Frequency.MONTHLY].variable_names
                fs = FeatureSet(variant, tuple(v for v in monthly if v in fs.features))
            features[(freq, variant)] = fs
    return features, artifacts, timings


def _discovery_panel(variant: FeatureMethod, frequency: Frequency) -> Frequency:
    """The panel whose drivers ``variant`` uses for cells at ``frequency``."""
    return Frequency.DAILY if variant is FeatureMethod.DPCMCI_PLUS else frequency


def _roster(config: ExperimentConfig, frequency: Frequency):
    return [
        v
        for v in config.variants
        if v is not FeatureMethod.DPCMCI_PLUS or frequency is Frequency.MONTHLY
    ]


def _run_cell(
    config: ExperimentConfig,
    freq: Frequency,
    variant: FeatureMethod,
    feature_set: FeatureSet | Exception,
    lead: int,
    normalized: TimeSeriesDataset,
    stats: NormalizationStats,
    out_dir: str,
) -> dict:
    """Train and score one (frequency, variant, lead) cell.

    Module-level so a process pool can pickle it.  A failed cell's
    outcome is its labels and ``error``; a trained one's is its
    ``record``, ``checkpoint`` path, and ``training`` and ``timing``
    entries, both labelled.
    """
    cell = {"frequency": freq.value, "variant": variant.value, "lead": lead}
    try:
        if isinstance(feature_set, Exception):
            raise feature_set
        seed = derive_seed(config.seed, f"{freq.value}:{variant.value}:lead{lead}")
        start = time.perf_counter()
        checkpoint, test_w, history = fit_cell(
            config, freq, feature_set, lead, normalized, stats, seed
        )
        trained = time.perf_counter()
        record = score(checkpoint, test_w)
        predicted = time.perf_counter()
        ck_path = str(
            Path(out_dir) / f"model_{freq.value}_{variant.value}_lead{lead}.json"
        )
        save_checkpoint(ck_path, checkpoint)
    except (CausalcastError, OSError) as exc:
        # isolate the cell, keep the experiment alive; any other
        # exception is a program bug and must not pass as a failed cell
        return {**cell, "error": f"{type(exc).__name__}: {exc}"}
    return {
        "record": record,
        "checkpoint": ck_path,
        "training": {
            **cell,
            "features": list(feature_set.features),
            "n_train": history.n_train,
            "n_val": history.n_val,
            "best_epoch": history.best_epoch,
            "stopped_epoch": history.stopped_epoch,
            "validation_loss": list(history.validation_loss),
        },
        "timing": {**cell, "train_s": trained - start, "predict_s": predicted - trained},
    }


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Execute the full experiment roster and write all artifacts.

    Emits ``report.csv`` / ``report.json`` plus per-frequency
    ``r2_series_<frequency>.csv``, a causal-graph JSON/DOT pair per
    discovery run, one checkpoint per trained cell, and ``timings.json``
    (the wall time of each load, discovery run and cell, kept out of
    every other file so that they stay byte-identical across reruns), all
    under ``config.output_dir``.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    # (training rows, stats, normalized series) per panel the roster reads;
    # driver selection sees the training rows only, never the test range
    prepared: dict[Frequency, tuple] = {}
    loads = []
    for freq in config.panels():
        start = time.perf_counter()
        raw = load_csv(config.path_for(freq), config.target, freq)
        loaded = time.perf_counter()
        prepared[freq] = prepare(raw, config.split)
        loads.append({
            "frequency": freq.value,
            "load_s": loaded - start,
            "prepare_s": time.perf_counter() - loaded,
        })

    train_rows = {freq: rows for freq, (rows, _, _) in prepared.items()}
    features, artifacts, discovery = _discover_features(config, train_rows, out)

    cells = [
        (config, freq, variant, features[(freq, variant)], lead, normalized, stats, str(out))
        for freq in config.frequencies
        for _, stats, normalized in [prepared[freq]]
        for variant in _roster(config, freq)
        for lead in config.leads
    ]
    if config.jobs > 1 and len(cells) > 1:
        # imported here: it costs every command's start-up, and --jobs 1 never pools
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(_run_cell, *zip(*cells)))
    else:
        outcomes = [_run_cell(*cell) for cell in cells]
    trained = [o for o in outcomes if "error" not in o]

    records = tuple(o["record"] for o in trained)
    reports = [out / name for name in ("report.csv", "report.json", "timings.json")]
    series = {
        freq.value: out / f"r2_series_{freq.value}.csv"
        for freq in Frequency
        if any(rec.frequency == freq.value for rec in records)
    }
    report = EvalReport(
        records=records,
        failures=tuple(o for o in outcomes if "error" in o),
        artifacts=(
            *artifacts,
            *(o["checkpoint"] for o in trained),
            *(str(p) for p in (*reports, *series.values())),
        ),
        training=tuple(o["training"] for o in trained),
    )
    csv_path, json_path, timings_path = reports
    csv_path.write_text(report.to_csv())
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    timings = {"datasets": loads, "discovery": discovery, "cells": [o["timing"] for o in trained]}
    timings_path.write_text(json.dumps(timings, indent=2) + "\n")
    for freq, path in series.items():
        path.write_text(report.r2_series_csv(freq))
    return report
