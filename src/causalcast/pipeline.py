"""Experiment orchestration: preprocess, discover, train, evaluate.

One :func:`run_experiment` call walks the full roster: for each
listed frequency, discover causal drivers on the training rows
(as required by the requested variants), then train and score one model
per (variant, lead) cell.  Cells are independent: a ``CausalcastError``
or ``OSError`` in one is recorded and the rest proceed (any other
exception is a bug and propagates), and with ``jobs > 1`` they run in a
process pool whose workers run numpy's BLAS on one thread each.
Reports, graphs, and checkpoints land in the configured output
directory, and every random draw descends from the one root seed, so
identical configs yield byte-identical report CSVs.
"""

from __future__ import annotations

import bisect
import csv
import ctypes
import functools
import glob
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from enum import Enum
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
from .errors import CausalcastError, InputError, at_least, is_integer
from .granger import mvgc_test
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
from .pcmci import DEFAULT_MAX_SAMPLES, run_pcmci_plus
from .stats import DEFAULT_ALPHA, DEFAULT_MAX_LAG, check_alpha


class FeatureMethod(str, Enum):
    """How a forecaster's input variables were chosen; doubles as the
    experiment variant name."""

    VANILLA = "vanilla"
    GC = "gc"
    PCMCI_PLUS = "pcmci+"
    DPCMCI_PLUS = "dpcmci+"


# what :func:`discover` runs, named as in the graph JSON's "method"
DISCOVERY_METHODS = ("mvgc", "pcmci+")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _paired(pred, obs) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    o = np.asarray(obs, dtype=np.float64).reshape(-1)
    if p.shape != o.shape:
        raise CausalcastError(
            f"prediction/observation length mismatch: {p.shape[0]} vs {o.shape[0]}"
        )
    if p.shape[0] == 0:
        raise InputError("metrics need at least one sample")
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
        raise CausalcastError("R² undefined: observations are constant")
    ss_res = float(np.sum((p - o) ** 2))
    return 1.0 - ss_res / ss_tot


def percentage_metrics(rmse_value: float, mae_value: float, obs) -> tuple[float, float]:
    """Errors as percent of the mean observation (the report's % columns)."""
    o = np.asarray(obs, dtype=np.float64).reshape(-1)
    if o.shape[0] == 0:
        raise InputError("metrics need at least one sample")
    center = float(np.mean(o))
    if center == 0.0:
        raise CausalcastError("percentage metrics undefined: observation mean is zero")
    return 100.0 * rmse_value / center, 100.0 * mae_value / center


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

# the floor of each count only ExperimentConfig owns: ModelConfig checks
# the layer sizes, and the leads are checked one by one
_COUNT_FLOORS = (
    ("discovery_max_lag", 1), ("daily_steps_per_month", 1), ("max_samples", 0),
    ("seed", 0), ("jobs", 1),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's roster and settings.  ``frequencies``, the panels
    with cells, default to each with a path, and ``variants`` to each with
    a cell and a path for every panel it reads (:meth:`panels`)."""

    target: str
    split: SplitSpec
    output_dir: str
    daily_path: str | None = None
    monthly_path: str | None = None
    frequencies: tuple[Frequency, ...] = ()
    lookback: int = ModelConfig.lookback
    leads: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    variants: tuple[FeatureMethod, ...] = ()
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
        for name, least in _COUNT_FLOORS:
            at_least(name, getattr(self, name), least)
        if not self.leads or not all(is_integer(l) and l >= 1 for l in self.leads):
            raise InputError(
                f"leads must be a non-empty list of integers >= 1, got {list(self.leads)}"
            )
        object.__setattr__(self, "leads", tuple(int(l) for l in self.leads))
        if self.daily_path is None and self.monthly_path is None:
            raise InputError("at least one of daily/monthly datasets required")
        freqs = _members(Frequency, self.frequencies, "frequencies")
        object.__setattr__(self, "frequencies", freqs or tuple(
            f for f in Frequency if self.path_for(f) is not None
        ))
        variants = _members(FeatureMethod, self.variants, "variants")
        object.__setattr__(self, "variants", variants or tuple(
            v for v in FeatureMethod
            if self._sources(v) and None not in map(self.path_for, self._sources(v))
        ))
        for key in ("leads", "variants", "frequencies"):  # else a cell runs twice
            if len(set(getattr(self, key))) != len(getattr(self, key)):
                raise InputError(f"duplicate {key}")
        for v in self.variants:
            if not self._sources(v):
                frequencies = [f.value for f in self.frequencies]
                raise InputError(f"variant {v.value!r} has no cell at frequencies {frequencies}")
        for f in self.panels():
            if self.path_for(f) is None:
                raise InputError(f"the roster reads the {f.value} panel: no dataset path given")
        check_alpha(self.gc_alpha, "gc_alpha")
        check_alpha(self.pcmci_alpha, "pcmci_alpha")
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
        read = {*self.frequencies, *(p for v in self.variants for p in self._sources(v))}
        return tuple(f for f in Frequency if f in read)

    def _sources(self, variant: FeatureMethod) -> list[Frequency]:
        """The discovery panel of each of ``variant``'s cells, if any."""
        return [d[1] for f in self.frequencies if (d := _discovery(variant, f))]

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
                raise InputError("negative error metric")
            if rec.r2 > 1.0:
                raise InputError("r2 above 1")

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
    """``values`` as members of ``enum``; an unknown one is an InputError
    that names the config ``key``."""
    try:
        return tuple(enum(v) for v in values)
    except ValueError as exc:
        raise InputError(f"{key}: {exc}; choose from {[m.value for m in enum]}")


# the thread-count entry points of numpy's OpenBLAS, by build: numpy 2's
# scipy-openblas, numpy 1's 64-bit-integer and its 32-bit-integer builds
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles under ``numpy.libs``; None if it bundles none (its BLAS is
    another library, or one this cannot steer)."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))):
        lib = ctypes.CDLL(path)  # numpy loaded it: this only looks it up
        for name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                return get, put
    return None


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs now; None if numpy's BLAS
    is not OpenBLAS."""
    lib = _openblas()
    return None if lib is None else int(lib[0]())


def pin_blas_threads() -> int | None:
    """Run numpy's OpenBLAS on one thread in this process; returns the
    thread count in force (None, and nothing changed, if numpy's BLAS is
    not OpenBLAS).

    Every CLI command and every ``--jobs`` worker calls this.  Cells run
    side by side then take one core each instead of competing for them.
    OpenBLAS splits a large product or factorization among its threads,
    and the split orders the sums, so one thread also makes every
    artifact independent of the core count and ``OPENBLAS_NUM_THREADS``.
    Library calls keep the caller's setting.
    """
    lib = _openblas()
    if lib is not None:
        lib[1](1)
    return blas_threads()


def derive_seed(root: int, label: str) -> int:
    """Stable per-stage child seed from the one root seed."""
    digest = hashlib.sha256(f"{root}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def prepare(raw: TimeSeriesDataset, split: SplitSpec, trains: bool = True):
    """Impute ``raw`` cut at ``split.train_end``; return the imputed
    training rows, the normalization statistics fit on them, and the
    whole series normalized with them.  A panel no cell trains on
    (``trains`` false) gets its training rows only, and None for the
    other two."""
    stop = bisect.bisect_right(raw.timestamps, split.train_end)
    if not stop:
        raise InputError(f"no rows at or before train_end {split.train_end.isoformat()}")
    if not trains:
        return impute(raw.rows(0, stop)), None, None
    full = impute(raw, split.train_end)
    train_rows = full.rows(0, stop)
    stats = fit_normalization(train_rows)
    return train_rows, stats, apply_normalization(full, stats)


def fit_cell(
    config: ExperimentConfig,
    freq: Frequency,
    variant: FeatureMethod,
    features: tuple[str, ...],
    lead: int,
    normalized: TimeSeriesDataset,
    stats: NormalizationStats,
    seed: int,
) -> tuple[Checkpoint, LagWindowSet, TrainHistory]:
    """Train one ``variant`` forecaster on ``features`` of the normalized
    series (the target among them).

    Windows -> chronological split -> init -> train, all seeded by
    ``seed``.  Returns (checkpoint, test windows, training history).
    """
    lead_steps = config.lead_steps(freq, lead)
    windows = build_lag_windows(
        normalized, features, lookback=config.lookback, lead=lead_steps
    )
    train_w, val_w, test_w = split_windows(windows, config.split)
    model = init_model(config.model_config(len(features)), seed=seed)
    train_config = replace(config.train, seed=seed)
    model, history = train(model, train_w, val_w, train_config)
    checkpoint = Checkpoint(
        model=model,
        features=features,
        target=config.target,
        lead=lead,
        lead_steps=lead_steps,
        frequency=freq,
        normalization=stats,
        train_config=train_config,
        method=variant.value,
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
) -> tuple[tuple[str, ...], list[Path]]:
    """Run one discovery method on ``dataset`` and export its graph.

    ``method`` is "mvgc" or "pcmci+"; ``max_samples`` bounds PCMCI+ only.
    Writes ``<prefix>.json`` (the panel's ``frequency`` after ``method``)
    and ``<prefix>.dot``; returns the target's drivers and those paths.
    """
    if method == "mvgc":
        result = mvgc_test(dataset, max_lag=max_lag, alpha=alpha)
    elif method == "pcmci+":
        result = run_pcmci_plus(
            dataset, max_lag=max_lag, pc_alpha=alpha, max_samples=max_samples
        )
    else:
        raise InputError(
            f"unknown discovery method {method!r}; choose from {list(DISCOVERY_METHODS)}"
        )
    doc = {"method": method, "frequency": dataset.frequency.value, **result.to_dict()}
    json_path, dot_path = Path(f"{prefix}.json"), Path(f"{prefix}.dot")
    json_path.write_text(json.dumps(doc, indent=2) + "\n")
    dot_path.write_text(result.to_dot())
    return result.drivers(dataset.target_name), [json_path, dot_path]


def cell_inputs(method, drivers, found_on, panel) -> tuple[FeatureMethod, tuple[str, ...]]:
    """The variant and input columns of a cell that trains on ``panel``
    with the ``drivers`` (target included) that ``method`` found on the
    ``found_on`` panel (None if unknown): no method (vanilla) takes every
    column, MVGC drivers are gc, daily PCMCI+ drivers on a monthly panel
    dpcmci+ on the monthly columns, and other PCMCI+ drivers pcmci+."""
    if method is None:
        return FeatureMethod.VANILLA, panel.variable_names
    if method == "mvgc":
        return FeatureMethod.GC, tuple(drivers)
    if found_on is Frequency.DAILY and panel.frequency is Frequency.MONTHLY:
        return FeatureMethod.DPCMCI_PLUS, tuple(v for v in panel.variable_names if v in drivers)
    return FeatureMethod.PCMCI_PLUS, tuple(drivers)


def _discover_drivers(config: ExperimentConfig, datasets: dict, out: Path):
    """What each (frequency, variant) cell found, as (discovery method,
    drivers or the error it raised, panel it ran on); the artifact files
    discovery writes; and each discovery run's wall time.

    Each (method, panel) pair the roster needs runs :func:`discover` once.
    ``datasets`` are the imputed, un-normalized training rows; both tests
    are invariant to per-variable affine rescaling, so normalization would
    change nothing but the stored statistics.
    """
    cells = [(f, v, *d) for f in config.frequencies for v in config.variants
             if (d := _discovery(v, f))]
    runs: dict[tuple[str, Frequency], tuple[str, ...] | Exception] = {}
    artifacts: list[str] = []
    timings: list[dict] = []
    for method, source in dict.fromkeys((m, s) for _, _, m, s in cells if m):
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
        seconds = time.perf_counter() - start
        timings.append({"method": method, "frequency": source.value, "seconds": seconds})
    found = {(f, v): (m, runs.get((m, s), ()), s) for f, v, m, s in cells}
    return found, artifacts, timings


def _discovery(variant: FeatureMethod, frequency: Frequency):
    """The discovery method (None for vanilla) and panel whose drivers
    ``variant`` trains on at ``frequency``; None if it has no cell there."""
    if variant is FeatureMethod.DPCMCI_PLUS:
        return ("pcmci+", Frequency.DAILY) if frequency is Frequency.MONTHLY else None
    return {FeatureMethod.VANILLA: None, FeatureMethod.GC: "mvgc"}.get(variant, "pcmci+"), frequency


def _run_cell(
    config: ExperimentConfig,
    freq: Frequency,
    variant: FeatureMethod,
    found: tuple[str | None, tuple[str, ...] | Exception, Frequency],
    lead: int,
    normalized: TimeSeriesDataset,
    stats: NormalizationStats,
    out_dir: str,
) -> dict:
    """Train and score one (frequency, variant, lead) cell on the inputs
    that :func:`cell_inputs` makes of what it ``found``.

    Module-level so a process pool can pickle it.  A failed cell's
    outcome is its labels and ``error``; a trained one's is its
    ``record``, ``checkpoint`` path, and ``training`` and ``timing``
    entries, both labelled.
    """
    cell = {"frequency": freq.value, "variant": variant.value, "lead": lead}
    method, drivers, found_on = found
    try:
        if isinstance(drivers, Exception):
            raise drivers
        _, features = cell_inputs(method, drivers, found_on, normalized)
        seed = derive_seed(config.seed, f"{freq.value}:{variant.value}:lead{lead}")
        start = time.perf_counter()
        checkpoint, test_w, history = fit_cell(
            config, freq, variant, features, lead, normalized, stats, seed
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
            "features": list(features),
            "n_train": history.n_train,
            "n_val": history.n_val,
            "best_epoch": history.best_epoch,
            "stopped_epoch": history.stopped_epoch,
            "validation_loss": list(history.validation_loss),
        },
        "timing": {**cell, "train_s": trained - start, "predict_s": predicted - trained,
                   "blas_threads": blas_threads()},
    }


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Execute the full experiment roster and write all artifacts.

    Emits ``report.csv`` / ``report.json`` plus per-frequency
    ``r2_series_<frequency>.csv``, a causal-graph JSON/DOT pair per
    discovery run, one checkpoint per trained cell, and ``timings.json``
    (the wall time of each load, discovery run and cell, and the BLAS
    threads each cell ran with, kept out of every other file so that they
    stay byte-identical across reruns), all under ``config.output_dir``.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    # (training rows, stats, normalized series) per panel the roster reads,
    # the last two for panels whose cells train; driver selection sees the
    # training rows only, never the test range
    prepared: dict[Frequency, tuple] = {}
    loads = []
    for freq in config.panels():
        start = time.perf_counter()
        raw = load_csv(config.path_for(freq), config.target, freq)
        loaded = time.perf_counter()
        trains = freq in config.frequencies and any(_discovery(v, freq) for v in config.variants)
        prepared[freq] = prepare(raw, config.split, trains)
        loads.append({
            "frequency": freq.value,
            "load_s": loaded - start,
            "prepare_s": time.perf_counter() - loaded,
        })

    train_rows = {freq: rows for freq, (rows, _, _) in prepared.items()}
    found, artifacts, discovery = _discover_drivers(config, train_rows, out)

    cells = [
        (config, freq, variant, result, lead, normalized, stats, str(out))
        for (freq, variant), result in found.items()
        for _, stats, normalized in [prepared[freq]]
        for lead in config.leads
    ]
    if config.jobs > 1 and len(cells) > 1:
        # imported here: it costs every command's start-up, and --jobs 1 never pools
        from concurrent.futures import ProcessPoolExecutor

        # workers pin themselves: under spawn or forkserver they do not
        # inherit the parent's setting
        with ProcessPoolExecutor(max_workers=config.jobs, initializer=pin_blas_threads) as pool:
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
