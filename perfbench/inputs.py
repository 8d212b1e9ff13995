"""Seeded benchmark inputs, built only through the public ``causalcast.synth`` API.

Every panel and config a workload needs is written from the workload seed
(`smoke`: from the seeds in its config's header), so one seed always gives
byte-identical input files.  The program under test receives only the
files written here.

The `paper` workload has one planted graph, drawn from a fixed graph
seed; the workload seed draws the simulated series.  A new graph per seed
would change the number of drivers, and with it how much work discovery
and training do, by far more than the run-to-run noise, so seeds could
not be compared.  `smoke` uses the documented panels of configs/smoke.yaml
as they are: its config stops training early, so the epochs it runs, and
its wall time, follow the series drawn (8.2-18.5 s over five series seeds
of the same graph, against 8-11 s between fresh processes on one input).
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np

from causalcast.data import save_csv
from causalcast.pipeline import derive_seed
from causalcast.synth import PlantedGraph, generate_var, random_planted_graph

START = dt.date(1979, 1, 1)

# the `causalcast synth` seeds in the header of configs/smoke.yaml
# (monthly panel and graph, daily panel), and the dense graph's seed
SMOKE_SEEDS = (7, 8)
PAPER_GRAPH_SEED = 0

# Paper-scale panel shape: 11 variables, links up to lag 21, a 540-month
# monthly panel (1979-2023) and an 8000-step daily panel.
PAPER_N = 11
PAPER_MAX_LAG = 21
PAPER_CROSS_LINKS = 22
PAPER_MONTHS = 540
PAPER_DAYS = 8000
MAX_SPECTRAL_RADIUS = 0.99

# paper-shape forecaster (64/128/64 units, lookback 21, batch 64) and the
# epoch cap of the `paper` workload; patience equals the cap, so every
# cell runs exactly PAPER_EPOCHS epochs whatever its validation curve.
PAPER_MODEL = {"lookback": 21, "gru_units": 64, "lstm_units": 128, "dense_units": 64, "dropout_rate": 0.2}
PAPER_EPOCHS = 2
PAPER_BATCH = 64

def dense_planted_graph() -> PlantedGraph:
    """Dense, autocorrelated planted graph of the `paper` workload.

    Every variable has a lag-1 self-link; PAPER_CROSS_LINKS further links
    join distinct variables at lags 1..PAPER_MAX_LAG.  Draws whose
    companion spectral radius reaches MAX_SPECTRAL_RADIUS are rejected.
    """
    rng = np.random.default_rng(derive_seed(PAPER_GRAPH_SEED, "paper-graph"))
    variables = tuple(f"v{i}" for i in range(PAPER_N))
    pool = [
        (i, j, lag)
        for i in range(PAPER_N)
        for j in range(PAPER_N)
        if i != j
        for lag in range(1, PAPER_MAX_LAG + 1)
    ]
    while True:
        links = [(v, v, 1, float(rng.uniform(0.3, 0.6))) for v in variables]
        for k in rng.choice(len(pool), size=PAPER_CROSS_LINKS, replace=False):
            i, j, lag = pool[k]
            coef = float(rng.uniform(0.15, 0.35) * rng.choice([-1.0, 1.0]))
            links.append((variables[i], variables[j], lag, coef))
        graph = PlantedGraph(variables=variables, links=tuple(links))
        if graph.spectral_radius() < MAX_SPECTRAL_RADIUS:
            return graph


def _panel(graph: PlantedGraph, T: int, seed: int, frequency: str, path: Path) -> None:
    save_csv(generate_var(graph, T, seed, frequency=frequency, start=START), path)


def _graph_record(graph: PlantedGraph, path: Path) -> dict:
    graph.save(path)
    return {"path": path.name, "spectral_radius": graph.spectral_radius(), **graph.to_dict()}


def smoke_inputs(work: Path, config_text: str) -> dict:
    """The two panels the header of configs/smoke.yaml makes with
    ``causalcast synth`` (graph and monthly series at seed 7, daily series
    at seed 8), plus the config itself."""
    graph = random_planted_graph(6, 6, derive_seed(SMOKE_SEEDS[0], "graph"), max_lag=3)
    _panel(graph, 420, derive_seed(SMOKE_SEEDS[0], "series"), "monthly", work / "smoke_monthly.csv")
    _panel(graph, 3000, derive_seed(SMOKE_SEEDS[1], "series"), "daily", work / "smoke_daily.csv")
    (work / "smoke.yaml").write_text(config_text)
    return {
        "graph": _graph_record(graph, work / "smoke_monthly.graph.json"),
        "config": "smoke.yaml",
    }


def paper_inputs(seed: int, work: Path) -> dict:
    """The 540-month and 8000-day panels of the dense graph, and the
    `paper` experiment config over them."""
    graph = dense_planted_graph()
    _panel(graph, PAPER_MONTHS, derive_seed(seed, "monthly"), "monthly", work / "monthly.csv")
    _panel(graph, PAPER_DAYS, derive_seed(seed, "daily"), "daily", work / "daily.csv")
    config = {
        "target": graph.variables[-1],
        "datasets": {"daily": "daily.csv", "monthly": "monthly.csv"},
        "frequencies": ["monthly"],
        "split": {
            "train_end": "2013-12-31",
            "validation_fraction": 0.15,
            "test_start": "2014-01-01",
            "test_end": "2023-12-31",
        },
        "leads": [1],
        "variants": ["vanilla", "gc", "pcmci+", "dpcmci+"],
        "discovery": {"max_lag": PAPER_MAX_LAG, "gc_alpha": 0.05, "pcmci_alpha": 0.05, "max_samples": PAPER_DAYS},
        "model": PAPER_MODEL,
        "train": {"batch_size": PAPER_BATCH, "max_epochs": PAPER_EPOCHS, "patience": PAPER_EPOCHS, "learning_rate": 0.001},
        "output_dir": "out",
        "seed": seed,
    }
    (work / "paper.yaml").write_text(json.dumps(config, indent=2) + "\n")
    return {
        "target": graph.variables[-1],
        "graph": _graph_record(graph, work / "planted.graph.json"),
        "config": "paper.yaml",
    }
