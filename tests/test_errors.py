import datetime as dt

import pytest

from causalcast import (
    ExperimentConfig,
    PlantedGraph,
    SplitSpec,
    build_lag_windows,
    generate_var,
    mvgc_test,
    random_planted_graph,
    run_pcmci_plus,
)
from causalcast.errors import InputError

from conftest import noise_dataset

GRAPH = PlantedGraph(("a", "b"), (("a", "b", 1, 0.5),))


def experiment_config(**kw):
    split = SplitSpec(dt.date(2005, 12, 31), 0.2, (dt.date(2006, 1, 1), dt.date(2007, 1, 1)))
    return ExperimentConfig(target="v0", split=split, output_dir="out",
                            monthly_path="m.csv", **kw)


# every count setting is an integer at or above its floor, else an
# InputError that names it: never a TypeError from numpy or range
@pytest.mark.parametrize("call, message", [
    (lambda ds: run_pcmci_plus(ds, max_lag=2.5), "max_lag must be an integer, got 2.5"),
    (lambda ds: mvgc_test(ds, max_lag=2.5), "max_lag must be an integer, got 2.5"),
    (lambda ds: run_pcmci_plus(ds, max_samples=100.5),
     "max_samples must be an integer, got 100.5"),
    (lambda ds: build_lag_windows(ds, ds.variable_names, 2.5, 1),
     "lookback must be an integer, got 2.5"),
    (lambda ds: generate_var(GRAPH, 150.5, 0), "T must be an integer, got 150.5"),
    (lambda ds: random_planted_graph(3, 2.5, 0), "n_links must be an integer, got 2.5"),
    (lambda ds: random_planted_graph(3.0, 2, 0), "n_vars must be an integer, got 3.0"),
    (lambda ds: experiment_config(seed=-1), "seed must be >= 0, got -1"),
], ids=["pcmci-max-lag", "mvgc-max-lag", "pcmci-max-samples", "windows-lookback",
        "var-T", "graph-n-links", "graph-n-vars", "experiment-seed"])
def test_count_settings_are_integers_at_their_floor(call, message):
    with pytest.raises(InputError, match=message):
        call(noise_dataset(0, T=200, N=3))
