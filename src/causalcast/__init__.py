"""causalcast: causality-driven time-series forecasting.

Discover a target's causal drivers with multivariate Granger causality
or PCMCI+, train recurrent forecasters restricted to those drivers, and
compare them against an all-features baseline across lead times.
"""

__version__ = "0.1.0"

from .data import (
    Frequency,
    LagWindowSet,
    NormalizationStats,
    SplitSpec,
    TimeSeriesDataset,
    aggregate_daily_to_monthly,
    apply_normalization,
    build_lag_windows,
    fit_normalization,
    impute,
    invert_normalization,
    load_csv,
    save_csv,
    split_windows,
)
from .errors import CausalcastError, InputError
from .granger import GrangerResult, mvgc_test
from .nn import (
    Checkpoint,
    ModelConfig,
    RecurrentModel,
    TrainConfig,
    TrainHistory,
    init_model,
    load_checkpoint,
    model_forward,
    parameter_count,
    predict,
    save_checkpoint,
    train,
)
from .pcmci import CausalGraph, CausalLink, run_pcmci_plus
from .pipeline import (
    EvalRecord,
    EvalReport,
    ExperimentConfig,
    FeatureMethod,
    derive_seed,
    mae,
    percentage_metrics,
    r2,
    rmse,
    run_experiment,
)
from .synth import PlantedGraph, generate_var, random_planted_graph

__all__ = [
    "__version__",
    "CausalcastError",
    "CausalGraph",
    "CausalLink",
    "Checkpoint",
    "EvalRecord",
    "EvalReport",
    "ExperimentConfig",
    "FeatureMethod",
    "Frequency",
    "GrangerResult",
    "InputError",
    "LagWindowSet",
    "ModelConfig",
    "NormalizationStats",
    "PlantedGraph",
    "RecurrentModel",
    "SplitSpec",
    "TimeSeriesDataset",
    "TrainConfig",
    "TrainHistory",
    "aggregate_daily_to_monthly",
    "apply_normalization",
    "build_lag_windows",
    "derive_seed",
    "fit_normalization",
    "generate_var",
    "impute",
    "init_model",
    "invert_normalization",
    "load_checkpoint",
    "load_csv",
    "mae",
    "model_forward",
    "mvgc_test",
    "parameter_count",
    "percentage_metrics",
    "predict",
    "r2",
    "random_planted_graph",
    "rmse",
    "run_experiment",
    "run_pcmci_plus",
    "save_checkpoint",
    "save_csv",
    "split_windows",
    "train",
]
