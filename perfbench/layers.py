"""Layer calls at one workload's model shape, in this fresh process.

    python perfbench/layers.py '<shape json>'

The shape JSON gives the model (features, batch, lookback, gru, lstm,
dense units) and a panel for MVGC (path, target, frequency, max_lag).
Prints one JSON object.  The first call of each layer in a fresh process
is reported apart from the warm median, because users pay it on every
CLI run; the step's exact matmul FLOP count and a dgemm peak measured
here put the step's rate in context.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

WARM_CALLS = 7


def _timed(fn, calls: int) -> tuple[float, float]:
    """(first call, median of the next ``calls``) in seconds."""
    times = []
    for _ in range(calls + 1):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times[0], statistics.median(times[1:])


def step_flops(F: int, B: int, T: int, G: int, L: int, D: int) -> int:
    """Exact matmul FLOPs (2 per multiply-add) of one forward+backward
    pass of the GRU -> LSTM -> dense -> head model on one batch."""
    BT = B * T
    forward = (
        2 * BT * F * 3 * G          # GRU input projection
        + 2 * BT * G * 3 * G        # GRU recurrence, T steps of B x G @ G x 3G
        + 2 * BT * G * 4 * L        # LSTM input projection
        + 2 * BT * L * 4 * L        # LSTM recurrence
        + 2 * B * L * D             # dense
        + 2 * B * D                 # head
    )
    backward = (
        2 * B * D * 2               # head weight grad, head input grad
        + 2 * B * L * D * 2         # dense weight grad, dense input grad
        + 2 * BT * 4 * L * L        # LSTM recurrent input grads
        + 2 * BT * G * 4 * L        # lstm_W grad
        + 2 * BT * L * 4 * L        # lstm_U grad
        + 2 * BT * 4 * L * G        # LSTM input grad
        + 2 * BT * 3 * G * G        # GRU recurrent input grads
        + 2 * BT * F * 3 * G        # gru_W grad
        + 2 * BT * G * 3 * G        # gru_U grad
    )
    return forward + backward


def dgemm_gflops(n: int = 1024, calls: int = 5) -> float:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    _, warm = _timed(lambda: a @ b, calls)
    return 2.0 * n ** 3 / warm / 1e9


def blas_threads() -> int:
    """OpenBLAS thread count, read from the library numpy loaded (0 if unknown)."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(shape: dict) -> dict:
    from causalcast import nn
    from causalcast.data import impute, load_csv
    from causalcast.granger import mvgc_test

    # MVGC first: in an experiment it is the first numerical call a
    # fresh process makes, so its cold call is the one users pay
    panel = impute(load_csv(shape["panel"], shape["target"], shape["frequency"]))
    mvgc_cold, mvgc_warm = _timed(
        lambda: mvgc_test(panel, max_lag=shape["max_lag"], alpha=0.05), WARM_CALLS
    )

    F, B, T = shape["features"], shape["batch"], shape["lookback"]
    G, L, D = shape["gru_units"], shape["lstm_units"], shape["dense_units"]
    model = nn.init_model(
        nn.ModelConfig(feature_count=F, lookback=T, gru_units=G, lstm_units=L, dense_units=D, dropout_rate=shape["dropout_rate"]),
        seed=0,
    )
    rng = np.random.default_rng(0)
    x = rng.standard_normal((B, T, F))
    y = rng.standard_normal(B)
    seq = rng.standard_normal((B, T, G))
    x512 = rng.standard_normal((512, T, F))
    masks = nn.draw_dropout_masks(model.config, B, np.random.default_rng(1))

    gru_cold, gru_warm = _timed(lambda: nn.gru_forward(model.params, x), WARM_CALLS)
    lstm_cold, lstm_warm = _timed(lambda: nn.lstm_forward(model.params, seq), WARM_CALLS)
    _, step = _timed(lambda: nn.backward(model, x, y, masks), WARM_CALLS)
    grads, _ = nn.backward(model, x, y, masks)
    params = {k: v.copy() for k, v in model.params.items()}
    state = nn.adam_init(params)
    _, adam = _timed(lambda: nn.adam_step(state, params, grads), WARM_CALLS)
    _, infer = _timed(lambda: nn.model_forward(model, x512), WARM_CALLS)

    mflop = step_flops(F, B, T, G, L, D) / 1e6
    info = machine_info()
    return {
        "machine": info,
        "metrics": {
            "nn.gru_fwd_cold_ms": gru_cold * 1e3,
            "nn.gru_fwd_ms": gru_warm * 1e3,
            "nn.lstm_fwd_cold_ms": lstm_cold * 1e3,
            "nn.lstm_fwd_ms": lstm_warm * 1e3,
            "nn.step_ms": step * 1e3,
            "nn.adam_ms": adam * 1e3,
            "nn.infer512_ms": infer * 1e3,
            "nn.step_mflop": mflop,
            "nn.step_gflops": mflop / (step * 1e3),
            "granger.mvgc_cold_s": mvgc_cold,
            "granger.mvgc_warm_s": mvgc_warm,
            "machine.dgemm_gflops": dgemm_gflops(),
            "machine.cores": float(info["cores"]),
            "machine.blas_threads": float(info["blas_threads"]),
        },
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
