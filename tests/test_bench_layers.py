"""The benchmark's layer run, ``perfbench/layers.py``, at a tiny shape.

The benchmark runs that script in a subprocess and stops at its first
failure, so a change to the ``nn`` calls it makes has to show up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from causalcast.cli import main

ROOT = Path(__file__).resolve().parents[1]

METRICS = {
    "nn.gru_fwd_cold_ms",
    "nn.gru_fwd_ms",
    "nn.lstm_fwd_cold_ms",
    "nn.lstm_fwd_ms",
    "nn.step_ms",
    "nn.adam_ms",
    "nn.infer512_ms",
    "nn.step_mflop",
    "nn.step_gflops",
    "granger.mvgc_cold_s",
    "granger.mvgc_warm_s",
    "machine.dgemm_gflops",
    "machine.cores",
    "machine.blas_threads",
}


def test_layer_run_at_tiny_shape(tmp_path):
    result = CliRunner().invoke(main, [
        "synth", "--n-vars", "3", "--n-links", "3", "--max-lag", "2",
        "-T", "200", "--seed", "0", "-o", str(tmp_path / "panel"),
    ])
    assert result.exit_code == 0, result.output
    shape = {
        "features": 3, "batch": 4, "lookback": 4,
        "gru_units": 3, "lstm_units": 4, "dense_units": 3, "dropout_rate": 0.2,
        "panel": "panel.csv", "target": "v2", "frequency": "monthly", "max_lag": 2,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layers.py"), json.dumps(shape)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)["metrics"]) == METRICS
