"""The benchmark's traced run, ``perfbench/child.py trace``, on a tiny experiment.

The tracer times each phase by swapping the module attribute the caller
looks up, and the benchmark counts a wrapper it cannot put back as failed
operations.  So a change to the wrapped calls, or to how the pipeline
reaches them, has to show up here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from causalcast.cli import main

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """\
target: v2
datasets:
  daily: daily.csv
  monthly: monthly.csv
frequencies: [monthly]
split:
  train_end: 1990-12-31
  validation_fraction: 0.15
  test_start: 1991-01-01
  test_end: 1995-12-31
leads: [1]
variants: [vanilla, gc, pcmci+, dpcmci+]
discovery:
  max_lag: 3
model: {lookback: 4, gru_units: 3, lstm_units: 4, dense_units: 3, dropout_rate: 0.1}
train: {batch_size: 16, max_epochs: 2, patience: 2, learning_rate: 0.01}
output_dir: out
seed: 0
"""


def _synth(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output


def _experiment(tmp_path, env, out, *prefix):
    args = ["experiment", "exp.yaml", "--jobs", "1", "--output-dir", out]
    proc = subprocess.run(
        [sys.executable, *prefix, *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return (tmp_path / out / "report.csv").read_bytes()


def test_traced_experiment_at_tiny_shape(tmp_path):
    _synth("synth", "--n-vars", "3", "--n-links", "3", "--max-lag", "2",
           "-T", "200", "--seed", "0", "-o", tmp_path / "monthly")
    _synth("synth", "--graph", tmp_path / "monthly.graph.json", "-T", "1500",
           "--seed", "1", "--frequency", "daily", "-o", tmp_path / "daily")
    (tmp_path / "exp.yaml").write_text(CONFIG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    spans_path = tmp_path / "spans.json"
    traced = _experiment(
        tmp_path, env, "traced", str(ROOT / "perfbench" / "child.py"), "trace", str(spans_path)
    )
    plain = _experiment(tmp_path, env, "plain", "-m", "causalcast")
    assert traced == plain and plain.count(b"\n") == 5  # header and 4 cells

    trace = json.loads(spans_path.read_text())
    assert trace["exit_code"] == 0
    assert trace["restored"] == trace["wrapped"]
    spans = trace["spans"]
    assert not [s for s in spans if s.get("details_missing")]
    # each of the two panels is loaded once, then imputed in one pass, so
    # the benchmark's data.load_csv_s and data.impute_s time real work
    data = [s["name"] for s in spans if s["name"] in ("load_csv", "impute")]
    assert data == ["load_csv", "impute"] * 2
    # one PCMCI+ run on the monthly panel (pcmci+), one on the daily (dpcmci+)
    runs = [k for k, s in enumerate(spans) if s["name"] == "run_pcmci_plus"]
    assert len(runs) == 2
    for k in runs:
        phases = [s["name"] for s in spans if s["parent"] == k]
        assert phases.count("pc1_condition_selection") == 3
        assert phases.count("contemporaneous_phase") == 1
