"""Benchmark of the causalcast CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a causalcast checkout; the program is used from
``src/`` as it stands.  Inputs come from the seed through the public
``causalcast.synth`` API and are written under ``.bench_work/``, which
is removed afterwards.  Each CLI command runs in a fresh child process
with ``--jobs 1``; the only concurrency is the program's own OpenBLAS
threads, and workloads never run side by side.

Workloads (see BENCHMARK.json for why each exists):
  smoke      `experiment` on configs/smoke.yaml and the two panels its
             header makes with `causalcast synth`
  paper      `experiment` at paper scale: 11-variable dense planted graph,
             540-month and 8000-day panels, 64/128/64 units, lookback 21

There are two because of run length.  One `smoke` command takes about
10 s and varies by up to a third between fresh processes on a shared
2-core host, so a run needs about a minute, five repetitions, to give a
steady median, and the time allowed for all runs of the benchmark holds
two workloads at that length.  Between them they run every layer.

With ``--trace 0`` a run repeats the workload's command until
``--seconds`` have passed (at least twice), and between repetitions runs
set-up probes: the same command, stopped at its first discovery or
training call.  It reports medians.  With ``--trace 1`` it runs the
command once untraced and once under the tracer in ``child.py``, then
the layer calls of ``layers.py``, and reports per-layer metrics.

Every run checks the program's outputs: exit codes, the number of cells
against the roster, byte-identical report and graph files across the
run's repetitions (and between traced and untraced runs), and each
discovered graph against its planted graph.  Any mismatch counts as a
failed operation.  The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

from child import PROBE_STOPPED

# The program comes from the checkout's src/, which main() puts on
# sys.path; `inputs` and `causalcast` are therefore imported inside the
# functions that need them.
ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("smoke", "paper")

MIN_REPEATS = 2      # command repetitions per run, whatever --seconds says
MIN_PROBES = 9       # set-up probes per run
# Every PCMCI+ graph must reach this F1 against its planted graph (the
# lowest over 30 seeds per workload was 0.667).  MVGC driver sets have no
# floor: with 540 months against 231 lag columns, MVGC on the `paper`
# monthly panel selects no driver at all on some seeds, which is low
# power, not a fault.
F1_FLOOR = 0.5


@dataclass
class Workload:
    work: Path
    # CLI arguments, run in `work`; "{out}" names the repetition's
    # output directory
    command: list[str]
    ops: int                    # cells in the experiment's roster
    check: Callable[[Path], "Check"]
    shape: dict                 # model shape and MVGC panel for layers.py
    inputs: dict                # what the input generator recorded


@dataclass
class Check:
    failed: int
    rmse_mean: float
    graphs: dict                # file name -> Match
    digests: dict
    cells: int


# ---------------------------------------------------------------------------
# scoring against the planted graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Match:
    """A discovered set scored against its planted counterpart."""

    method: str
    found: int
    truth: int
    hits: int

    @property
    def f1(self) -> float:
        return 2.0 * self.hits / (self.found + self.truth) if self.found + self.truth else 1.0


def pooled_f1(matches) -> float:
    """F1 over the hits, found and planted items of several matches."""
    return Match("pooled", sum(m.found for m in matches), sum(m.truth for m in matches),
                 sum(m.hits for m in matches)).f1


def _match(method: str, found: set, truth: set) -> Match:
    return Match(method, len(found), len(truth), len(found & truth))


def pcmci_match(graph_doc: dict, planted) -> Match:
    """Discovered lagged links against the planted links."""
    found = {(l["source"], l["target"], int(l["lag"])) for l in graph_doc["links"] if int(l["lag"]) >= 1}
    return _match("pcmci+", found, {(s, t, lag) for s, t, lag, _ in planted.links})


def mvgc_match(granger_doc: dict, planted, target: str) -> Match:
    """The MVGC driver set against the target's planted parents."""
    found = {r["variable"] for r in granger_doc["results"] if r["selected"]}
    return _match("mvgc", found, planted.parent_variables_of(target) - {target})


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rmse_column(csv_text: str) -> list[float]:
    return [float(row["rmse"]) for row in csv.DictReader(io.StringIO(csv_text))]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _roster_size(config: dict) -> int:
    variants = config.get("variants", ["vanilla", "gc", "pcmci+", "dpcmci+"])
    leads = config.get("leads", [1, 2, 3, 4, 5, 6])
    freqs = config.get("frequencies") or list(config["datasets"])
    return sum(
        len([v for v in variants if v != "dpcmci+" or f == "monthly"]) * len(leads)
        for f in freqs
    )


def _experiment(work: Path, config_name: str, planted, shape: dict, inputs: dict) -> Workload:
    config = yaml.safe_load((work / config_name).read_text())
    target = config["target"]
    roster = _roster_size(config)

    def check(out: Path) -> Check:
        report = json.loads((out / "report.json").read_text())
        csv_text = (out / "report.csv").read_text()
        records = len(report["records"])
        failed = roster - records if records <= roster else roster
        graphs = {}
        for path in sorted(out.glob("graph_*_pcmci.json")):
            graphs[path.name] = pcmci_match(json.loads(path.read_text()), planted)
        for path in sorted(out.glob("granger_*.json")):
            graphs[path.name] = mvgc_match(json.loads(path.read_text()), planted, target)
        digests = {p.name: _digest(p) for p in [out / "report.csv", *sorted(out.glob("gra*_*.json"))]}
        rmses = _rmse_column(csv_text)
        return Check(
            failed=failed,
            rmse_mean=statistics.fmean(rmses) if rmses else math.nan,
            graphs=graphs,
            digests=digests,
            cells=records + len(report["failures"]),
        )

    return Workload(
        work=work,
        command=["experiment", config_name, "--jobs", "1", "--output-dir", "{out}"],
        ops=roster,
        check=check,
        shape=shape,
        inputs=inputs,
    )


def build_workload(name: str, seed: int, work: Path) -> Workload:
    import inputs as gen

    if name == "smoke":
        config_text = (ROOT / "configs" / "smoke.yaml").read_text()
        info = gen.smoke_inputs(work, config_text)
        planted = gen.PlantedGraph.load(work / info["graph"]["path"])
        config = yaml.safe_load(config_text)
        model, train = config["model"], config["train"]
        shape = {
            "features": len(planted.variables),
            "batch": train["batch_size"],
            "lookback": model["lookback"],
            "gru_units": model["gru_units"],
            "lstm_units": model["lstm_units"],
            "dense_units": model["dense_units"],
            "dropout_rate": model["dropout_rate"],
            "panel": "smoke_monthly.csv",
            "target": config["target"],
            "frequency": "monthly",
            "max_lag": config["discovery"]["max_lag"],
        }
        return _experiment(work, info["config"], planted, shape, info)
    if name != "paper":
        raise ValueError(name)
    info = gen.paper_inputs(seed, work)
    planted = gen.PlantedGraph.load(work / info["graph"]["path"])
    shape = {
        "features": gen.PAPER_N,
        "batch": gen.PAPER_BATCH,
        **gen.PAPER_MODEL,
        "panel": "monthly.csv",
        "target": info["target"],
        "frequency": "monthly",
        "max_lag": gen.PAPER_MAX_LAG,
    }
    return _experiment(work, info["config"], planted, shape, info)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """Run one fresh process; returns (exit code, wall seconds, peak RSS MB).

    The wall time runs from just before the spawn to the reaping of the
    child, and the peak RSS is the child's own, from ``wait4``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _fill(args: list[str], out: str) -> list[str]:
    return [a.replace("{out}", out) for a in args]


@dataclass
class Repetition:
    wall_s: float
    peak_rss_mb: float
    failed: int
    check: Check | None


def run_command(wl: Workload, out: str, traced: bool = False) -> tuple[Repetition, dict | None]:
    """The workload's command once, in a fresh process; with ``traced``,
    also the spans the tracer wrote."""
    (wl.work / out).mkdir()
    args = _fill(wl.command, out)
    spans = wl.work / out / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans), *args]
    else:
        argv = [sys.executable, "-m", "causalcast", *args]
    code, wall, rss = run_child(argv, wl.work)
    trace = json.loads(spans.read_text()) if traced else None
    check = None
    failed = wl.ops if code != 0 else 0
    if failed == 0:
        try:
            check = wl.check(wl.work / out)
            failed = check.failed
        except (OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"outputs of {out} unreadable: {exc!r}\n")
            failed = wl.ops
    return Repetition(wall, rss, failed, check), trace


def run_probe(wl: Workload, out: str) -> float:
    (wl.work / out).mkdir()
    args = _fill(wl.command, out)
    code, wall, _ = run_child([sys.executable, str(HERE / "child.py"), "probe", *args], wl.work)
    if code != PROBE_STOPPED:
        raise RuntimeError(f"set-up probe of {args[0]} exited with {code}, not at a discovery or training call")
    return wall


def _output_failures(wl: Workload, checked: list[Check]) -> int:
    """Operations whose outputs differ from the first repetition's, or
    whose PCMCI+ graphs miss the F1 floor."""
    failed = 0
    for check in checked:
        if check.digests != checked[0].digests or any(
            m.method == "pcmci+" and m.f1 < F1_FLOOR for m in check.graphs.values()
        ):
            failed += wl.ops - check.failed
    return failed


# ---------------------------------------------------------------------------
# measured run (--trace 0)
# ---------------------------------------------------------------------------

def measure(wl: Workload, seconds: float) -> tuple[dict, dict]:
    reps: list[Repetition] = []
    probes: list[float] = []
    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        probes.append(run_probe(wl, f"probe{len(probes)}"))
        rep, _ = run_command(wl, f"out{len(reps)}")
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= MIN_REPEATS and now - t_start + (now - t_rep) > seconds:
            break
    while len(probes) < MIN_PROBES:
        probes.append(run_probe(wl, f"probe{len(probes)}"))

    checked = [r.check for r in reps if r.check is not None]
    failed = sum(r.failed for r in reps) + _output_failures(wl, checked)
    ref = checked[0] if checked else None
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
        "test_rmse_mean": ref.rmse_mean if ref else math.nan,
        "graph_f1": pooled_f1(ref.graphs.values()) if ref else math.nan,
    }
    detail = {
        "repetitions": [{"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb, "failed": r.failed} for r in reps],
        "setup_probes_s": probes,
        "graphs": {k: {**vars(m), "f1": m.f1} for k, m in ref.graphs.items()} if ref else {},
        "digests": ref.digests if ref else {},
    }
    return (wl.ops * len(reps), failed, metrics), detail


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

LAYERS = ("cli", "data", "granger", "pcmci", "stats", "nn", "pipeline")


def span_metrics(trace: dict) -> dict:
    """Per-layer metrics from the spans of one traced command."""
    spans = trace["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    child_sum = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child_sum[s["parent"]] += d
    self_time = [d - c for d, c in zip(dur, child_sum)]

    def total(*names, values=dur):
        return sum(v for s, v in zip(spans, values) if s["name"] in names)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def field_sum(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    train_s = total("train")
    epochs = field_sum("train", "stopped_epoch")
    sample_epochs = sum(s.get("n_train", 0) * s.get("stopped_epoch", 0) for s in spans if s["name"] == "train")
    predict_s = total("predict")
    n_train = count("train")
    # from the command's start (the root span) to its first library call
    first_call = next((s for s in spans if s["parent"] == 0), None)
    metrics = {
        "cli.import_s": trace["import_s"],
        "cli.config_s": first_call["start"] - spans[0]["start"] if first_call else 0.0,
        "data.load_csv_s": total("load_csv"),
        "data.impute_s": total("impute"),
        "data.windows_s": total("build_lag_windows", "split_windows"),
        "granger.mvgc_s": total("mvgc_test"),
        "granger.ols_calls": count("ols"),
        "pcmci.pc1_s": total("pc1_condition_selection"),
        "pcmci.mci_s": total("mci_test"),
        "pcmci.contemp_s": total("contemporaneous_phase"),
        "pcmci.ci_tests": count("partial_correlation"),
        "pcmci.max_cond_dim": max((s.get("cond_cols", 0) for s in spans if s["name"] == "partial_correlation"), default=0),
        "pcmci.cond_cols": field_sum("partial_correlation", "cond_cols"),
        "stats.partial_corr_s": total("partial_correlation", values=self_time),
        "stats.partial_corr_calls": count("partial_correlation"),
        "nn.train_s": train_s / n_train if n_train else 0.0,
        "nn.epochs_run": epochs,
        "nn.useful_epoch_ratio": field_sum("train", "best_epoch") / epochs if epochs else 0.0,
        "nn.sample_epochs_per_s": sample_epochs / train_s if train_s else 0.0,
        "nn.predict_s": predict_s,
        "nn.windows_per_s": field_sum("predict", "windows") / predict_s if predict_s else 0.0,
        "nn.save_ckpt_s": total("save_checkpoint"),
        "nn.ckpt_bytes": field_sum("save_checkpoint", "bytes"),
        "pipeline.self_s": total("run_experiment", values=self_time),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for s, v in zip(spans, self_time) if s["layer"] == layer)
    return metrics


def traced(wl: Workload) -> tuple[dict, dict]:
    plain, _ = run_command(wl, "plain")
    traced_rep, trace = run_command(wl, "traced", traced=True)
    checked = [r.check for r in (plain, traced_rep) if r.check is not None]
    failed = plain.failed + traced_rep.failed + _output_failures(wl, checked)
    wrapped, restored = trace["wrapped"], trace["restored"]
    if restored != wrapped:
        failed += wl.ops - traced_rep.failed

    layer = json.loads(subprocess.run(
        [sys.executable, str(HERE / "layers.py"), json.dumps(wl.shape)],
        cwd=wl.work, env=_child_env(), check=True, capture_output=True, text=True,
    ).stdout)
    metrics = span_metrics(trace)
    metrics.update(layer["metrics"])
    metrics["pipeline.cells"] = plain.check.cells if plain.check else 0
    metrics["trace.overhead_s"] = traced_rep.wall_s - plain.wall_s
    metrics["trace.wrappers_restored"] = restored
    metrics["failed_ratio"] = failed / (2 * wl.ops)
    detail = {
        "machine": layer["machine"],
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced_rep.wall_s,
        "traced_outputs_identical": bool(plain.check and traced_rep.check and plain.check.digests == traced_rep.check.digests),
        "wrappers": {"wrapped": wrapped, "restored": restored},
    }
    return (2 * wl.ops, failed, metrics), detail


def result_line(kind: str, attempted: int, failed: int, metrics: dict) -> dict:
    """The result object, with each metric's unit from BENCHMARK.json; the
    metrics must be exactly the file's ``kind`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(units) ^ set(metrics))}")
    finite = all(math.isfinite(v) for v in metrics.values())
    return {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "causalcast" / "cli.py").is_file() or not (ROOT / "configs" / "smoke.yaml").is_file():
        print(
            "error: run from the root of a causalcast checkout: "
            "src/causalcast/ and configs/smoke.yaml are missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        wl = build_workload(args.workload, args.seed, work)
        inputs_s = time.perf_counter() - t0
        (attempted, failed, metrics), detail = traced(wl) if args.trace else measure(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs": wl.inputs, "inputs_s": inputs_s, **detail}
    result = result_line("per_layer" if args.trace else "end_to_end", attempted, failed, metrics)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
