"""Run one ``causalcast`` CLI command in this fresh process, in one of two modes.

    python perfbench/child.py probe <cli args...>
    python perfbench/child.py trace <spans.json> <cli args...>

``probe`` exits the process at the first discovery or training call, so
its wall time, taken by the parent, is the command's set-up: interpreter
start, ``import causalcast.cli``, argument and config parsing, and
``load_csv`` plus ``impute`` of the inputs.

``trace`` replaces the module attributes in TRACED with timing wrappers,
runs the command to the end, puts every original back, and writes the
spans to ``spans.json``.  Spans stay in memory until the command ends.
``src/`` is not touched: the callers look each name up through its
module, so swapping the attribute is enough.  Exits with the command's
exit code.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute) pairs wrapped by `trace`.  The layer a span counts
# towards is the module that defines the wrapped function.
TRACED = (
    ("causalcast.pipeline", "load_csv"),
    ("causalcast.pipeline", "impute"),
    ("causalcast.pipeline", "mvgc_test"),
    ("causalcast.pipeline", "run_pcmci_plus"),
    ("causalcast.pipeline", "build_lag_windows"),
    ("causalcast.pipeline", "split_windows"),
    ("causalcast.pipeline", "train"),
    ("causalcast.pipeline", "predict"),
    ("causalcast.pipeline", "save_checkpoint"),
    ("causalcast.pcmci", "pc1_condition_selection"),
    ("causalcast.pcmci", "mci_test"),
    ("causalcast.pcmci", "contemporaneous_phase"),
    ("causalcast.pcmci", "partial_correlation"),
    ("causalcast.granger", "ols"),
    # the `experiment` command's call into the library, whose self time
    # is the pipeline's own
    ("causalcast.cli", "run_experiment"),
)

# `probe` stops at the first of these: the calls that begin discovery or
# training in `experiment`.  It exits with PROBE_STOPPED there, so a
# command that never reaches one of them shows as a failed probe instead
# of a set-up as long as the run.
PROBE_STOPPED = 86
FIRST_WORK = (
    ("causalcast.pipeline", "mvgc_test"),
    ("causalcast.pipeline", "run_pcmci_plus"),
    ("causalcast.pipeline", "train"),
)


def _details(name: str, args, result) -> dict:
    """Counts recorded at the span's boundary, from its arguments and result."""
    if name == "partial_correlation":
        z = args[2] if len(args) > 2 else None
        cols = 0 if z is None or getattr(z, "size", 0) == 0 else (1 if z.ndim == 1 else z.shape[1])
        return {"cond_cols": cols}
    if name == "train":
        _, history = result
        return {
            "n_train": int(args[1].n_samples),
            "best_epoch": history.best_epoch,
            "stopped_epoch": history.stopped_epoch,
        }
    if name == "predict":
        return {"windows": int(len(args[1]))}
    if name == "save_checkpoint":
        return {"bytes": Path(args[0]).stat().st_size}
    return {}


class Tracer:
    """Timing wrappers around module attributes, with a span stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.originals: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str):
        index = len(self.spans)
        self.spans.append({
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        })
        self._stack.append(index)
        return index

    def close(self, index: int, details: dict | None = None) -> None:
        self.spans[index]["end"] = time.perf_counter()
        if details:
            self.spans[index].update(details)
        self._stack.pop()

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr, None)
        if original is None:  # a later refactor may drop a name: no span
            return
        layer = original.__module__.rsplit(".", 1)[-1]
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.span(attr, layer)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(index, {"raised": True})
                raise
            try:
                details = _details(attr, args, result)
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                details = {"details_missing": True}
            tracer.close(index, details)
            return result

        self.originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> int:
        """Put every original back; returns how many are back in place."""
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        return sum(getattr(m, a) is o for m, a, o in self.originals)


def _run_cli(cli, args) -> int:
    try:
        cli.main.main(args=list(args), prog_name="causalcast", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def _stop_at_first_work() -> None:
    def stop(*args, **kwargs):
        sys.stdout.flush()
        os._exit(PROBE_STOPPED)

    for module_name, attr in FIRST_WORK:
        setattr(importlib.import_module(module_name), attr, stop)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        import causalcast.cli as cli

        _stop_at_first_work()
        return _run_cli(cli, argv[1:])
    if mode != "trace":
        raise SystemExit(f"unknown mode {mode!r}")

    out_path, args = argv[1], argv[2:]
    t0 = time.perf_counter()
    import causalcast.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    for module_name, attr in TRACED:
        tracer.wrap(importlib.import_module(module_name), attr)
    root = tracer.span("main", "cli")
    code = _run_cli(cli, args)
    tracer.close(root)
    restored = tracer.restore()
    Path(out_path).write_text(json.dumps({
        "import_s": import_s,
        "wrapped": len(tracer.originals),
        "restored": restored,
        "exit_code": code,
        "spans": tracer.spans,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
