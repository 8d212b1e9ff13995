"""Golden check of the bundled smoke experiment: one SHA-256 over every
artifact that must stay byte-identical, pinned on the numeric stack it
was made on.

A refactor or a speed-up of the numerical code must leave the smoke
run's report, R-squared series, checkpoints and graphs byte-identical;
this test holds it to that.  A change meant to alter those files pins
the digest that the failure prints, and says why in CHANGES.md.
Another Python, numpy or BLAS build, or another OpenBLAS kernel set
(chosen at run time for the CPU), may round differently, so there the
test skips and names what differs.
"""

import ctypes
import glob
import hashlib
import os
import platform
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from causalcast.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml"

# the stack SMOKE_DIGEST was made on
PINNED_STACK = {
    "python": "3.11.7",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "openblas_core": "SkylakeX",
}
SMOKE_DIGEST = "3a8dbfab598661599c1a293f6e547018208fcb60a12b166bfc956432ac76ce74"


def openblas_core():
    """The kernel set numpy's OpenBLAS chose for this CPU; None if numpy's
    BLAS is not OpenBLAS."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))):
        lib = ctypes.CDLL(path)  # numpy loaded it: this only looks it up
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def numeric_stack() -> dict:
    """This process's entries of PINNED_STACK.  The BLAS entries are read
    only on the pinned numpy: numpy before 1.26 has no ``show_config``
    dicts."""
    stack = {"python": platform.python_version(), "numpy": np.__version__}
    if stack["numpy"] == PINNED_STACK["numpy"]:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stack.update(blas=f"{blas['name']} {blas['version']}", openblas_core=openblas_core())
    return stack


def header_commands(config: Path) -> list[list[str]]:
    """The ``causalcast`` commands in the comment header of ``config``,
    continued lines joined, as argument lists without the program name."""
    lines, pending = [], ""
    for line in config.read_text().splitlines():
        if not line.startswith("#"):
            break
        pending += line.lstrip("#").strip()
        if pending.endswith("\\"):
            pending = pending[:-1]
        else:
            lines.append(pending)
            pending = ""
    return [shlex.split(line)[1:] for line in lines if line.startswith("causalcast ")]


def artifacts_digest(out: Path) -> tuple[str, list[str]]:
    """SHA-256 over the named byte-identical artifacts of an experiment's
    output directory, each with its name and size, in name order."""
    paths = sorted(
        [out / "report.csv", *out.glob("r2_series_*.csv"), *out.glob("model_*.json"),
         *out.glob("graph_*_pcmci.*"), *out.glob("granger_*.*")]
    )
    sha = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        sha.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return sha.hexdigest(), [p.name for p in paths]


def test_smoke_experiment_matches_its_golden_digest(tmp_path, monkeypatch):
    stack = numeric_stack()
    differs = {k: v for k, v in stack.items() if v != PINNED_STACK[k]}
    if differs:
        pytest.skip("golden digest pinned on another numeric stack: " + ", ".join(
            f"{k} {v} here, {PINNED_STACK[k]} pinned" for k, v in differs.items()))
    shutil.copy(CONFIG, tmp_path / "smoke.yaml")
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    commands = header_commands(CONFIG)
    assert [c[0] for c in commands] == ["synth", "synth"]
    for args in [*commands, ["experiment", "smoke.yaml"]]:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    digest, names = artifacts_digest(tmp_path / "out")
    assert len([n for n in names if n.startswith("model_")]) == 24
    assert names[-2:] == ["r2_series_monthly.csv", "report.csv"]
    assert {"granger_monthly.json", "granger_monthly.dot", "graph_monthly_pcmci.json",
            "graph_monthly_pcmci.dot", "graph_daily_pcmci.json",
            "graph_daily_pcmci.dot"} <= set(names)
    assert digest == SMOKE_DIGEST, f"smoke artifacts changed: digest {digest}"
