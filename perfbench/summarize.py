"""Collect benchmark runs into one trajectory file.

    python3 perfbench/summarize.py OUT.json RUN_OUTPUT...

Each RUN_OUTPUT is the saved standard output of one ``run.py`` call.  For
every workload, and separately for untraced and traced runs, OUT.json
gets each metric's median, quartiles (``statistics.quantiles(n=4)``),
spread (interquartile distance over the median), and the seeds and
count of runs behind them, plus the machine the traced runs saw.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(paths: list[str]) -> dict:
    groups: dict[tuple[str, str], dict] = {}
    for path in paths:
        lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        mode = "traced" if detail["trace"] else "untraced"
        group = groups.setdefault((detail["workload"], mode), {"seeds": [], "failed": 0, "attempted": 0, "values": {}})
        group["seeds"].append(detail["seed"])
        group["failed"] += result["failed"]
        group["attempted"] += result["attempted"]
        if "machine" in detail:
            group["machine"] = detail["machine"]
        for name, metric in result["metrics"].items():
            group["values"].setdefault(name, (metric["unit"], []))[1].append(metric["value"])

    out: dict = {}
    for (workload, mode), group in sorted(groups.items()):
        metrics = {}
        for name, (unit, values) in group["values"].items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            metrics[name] = {
                "unit": unit,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        entry = {
            "runs": len(group["seeds"]),
            "seeds": sorted(group["seeds"]),
            "attempted": group["attempted"],
            "failed": group["failed"],
            "metrics": metrics,
        }
        if "machine" in group:
            entry["machine"] = group["machine"]
        out.setdefault(workload, {})[mode] = entry
    return out


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(summarize(sys.argv[2:]), indent=2) + "\n")
