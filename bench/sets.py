"""Sets of runs: each run in a fresh subprocess, saved, summarized, compared.

A *set* is a JSON file ``{"runs": [detail, ...]}`` holding the ``detail``
line of every run.  ``compare`` pairs two sets' untraced runs by workload
and seed and judges each (workload, metric) with :func:`bench.stats.verdict`.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import END_TO_END
from .stats import MIN_PAIRS, quartiles, spread, verdict

#: the window BENCHMARK.json's run_seconds names.
DEFAULT_SECONDS = 20.0

#: seconds one run may take; a full run takes about 25.
RUN_TIMEOUT = 900


def run_child(
    checkout: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    echo: bool = True,
) -> Tuple[int, Optional[Dict]]:
    """One run of one workload in a fresh interpreter inside ``checkout``."""
    command = [
        sys.executable, "-m", "bench", "run",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:g}",
        "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    process = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT
    )
    if echo:
        sys.stdout.write("".join(process.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(process.stderr)
        sys.stdout.flush()
    detail = None
    for line in process.stdout.splitlines():
        if line.startswith("detail "):
            detail = json.loads(line[len("detail ") :])
    return process.returncode, detail


def save(path: Path, runs: List[Dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n", "utf-8")


def load(path: Path) -> List[Dict]:
    return json.loads(Path(path).read_text("utf-8"))["runs"]


def values(runs: Iterable[Dict], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and metric in run["metrics"]
    ]


def summary(runs: Sequence[Dict]) -> List[str]:
    """One line per (workload, metric): median, quartiles, spread, count."""
    lines = [
        f"{'workload':<10} {'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>7} {'runs':>4}"
    ]
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    for workload in workloads:
        metrics = list(
            dict.fromkeys(m for run in runs if run["workload"] == workload for m in run["metrics"])
        )
        for metric in metrics:
            found = values(runs, workload, metric)
            q1, _, q3 = quartiles(found)
            lines.append(
                f"{workload:<10} {metric:<48} {statistics.median(found):>12.6g} "
                f"{q1:>12.6g} {q3:>12.6g} {spread(found):>7.3f} {len(found):>4}"
            )
    return lines


def alternate(base: Path, change: Path) -> Tuple[List[Dict], List[Dict], int]:
    """Run :data:`~bench.stats.MIN_PAIRS` base/change pairs of every workload
    at the default window, alternating which side runs first, each pair on
    its own seed.  Returns both sets and the number of runs that exited
    non-zero."""
    from .workloads import WORKLOADS

    runs: Dict[str, List[Dict]] = {"base": [], "change": []}
    failures = 0
    for workload in WORKLOADS:
        for pair in range(MIN_PAIRS):
            sides = [("base", base), ("change", change)]
            if pair % 2:
                sides.reverse()
            for side, checkout in sides:
                code, detail = run_child(checkout, workload, pair + 1, DEFAULT_SECONDS, echo=False)
                failures += code != 0
                if detail is not None:
                    runs[side].append(detail)
                print(f"{workload} pair {pair + 1} {side}: exit {code}", flush=True)
    return runs["base"], runs["change"], failures


def judge(base: Sequence[Dict], change: Sequence[Dict]) -> List[Dict]:
    """Verdict rows for every end-to-end metric both sets report, by workload."""
    rows = []
    workloads = list(dict.fromkeys(run["workload"] for run in base if not run["trace"]))
    for workload in workloads:
        by_seed = {
            run["seed"]: run for run in change if run["workload"] == workload and not run["trace"]
        }
        paired = [
            (run, by_seed[run["seed"]])
            for run in base
            if run["workload"] == workload and not run["trace"] and run["seed"] in by_seed
        ]
        if not paired:
            continue
        for metric in END_TO_END.values():
            if not all(metric.name in b["metrics"] and metric.name in c["metrics"] for b, c in paired):
                continue
            row = verdict(
                metric,
                [b["metrics"][metric.name]["value"] for b, _ in paired],
                [c["metrics"][metric.name]["value"] for _, c in paired],
            )
            row["workload"] = workload
            rows.append(row)
    return rows


def render(rows: Sequence[Dict]) -> List[str]:
    lines = [
        f"{'workload':<10} {'metric':<16} {'verdict':<10} {'wins':>7}  "
        f"{'base median [q1, q3]':<36} {'change median [q1, q3]':<36} unit"
    ]
    for row in rows:
        base, change = (
            f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"
            for side in (row["base"], row["change"])
        )
        lines.append(
            f"{row['workload']:<10} {row['metric']:<16} {row['verdict']:<10} "
            f"{row['wins']:>3}/{row['pairs']:<3}  {base:<36} {change:<36} {row['unit']}"
        )
    return lines
