"""Run one workload: set up, measure a closed-loop window, check, report.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
``BENCHMARK.json`` lists untraced, every per-layer metric traced.  Every
metric is computed over the whole window.  The line before it, starting
``detail``, carries every metric the workload reports plus run facts.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import ROOT
from .layers import OP_SPAN, ORDINAL, TARGETS, layer_metrics
from .metrics import END_TO_END, LISTED, PER_LAYER
from .stats import MIN_BEYOND, percentile, reportable
from .workloads import WORKLOADS, Workload

#: set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPS = 5


class Sample(NamedTuple):
    """One finished operation: how long it took, whether it wrote, and
    whether it succeeded."""

    took_ms: float
    write: bool
    ok: bool


@dataclass
class Window:
    """What the clients did between the window's start and end."""

    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    records: List[Tuple[int, object, object]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def writes(self) -> int:
        return sum(1 for sample in self.samples if sample.write)

    @property
    def throughput(self) -> float:
        return len(self.samples) / self.elapsed

    def latencies(self, write: bool) -> List[float]:
        return [s.took_ms for s in self.samples if s.ok and s.write == write]


def run_window(workload: Workload, system, seconds: float, execute=None) -> Window:
    """Closed loop: ``workload.clients`` threads each send their next
    operation when the previous one returns, from one shared stream, until
    ``seconds`` have passed and the current block is complete."""
    execute = execute or workload.execute
    stream = workload.ops()
    lock = threading.Lock()
    issued = 0
    window = Window()
    started = time.perf_counter()
    deadline = started + seconds

    def next_op():
        nonlocal issued
        with lock:
            if issued % workload.block == 0 and time.perf_counter() >= deadline:
                return None
            issued += 1
            return issued, next(stream)

    def client() -> None:
        samples, records, errors = [], [], []
        while True:
            item = next_op()
            if item is None:
                break
            index, op = item
            begun = time.perf_counter()
            ok = True
            try:
                output = execute(system, op)
            except Exception as exc:  # an operation's failure is a result, not a crash
                ok = False
                errors.append(f"op {index} ({op.key}): {type(exc).__name__}: {exc}")
            ended = time.perf_counter()
            samples.append(Sample((ended - begun) * 1000.0, op.kind == "write", ok))
            if ok and workload.keep_outputs:
                records.append((index, op, output))
        with lock:
            window.samples.extend(samples)
            window.records.extend(records)
            window.errors.extend(errors)

    threads = [threading.Thread(target=client) for _ in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.elapsed = time.perf_counter() - started
    window.attempted = issued
    window.failed = sum(1 for sample in window.samples if not sample.ok)
    window.records.sort(key=lambda record: record[0])
    return window


@dataclass
class Measurement:
    setup_s: List[float]
    window: Window
    counters: Dict[str, float]
    mismatches: List[str]
    peak_rss_mb: float
    worker_rss_mb: float
    spans: Optional[Tuple[Dict, Dict]] = None


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def measure(workload: Workload, seconds: float, reps: int, tracer=None) -> Measurement:
    """Set up ``reps`` times (timing each, keeping the last system), run
    one window, then read counters and run the gate outside it."""
    setup_s: List[float] = []
    system = None
    for _ in range(reps):
        if system is not None:
            workload.close(system)
            system = None
        inputs = workload.inputs()
        gc.collect()
        begun = time.perf_counter()
        system = workload.setup(inputs)
        setup_s.append(time.perf_counter() - begun)
    try:
        before = workload.counters(system)
        gc.collect()
        execute = None
        if tracer is not None:
            execute = tracer.wrap(OP_SPAN, workload.execute)
            tracer.open_window()
        window = run_window(workload, system, seconds, execute)
        if tracer is not None:
            tracer.close_window()
        peak = _rss_mb(resource.RUSAGE_SELF)
        after = workload.counters(system)
        mismatches = workload.check(system, window.records)
    finally:
        workload.close(system)
    counters = {name: after[name] - before.get(name, 0) for name in after}
    counters.update({f"end:{name}": value for name, value in after.items()})
    window.failed += int(counters.get("restarts", 0))
    return Measurement(
        setup_s=setup_s,
        window=window,
        counters=counters,
        mismatches=mismatches,
        peak_rss_mb=peak,
        worker_rss_mb=_rss_mb(resource.RUSAGE_CHILDREN),
        spans=(tracer.snapshot(), tracer.worker_snapshot()) if tracer else None,
    )


def end_to_end(workload: Workload, result: Measurement) -> Dict[str, float]:
    """Every end-to-end metric this workload reports."""
    window = result.window
    reads = window.latencies(write=False) or [0.0]
    metrics = {
        "throughput_ops_s": window.throughput,
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": result.peak_rss_mb,
        "error_rate": window.failed / window.attempted,
    }
    for percent in workload.percentiles:
        metrics[f"latency_p{percent}_ms"] = percentile(reads, percent)
    if "write_p50_ms" in workload.extras:
        writes = window.latencies(write=True) or [0.0]
        metrics["write_p50_ms"] = percentile(writes, 50)
        metrics["write_p90_ms"] = percentile(writes, 90)
    if "worker_rss_mb" in workload.extras:
        metrics["worker_rss_mb"] = result.worker_rss_mb
    return metrics


def _notes(workload: Workload, window: Window) -> List[str]:
    """Percentiles reported on fewer than MIN_BEYOND samples beyond them."""
    series = [("latency", False, workload.percentiles)]
    if "write_p50_ms" in workload.extras:
        series.append(("write", True, (50, 90)))
    notes = []
    for name, write, percents in series:
        count = len(window.latencies(write))
        for percent in sorted(set(percents) - set(reportable(percents, count))):
            notes.append(
                f"{name}_p{percent}_ms rests on {count} samples, fewer than "
                f"{MIN_BEYOND} beyond it"
            )
    return notes


def _traced(workload: Workload, seconds: float) -> Measurement:
    """The same measurement with every layer entry point wrapped."""
    from .trace import Tracer, install

    # where the workers write their spans; removed after the run
    out_dir = ROOT / f".bench_trace-{os.getpid()}"
    out_dir.mkdir()
    try:
        tracer = Tracer(out_dir, ordinal=ORDINAL)
        install(tracer, TARGETS)
        return measure(workload, seconds, 1, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Run one workload in this process, print its report, return the exit code.

    A traced run splits ``seconds`` between an untraced and a traced window,
    whose throughputs give the tracing overhead.
    """
    workload = WORKLOADS[name](seed, smoke)
    window_s = seconds / 2 if trace else seconds
    untraced = measure(workload, window_s, 1 if smoke or trace else SETUP_REPS)
    metrics, units, final = end_to_end(workload, untraced), END_TO_END, untraced
    mismatches = list(untraced.mismatches)
    if trace:
        final = _traced(workload, window_s)
        mismatches += final.mismatches
        window = final.window
        overhead = final.window.throughput / untraced.window.throughput
        metrics = layer_metrics(
            *final.spans, final.counters, window.attempted, window.writes, overhead
        )
        units = PER_LAYER
    window = final.window
    # a raised, shed or respawn-answered op is a wrong answer too
    correct = not mismatches and window.failed == 0
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for metric, value in metrics.items():
        print(f"  {metric:<48} {value:>14.6g} {units[metric].unit}")
    print(
        f"  ops {window.attempted} (writes {window.writes}, failed {window.failed}) in "
        f"{window.elapsed:.2f} s; set-up {', '.join(f'{s:.3f}' for s in final.setup_s)} s"
    )
    for note in [] if trace else _notes(workload, window):
        print(f"  note: {note}")
    for line in mismatches[:20]:
        print(f"  MISMATCH: {line}")
    for line in window.errors[:5]:
        print(f"  ERROR: {line}")
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": correct,
        "ops": window.attempted,
        "writes": window.writes,
        "failed": window.failed,
        "elapsed_s": window.elapsed,
        "metrics": {m: {"value": v, "unit": units[m].unit} for m, v in metrics.items()},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    reported = metrics if trace else {m: metrics[m] for m in LISTED}
    result = {
        "correct": correct,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {m: {"value": v, "unit": units[m].unit} for m, v in reported.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
