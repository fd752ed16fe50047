"""One benchmark run: set up, check references, loop ops, report metrics.

A run sets the workload up :data:`SETUP_REPS` times and measures a batch
of ops after each set-up, ``--seconds / SETUP_REPS`` seconds per batch.
Spreading set-ups and ops over five stretches of the run samples more of
the host's slow and fast periods than one stretch would.  On a shared
host the speed of pure-Python code (most of text-scan's set-up) can
swing by a third within seconds, so a median of fewer set-ups moves
with it.
References and the oracle check run once, after the first set-up.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced
runs (``--trace 1``) alternate untraced and traced ops: the traced ones
give the per-layer breakdown, the pair gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro import obs
from repro.io.blockcache import default_cache

from perfbench import host
from perfbench.layers import DOMINANT, LAYER_METRICS, TARGETS
from perfbench.tracing import Recorder, Shims, installed, per_op_totals
from perfbench.workloads import OP_DEADLINE_S, WORKLOADS

#: Set-ups (and op batches) per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Ops per batch even when one op outlasts the batch's time.
MIN_BATCH_OPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class OpRecord:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss: int
    frames: int = 0
    windows: int = 0
    problems: List[str] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def thread_budget() -> int:
    """Threads (and connections) an op may use: ``nproc``, at least the
    main and coordinator threads net-scan needs."""
    return max(host.nproc(), 2)


def budget_problems(workload, threads_seen: int) -> List[str]:
    problems = []
    budget = thread_budget()
    if obs.active() is not None:
        problems.append("repro.obs is enabled")
    if host.children():
        problems.append("the op left child processes (one process per workload)")
    if threads_seen > budget:
        problems.append(f"{threads_seen} threads > budget {budget}")
    if workload.connections() > budget:
        problems.append(f"{workload.connections()} connections > budget {budget}")
    return problems


def run_op(workload, index: int, traced: bool, shims: Shims, recorder: Recorder) -> OpRecord:
    workload.before_op()
    cache = default_cache()
    cache.clear()
    counters = workload.counters()
    cache_before = cache.stats()
    gc.collect()
    host.reset_peak_rss()
    threads_seen = host.threads()
    result, error = None, None
    with shims if traced else contextlib.nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if traced:
                with recorder.op_span(index):
                    result = workload.op()
            else:
                result = workload.op()
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    record = OpRecord(index, traced, wall, cpu, host.peak_rss_bytes())
    threads_seen = max(threads_seen, host.threads())
    if error is not None:
        record.problems.append(f"op raised:\n{error}")
    else:
        if wall > OP_DEADLINE_S:
            record.problems.append(f"op took {wall:.1f}s > deadline {OP_DEADLINE_S}s")
        problems, record.frames, record.windows = workload.check(result)
        record.problems += problems
        record.layer.update(workload.result_counters(result))
    record.problems += budget_problems(workload, threads_seen)
    after = workload.counters()
    record.layer.update({k: after[k] - counters[k] for k in counters})
    cache_after = cache.stats()
    hits = cache_after["hits"] - cache_before["hits"]
    looked_up = hits + cache_after["misses"] - cache_before["misses"]
    record.layer["io.block_cache.hit_ratio"] = hits / looked_up if looked_up else 0.0
    return record


def op_batch(workload, seconds: float, trace: bool, recorder: Recorder,
             records: List[OpRecord]) -> None:
    """Run ops for ``seconds`` (at least :data:`MIN_BATCH_OPS`), appending
    to ``records``; odd-numbered ops are traced when ``trace``."""
    shims = Shims(TARGETS, recorder)
    before = installed(TARGETS)
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_BATCH_OPS or time.perf_counter() < deadline:
        index = len(records)
        records.append(run_op(workload, index, trace and index % 2 == 1, shims, recorder))
        done += 1
    after = installed(TARGETS)
    if any(after[key] is not before[key] for key in before):
        records[-1].problems.append("a shim was not restored after the traced ops")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def summary(values: List[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        value = values[0] if values else math.nan
        return {"n": len(values), "median": value, "q1": value, "q3": value}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def tail(walls: List[float]) -> dict:
    """The highest percentile with at least ten ops beyond it.

    With eleven ops or fewer that is the fastest op; the percentile and
    the op count are stored beside the value.
    """
    ordered = sorted(walls)
    rank = max(1, len(ordered) - 10)
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered),
            "ops": len(ordered), "beyond": len(ordered) - rank}


def end_to_end(setups: List[float], records: List[OpRecord]):
    """The end-to-end metrics of the untraced ops, and their distributions.

    Throughput and CPU time are totals over the run (work over time), so
    a run that spends part of its time on a slowed host moves them in
    proportion; the median and the tail are order statistics of the op
    latencies.
    """
    good = [r for r in records if r.ok and not r.traced]
    walls_ms = [r.wall_s * 1e3 for r in good]
    op_tail = tail(walls_ms)
    values = {
        "setup_s": statistics.median(setups),
        "frames_per_s": sum(r.frames for r in good) / sum(r.wall_s for r in good),
        "op_p50_ms": statistics.median(walls_ms),
        "op_tail_ms": op_tail["value"],
        "cpu_ms_per_op": 1e3 * statistics.fmean(r.cpu_s for r in good),
        "peak_rss_mb": max(r.peak_rss for r in good) / 1e6,
    }
    distributions = {
        "setup_s": summary(setups),
        "frames_per_s": summary([r.frames / r.wall_s for r in good]),
        "op_p50_ms": summary(walls_ms),
        "op_tail_ms": op_tail,
        "cpu_ms_per_op": summary([r.cpu_s * 1e3 for r in good]),
        "peak_rss_mb": summary([r.peak_rss / 1e6 for r in good]),
    }
    return values, distributions


def per_layer(recorder: Recorder, records: List[OpRecord]):
    """Mean per traced op of every per-layer metric (0 where absent), and
    each metric's distribution over the traced ops."""
    totals = per_op_totals(recorder.spans)
    traced = [r for r in records if r.traced and r.ok]
    rows = []
    for record in traced:
        row = dict(totals.get(record.index, {}))
        row.update(record.layer)
        tasks = row.get("runtime.task.calls", 0)
        row["runtime.wait.ms_per_task"] = (
            1e3 * row.get("runtime.wait.self_s", 0.0) / tasks if tasks else 0.0
        )
        row["runtime.wire.bytes_per_window"] = (
            row.get("runtime.wire.bytes", 0) / record.windows if record.windows else 0.0
        )
        rows.append(row)
    per_op = {
        name: [row.get(key, 0.0) for row in rows]
        for name, (_, key) in LAYER_METRICS.items()
    }
    untraced = [r.wall_s for r in records if r.ok and not r.traced]
    per_op["bench.trace_overhead_pct"] = [100.0 * (
        statistics.median(r.wall_s for r in traced) / statistics.median(untraced) - 1.0
    )]
    values = {name: statistics.fmean(series) for name, series in per_op.items()}
    return values, {name: summary(series) for name, series in per_op.items()}


def layer_shares(values: Dict[str, float]) -> Dict[str, float]:
    """Each layer's self time as a share of traced op wall time."""
    wall = values["bench.op_wall_s"]
    return {
        name[: -len(".self_s")]: values[name] / wall
        for name in values
        if name.endswith(".self_s") and values[name] > 0
    } | {"unattributed": values["bench.unattributed_s"] / wall}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def run(root: Path, name: str, seed: int, seconds: int, trace: bool) -> int:
    cls = WORKLOADS[name]
    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    stamp = host.provenance(root)
    setups: List[float] = []
    records: List[OpRecord] = []
    recorder = Recorder()
    try:
        for rep in range(SETUP_REPS):
            gc.collect()
            workload = cls(seed, work / f"setup{rep}")
            try:
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
                if rep == 0:
                    workload.references()
                    oracle = workload.oracle_problems()
                    refs, frames = workload.refs, workload.frames
                else:
                    workload.refs, workload.frames = refs, frames
                op_batch(workload, seconds / SETUP_REPS, trace, recorder, records)
                sizes = workload.sizes()
            finally:
                workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if not r.ok]
    for record in failed:
        print(f"op {record.index} failed: " + "; ".join(record.problems), file=sys.stderr)
    for problem in oracle:
        print(f"reference check failed: {problem}", file=sys.stderr)
    correct = not failed and not oracle
    attempted = len(records)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": stamp,
        "inputs": sizes,
        "ops": attempted,
        "failed_ops": len(failed),
        "failed_op_ratio": len(failed) / attempted,
        "setup_reps": len(setups),
        "setups_s": setups,
        "op_log": [
            {"index": r.index, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "frames": r.frames, "peak_rss": r.peak_rss, "ok": r.ok}
            for r in records
        ],
    }
    values: Dict[str, float] = {}
    if trace:
        units = {metric: unit for metric, (unit, _) in LAYER_METRICS.items()}
        if any(r.ok and r.traced for r in records) and any(r.ok and not r.traced for r in records):
            values, report["distributions"] = per_layer(recorder, records)
            report["layer_shares"] = shares = layer_shares(values)
            report["dominant"] = dominant(name, shares)
        (out_dir / "spans").mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(out_dir / "spans" / f"{name}-seed{seed}.jsonl")
    else:
        units = END_TO_END_UNITS
        if any(r.ok and not r.traced for r in records):
            values, report["distributions"] = end_to_end(setups, records)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    result_file = out_dir / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(report, indent=2))

    for metric, value in values.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    print(f"{name} failed_op_ratio {report['failed_op_ratio']:.6g} ratio")
    for layer, share in sorted(report.get("layer_shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"{name} share {layer} {100 * share:.1f}%")
    if "dominant" in report:
        print(f"{name} dominant {report['dominant']}")
    print("provenance " + json.dumps(
        {"workload": name, "seed": seed, **stamp, "inputs": sizes, "ops": attempted}
    ))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def dominant(name: str, shares: Dict[str, float]) -> str:
    """The predicted dominant layer group's share against the largest layer."""
    predicted = DOMINANT[name]
    group = sum(shares.get(layer, 0.0) for layer in predicted)
    layers = {k: v for k, v in shares.items() if k != "unattributed"}
    top = max(layers, key=layers.get)
    verdict = "confirmed" if top in predicted else f"mismatch: {top} {100 * layers[top]:.1f}%"
    return f"{' + '.join(predicted)} {100 * group:.1f}% ({verdict})"
