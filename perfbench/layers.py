"""The layers the traced run measures, and what each is predicted to move.

:data:`TARGETS` lists every wrapped entry point, at the place its caller
looks it up.  :data:`LAYER_METRICS` names the per-layer metrics a traced
run reports (times are self seconds per op, counts are per op).
:data:`INTERACTIONS` is the prediction table written before the first
measurement: for each layer, the end-to-end metric it should move, the
workload where it matters, and its predicted share of op wall time.
``measured`` holds the traced-run verdict: ``"confirmed"`` or the share
actually measured.
"""

from __future__ import annotations

from perfbench.tracing import Target


def _frames(args, result):
    return {"frames": len(result)}


def _kernel_frames(args, result):
    return {"frames": int(args[0].timestamp_us.size)}


def _rows(args, result):
    return {"rows": len(result)}


def _windows(args, result):
    return {"windows": len(result)}


def _fingerprint_bytes(args, result):
    # fingerprint_file returns "blake2b:<hex>:<size>".
    return {"bytes": int(result.rsplit(":", 1)[1])}


def _ledger_bytes(args, result):
    path = args[0].path
    return {"bytes": path.stat().st_size if path.exists() else 0}


TARGETS = (
    Target("io.parse", "repro.io.archive", "read_candump_columns", _frames),
    Target("io.inflate", "repro.io.blocks", "BlockReader.read_block"),
    Target("io.unfilter", "repro.io.codecs", "decode"),
    Target("io.merge", "repro.io.columnar", "ColumnTrace.merge", _rows),
    Target("core.kernel", "repro.core.engine", "scan_windows", _kernel_frames),
    Target("core.materialise", "repro.core.kernel", "WindowBlock.results", _windows),
    Target("core.materialise", "repro.core.kernel", "WindowBlock.concat"),
    Target(
        "core.inference", "repro.core.inference",
        "InferenceEngine.infer_from_windows",
    ),
    Target("runtime.task", "repro.runtime.net", "execute_task"),
    Target("runtime.encode", "repro.runtime.base", "EntropyScanSpec.encode_result"),
    Target("runtime.encode", "repro.runtime.protocol", "TaskResult.to_wire"),
    Target("runtime.decode", "repro.runtime.protocol", "TaskResult.from_wire"),
    Target("runtime.decode", "repro.runtime.base", "EntropyScanSpec.decode_result"),
    Target("runtime.wait", "repro.runtime.net", "NetExecutor.run"),
    Target(
        "fleet.fingerprint", "repro.fleet.watch", "fingerprint_file",
        _fingerprint_bytes,
    ),
    Target(
        "fleet.ledger_load", "repro.fleet.ledger", "ScanLedger.__init__",
        _ledger_bytes,
    ),
    Target("fleet.ledger_save", "repro.fleet.ledger", "ScanLedger.save", _ledger_bytes),
    Target("fleet.compact", "repro.fleet.store", "FleetStore.compact_ledgers"),
    Target("fleet.replay", "repro.core.pipeline", "DetectionReport.from_dict"),
    Target("fleet.persist", "repro.core.pipeline", "DetectionReport.to_dict"),
    Target("fleet.drift", "repro.fleet.drift", "aggregate_vehicle"),
)

#: Per-layer metric name -> (unit, source key in the per-op totals).
#: Keys ending in ``.self_s`` / ``.calls`` come from the spans; the rest
#: are span counters or program counters (see ``measure.py``).
LAYER_METRICS = {
    "io.parse.frames": ("frames/op", "io.parse.frames"),
    "io.parse.self_s": ("s/op", "io.parse.self_s"),
    "io.inflate.blocks": ("count/op", "io.inflate.calls"),
    "io.inflate.self_s": ("s/op", "io.inflate.self_s"),
    "io.unfilter.calls": ("count/op", "io.unfilter.calls"),
    "io.unfilter.self_s": ("s/op", "io.unfilter.self_s"),
    "io.merge.calls": ("count/op", "io.merge.calls"),
    "io.merge.rows": ("rows/op", "io.merge.rows"),
    "io.merge.self_s": ("s/op", "io.merge.self_s"),
    "io.block_cache.hit_ratio": ("ratio", "io.block_cache.hit_ratio"),
    "core.kernel.calls": ("count/op", "core.kernel.calls"),
    "core.kernel.frames": ("frames/op", "core.kernel.frames"),
    "core.kernel.self_s": ("s/op", "core.kernel.self_s"),
    "core.materialise.windows": ("windows/op", "core.materialise.windows"),
    "core.materialise.self_s": ("s/op", "core.materialise.self_s"),
    "core.inference.calls": ("count/op", "core.inference.calls"),
    "core.inference.self_s": ("s/op", "core.inference.self_s"),
    "runtime.task.count": ("count/op", "runtime.task.calls"),
    "runtime.task.self_s": ("s/op", "runtime.task.self_s"),
    "runtime.encode.self_s": ("s/op", "runtime.encode.self_s"),
    "runtime.decode.self_s": ("s/op", "runtime.decode.self_s"),
    "runtime.wait.self_s": ("s/op", "runtime.wait.self_s"),
    "runtime.wait.ms_per_task": ("ms/task", "runtime.wait.ms_per_task"),
    "runtime.wire.bytes": ("B/op", "runtime.wire.bytes"),
    "runtime.wire.bytes_per_window": ("B/window", "runtime.wire.bytes_per_window"),
    "runtime.retries": ("count/op", "runtime.retries"),
    "fleet.fingerprint.calls": ("count/op", "fleet.fingerprint.calls"),
    "fleet.fingerprint.bytes": ("B/op", "fleet.fingerprint.bytes"),
    "fleet.fingerprint.self_s": ("s/op", "fleet.fingerprint.self_s"),
    "fleet.ledger_load.calls": ("count/op", "fleet.ledger_load.calls"),
    "fleet.ledger_load.bytes": ("B/op", "fleet.ledger_load.bytes"),
    "fleet.ledger_load.self_s": ("s/op", "fleet.ledger_load.self_s"),
    "fleet.ledger_save.calls": ("count/op", "fleet.ledger_save.calls"),
    "fleet.ledger_save.bytes": ("B/op", "fleet.ledger_save.bytes"),
    "fleet.ledger_save.self_s": ("s/op", "fleet.ledger_save.self_s"),
    "fleet.compact.self_s": ("s/op", "fleet.compact.self_s"),
    "fleet.replay.calls": ("count/op", "fleet.replay.calls"),
    "fleet.replay.self_s": ("s/op", "fleet.replay.self_s"),
    "fleet.persist.self_s": ("s/op", "fleet.persist.self_s"),
    "fleet.drift.self_s": ("s/op", "fleet.drift.self_s"),
    "fleet.ledger.hit_ratio": ("ratio", "fleet.ledger.hit_ratio"),
    "bench.op_wall_s": ("s/op", "op.wall_s"),
    "bench.unattributed_s": ("s/op", "op.self_s"),
    "bench.trace_overhead_pct": ("%", "bench.trace_overhead_pct"),
}

#: The prediction table, recorded before the first measurement.
#: ``predicted`` is the share of op wall time on ``workload``.
INTERACTIONS = (
    dict(layer="io.parse", wraps="repro.io.log.read_candump_columns",
         moves="frames_per_s, op_p50_ms", workload="text-scan",
         predicted="~93% (55 of 59 ms per capture); absent elsewhere",
         measured='confirmed: 95.0% on text-scan'),
    dict(layer="io.inflate", wraps="BlockReader.read_block",
         moves="frames_per_s", workload="npb-scan",
         predicted="32%; small on net-scan and fleet-cycle",
         measured='confirmed: 31.7% on npb-scan; 5.7% net-scan, 1.3% fleet-cycle'),
    dict(layer="io.unfilter", wraps="repro.io.codecs.decode",
         moves="frames_per_s", workload="npb-scan", predicted="13%",
         measured='confirmed: 13.2%'),
    dict(layer="io.merge", wraps="ColumnTrace.merge",
         moves="frames_per_s", workload="npb-scan",
         predicted="38%; ~0 on single-block captures",
         measured='confirmed: 35.8%; 0 calls on single-block captures'),
    dict(layer="io.block_cache", wraps="DecodedBlockCache.stats() deltas",
         moves="op_p50_ms vs peak_rss_mb", workload="all",
         predicted="hit ratio 0 by construction",
         measured='confirmed: 0 on every workload'),
    dict(layer="core.kernel", wraps="repro.core.engine.scan_windows",
         moves="none beyond its bound", workload="npb-scan",
         predicted="8% on npb-scan, ~1% elsewhere",
         measured='confirmed: 8.9% on npb-scan; 1.9% text-scan, 2.1% net-scan, 0.5% fleet-cycle'),
    dict(layer="core.materialise", wraps="WindowBlock.results, WindowBlock.concat",
         moves="op_p50_ms", workload="npb-scan", predicted="2%",
         measured='confirmed: 2.6%'),
    dict(layer="core.inference", wraps="InferenceEngine.infer_from_windows",
         moves="op_p50_ms", workload="attacked captures", predicted="<1%",
         measured='confirmed: 0.1-0.7%'),
    dict(layer="runtime.task", wraps="repro.runtime.net.execute_task",
         moves="op_p50_ms", workload="net-scan", predicted="2%",
         measured='measured 1.1% (self time)'),
    dict(layer="runtime.encode / runtime.decode",
         wraps="EntropyScanSpec.encode_result + TaskResult.to_wire; "
               "TaskResult.from_wire + EntropyScanSpec.decode_result",
         moves="op_p50_ms, cpu_ms_per_op", workload="net-scan",
         predicted="~1% each",
         measured='confirmed: 0.8% / 0.6%'),
    dict(layer="runtime.wait", wraps="self time of NetExecutor.run",
         moves="op_p50_ms, frames_per_s", workload="net-scan",
         predicted="83%",
         measured='confirmed: 85.7% (56 ms per task)'),
    dict(layer="runtime.wire", wraps="ScanServer.stats() wire counters",
         moves="cpu_ms_per_op", workload="net-scan",
         predicted="~45 KB per task each way",
         measured='confirmed: 1.42 MB per 16-task op, ~44 KB per task each way'),
    dict(layer="runtime.retries", wraps="stats() reposted + quarantined",
         moves="failed_op_ratio", workload="net-scan", predicted="0",
         measured='confirmed: 0'),
    dict(layer="fleet.fingerprint", wraps="repro.fleet.watch.fingerprint_file",
         moves="op_p50_ms", workload="fleet-cycle",
         predicted="4% (all 192 captures re-hashed each cycle)",
         measured='measured 5.3-5.6%'),
    dict(layer="fleet.ledger_load + fleet.ledger_save",
         wraps="ScanLedger(...) / ScanLedger.save",
         moves="op_p50_ms, cpu_ms_per_op", workload="fleet-cycle",
         predicted="~80% together",
         measured='confirmed: 75.6% (save 51%, load 24.5%; '
                  '8 loads + 8 saves, ~5.8 MB each way)'),
    dict(layer="fleet.compact", wraps="FleetStore.compact_ledgers",
         moves="op_p50_ms", workload="fleet-cycle", predicted="~3%",
         measured='measured 2.3-2.5% self (its ledger loads and saves count above)'),
    dict(layer="fleet.replay / fleet.persist",
         wraps="DetectionReport.from_dict / .to_dict",
         moves="op_p50_ms", workload="fleet-cycle", predicted="6% / <1%",
         measured='confirmed: 6.2% / 0.1%'),
    dict(layer="fleet.drift", wraps="repro.fleet.drift.aggregate_vehicle",
         moves="op_p50_ms", workload="fleet-cycle", predicted="3%",
         measured='measured 4.4%'),
    dict(layer="fleet.ledger.hit_ratio", wraps="CycleResult cached / (cached + scanned)",
         moves="frames_per_s", workload="fleet-cycle", predicted="47/48",
         measured='confirmed: 0.979 (47/48)'),
    dict(layer="bench", wraps="op wall minus all self time; traced vs untraced op_p50_ms",
         moves="keeps the breakdown honest", workload="all",
         predicted="unattributed 6%; trace overhead +1.4% on npb-scan",
         measured="measured: unattributed 0.8-7.1% (npb-scan highest); "
                  "overhead +1.5% on npb-scan, within host noise elsewhere"),
)

#: The layer predicted to dominate each workload's op wall time.
DOMINANT = {
    "text-scan": ("io.parse",),
    "npb-scan": ("io.merge", "io.inflate", "io.unfilter"),
    "net-scan": ("runtime.wait",),
    "fleet-cycle": ("fleet.ledger_load", "fleet.ledger_save"),
}
