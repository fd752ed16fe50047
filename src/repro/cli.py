"""Command-line interface: ``repro-ids``.

Subcommands mirror the workflow of the paper's evaluation:

* ``simulate`` — record a clean drive to a candump/CSV trace;
* ``attack``   — record a drive with an injected attack;
* ``template`` — build a golden template from clean traces;
* ``detect``   — run the detector (and inference) over a trace;
* ``scan-archive`` — scan a whole directory of captures over a chosen
  executor backend (``--executor serial|pool|queue|net``);
* ``serve``    — run the scan-fabric TCP coordinator: accept jobs from
  ``--executor net`` scans and feed them to connected workers (no
  shared disk required);
* ``worker``   — serve shard tasks: either a shared work-queue
  directory (``--queue DIR``, filesystem fabric) or a running
  coordinator (``--connect HOST:PORT``, network fabric);
* ``status``   — live scan-fabric console: poll a coordinator
  (``--connect``) or a queue directory (``--queue-dir``) for task,
  worker and job state (``--watch`` repaints continuously);
* ``fleet``    — the persistent fleet store: ``add`` captures per
  vehicle, ``train`` per-vehicle golden templates, ``scan``
  incrementally against each vehicle's scan ledger, ``watch`` as a
  long-running daemon (with drift-triggered retraining), ``prune``
  stale ledger entries, inspect ``status``, and aggregate a drift
  ``report``;
* ``fig2`` / ``fig3`` / ``table1`` / ``stability`` / ``cost`` — regenerate
  the paper's artifacts.

Examples::

    repro-ids simulate --duration 30 --out drive.log
    repro-ids template --windows 35 --out template.json
    repro-ids attack --attack single --id 0x1A4 --freq 50 --out attack.log
    repro-ids detect --template template.json --trace attack.log --infer
    repro-ids scan-archive --template template.json --dir captures/ --workers 4
    repro-ids worker --queue /shared/q --max-idle 60
    repro-ids scan-archive --template template.json --dir captures/ \\
        --executor queue --queue-dir /shared/q
    repro-ids serve --port 7341
    repro-ids worker --connect coordinator-host:7341
    repro-ids scan-archive --template template.json --dir captures/ \\
        --executor net --connect coordinator-host:7341
    repro-ids status --connect coordinator-host:7341 --watch
    repro-ids scan-archive --template template.json --dir captures/ \\
        --metrics-out events.jsonl
    repro-ids fleet add --store fleet/ --vehicle car-a --trace drive.log
    repro-ids fleet train --store fleet/ --vehicle car-a
    repro-ids fleet scan --store fleet/
    repro-ids fleet watch --store fleet/ --interval 60
    repro-ids fleet report --store fleet/ --out fleet-report.txt
    repro-ids table1 --seeds 1 2
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence

from repro._version import __version__


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _can_id(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value <= 0x7FF:
        raise argparse.ArgumentTypeError(f"identifier {text} out of 11-bit range")
    return value


#: Default --out-of-core chunk size, mirrored from
#: repro.core.engine.DEFAULT_CHUNK_WINDOWS (kept literal so building
#: the parser never imports numpy; asserted equal in tests/test_cli.py).
DEFAULT_CHUNK_WINDOWS = 64


def _add_executor_args(cmd) -> None:
    """The runtime-backend flags every scanning command shares."""
    cmd.add_argument("--workers", type=int, default=None,
                     help="pool size (default: one per core, capped)")
    cmd.add_argument("--executor", choices=["serial", "pool", "queue", "net"],
                     default=None,
                     help="execution backend (default: pool; all backends "
                          "produce bit-identical reports)")
    cmd.add_argument("--queue-dir", type=Path, default=None,
                     help="shared queue directory (required with "
                          "--executor queue; serve it with "
                          "repro-ids worker --queue)")
    cmd.add_argument("--connect", default=None, metavar="HOST:PORT",
                     help="scan coordinator address (required with "
                          "--executor net; start one with repro-ids serve, "
                          "serve it with repro-ids worker --connect)")
    cmd.add_argument("--no-drain", "--queue-no-drain",
                     dest="queue_no_drain", action="store_true",
                     help="forbid the coordinator from executing its own "
                          "tasks: every task must be served by a worker "
                          "(bounded timeout instead of degrading to a "
                          "local scan)")
    cmd.add_argument("--out-of-core", action="store_true",
                     help="scan captures with bounded memory: lazy "
                          "(memory-mapped .npz) loading + window-aligned "
                          "chunked kernel; bit-identical reports")
    cmd.add_argument("--chunk-windows", type=int, default=None,
                     metavar="N",
                     help="detection windows per out-of-core chunk "
                          "(implies --out-of-core; default "
                          f"{DEFAULT_CHUNK_WINDOWS})")


def _add_metrics_arg(cmd) -> None:
    """The telemetry flag every instrumented command shares."""
    cmd.add_argument("--metrics-out", type=Path, default=None,
                     metavar="EVENTS.JSONL",
                     help="enable the telemetry layer for this run and "
                          "append its versioned events (stage spans, "
                          "fabric events, a final metrics snapshot) to "
                          "this JSONL file")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-ids",
        description="Bit-entropy CAN intrusion detection (SOCC 2018 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="record a clean drive")
    simulate.add_argument("--duration", type=_positive_float, default=20.0)
    simulate.add_argument("--scenario", default="city")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", type=Path, required=True)

    attack = sub.add_parser("attack", help="record a drive with an injected attack")
    attack.add_argument(
        "--attack",
        choices=["flood", "single", "multi", "weak"],
        default="single",
    )
    attack.add_argument("--id", dest="can_ids", type=_can_id, action="append",
                        help="injected identifier (repeat for multi)")
    attack.add_argument("--freq", type=_positive_float, default=50.0)
    attack.add_argument("--start", type=_positive_float, default=2.0)
    attack.add_argument("--attack-duration", type=_positive_float, default=10.0)
    attack.add_argument("--duration", type=_positive_float, default=14.0)
    attack.add_argument("--scenario", default="city")
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--out", type=Path, required=True)

    template = sub.add_parser("template", help="build a golden template")
    template.add_argument("--windows", type=int, default=35)
    template.add_argument("--window-s", type=_positive_float, default=2.0)
    template.add_argument("--alpha", type=_positive_float, default=3.0)
    template.add_argument("--seed", type=int, default=7)
    template.add_argument("--traces", type=Path, nargs="*", default=[],
                          help="clean trace files; simulated drives if omitted")
    template.add_argument("--out", type=Path, required=True)

    detect = sub.add_parser("detect", help="scan a trace with a template")
    detect.add_argument("--template", type=Path, required=True)
    detect.add_argument("--trace", type=Path, required=True)
    detect.add_argument("--infer", action="store_true",
                        help="also infer malicious-ID candidates")
    detect.add_argument("--infer-k", type=int, default=1)

    convert = sub.add_parser(
        "convert",
        help="convert a capture to the block-compressed columnar "
             "container (.npb) without materialising it",
    )
    convert.add_argument("--trace", type=Path, required=True,
                         action="append", dest="traces",
                         help="input capture (candump/CSV/.gz/.npz/.npb); "
                              "repeat to batch time-ordered captures into "
                              "one container (block-aligned per capture)")
    convert.add_argument("--out", type=Path, required=True,
                         help="output path; must end in .npb")
    convert.add_argument("--block-frames", type=int, default=None,
                         help="rows per compressed block (default: the "
                              "container's native block size)")
    convert.add_argument("--level", type=int, default=None,
                         help="zlib compression level 0-9 (default 6)")
    convert.add_argument("--codec", default=None, metavar="COL=CODEC[,...]",
                         help="force per-column codecs instead of the "
                              "automatic first-block selection, e.g. "
                              "--codec timestamp_us=delta,can_id=dict "
                              "(codecs: raw, delta, dict, shuffle)")
    convert.add_argument("--format-version", type=int, default=None,
                         choices=(1, 2),
                         help="container format version to write "
                              "(default 2; 1 = legacy all-raw)")

    inspect_p = sub.add_parser(
        "inspect",
        help="print a block container's index: per-column codec, "
             "raw/compressed bytes, ratio, block count",
    )
    inspect_p.add_argument("capture", type=Path,
                           help="a .npb block-compressed capture")
    inspect_p.add_argument("--json", dest="json_stream", action="store_true",
                           help="emit the summary as JSON")

    scan_archive = sub.add_parser(
        "scan-archive",
        help="scan a directory of captures over an executor backend",
    )
    scan_archive.add_argument("--template", type=Path, required=True)
    scan_archive.add_argument("--dir", dest="archive_dir", type=Path, required=True,
                              help="directory of candump/CSV capture files")
    scan_archive.add_argument("--recursive", action="store_true",
                              help="also scan subdirectories")
    scan_archive.add_argument("--infer", action="store_true",
                              help="infer malicious-ID candidates per alarmed capture")
    scan_archive.add_argument("--infer-k", type=int, default=1,
                              help="injected identifiers assumed per capture")
    scan_archive.add_argument("--json", dest="json_out", type=Path, default=None,
                              help="also write the full report as JSON")
    _add_executor_args(scan_archive)
    _add_metrics_arg(scan_archive)

    serve = sub.add_parser(
        "serve",
        help="run the scan-fabric TCP coordinator (jobs from --executor "
             "net scans, tasks to --connect workers; no shared disk)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: pick a free one and "
                            "print it)")
    serve.add_argument("--lease", type=_positive_float, default=300.0,
                       help="claim lease seconds: a worker silent this "
                            "long has its tasks re-posted")
    _add_metrics_arg(serve)

    worker = sub.add_parser(
        "worker",
        help="claim and run shard tasks from a queue directory "
             "(--queue) or a scan coordinator (--connect)",
    )
    worker.add_argument("--queue", type=Path, default=None,
                        help="queue directory shared with the coordinator(s)")
    worker.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="scan coordinator to serve over TCP "
                             "(a running repro-ids serve)")
    worker.add_argument("--poll", type=_positive_float, default=0.2,
                        help="seconds between polls of an idle fabric")
    worker.add_argument("--max-idle", type=_positive_float, default=None,
                        help="exit after this long with no tasks (default: serve forever)")
    worker.add_argument("--max-tasks", type=int, default=None,
                        help="exit after executing this many tasks")
    worker.add_argument("--stop-file", type=Path, default=None,
                        help="extra stop-file path besides <queue>/stop "
                             "(filesystem fabric only)")
    _add_metrics_arg(worker)

    status = sub.add_parser(
        "status",
        help="live scan-fabric console: poll a coordinator (--connect) "
             "or a queue directory (--queue-dir) for task, worker and "
             "job state",
    )
    status.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="coordinator to poll (a running repro-ids "
                             "serve)")
    status.add_argument("--queue-dir", type=Path, default=None,
                        help="filesystem queue directory to inspect")
    status.add_argument("--watch", action="store_true",
                        help="repaint continuously until interrupted")
    status.add_argument("--interval", type=_positive_float, default=2.0,
                        help="seconds between --watch polls")
    status.add_argument("--json", dest="json_stream", action="store_true",
                        help="emit the raw versioned stats document (one "
                             "JSON object per poll) instead of the console")

    fleet = sub.add_parser(
        "fleet",
        help="persistent fleet store: incremental scans and drift analytics",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_add = fleet_sub.add_parser(
        "add", help="import a capture file into a vehicle's archive"
    )
    fleet_add.add_argument("--store", type=Path, required=True,
                           help="fleet store root directory")
    fleet_add.add_argument("--vehicle", required=True, help="vehicle id")
    fleet_add.add_argument("--trace", type=Path, required=True,
                           help="capture file to import (candump/CSV, .gz ok)")
    fleet_add.add_argument("--name", default=None,
                           help="capture name in the archive (default: file name)")
    fleet_add.add_argument("--overwrite", action="store_true",
                           help="replace an existing capture of the same name")

    fleet_train = fleet_sub.add_parser(
        "train",
        help="train a vehicle's golden template from its stored captures",
    )
    fleet_train.add_argument("--store", type=Path, required=True)
    fleet_train.add_argument("--vehicle", required=True)
    fleet_train.add_argument("--window-s", type=_positive_float, default=2.0)
    fleet_train.add_argument("--alpha", type=_positive_float, default=3.0)

    fleet_scan = fleet_sub.add_parser(
        "scan",
        help="incrementally scan every vehicle against its scan ledger",
    )
    fleet_report = fleet_sub.add_parser(
        "report",
        help="aggregate per-vehicle drift series and pooled fleet metrics",
    )
    fleet_watch = fleet_sub.add_parser(
        "watch",
        help="long-running watch daemon: poll, scan incrementally, "
             "retrain drifting vehicles",
    )
    for cmd in (fleet_scan, fleet_report, fleet_watch):
        cmd.add_argument("--store", type=Path, required=True)
        cmd.add_argument("--template", type=Path, default=None,
                         help="fallback template for vehicles without one stored")
        cmd.add_argument("--window-s", type=_positive_float, default=None,
                         help="detection window (default: the window the "
                              "stored templates were trained with)")
        cmd.add_argument("--infer", action="store_true",
                         help="infer malicious-ID candidates per alarmed capture")
        cmd.add_argument("--infer-k", type=int, default=1)
        _add_executor_args(cmd)
        _add_metrics_arg(cmd)
    fleet_report.add_argument("--out", type=Path, default=None,
                              help="also write the report text to this file")
    fleet_report.add_argument("--json", dest="json_out", type=Path, default=None,
                              help="also write the structured report as JSON")
    fleet_watch.add_argument("--interval", type=_positive_float, default=30.0,
                             help="base seconds between cycles (idle cycles "
                                  "back off from here)")
    fleet_watch.add_argument("--max-interval", type=_positive_float, default=None,
                             help="backoff ceiling (default: 16x the interval)")
    fleet_watch.add_argument("--cycles", type=int, default=None,
                             help="stop after this many cycles (default: "
                                  "run until SIGTERM/stop file)")
    fleet_watch.add_argument("--stop-file", type=Path, default=None,
                             help="touch this file to stop the daemon gracefully")
    fleet_watch.add_argument("--no-retrain", action="store_true",
                             help="report drift but never re-baseline")
    fleet_watch.add_argument("--retrain-captures", type=int, default=None,
                             help="recent captures per re-baseline (default: all)")

    fleet_prune = fleet_sub.add_parser(
        "prune",
        help="drop ledger entries whose capture files left the archive",
    )
    fleet_prune.add_argument("--store", type=Path, required=True)

    fleet_status = fleet_sub.add_parser(
        "status", help="list vehicles, captures, templates and ledgers"
    )
    fleet_status.add_argument("--store", type=Path, required=True)
    fleet_status.add_argument("--json", dest="json_stream", action="store_true",
                              help="emit one JSON object per vehicle "
                                   "(machine-readable status stream)")

    for name, helptext in [
        ("fig2", "regenerate Fig. 2 (template vs attack)"),
        ("fig3", "regenerate Fig. 3 (injection/detection vs ID)"),
        ("table1", "regenerate Table I"),
        ("stability", "regenerate the entropy stability experiment"),
        ("cost", "regenerate the Sec. V.E cost comparison"),
    ]:
        exp = sub.add_parser(name, help=helptext)
        exp.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

@contextmanager
def _metrics(args, command: str):
    """Enable the telemetry layer for one command run.

    Without ``--metrics-out`` (or on commands that don't take it) this
    is a no-op.  With it, the whole run executes under an enabled
    :mod:`repro.obs` registry wired to a JSONL sink, inside a
    ``cli.<command>`` span; a final ``metrics`` event carries the full
    registry snapshot so the event log alone reconstructs every
    counter, gauge and histogram.
    """
    path = getattr(args, "metrics_out", None)
    if path is None:
        yield None
        return
    from repro import obs

    sink = obs.JsonlSink(path)
    registry = obs.enable(sinks=(sink,))
    try:
        with registry.span(f"cli.{command}"):
            yield registry
    finally:
        # Emitted even on the error paths: a failed run's partial
        # metrics are exactly what you want when diagnosing it.
        registry.emit("metrics", snapshot=registry.snapshot())
        obs.disable()
        sink.close()
        print(f"telemetry events written to {path}", flush=True)


def _write_trace(trace, path: Path) -> None:
    from repro.io import write_candump, write_csv

    suffix = path.suffix.lower()
    if suffix == ".csv":
        write_csv(trace, path)
    elif suffix == ".npz":
        from repro.io import ColumnTrace

        ColumnTrace.coerce(trace).save_npz(path)
    elif suffix == ".npb":
        from repro.io import write_blocks

        write_blocks(path, trace)
    else:
        write_candump(trace, path)


def _read_trace(path: Path):
    from repro.io import read_candump, read_csv

    suffix = path.suffix.lower()
    if suffix == ".csv":
        return read_csv(path)
    if suffix == ".npz":
        from repro.io import ColumnTrace

        return ColumnTrace.load_npz(path).to_trace()
    if suffix == ".npb":
        from repro.io import load_capture_columns

        return load_capture_columns(path).to_trace()
    return read_candump(path)


def _cmd_simulate(args) -> int:
    from repro.vehicle.traffic import simulate_drive

    trace = simulate_drive(args.duration, scenario=args.scenario, seed=args.seed)
    _write_trace(trace, args.out)
    print(f"wrote {len(trace)} frames ({trace.message_rate_hz():.0f} msg/s) to {args.out}")
    return 0


def _cmd_attack(args) -> int:
    from repro.attacks import (
        FloodingAttacker,
        MultiIDAttacker,
        SingleIDAttacker,
        WeakAttacker,
    )
    from repro.vehicle import VehicleSimulation, ford_fusion_catalog
    from repro.vehicle.ecu_profiles import assignments_for

    catalog = ford_fusion_catalog(seed=0)
    sim = VehicleSimulation(catalog=catalog, scenario=args.scenario, seed=args.seed)
    common = dict(
        frequency_hz=args.freq,
        start_s=args.start,
        duration_s=args.attack_duration,
        seed=args.seed,
    )
    ids = args.can_ids or []
    if args.attack == "flood":
        attacker = FloodingAttacker(**common)
    elif args.attack == "single":
        attacker = SingleIDAttacker(can_id=ids[0] if ids else catalog.ids[60], **common)
    elif args.attack == "multi":
        chosen = ids if len(ids) >= 2 else [catalog.ids[60], catalog.ids[120]]
        attacker = MultiIDAttacker(chosen, **common)
    else:
        assignments = assignments_for(catalog)
        ecu = sorted(assignments)[0]
        attacker = WeakAttacker(sorted(assignments[ecu]), **common)
    sim.add_node(attacker)
    trace = sim.run(args.duration)
    _write_trace(trace, args.out)
    print(f"wrote {len(trace)} frames to {args.out}")
    print(attacker.describe())
    return 0


def _cmd_template(args) -> int:
    from repro.core import IDSConfig, TemplateBuilder
    from repro.vehicle.traffic import record_template_windows

    config = IDSConfig(
        alpha=args.alpha,
        window_us=int(args.window_s * 1e6),
        template_windows=max(2, args.windows),
    )
    builder = TemplateBuilder(config)
    if args.traces:
        for path in args.traces:
            builder.add_trace_windows(_read_trace(path))
    else:
        for window in record_template_windows(
            n_windows=args.windows, window_s=args.window_s, seed=args.seed
        ):
            builder.add_trace(window)
    template = builder.build()
    template.save(args.out)
    print(f"template from {template.n_windows} windows written to {args.out}")
    print(template.describe())
    return 0


def _cmd_detect(args) -> int:
    from repro.core import GoldenTemplate, IDSConfig, IDSPipeline
    from repro.io.archive import load_capture_columns
    from repro.vehicle import ford_fusion_catalog

    template = GoldenTemplate.load(args.template)
    config = IDSConfig(alpha=template.alpha)
    pool = ford_fusion_catalog(seed=0).ids if args.infer else None
    pipeline = IDSPipeline(template, config, id_pool=pool)
    trace = load_capture_columns(args.trace)  # columnar-native load
    report = pipeline.analyze(trace, infer_k=args.infer_k)
    print(report.summary())
    return 0 if not report.alarmed_windows else 2


def _cmd_convert(args) -> int:
    from repro.exceptions import TraceFormatError
    from repro.io.archive import iter_capture_chunks
    from repro.io.blocks import (
        DEFAULT_BLOCK_FRAMES,
        DEFAULT_LEVEL,
        BlockWriter,
    )

    if args.out.suffix.lower() != ".npb":
        print(
            f"convert writes the block-compressed container; --out must "
            f"end in .npb, got {args.out.name!r}"
        )
        return 1
    block_frames = (
        DEFAULT_BLOCK_FRAMES if args.block_frames is None else args.block_frames
    )
    level = DEFAULT_LEVEL if args.level is None else args.level
    version = 2 if args.format_version is None else args.format_version
    codecs = None
    if args.codec:
        codecs = {}
        for part in args.codec.split(","):
            column, sep, codec = part.partition("=")
            if not sep or not column or not codec:
                print(
                    f"--codec expects COLUMN=CODEC[,COLUMN=CODEC...], "
                    f"got {part!r}"
                )
                return 1
            codecs[column.strip()] = codec.strip()
    frames = 0
    try:
        # Stream parse -> filter -> compress -> append: captures are
        # never materialised, so converting works under the same memory
        # ceiling the converted file will later be scanned under.
        with BlockWriter(
            args.out,
            block_frames=block_frames,
            level=level,
            codecs=codecs,
            version=version,
        ) as w:
            for trace in args.traces:
                for chunk in iter_capture_chunks(trace, block_frames):
                    w.append(chunk)
                    frames += len(chunk)
                # Capture boundary: drain the column scratch so no
                # block straddles two captures.
                w.flush()
    except TraceFormatError as exc:
        print(str(exc))
        return 1
    in_bytes = sum(trace.stat().st_size for trace in args.traces)
    out_bytes = args.out.stat().st_size
    ratio = in_bytes / out_bytes if out_bytes else float("inf")
    print(
        f"wrote {frames} frames to {args.out} "
        f"({in_bytes} -> {out_bytes} bytes, {ratio:.2f}x)"
    )
    return 0


def _cmd_inspect(args) -> int:
    from repro.exceptions import TraceFormatError
    from repro.io.blocks import BlockReader

    try:
        with BlockReader(args.capture, cache=False) as reader:
            info = reader.describe()
    except (TraceFormatError, OSError) as exc:
        print(str(exc))
        return 1
    if args.json_stream:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(
        f"{info['path']}: {info['format']} v{info['version']}, "
        f"{info['n_frames']} frames in {info['blocks']} blocks "
        f"(block_frames={info['block_frames']}, level={info['level']})"
    )
    print(
        f"  file {info['file_bytes']} bytes; columns "
        f"{info['raw_bytes']} -> {info['compressed_bytes']} bytes "
        f"({info['ratio']:.2f}x)"
    )
    header = f"  {'column':<16} {'codec':<9} {'raw':>12} {'compressed':>12} {'ratio':>8}"
    print(header)
    for name, col in info["columns"].items():
        used = col["codecs_used"]
        codec = col["codec"]
        if len(used) > 1:
            codec = "+".join(f"{c}:{n}" for c, n in used.items())
        print(
            f"  {name:<16} {codec:<9} {col['raw_bytes']:>12} "
            f"{col['compressed_bytes']:>12} {col['ratio']:>7.1f}x"
        )
    return 0


def _cli_executor(args):
    """Resolve the executor flags into an Executor (or None).

    Flag *mismatches* — a transport flag aimed at the wrong backend —
    are configuration errors and exit immediately with a clear message
    (SystemExit, not a traceback); a *missing* required flag surfaces
    as a DetectorError for the command's normal diagnose-and-return-1
    path.
    """
    from repro.runtime import resolve_executor

    backend = args.executor or "pool (the default)"
    if args.queue_dir is not None and args.executor != "queue":
        raise SystemExit(
            f"repro-ids: error: --queue-dir only applies to --executor "
            f"queue, not --executor {backend}"
        )
    if args.connect is not None and args.executor != "net":
        raise SystemExit(
            f"repro-ids: error: --connect only applies to --executor "
            f"net, not --executor {backend}"
        )
    if args.queue_no_drain and args.executor not in ("queue", "net"):
        raise SystemExit(
            f"repro-ids: error: --no-drain only applies to --executor "
            f"queue or net, not --executor {backend}"
        )
    return resolve_executor(
        args.executor,
        workers=args.workers,
        queue_dir=args.queue_dir,
        queue_drain=not args.queue_no_drain,
        connect=args.connect,
    )


def _cli_chunk_windows(args) -> Optional[int]:
    """Resolve --out-of-core / --chunk-windows into a chunk size.

    ``--chunk-windows N`` is the explicit form (and implies
    ``--out-of-core``); bare ``--out-of-core`` uses the default chunk
    size.  ``None`` (neither flag) keeps the in-RAM scan.
    """
    if args.chunk_windows is not None:
        if args.chunk_windows < 1:
            raise SystemExit(
                "repro-ids: error: --chunk-windows must be >= 1, got "
                f"{args.chunk_windows}"
            )
        return args.chunk_windows
    return DEFAULT_CHUNK_WINDOWS if args.out_of_core else None


def _cmd_scan_archive(args) -> int:
    from repro.core import GoldenTemplate, IDSConfig, IDSPipeline
    from repro.exceptions import DetectorError
    from repro.io import CaptureArchive, capture_suffix
    from repro.io.columnar import npz_is_compressed
    from repro.vehicle import ford_fusion_catalog

    template = GoldenTemplate.load(args.template)
    config = IDSConfig(alpha=template.alpha)
    pool = ford_fusion_catalog(seed=0).ids if args.infer else None
    pipeline = IDSPipeline(template, config, id_pool=pool)
    archive = CaptureArchive(args.archive_dir, recursive=args.recursive)
    if not len(archive):
        print(f"no captures found under {args.archive_dir}")
        return 1
    chunk_windows = _cli_chunk_windows(args)
    if chunk_windows is not None:
        compressed = [
            p for p in archive.paths
            if capture_suffix(p) == ".npz" and npz_is_compressed(p)
        ]
        if compressed:
            for p in compressed:
                print(
                    f"{p}: compressed npz cannot memory-map for "
                    "--out-of-core; convert it to the block-compressed "
                    f"container first: repro-ids convert --trace {p} "
                    f"--out {p.with_suffix('.npb')}"
                )
            return 1
    try:
        executor = _cli_executor(args)
        report = pipeline.analyze_archive(
            archive, workers=args.workers, infer_k=args.infer_k,
            executor=executor, chunk_windows=chunk_windows,
        )
    except DetectorError as exc:
        print(str(exc))
        return 1
    print(report.summary())
    for path, capture in report.captures:
        if capture.inference is not None:
            ids = ", ".join(f"0x{c:03X}" for c in capture.inference.candidates)
            print(f"{path.name}: inferred candidates (rank order): {ids}")
    if args.json_out is not None:
        import json as _json

        args.json_out.write_text(
            _json.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"JSON report written to {args.json_out}")
    return 0 if not report.alarmed_captures else 2


def _cmd_serve(args) -> int:
    import asyncio

    from repro.runtime.net import serve as serve_fabric

    def _log(line: str) -> None:
        print(line, flush=True)

    def _ready(server) -> None:
        # Parsed by scripts (and the CI smoke job) to learn the bound
        # port when --port 0 asked for a free one.
        print(f"serving on {server.host}:{server.port}", flush=True)

    asyncio.run(
        serve_fabric(
            host=args.host,
            port=args.port,
            lease_s=args.lease,
            log=_log,
            handle_signals=True,
            ready=_ready,
        )
    )
    print("coordinator drained")
    return 0


def _cmd_worker(args) -> int:
    import os

    from repro.exceptions import DetectorError

    if (args.queue is None) == (args.connect is None):
        raise SystemExit(
            "repro-ids: error: worker needs exactly one fabric: "
            "--queue DIR (filesystem) or --connect HOST:PORT (network)"
        )
    if args.connect is not None:
        if args.stop_file is not None:
            raise SystemExit(
                "repro-ids: error: --stop-file only applies to --queue "
                "workers; stop a --connect worker by draining the "
                "coordinator (SIGTERM to repro-ids serve) or SIGTERM"
            )
        from repro.runtime import run_net_worker

        print(f"worker connecting to {args.connect} (pid {os.getpid()})",
              flush=True)
        try:
            stats = run_net_worker(
                args.connect,
                poll_s=args.poll,
                max_idle_s=args.max_idle,
                max_tasks=args.max_tasks,
                handle_signals=True,
                log=lambda line: print(line, flush=True),
            )
        except DetectorError as exc:
            print(str(exc))
            return 1
        print(f"worker done: {stats.summary()}")
        return 0

    from repro.runtime import run_worker

    print(f"worker serving {args.queue} (pid {os.getpid()})")
    stats = run_worker(
        args.queue,
        poll_s=args.poll,
        max_idle_s=args.max_idle,
        max_tasks=args.max_tasks,
        stop_file=args.stop_file,
        handle_signals=True,
        log=print,
    )
    print(f"worker done: {stats.summary()}")
    return 0


def _cmd_status(args) -> int:
    import json as _json
    import time

    from repro.exceptions import DetectorError
    from repro.runtime import render_stats

    if (args.connect is None) == (args.queue_dir is None):
        raise SystemExit(
            "repro-ids: error: status needs exactly one fabric: "
            "--connect HOST:PORT (network) or --queue-dir DIR (filesystem)"
        )

    def fetch():
        if args.connect is not None:
            from repro.runtime import fetch_stats

            return fetch_stats(args.connect)
        from repro.runtime import queue_stats

        return queue_stats(args.queue_dir)

    try:
        while True:
            stats = fetch()
            if args.json_stream:
                print(_json.dumps(stats, sort_keys=True), flush=True)
            else:
                if args.watch and sys.stdout.isatty():
                    # Clear + home: a live console, not a scrolling log.
                    print("\x1b[2J\x1b[H", end="")
                print(render_stats(stats), flush=True)
            if not args.watch:
                return 0
            time.sleep(args.interval)
    except DetectorError as exc:
        print(str(exc))
        return 1
    except KeyboardInterrupt:
        return 0


def _fleet_window_us(args, store):
    """Resolve the detection window and enforce it matches training.

    A template only judges correctly at its training window, so:
    explicit ``--window-s`` wins but must agree with every recorded
    training window; otherwise the recorded windows decide (and must
    agree with each other); 2 s (the config default) when nothing is
    recorded.  Returns None, message printed, on a mismatch.
    """
    recorded = {}
    for vehicle_id in store.vehicles():
        window = store.template_window_us(vehicle_id)
        if window is not None:
            recorded[vehicle_id] = window
    if args.window_s is not None:
        window_us = int(args.window_s * 1e6)
    elif recorded:
        if len(set(recorded.values())) > 1:
            print(
                "stored templates were trained with different windows ("
                + ", ".join(f"{v}={w / 1e6:g}s" for v, w in sorted(recorded.items()))
                + "); re-train consistently or pass --window-s explicitly"
            )
            return None
        window_us = next(iter(recorded.values()))
    else:
        window_us = 2_000_000
    mismatched = [
        f"{v} (trained at {w / 1e6:g}s)"
        for v, w in sorted(recorded.items())
        if w != window_us
    ]
    if mismatched:
        print(
            f"detection window {window_us / 1e6:g}s does not match training "
            "for: " + ", ".join(mismatched)
        )
        return None
    return window_us


def _fleet_pipeline(args, store):
    """Build the fallback pipeline ``analyze_fleet`` hangs off.

    ``--template`` is the explicit fallback for vehicles without a
    stored template.  Without it, *every* vehicle must have its own
    stored template — silently judging one vehicle's traffic (and
    drift) against another vehicle's baseline would defeat the
    per-vehicle premise — and the first stored template merely seeds
    the pipeline object (``analyze_fleet`` always prefers each
    vehicle's own).  Returns None, message printed, on misconfiguration.
    """
    from repro.core import GoldenTemplate, IDSConfig, IDSPipeline
    from repro.vehicle import ford_fusion_catalog

    window_us = _fleet_window_us(args, store)
    if window_us is None:
        return None
    template = None
    if args.template is not None:
        template = GoldenTemplate.load(args.template)
    else:
        missing = [v for v in store.vehicles() if not store.has_template(v)]
        if missing:
            print(
                "no template for vehicle(s) " + ", ".join(missing) + ": "
                "train them (repro-ids fleet train) or pass --template "
                "as an explicit fallback"
            )
            return None
        for vehicle_id in store.vehicles():
            template = store.load_template(vehicle_id)
            break
    if template is None:
        print(
            "no template available: the store has no vehicles; "
            "add captures and train, or pass --template"
        )
        return None
    config = IDSConfig(alpha=template.alpha, window_us=window_us)
    pool = ford_fusion_catalog(seed=0).ids if args.infer else None
    return IDSPipeline(template, config, id_pool=pool)


def _cmd_fleet(args) -> int:
    from repro.exceptions import TraceFormatError
    from repro.fleet import FleetStore

    store = FleetStore(args.store)

    if args.fleet_command == "add":
        from repro.io.archive import load_capture_columns

        capture = load_capture_columns(args.trace)
        name = args.name or args.trace.name
        try:
            path = store.add_capture(
                args.vehicle, name, capture, overwrite=args.overwrite
            )
        except TraceFormatError as exc:
            print(str(exc))
            return 1
        print(f"added {len(capture)} frames as {args.vehicle}/{path.name}")
        return 0

    if args.fleet_command == "train":
        from repro.core import IDSConfig, TemplateBuilder

        if not store.has_vehicle(args.vehicle):
            print(f"vehicle {args.vehicle!r} has no captures to train from")
            return 1
        archive = store.archive(args.vehicle)
        if not len(archive):
            print(f"vehicle {args.vehicle!r} has no captures to train from")
            return 1
        config = IDSConfig(alpha=args.alpha, window_us=int(args.window_s * 1e6))
        builder = TemplateBuilder(config)
        # Archives legitimately contain attacked captures (that is what
        # the scanner is for); the builder's ground-truth exclusion
        # keeps them out of the template.
        for columns in archive:
            builder.add_trace_windows(columns, exclude_attacked=True)
        excluded = builder.excluded_attacked
        if builder.n_windows < 2:
            print(
                f"vehicle {args.vehicle!r} has {builder.n_windows} clean "
                f"window(s) ({excluded} attacked excluded); need >= 2"
            )
            return 1
        template = builder.build()
        path = store.save_template(
            args.vehicle, template, window_us=config.window_us
        )
        suffix = f" ({excluded} attacked windows excluded)" if excluded else ""
        print(
            f"template for {args.vehicle} from {template.n_windows} clean "
            f"windows over {len(archive)} captures{suffix} written to {path}"
        )
        return 0

    if args.fleet_command == "prune":
        if not store.root.is_dir():
            print(f"no fleet store at {store.root}")
            return 1
        pruned = store.compact_ledgers()
        for vehicle_id, count in pruned.items():
            if count:
                print(f"{vehicle_id}: pruned {count} stale ledger entries")
        print(
            f"pruned {sum(pruned.values())} entries across "
            f"{len(store.vehicles())} vehicles"
        )
        return 0

    if args.fleet_command == "status":
        import json as _json

        from repro.fleet.ledger import ScanLedger

        if not store.root.is_dir():
            # Surface a typo'd --store path instead of reporting a
            # healthy empty store (construction is side-effect-free).
            print(f"no fleet store at {store.root}")
            return 1
        vehicles = store.vehicles()
        if not vehicles and not args.json_stream:
            print(f"empty fleet store at {store.root}")
            return 0
        for vehicle_id in vehicles:
            archive = store.archive(vehicle_id)
            has_template = store.has_template(vehicle_id)
            # File count only — status must not crash on (or pay for
            # parsing) a corrupt template the way a real load would.
            n_bus = len(store.bus_template_files(vehicle_id))
            ledger_path = store.ledger_path(vehicle_id)
            ledger_state, entries = "missing", None
            if ledger_path.is_file():
                # Adoption mode: status reads any context and names why
                # an unusable ledger will rebuild ("corrupt",
                # "format-upgraded") instead of counting its entries.
                ledger = ScanLedger(ledger_path, context=None)
                ledger_state = ledger.rebuild_reason or "ok"
                if not ledger.rebuilt:
                    entries = len(ledger)
            if args.json_stream:
                # One object per line: the dashboard/scripting hook.
                print(_json.dumps({
                    "vehicle": vehicle_id,
                    "captures": len(archive),
                    "template": has_template,
                    "bus_templates": n_bus,
                    "ledger": ledger_state,
                    "ledger_entries": entries,
                }, sort_keys=True))
            else:
                shown = {"ok": str(entries), "missing": "-"}.get(
                    ledger_state, ledger_state
                )
                print(
                    f"{vehicle_id}: {len(archive)} captures, "
                    f"template={'yes' if has_template else 'no'}, "
                    f"bus templates={n_bus}, ledger entries={shown}"
                )
        # Surface the watch daemon's last-cycle state when one is (or
        # was) running against this store: its status file is rewritten
        # atomically every cycle.
        import time as _time

        from repro.fleet.daemon import STATUS_FILENAME

        status_path = store.root / STATUS_FILENAME
        if status_path.is_file():
            try:
                daemon_state = _json.loads(
                    status_path.read_text(encoding="utf-8")
                )
            except (OSError, ValueError):
                daemon_state = None
            if isinstance(daemon_state, dict):
                if args.json_stream:
                    print(_json.dumps(
                        {"daemon": daemon_state}, sort_keys=True
                    ))
                else:
                    cycle = daemon_state.get("cycle") or {}
                    age = max(0.0, _time.time() - daemon_state.get("ts", 0.0))
                    print(
                        f"watch daemon (pid {daemon_state.get('pid', '?')}): "
                        f"cycle {cycle.get('cycle', '?')}, "
                        f"{cycle.get('scanned', 0)} scanned, "
                        f"{cycle.get('cached', 0)} cached, "
                        f"{cycle.get('drifting', 0)} drifting, "
                        f"interval {daemon_state.get('interval_s', 0):g}s, "
                        f"updated {age:.0f}s ago"
                    )
        return 0

    # scan / report / watch
    if not store.root.is_dir():
        # Same guard status has: a typo'd path must not report an
        # all-clean (empty) fleet with exit 0.
        print(f"no fleet store at {store.root}")
        return 1
    if not store.vehicles():
        print(f"fleet store at {store.root} has no vehicles")
        return 1
    from repro.exceptions import DetectorError, TemplateError

    if args.fleet_command == "watch":
        from repro.fleet.daemon import WatchDaemon

        try:
            pipeline = _fleet_pipeline(args, store)
            if pipeline is None:
                return 1
            daemon = WatchDaemon(
                store,
                pipeline,
                interval_s=args.interval,
                max_interval_s=args.max_interval,
                retrain=not args.no_retrain,
                retrain_captures=args.retrain_captures,
                stop_file=args.stop_file,
                executor=_cli_executor(args),
                workers=args.workers,
                infer_k=args.infer_k,
                chunk_windows=_cli_chunk_windows(args),
                log=print,
            )
            daemon.install_signal_handlers()
            daemon.run(max_cycles=args.cycles)
        except (TemplateError, DetectorError) as exc:
            print(str(exc))
            return 1
        return 0

    try:
        pipeline = _fleet_pipeline(args, store)
        if pipeline is None:
            return 1
        report = pipeline.analyze_fleet(
            store, workers=args.workers, infer_k=args.infer_k,
            executor=_cli_executor(args),
            chunk_windows=_cli_chunk_windows(args),
        )
    except TemplateError as exc:
        # Corrupt or unreadable per-vehicle template: diagnose, don't
        # traceback (the same courtesy every other corruption path gets).
        print(str(exc))
        return 1
    except DetectorError as exc:
        # Misconfigured runtime backend (e.g. --executor queue without
        # --queue-dir): same diagnose-don't-traceback courtesy.
        print(str(exc))
        return 1

    if args.fleet_command == "scan":
        for vehicle_id, watch in report.watch.items():
            print(f"{vehicle_id}: {watch.summary()}")
        alarmed = report.alarmed_vehicles
        if alarmed:
            print(f"alarmed vehicles: {', '.join(alarmed)}")
        return 2 if alarmed else 0

    # fleet report
    text = report.summary()
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    if args.json_out is not None:
        import json as _json

        args.json_out.write_text(
            _json.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"JSON report written to {args.json_out}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import fig2, fig3, stability, table1
    from repro.experiments import cost as cost_experiment

    seeds = tuple(args.seeds)
    if args.command == "fig2":
        print(fig2.run(seed=seeds[0]).render())
    elif args.command == "fig3":
        print(fig3.run(seeds=seeds).render())
    elif args.command == "table1":
        print(table1.run(seeds=seeds).render())
    elif args.command == "stability":
        print(stability.run(seed=seeds[0]).render())
    else:
        print(cost_experiment.run(seeds=seeds).render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "attack": _cmd_attack,
        "template": _cmd_template,
        "detect": _cmd_detect,
        "convert": _cmd_convert,
        "inspect": _cmd_inspect,
        "scan-archive": _cmd_scan_archive,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "status": _cmd_status,
        "fleet": _cmd_fleet,
        "fig2": _cmd_experiment,
        "fig3": _cmd_experiment,
        "table1": _cmd_experiment,
        "stability": _cmd_experiment,
        "cost": _cmd_experiment,
    }
    label = args.command
    fleet_command = getattr(args, "fleet_command", None)
    if fleet_command:
        label = f"{label}-{fleet_command}"
    with _metrics(args, label):
        return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
