"""The four workloads: set-up, one op, and the op's correctness check.

Each workload is a closed loop with one client and one op in flight, in
one process, calling the public API the way ``repro-ids scan-archive``
and ``repro-ids fleet watch`` do.  :meth:`Workload.setup` is what
``setup_s`` times; references and the oracle check run afterwards,
untimed.  :meth:`Workload.before_op` is untimed per-op preparation.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import IDSPipeline
from repro.core.detector import EntropyDetector
from repro.core.engine import DEFAULT_CHUNK_WINDOWS
from repro.fleet import FleetStore
from repro.fleet.daemon import WatchDaemon
from repro.io.archive import CaptureArchive
from repro.io.blocks import BlockReader, write_blocks
from repro.runtime import NetExecutor, SerialExecutor, ServerThread

from perfbench.inputs import CATALOG, CONFIG, drive, is_attacked, train_template

#: An op slower than this has failed, whatever it returned.
OP_DEADLINE_S = 30.0


class Workload:
    """Base: one seeded input set under ``root`` and the op over it."""

    name = ""
    n_captures = 0
    duration_s = 0.0
    suffix = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.pipeline: Optional[IDSPipeline] = None
        #: Capture file name -> reference report dict / frame count.
        self.refs: Dict[str, dict] = {}
        self.frames: Dict[str, int] = {}

    # -- set-up (timed) --------------------------------------------------
    def setup(self) -> None:
        self.root.mkdir(parents=True)
        self.pipeline = IDSPipeline(
            train_template(self.seed), CONFIG, id_pool=CATALOG.ids
        )

    def capture_name(self, index: int) -> str:
        return f"drive{index:02d}{self.suffix}"

    def write_drives(self, directory: Path) -> List[Path]:
        """Write every drive through the archive writer.

        ``.npb`` codecs are chosen once, by the writer's cost-based
        selection on the first drive; the other drives reuse that
        choice (``repro-ids convert --codec``), which keeps selection
        from dominating set-up while new codecs still reach the inputs.
        """
        directory.mkdir(parents=True)
        archive = CaptureArchive(directory)
        paths: List[Path] = []
        codecs = None
        for i in range(self.n_captures):
            columns = drive(self.seed, i, self.duration_s)
            name = self.capture_name(i)
            if codecs is None:
                paths.append(archive.write_capture(name, columns))
                if self.suffix == ".npb":
                    with BlockReader(paths[0]) as reader:
                        codecs = reader.codecs
            else:
                write_blocks(directory / name, columns, codecs=codecs)
                paths.append(directory / name)
        return paths

    # -- references (untimed) --------------------------------------------
    def references(self) -> None:
        """Reference reports from the in-memory columns, one per drive."""
        for i in range(self.n_captures):
            columns = drive(self.seed, i, self.duration_s)
            report = self.pipeline.analyze(columns)
            name = self.capture_name(i)
            self.refs[name] = report.to_dict()
            self.frames[name] = len(columns)

    def oracle_problems(self) -> List[str]:
        """The first attacked drive's reference windows against the
        per-record ``EntropyDetector`` (the paper's detector), plus the
        every-attack-alarms rule on all references."""
        problems = []
        index = next(i for i in range(self.n_captures) if is_attacked(i))
        columns = drive(self.seed, index, self.duration_s)
        detector = EntropyDetector(self.pipeline.template, CONFIG)
        oracle = [w.to_dict() for w in detector.scan(columns)]
        if oracle != self.refs[self.capture_name(index)]["windows"]:
            problems.append(f"reference windows of drive {index} != oracle")
        for i in range(self.n_captures):
            windows = self.refs[self.capture_name(i)]["windows"]
            alarmed = any(w["judged"] and any(w["violated"]) for w in windows)
            if is_attacked(i) and not alarmed:
                problems.append(f"attacked drive {i} raised no alarm")
        return problems

    # -- ops ---------------------------------------------------------------
    def before_op(self) -> None:
        """Untimed per-op preparation."""

    def op(self):
        raise NotImplementedError

    def check(self, result) -> Tuple[List[str], int, int]:
        """``(problems, frames newly judged, windows)`` for one op result."""
        raise NotImplementedError

    def check_archive(
        self, report, expected: Dict[str, dict]
    ) -> Tuple[List[str], int]:
        """Compare an ``ArchiveReport`` capture by capture."""
        problems = []
        names = [Path(path).name for path, _ in report.captures]
        if names != sorted(expected):
            problems.append(f"captures {names} != {sorted(expected)}")
        windows = 0
        for name, capture in zip(names, report.reports):
            windows += len(capture.windows)
            if capture.to_dict() != expected.get(name):
                problems.append(f"{name}: report differs from its reference")
        return problems, windows

    def counters(self) -> dict:
        """Program counters read between ops (deltas give per-op values)."""
        return {}

    def result_counters(self, result) -> dict:
        """Per-op layer values read off the op's result."""
        return {}

    def connections(self) -> int:
        """Sockets the op opened (0 without a fabric)."""
        return 0

    def sizes(self) -> dict:
        return {
            "captures": self.n_captures,
            "capture_s": self.duration_s,
            "frames": sum(self.frames.values()),
        }

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ArchiveScan(Workload):
    """``analyze_archive`` over a capture directory on one executor."""

    chunk_windows: Optional[int] = None

    def setup(self) -> None:
        super().setup()
        self.captures = self.root / "captures"
        self.write_drives(self.captures)

    def executor(self):
        return SerialExecutor()

    def op(self):
        return self.pipeline.analyze_archive(
            CaptureArchive(self.captures),
            executor=self.executor(),
            chunk_windows=self.chunk_windows,
        )

    def check(self, report):
        problems, windows = self.check_archive(report, self.refs)
        return problems, sum(self.frames.values()), windows


class TextScan(ArchiveScan):
    """The text -> scan path: candump parsing dominates; the ``.npb``,
    fabric and ledger layers are absent."""

    name = "text-scan"
    n_captures = 16
    duration_s = 90.0
    suffix = ".log"


class NpbScan(ArchiveScan):
    """Out-of-core ``.npb`` v2 scans (the CLI's ``--out-of-core``).

    Inflate, unfilter and carry-merge do most of the work, which needs
    captures long enough to span two blocks; the fabric cannot carry
    results that long, so this path runs on the serial executor.
    """

    name = "npb-scan"
    n_captures = 8
    duration_s = 600.0
    suffix = ".npb"
    chunk_windows = DEFAULT_CHUNK_WINDOWS


class NetScan(ArchiveScan):
    """``--executor net`` with no workers attached: the submitter drains
    its own tasks over loopback (two threads, two connections).

    Single-block captures keep storage cheap and merge-free, isolating
    per-task fabric cost and the JSON result path.  Captures stay at
    90 s: a result line for much longer drives exceeds the
    coordinator's 64 KiB line limit.
    """

    name = "net-scan"
    n_captures = 16
    duration_s = 90.0
    suffix = ".npb"

    def setup(self) -> None:
        super().setup()
        self.coordinator = ServerThread().start()

    def executor(self):
        # The CLI's --executor net with drain (its default); the deadline
        # turns a wedged fabric into a failed op instead of a hang.
        return NetExecutor(self.coordinator.address, timeout_s=OP_DEADLINE_S)

    def counters(self) -> dict:
        stats = self.coordinator.server.stats()
        return {
            "runtime.wire.bytes": stats["wire"]["bytes_in"] + stats["wire"]["bytes_out"],
            "runtime.retries": stats["tasks"]["reposted"] + stats["tasks"]["quarantined"],
        }

    def connections(self) -> int:
        # One submit connection per job plus the drain (worker-role) one.
        return 1 + self.coordinator.server.peak_workers

    def close(self) -> None:
        coordinator = getattr(self, "coordinator", None)
        if coordinator is not None:
            coordinator.stop()
        super().close()


class FleetCycle(Workload):
    """One ``WatchDaemon.run_cycle()`` over a warm fleet store.

    The always-on loop: its cost is set by history (ledger load/save,
    fingerprints, report replay) rather than by new data, and it is the
    only workload whose ledger writes as well as reads.
    """

    name = "fleet-cycle"
    n_captures = 16
    # 30 s captures keep a cycle near half a second, so a run holds enough
    # cycles that op_tail_ms is an upper percentile, not the fastest op.
    duration_s = 30.0
    suffix = ".npb"
    vehicles = 4
    history = 48

    @staticmethod
    def slot_name(slot: int) -> str:
        return f"capture{slot:06d}.npb"

    @staticmethod
    def vehicle_id(v: int) -> str:
        return f"vehicle{v:02d}"

    def setup(self) -> None:
        # The 16 drives are written once through the archive writer and
        # copied into every vehicle's history (slot n holds drive n % 16):
        # 48 files per vehicle, each drive three times, under one ledger
        # per vehicle.
        super().setup()
        drives = self.write_drives(self.root / "drives")
        self.store = FleetStore(self.root / "store")
        for v in range(self.vehicles):
            vehicle = self.vehicle_id(v)
            self.store.save_template(
                vehicle, self.pipeline.template, window_us=CONFIG.window_us
            )
            captures = self.store.captures_dir(vehicle)
            for slot in range(self.history):
                shutil.copyfile(
                    drives[slot % self.n_captures], captures / self.slot_name(slot)
                )
        self.first = 0
        self.daemon = WatchDaemon(
            self.store, self.pipeline, executor=SerialExecutor(), log=None
        )
        self.daemon.run_cycle()  # cold fill: every ledger written
        self.daemon.cycles.clear()

    def before_op(self) -> None:
        # One new capture lands per vehicle and the oldest leaves, so the
        # history stays 48 captures; the new slot repeats the content of
        # the slot it replaces (48 is a multiple of 16).  The daemon keeps
        # every CycleResult it returns; drop them so ops stay alike.
        self.daemon.cycles.clear()
        newest = self.first + self.history
        for v in range(self.vehicles):
            captures = self.store.captures_dir(self.vehicle_id(v))
            shutil.copyfile(
                captures / self.slot_name(self.first),
                captures / self.slot_name(newest),
            )
            (captures / self.slot_name(self.first)).unlink()
        self.first += 1

    def op(self):
        return self.daemon.run_cycle()

    def expected(self) -> Dict[str, dict]:
        return {
            self.slot_name(slot): self.refs[
                self.capture_name(slot % self.n_captures)
            ]
            for slot in range(self.first, self.first + self.history)
        }

    def check(self, cycle):
        problems = []
        if cycle.retrained or cycle.retrain_skipped:
            problems.append("a vehicle drifted and was re-baselined")
        expected = self.expected()
        newest_slot = self.first + self.history - 1
        newest = self.slot_name(newest_slot)
        frames = windows = 0
        for v in range(self.vehicles):
            vehicle = self.vehicle_id(v)
            watch = cycle.report.watch.get(vehicle)
            if watch is None:
                problems.append(f"{vehicle}: missing from the cycle")
                continue
            found, n_windows = self.check_archive(watch.report, expected)
            problems += [f"{vehicle}: {p}" for p in found]
            windows += n_windows
            scanned = [p.name for p in watch.scanned]
            if scanned != [newest]:
                problems.append(f"{vehicle}: scanned {scanned}, expected [{newest}]")
            frames += self.frames[self.capture_name(newest_slot % self.n_captures)]
        return problems, frames, windows

    def result_counters(self, cycle) -> dict:
        looked_up = cycle.cached + cycle.scanned
        return {"fleet.ledger.hit_ratio": cycle.cached / looked_up}

    def sizes(self) -> dict:
        sizes = super().sizes()
        sizes.update(vehicles=self.vehicles, history=self.history)
        return sizes


WORKLOADS = {w.name: w for w in (TextScan, NpbScan, NetScan, FleetCycle)}
