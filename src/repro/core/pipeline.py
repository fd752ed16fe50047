"""End-to-end IDS pipeline and its report.

:class:`IDSPipeline` glues the detector and the inference engine
together: feed it a captured trace and it returns a
:class:`DetectionReport` containing the per-window verdicts, the alerts,
the paper's evaluation metrics (detection rate, false-positive rate,
detection latency) and — when an identifier pool is available — the
inferred malicious-identifier candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.can.constants import SECOND_US
from repro.core.alerts import Alert, AlertSink
from repro.core.config import IDSConfig
from repro.core.detector import EntropyDetector, WindowResult
from repro.core.engine import BatchEntropyEngine
from repro.core.inference import InferenceEngine, InferenceResult
from repro.core.kernel import WindowBlock
from repro.core.template import GoldenTemplate
from repro.exceptions import DetectorError
from repro.io.archive import CaptureArchive
from repro.io.columnar import ColumnTrace
from repro.io.trace import Trace


class DetectionReport:
    """Everything one pipeline run produced.

    Every scan path — :meth:`IDSPipeline.analyze`, archive and watch
    scans, the fleet ledger's replay — builds a report over the
    kernel's :class:`~repro.core.kernel.WindowBlock` (:meth:`from_block`).
    A block-backed report builds ``windows`` and ``alerts`` on first
    access, so consumers that read arrays (:attr:`block`) never
    materialise rows.  The constructor takes ``WindowResult`` rows;
    :meth:`from_dict` and hand-built reports use it.
    """

    def __init__(
        self,
        windows: List[WindowResult],
        alerts: List[Alert],
        inference: Optional[InferenceResult],
    ) -> None:
        self._windows: Optional[List[WindowResult]] = windows
        self._alerts: Optional[List[Alert]] = alerts
        self._block: Optional[WindowBlock] = None
        self.inference = inference

    @classmethod
    def from_block(
        cls, block: WindowBlock, inference: Optional[InferenceResult] = None
    ) -> "DetectionReport":
        """A report over ``block``.  Its alerts are the alarming windows'
        :meth:`~repro.core.detector.WindowResult.to_alert`, the same
        expression every scan path uses."""
        report = cls(windows=None, alerts=None, inference=inference)
        report._block = block
        return report

    @property
    def windows(self) -> List[WindowResult]:
        """Per-window verdicts in window order."""
        if self._windows is None:
            self._windows = self._block.results()
        return self._windows

    @property
    def alerts(self) -> List[Alert]:
        """One alert per alarming window."""
        if self._alerts is None:
            self._alerts = [w.to_alert() for w in self.windows if w.alarm]
        return self._alerts

    @property
    def block(self) -> WindowBlock:
        """The windows as one struct-of-arrays block.

        A list-backed report stacks its rows on first access (all of
        them must share one window length and width).
        """
        if self._block is None:
            windows = self._windows
            first = windows[0] if windows else None
            self._block = WindowBlock.from_results(
                windows,
                n_bits=first.probabilities.size if first else 0,
                window_us=first.t_end_us - first.t_start_us if first else 0,
            )
        return self._block

    # ------------------------------------------------------------------
    # Window-level aggregates
    # ------------------------------------------------------------------
    @property
    def judged_windows(self) -> List[WindowResult]:
        """Windows with enough messages to be judged."""
        return [w for w in self.windows if w.judged]

    @property
    def alarmed_windows(self) -> List[WindowResult]:
        """Windows that raised an alarm."""
        return [w for w in self.windows if w.alarm]

    @property
    def attack_windows(self) -> List[WindowResult]:
        """Judged windows containing at least one ground-truth attack message."""
        return [w for w in self.judged_windows if w.n_attack_messages > 0]

    @property
    def clean_windows(self) -> List[WindowResult]:
        """Judged windows with no attack messages."""
        return [w for w in self.judged_windows if w.n_attack_messages == 0]

    # ------------------------------------------------------------------
    # The paper's metrics
    # ------------------------------------------------------------------
    @property
    def detection_rate(self) -> float:
        """The paper's ``Dr``: detected injected messages over injected.

        A window alarm detects every injected message inside that
        window (the IDS judges windows, not individual frames).
        """
        total = sum(w.n_attack_messages for w in self.judged_windows)
        if total == 0:
            return 0.0
        detected = sum(w.n_attack_messages for w in self.alarmed_windows)
        return detected / total

    @property
    def false_positive_rate(self) -> float:
        """Alarmed clean windows over all clean windows."""
        clean = self.clean_windows
        if not clean:
            return 0.0
        return sum(1 for w in clean if w.alarm) / len(clean)

    @property
    def detection_latency_us(self) -> Optional[int]:
        """Time from the first attacked window start to the first alarm
        *at or after* that window.

        Alarms that fired before the attack began are false positives,
        not detections — counting one would clamp the latency to zero —
        so the measurement starts at the first attacked window and
        returns None when no alarm follows it.
        """
        attacked = self.attack_windows
        if not attacked:
            return None
        first = attacked[0]
        for window in self.alarmed_windows:
            if window.index >= first.index:
                return window.t_end_us - first.t_start_us
        return None

    def inference_hit_rate(self, true_ids: Sequence[int]) -> float:
        """Hit rate of the inferred candidates against the true IDs."""
        if self.inference is None:
            return 0.0
        return self.inference.hit_rate(true_ids)

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable digest of the run."""
        lines = [
            f"windows: {len(self.windows)} total, {len(self.judged_windows)} judged, "
            f"{len(self.alarmed_windows)} alarmed",
            f"attack windows: {len(self.attack_windows)}, "
            f"clean windows: {len(self.clean_windows)}",
            f"detection rate: {self.detection_rate:.1%}",
            f"false positive rate: {self.false_positive_rate:.1%}",
        ]
        latency = self.detection_latency_us
        if latency is not None:
            lines.append(f"detection latency: {latency / SECOND_US:.2f}s")
        if self.inference is not None:
            ids = ", ".join(f"0x{c:03X}" for c in self.inference.candidates)
            lines.append(f"inferred candidates (rank order): {ids}")
            if self.inference.constraints:
                bits = ", ".join(
                    f"bit{b}={v}" for b, v in sorted(self.inference.constraints.items())
                )
                lines.append(f"bit constraints: {bits}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialisation (JSON report output; the fleet ledger stores the
    # columnar form instead, see repro.fleet.ledger)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation.

        Lossless: every window, alert and inference field survives the
        round trip bit for bit (JSON floats are shortest-repr exact).
        Block-backed and list-backed reports of the same scan give the
        same dict.
        """
        return {
            "windows": [w.to_dict() for w in self.windows],
            "alerts": [a.to_dict() for a in self.alerts],
            "inference": None if self.inference is None else self.inference.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DetectionReport":
        """Inverse of :meth:`to_dict`."""
        try:
            windows = [WindowResult.from_dict(w) for w in payload["windows"]]
            alerts = [Alert.from_dict(a) for a in payload["alerts"]]
            inference = payload["inference"]
        except KeyError as exc:
            raise DetectorError(f"report dict missing field {exc}") from exc
        return cls(
            windows=windows,
            alerts=alerts,
            inference=None if inference is None else InferenceResult.from_dict(inference),
        )


def _pooled_detection_rate(reports) -> float:
    """The paper's Dr with messages pooled across several reports."""
    total = detected = 0
    for report in reports:
        total += sum(w.n_attack_messages for w in report.judged_windows)
        detected += sum(w.n_attack_messages for w in report.alarmed_windows)
    return detected / total if total else 0.0


def _pooled_false_positive_rate(reports) -> float:
    """Alarmed clean windows over all clean windows, pooled."""
    clean = alarmed = 0
    for report in reports:
        windows = report.clean_windows
        clean += len(windows)
        alarmed += sum(1 for w in windows if w.alarm)
    return alarmed / clean if clean else 0.0


@dataclass
class ArchiveReport:
    """Per-capture detection reports over one archive scan."""

    captures: List[Tuple[Path, DetectionReport]]

    def __len__(self) -> int:
        return len(self.captures)

    def __iter__(self):
        return iter(self.captures)

    @property
    def reports(self) -> List[DetectionReport]:
        """The per-capture reports, in archive scan order."""
        return [report for _, report in self.captures]

    @property
    def alarmed_captures(self) -> List[Path]:
        """Paths of captures whose scan raised at least one alarm."""
        return [path for path, report in self.captures if report.alarmed_windows]

    # ------------------------------------------------------------------
    # Pooled metrics (messages and windows pooled across captures)
    # ------------------------------------------------------------------
    @property
    def detection_rate(self) -> float:
        """The paper's Dr pooled over every capture's judged windows."""
        return _pooled_detection_rate(self.reports)

    @property
    def false_positive_rate(self) -> float:
        """Alarmed clean windows over all clean windows, pooled."""
        return _pooled_false_positive_rate(self.reports)

    def summary(self) -> str:
        """Human-readable digest: one line per capture, then the pool."""
        lines = []
        for path, report in self.captures:
            flag = "ALARM" if report.alarmed_windows else "clean"
            lines.append(
                f"{path.name}: {flag}, {len(report.windows)} windows, "
                f"Dr={report.detection_rate:.1%}, "
                f"FPR={report.false_positive_rate:.1%}"
            )
        lines.append(
            f"archive: {len(self.captures)} captures, "
            f"{len(self.alarmed_captures)} alarmed, "
            f"pooled Dr={self.detection_rate:.1%}, "
            f"pooled FPR={self.false_positive_rate:.1%}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-compatible representation (paths as POSIX strings)."""
        return {
            "captures": [
                {"path": Path(path).as_posix(), "report": report.to_dict()}
                for path, report in self.captures
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ArchiveReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            captures=[
                (Path(entry["path"]), DetectionReport.from_dict(entry["report"]))
                for entry in payload["captures"]
            ]
        )


@dataclass
class MultiBusReport:
    """Per-bus detection reports plus the fused vehicle-level verdict.

    The paper's method runs one IDS instance per bus segment; the fused
    verdict is the gateway-level view — the vehicle is under attack
    when *any* segment's detector alarms.

    ``templates`` records which golden template judged each bus (the
    pipeline's own unless a per-bus mapping was passed to
    :meth:`IDSPipeline.analyze_multibus`), so callers can persist the
    exact per-bus training state next to the fused verdict (see
    :class:`repro.fleet.store.FleetStore`).
    """

    per_bus: Dict[str, DetectionReport]
    templates: Dict[str, GoldenTemplate] = field(default_factory=dict)

    @property
    def buses(self) -> Tuple[str, ...]:
        """Bus labels, in the order they were analyzed."""
        return tuple(self.per_bus)

    @property
    def alarmed_buses(self) -> List[str]:
        """Buses whose detector raised at least one alarm."""
        return [b for b, r in self.per_bus.items() if r.alarmed_windows]

    @property
    def fused_alarm(self) -> bool:
        """True when any bus segment alarmed."""
        return bool(self.alarmed_buses)

    @property
    def detection_rate(self) -> float:
        """Dr pooled over all buses' judged windows."""
        return _pooled_detection_rate(self.per_bus.values())

    @property
    def false_positive_rate(self) -> float:
        """FPR pooled over all buses' clean windows."""
        return _pooled_false_positive_rate(self.per_bus.values())

    def summary(self) -> str:
        """Per-bus digest plus the fused verdict."""
        lines = []
        for bus, report in self.per_bus.items():
            flag = "ALARM" if report.alarmed_windows else "clean"
            lines.append(
                f"bus {bus}: {flag}, {len(report.windows)} windows, "
                f"Dr={report.detection_rate:.1%}, "
                f"FPR={report.false_positive_rate:.1%}"
            )
        lines.append(
            f"fused verdict: {'ATTACK' if self.fused_alarm else 'clean'} "
            f"({len(self.alarmed_buses)}/{len(self.per_bus)} buses alarmed)"
        )
        return "\n".join(lines)


class IDSPipeline:
    """Detector + inference + reporting, batch or streaming."""

    def __init__(
        self,
        template: GoldenTemplate,
        config: Optional[IDSConfig] = None,
        id_pool: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config or IDSConfig()
        self.template = template
        self.id_pool = tuple(id_pool) if id_pool is not None else None
        self._engine = (
            InferenceEngine(self.id_pool, template, self.config)
            if self.id_pool
            else None
        )

    def _report(self, block: WindowBlock, infer_k) -> DetectionReport:
        """A block-backed report, with inference when the block alarmed
        and the pipeline has an identifier pool."""
        inference: Optional[InferenceResult] = None
        if self._engine is not None and block.alarm_mask.any():
            inference = self._engine.infer_from_windows(block, k=infer_k)
        return DetectionReport.from_block(block, inference)

    def analyze(self, trace: Union[Trace, ColumnTrace], infer_k=1) -> DetectionReport:
        """Run detection (and inference, when a pool is set) over a trace.

        Recorded captures — either representation — go through the
        vectorised :class:`~repro.core.engine.BatchEntropyEngine`, which
        is bit-for-bit equivalent to the streaming detector; live buses
        use :meth:`streaming_detector` instead.

        ``infer_k`` is the number of injected identifiers assumed by the
        inference step (the paper knows it per scenario).  Pass the
        string ``"auto"`` to estimate it from the mixture-fit residual
        (extension; see :meth:`InferenceEngine.estimate_k`).
        """
        if len(trace) == 0:
            raise DetectorError("cannot analyze an empty trace")
        block = BatchEntropyEngine(self.template, self.config).scan_block(trace)
        return self._report(block, infer_k)

    def scan_captures(
        self,
        paths: Sequence[Union[str, Path]],
        workers: Optional[int] = None,
        infer_k=1,
        executor=None,
        chunk_windows: Optional[int] = None,
    ) -> List[DetectionReport]:
        """Scan capture files through an executor, one report per path.

        The one scan step behind :meth:`analyze_archive` and
        :func:`repro.fleet.watch.watch_scan`.  Detection fans out as
        one task per capture through ``executor`` — any
        :class:`~repro.runtime.base.Executor`; ``None`` builds a
        :class:`~repro.runtime.pool.PoolExecutor` of ``workers``
        (``None`` picks a default, ``1`` scans inline).  Every backend
        returns the same :class:`~repro.core.kernel.WindowBlock` per
        capture, bit-identical to scanning each capture serially.
        ``chunk_windows`` switches each slot to the out-of-core scan
        (memory-mapped ``.npz`` load, window-aligned chunked kernel) —
        same bits, bounded memory per capture.  Inference runs in this
        process, only for captures that alarmed.  Reports come back in
        ``paths`` order and build no per-window rows until asked.
        """
        from repro.runtime import EntropyScanSpec, PoolExecutor  # cycle-free

        spec = EntropyScanSpec(self.template, self.config, chunk_windows)
        if executor is None:
            executor = PoolExecutor(workers)
        if not paths:
            return []
        return [
            self._report(block, infer_k) for block in executor.run(spec, paths)
        ]

    def analyze_archive(
        self,
        archive: Union[CaptureArchive, str, Path],
        workers: Optional[int] = None,
        infer_k=1,
        executor=None,
        chunk_windows: Optional[int] = None,
    ) -> "ArchiveReport":
        """Scan a whole capture archive, sharded across an executor.

        ``archive`` is a :class:`~repro.io.archive.CaptureArchive` or a
        directory path; its captures go through :meth:`scan_captures`
        (``workers``, ``infer_k``, ``executor`` and ``chunk_windows``
        as there), in the archive's scan order.  An executor may be,
        say, a :class:`~repro.runtime.queue.WorkQueueExecutor` served
        by ``repro-ids worker`` processes on other hosts.
        """
        if not isinstance(archive, CaptureArchive):
            archive = CaptureArchive(archive)
        reports = self.scan_captures(
            archive.paths,
            workers=workers,
            infer_k=infer_k,
            executor=executor,
            chunk_windows=chunk_windows,
        )
        return ArchiveReport(captures=list(zip(archive.paths, reports)))

    def analyze_multibus(
        self,
        trace: ColumnTrace,
        infer_k=1,
        templates: Optional[Mapping[str, GoldenTemplate]] = None,
    ) -> MultiBusReport:
        """Detect per bus segment of a fused multi-bus capture.

        ``trace`` is a bus-tagged :class:`ColumnTrace` — typically the
        fan-in of per-bus captures via
        :func:`repro.vehicle.multibus.fuse_bus_traces` or
        :meth:`DualBusVehicle.run_columns`.  Each bus's records are
        detected independently (windows, template comparison, inference)
        exactly as a per-bus IDS deployment would, and the per-bus
        reports are fused into a :class:`MultiBusReport`.

        ``templates`` optionally maps bus label -> the golden template
        trained on that bus (see
        :func:`repro.vehicle.multibus.build_bus_templates`); buses
        absent from the mapping fall back to the pipeline's own
        template.  The mapping actually used — one entry per analyzed
        bus — comes back on ``MultiBusReport.templates`` so it can be
        persisted next to the fused verdict.
        """
        if not isinstance(trace, ColumnTrace):
            raise DetectorError(
                "analyze_multibus needs a bus-tagged ColumnTrace; convert "
                "record traces and tag them with with_bus() first"
            )
        if len(trace) == 0:
            raise DetectorError("cannot analyze an empty trace")
        labels = trace.bus_labels()
        if not labels or "" in labels:
            # A blank label means some records were never tagged —
            # either a plain conversion or a merge that mixed tagged
            # and untagged parts.  Detecting a phantom "" bus would
            # silently skew the fused verdict, so refuse instead.
            raise DetectorError(
                "trace carries untagged records; tag every per-bus capture "
                "with with_bus() before merging"
            )
        templates = dict(templates or {})
        unknown = set(templates) - set(labels)
        if unknown:
            raise DetectorError(
                "per-bus template mapping names buses absent from the "
                "trace: " + ", ".join(sorted(unknown))
            )
        per_bus: Dict[str, DetectionReport] = {}
        used: Dict[str, GoldenTemplate] = {}
        for label in labels:
            template = templates.get(label)
            segment = (
                self
                if template is None or template is self.template
                else IDSPipeline(template, self.config, self.id_pool)
            )
            per_bus[label] = segment.analyze(trace.for_bus(label), infer_k=infer_k)
            used[label] = segment.template
        return MultiBusReport(per_bus=per_bus, templates=used)

    def analyze_fleet(
        self,
        store,
        workers: Optional[int] = None,
        infer_k=1,
        executor=None,
        chunk_windows: Optional[int] = None,
        **drift_kwargs,
    ):
        """Incrementally scan a whole fleet store and aggregate drift.

        ``store`` is a :class:`repro.fleet.store.FleetStore` (or its
        root directory).  Every vehicle's capture archive is scanned
        *incrementally* — captures whose fingerprint already sits in the
        vehicle's scan ledger replay their persisted report instead of
        being re-scanned — using the vehicle's own golden template when
        one is stored (this pipeline's template otherwise).  Fresh
        captures fan out through ``executor`` (any
        :class:`~repro.runtime.base.Executor`; the default pool honours
        ``workers`` as in :meth:`analyze_archive`).  Per-capture
        reports aggregate time-ordered into a
        :class:`repro.fleet.drift.FleetReport` with pooled
        detection/FPR, per-bit entropy drift series and CUSUM drift
        alarms; ``drift_kwargs`` pass through to
        :func:`repro.fleet.drift.analyze_fleet` (``drift_slack``,
        ``drift_limit``).
        """
        from repro.fleet.drift import analyze_fleet  # cycle-free import

        return analyze_fleet(
            store,
            self,
            workers=workers,
            infer_k=infer_k,
            executor=executor,
            chunk_windows=chunk_windows,
            **drift_kwargs,
        )

    def streaming_detector(self, sink: Optional[AlertSink] = None) -> EntropyDetector:
        """A fresh streaming detector sharing this pipeline's template.

        Attach its :meth:`~repro.core.detector.EntropyDetector.feed` to a
        live bus listener for the paper's real-time deployment model.
        """
        return EntropyDetector(self.template, self.config, sink)
