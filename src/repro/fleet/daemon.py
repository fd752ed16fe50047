"""The long-running fleet watch daemon: ``repro-ids fleet watch``.

One-shot ``fleet scan`` calls answer "what is the fleet's state right
now?"; a deployment wants the question asked *continuously*.
:class:`WatchDaemon` is that loop, built so that every piece of real
work happens in code that already exists and is already parity-tested:

* each **cycle** runs the incremental
  :func:`~repro.fleet.drift.analyze_fleet` pass over every vehicle of
  the store (only new/changed captures pay for detection; any runtime
  executor backend) and emits one status line.  Each vehicle's ledger
  is loaded and saved once: the watch scan drops entries for
  rotated-out captures in that same save, so the standalone
  compaction (:meth:`FleetStore.compact_ledgers`) is left to
  ``repro-ids fleet prune``;
* a **drift alarm** closes the monitoring loop: the drifting vehicle is
  re-baselined through :func:`~repro.fleet.retrain.retrain_vehicle`
  (recent clean captures, attacked windows excluded, retrain event
  logged) and the ledger context hash cold-rescans it — and only it —
  on the next cycle;
* **idle cycles back off**: the polling interval doubles (configurable)
  up to a ceiling while nothing changes and snaps back to the base
  interval the moment a cycle finds work, so a quiet fleet costs almost
  nothing and a busy one is watched closely;
* **shutdown is graceful and crash-safe**: SIGTERM/SIGINT (when
  installed), a stop file, or ``max_cycles`` all stop the loop at the
  next safe point; and because every ledger/template write in the
  stack is atomic, even a SIGKILL mid-cycle leaves on-disk state a
  cold start replays bit-identically (asserted by
  ``tests/test_fleet_daemon.py``).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro import obs
from repro.core.pipeline import IDSPipeline
from repro.io import blockcache
from repro.exceptions import TemplateError
from repro.io.atomic import atomic_write_text
from repro.fleet.drift import (
    DEFAULT_DRIFT_LIMIT,
    DEFAULT_DRIFT_SLACK,
    FleetReport,
)
from repro.fleet.retrain import retrain_vehicle, should_retrain
from repro.fleet.store import FleetStore

__all__ = ["CycleResult", "WatchDaemon", "STATUS_FILENAME"]

#: Per-cycle daemon status dropped (atomically) into the store root, so
#: ``repro-ids fleet status`` on any host sharing the store can report
#: the daemon's last cycle without talking to the daemon process.
STATUS_FILENAME = "watch-status.json"


@dataclass
class CycleResult:
    """What one daemon cycle observed and did."""

    index: int
    report: FleetReport
    #: Vehicles re-baselined this cycle (drift alarm + new clean data).
    retrained: List[str] = field(default_factory=list)
    #: Vehicles whose drift alarmed but retraining was skipped/failed.
    retrain_skipped: List[str] = field(default_factory=list)
    #: Ledger entries this cycle's watch scans pruned (their captures
    #: left the archive).
    compacted: int = 0
    duration_s: float = 0.0

    @property
    def scanned(self) -> int:
        """Captures actually re-scanned this cycle."""
        return sum(len(w.scanned) for w in self.report.watch.values())

    @property
    def cached(self) -> int:
        """Captures answered from ledgers this cycle."""
        return sum(len(w.cached) for w in self.report.watch.values())

    @property
    def did_work(self) -> bool:
        """True when the cycle scanned, retrained or compacted anything."""
        return bool(self.scanned or self.retrained or self.compacted)

    def to_event(self) -> dict:
        """The structured ``fleet.cycle`` event this cycle *is*.

        This dict is the source of truth: :meth:`status_line` renders
        it, the telemetry layer emits it, and the daemon persists it to
        the store's status file — one schema, three consumers.
        """
        return {
            "cycle": self.index,
            "vehicles": len(self.report.vehicles),
            "scanned": self.scanned,
            "cached": self.cached,
            "alarmed": len(self.report.alarmed_vehicles),
            "drifting": len(self.report.drifting_vehicles),
            "compacted": self.compacted,
            "retrained": list(self.retrained),
            "retrain_skipped": list(self.retrain_skipped),
            "duration_s": round(self.duration_s, 6),
        }

    def status_line(self) -> str:
        """The daemon's one-line-per-cycle operator digest (a rendering
        of :meth:`to_event`)."""
        event = self.to_event()
        line = (
            f"cycle {event['cycle']}: {event['vehicles']} vehicles, "
            f"{event['scanned']} scanned, {event['cached']} cached, "
            f"{event['alarmed']} alarmed, "
            f"{event['drifting']} drifting"
        )
        if event["compacted"]:
            line += f", {event['compacted']} ledger entries pruned"
        if event["retrained"]:
            line += f", retrained {', '.join(event['retrained'])}"
        if event["retrain_skipped"]:
            line += (
                f", retrain skipped for {', '.join(event['retrain_skipped'])}"
            )
        return line + f" ({event['duration_s']:.2f}s)"


class WatchDaemon:
    """Poll a fleet store, scan incrementally, retrain on drift.

    Parameters
    ----------
    store, pipeline:
        As :meth:`IDSPipeline.analyze_fleet` — per-vehicle templates are
        preferred, the pipeline is the fallback/config carrier.
    interval_s / max_interval_s / backoff:
        Base polling interval, the ceiling it backs off towards while
        idle, and the multiplier per idle cycle.  Any cycle that does
        work resets the interval to ``interval_s``.
    retrain:
        Re-baseline drifting vehicles (on by default).  Retraining uses
        the pipeline's config and the vehicle's ``retrain_captures``
        most recent captures.
    retrain_captures:
        How many recent captures feed a re-baseline (``None``: all).
    stop_file:
        Path polled every cycle *and* during sleeps; its existence
        requests a graceful stop (the cross-host analogue of SIGTERM).
    executor / workers / infer_k / drift_slack / drift_limit / chunk_windows:
        Forwarded to :func:`~repro.fleet.drift.analyze_fleet`.
    log:
        Per-cycle status sink (``print`` for the CLI; tests capture).
    """

    def __init__(
        self,
        store: Union[FleetStore, str, Path],
        pipeline: IDSPipeline,
        interval_s: float = 30.0,
        max_interval_s: Optional[float] = None,
        backoff: float = 2.0,
        retrain: bool = True,
        retrain_captures: Optional[int] = None,
        stop_file: Union[str, Path, None] = None,
        executor=None,
        workers: Optional[int] = None,
        infer_k=1,
        drift_slack: float = DEFAULT_DRIFT_SLACK,
        drift_limit: float = DEFAULT_DRIFT_LIMIT,
        chunk_windows: Optional[int] = None,
        log: Optional[Callable[[str], None]] = print,
    ) -> None:
        self.store = store if isinstance(store, FleetStore) else FleetStore(store)
        self.pipeline = pipeline
        if interval_s <= 0 or backoff < 1.0:
            raise ValueError("interval_s must be > 0 and backoff >= 1")
        self.interval_s = float(interval_s)
        self.max_interval_s = (
            float(max_interval_s) if max_interval_s is not None
            else self.interval_s * 16
        )
        self.backoff = float(backoff)
        self.retrain = bool(retrain)
        self.retrain_captures = retrain_captures
        self.stop_file = Path(stop_file) if stop_file is not None else None
        self.executor = executor
        self.workers = workers
        self.infer_k = infer_k
        self.drift_slack = drift_slack
        self.drift_limit = drift_limit
        self.chunk_windows = chunk_windows
        self.log = log or (lambda line: None)
        #: Recent cycle results: :meth:`run` keeps only its own cycles
        #: when bounded by ``max_cycles``, else only the latest one, so
        #: a daemon that runs for months holds one cycle's reports.
        self.cycles: List[CycleResult] = []
        self._cycle_count = 0
        self._stop_reason: Optional[str] = None
        self._previous_handlers: dict = {}
        self._current_interval = self.interval_s

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    @property
    def stop_reason(self) -> Optional[str]:
        """Why the daemon stopped (None while running)."""
        return self._stop_reason

    def request_stop(self, reason: str = "requested") -> None:
        """Ask the loop to exit at the next safe point (thread-safe)."""
        if self._stop_reason is None:
            self._stop_reason = reason

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into :meth:`request_stop` (main thread).

        The previous dispositions are saved and restored when
        :meth:`run` returns: a daemon embedded in a larger process (the
        CLI test harness, a notebook) must not leave its handlers
        behind — most insidiously, a forked pool worker inheriting this
        handler would shrug off ``Pool.terminate()`` and hang the pool
        shutdown.
        """
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous = signal.signal(
                sig,
                lambda signum, frame: self.request_stop(
                    signal.Signals(signum).name
                ),
            )
            self._previous_handlers.setdefault(sig, previous)

    def _restore_signal_handlers(self) -> None:
        while self._previous_handlers:
            sig, handler = self._previous_handlers.popitem()
            signal.signal(sig, handler)

    def _stop_requested(self) -> bool:
        if self._stop_reason is None and self.stop_file is not None:
            if self.stop_file.exists():
                self._stop_reason = f"stop file {self.stop_file}"
        return self._stop_reason is not None

    # ------------------------------------------------------------------
    # One cycle
    # ------------------------------------------------------------------
    def run_cycle(self) -> CycleResult:
        """Run one scan + retrain cycle and log its status."""
        start = time.perf_counter()
        report = self.pipeline.analyze_fleet(
            self.store,
            workers=self.workers,
            infer_k=self.infer_k,
            executor=self.executor,
            drift_slack=self.drift_slack,
            drift_limit=self.drift_limit,
            chunk_windows=self.chunk_windows,
        )
        retrained: List[str] = []
        skipped: List[str] = []
        if self.retrain:
            for vehicle_id in report.drifting_vehicles:
                if not should_retrain(
                    self.store, vehicle_id, self.retrain_captures
                ):
                    skipped.append(vehicle_id)
                    continue
                try:
                    retrain_vehicle(
                        self.store,
                        vehicle_id,
                        self.pipeline.config,
                        max_captures=self.retrain_captures,
                        reason="drift",
                    )
                except TemplateError as exc:
                    # Not enough clean traffic to re-baseline (vehicle
                    # under sustained attack): keep the old template and
                    # surface the skip rather than training on poison.
                    skipped.append(vehicle_id)
                    self.log(f"retrain failed for {vehicle_id}: {exc}")
                else:
                    retrained.append(vehicle_id)
        cycle = CycleResult(
            index=self._cycle_count,
            report=report,
            retrained=retrained,
            retrain_skipped=skipped,
            compacted=sum(w.pruned for w in report.watch.values()),
            duration_s=time.perf_counter() - start,
        )
        self._cycle_count += 1
        self.cycles.append(cycle)
        event = cycle.to_event()
        reg = obs.active()
        if reg is not None:
            reg.emit("fleet.cycle", **event)
            reg.counter("fleet.cycles").inc()
            reg.gauge("fleet.cycle_s").set(cycle.duration_s)
            reg.gauge("fleet.scanned").set(cycle.scanned)
            reg.gauge("fleet.ledger_hits").set(cycle.cached)
            reg.gauge("fleet.drifting").set(
                len(cycle.report.drifting_vehicles)
            )
            # Decoded-block cache occupancy: warm `.npb` rescans (drift
            # + rescan double passes) show up here, not as disk reads.
            block_cache = blockcache.default_cache().stats()
            reg.gauge("io.block_cache.bytes").set(block_cache["bytes"])
            reg.gauge("io.block_cache.hits").set(block_cache["hits"])
            reg.gauge("io.block_cache.misses").set(block_cache["misses"])
        self._write_status(event)
        self.log(cycle.status_line())
        return cycle

    def _write_status(self, event: dict) -> None:
        """Drop the cycle event (plus loop state) into the store root.

        Atomic, best-effort: status is advisory — a read-only store
        must not crash the daemon.  ``fleet status`` (and its
        ``--json`` stream) reads this file to report daemon liveness.
        """
        payload = {
            "v": obs.OBS_VERSION,
            "ts": time.time(),
            "pid": os.getpid(),
            "interval_s": self._current_interval,
            "cycle": event,
            "block_cache": blockcache.default_cache().stats(),
        }
        try:
            atomic_write_text(
                self.store.root / STATUS_FILENAME,
                json.dumps(payload, sort_keys=True),
            )
        except OSError:
            pass

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def _sleep(self, seconds: float) -> None:
        """Sleep in short slices so stop requests land promptly."""
        deadline = time.monotonic() + seconds
        while not self._stop_requested():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(0.1, remaining))

    def run(self, max_cycles: Optional[int] = None) -> List[CycleResult]:
        """Cycle until stopped; returns the cycles it keeps.

        ``max_cycles`` bounds the loop (tests, one-shot cron use) and
        every cycle of this call is returned; ``None`` runs until
        :meth:`request_stop`, a signal (after
        :meth:`install_signal_handlers`) or the stop file, keeping only
        the latest cycle — each one holds every vehicle's full report.
        """
        interval = self.interval_s
        self.cycles.clear()
        ran = 0
        try:
            while not self._stop_requested():
                cycle = self.run_cycle()
                ran += 1
                if max_cycles is None:
                    del self.cycles[:-1]
                elif ran >= max_cycles:
                    self._stop_reason = f"max cycles {max_cycles}"
                    break
                if cycle.did_work:
                    interval = self.interval_s
                else:
                    interval = min(interval * self.backoff, self.max_interval_s)
                self._current_interval = interval
                obs.emit(
                    "fleet.backoff",
                    cycle=cycle.index,
                    idle=not cycle.did_work,
                    interval_s=interval,
                )
                if self._stop_requested():
                    break
                prefix = "idle; " if not cycle.did_work else ""
                self.log(f"{prefix}next cycle in {interval:g}s")
                self._sleep(interval)
        finally:
            self._restore_signal_handlers()
        self.log(f"watch daemon stopped ({self._stop_reason})")
        return self.cycles
