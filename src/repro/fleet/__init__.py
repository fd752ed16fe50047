"""Fleet layer: persistent, incremental, multi-vehicle monitoring.

The paper's IDS judges one capture against one golden template.  Its
intended deployment is a *fleet*: per-vehicle templates trained once,
then months of captures per vehicle monitored on a schedule.  This
package turns the one-shot archive scanner into that system:

* :mod:`repro.fleet.ledger` — :class:`ScanLedger`, a crash-safe
  JSON-on-disk cache mapping capture fingerprints to columnar scan
  reports (plus :meth:`ScanLedger.compact` maintenance);
* :mod:`repro.fleet.watch` — :func:`watch_scan`, incremental re-scans
  that only pay for new/changed captures yet produce
  :class:`~repro.core.pipeline.ArchiveReport`\\ s bit-identical to a
  cold full scan, over any :mod:`repro.runtime` executor backend;
* :mod:`repro.fleet.store` — :class:`FleetStore`, the on-disk layout of
  per-vehicle capture archives, golden templates (per vehicle and per
  bus), ledgers and retrain event logs;
* :mod:`repro.fleet.drift` — cross-capture analytics:
  :func:`aggregate_vehicle` / :class:`FleetReport` with pooled
  detection/FPR and CUSUM entropy-drift alarms per vehicle;
* :mod:`repro.fleet.retrain` — drift-triggered re-baselining:
  :func:`retrain_vehicle` rebuilds a vehicle's template from its recent
  clean captures and logs the event;
* :mod:`repro.fleet.daemon` — :class:`WatchDaemon`, the long-running
  monitoring loop (polling with backoff, graceful shutdown, automatic
  retraining) behind ``repro-ids fleet watch``.

Entry points: :meth:`repro.core.pipeline.IDSPipeline.analyze_fleet` and
the ``repro-ids fleet`` CLI family.
"""

from repro.fleet.daemon import CycleResult, WatchDaemon
from repro.fleet.drift import (
    FleetReport,
    VehicleDrift,
    aggregate_vehicle,
    analyze_fleet,
)
from repro.fleet.ledger import ScanLedger, atomic_write_text
from repro.fleet.retrain import retrain_vehicle, should_retrain, template_digest
from repro.fleet.store import FleetStore
from repro.fleet.watch import WatchResult, detection_context, watch_scan

__all__ = [
    "CycleResult",
    "FleetReport",
    "FleetStore",
    "ScanLedger",
    "VehicleDrift",
    "WatchDaemon",
    "WatchResult",
    "aggregate_vehicle",
    "analyze_fleet",
    "atomic_write_text",
    "detection_context",
    "retrain_vehicle",
    "should_retrain",
    "template_digest",
    "watch_scan",
]
