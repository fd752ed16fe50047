"""Cross-capture fleet analytics: per-vehicle baselines and drift.

A per-capture :class:`~repro.core.pipeline.DetectionReport` answers "was
this drive attacked?".  A fleet operator asks a second question the
paper's single-capture evaluation cannot: *is this vehicle's clean
traffic still the traffic its golden template was trained on?*  ECU
reflashes, new accessories, seasonal usage and sensor aging all move
per-bit identifier entropy slowly — each drive still passes the
window-level threshold test, but the template is quietly going stale
(rising false-negative risk) or the vehicle is quietly changing (rising
false-positive risk).

:func:`aggregate_vehicle` turns a vehicle's time-ordered per-capture
reports into exactly that signal:

* **pooled metrics** — the paper's Dr/FPR with windows pooled across
  the vehicle's captures (and across the fleet in
  :class:`FleetReport`), matching the per-capture reports exactly;
* **drift series** — per capture, the mean *clean-window* per-bit
  entropy deviation from the template (attack windows are excluded so
  detections do not masquerade as drift);
* **CUSUM drift alarm** — a two-sided cumulative-sum test per bit on
  the threshold-normalised deviations: ``s+ = max(0, s+ + z - k)`` /
  ``s- = max(0, s- - z - k)`` with slack ``k`` (``drift_slack``); the
  vehicle is flagged when any bit's statistic exceeds ``drift_limit``.
  Small persistent shifts accumulate across captures long before any
  single window violates its alpha-scaled threshold — the classic
  CUSUM property, here applied across drives instead of within one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pipeline import (
    DetectionReport,
    IDSPipeline,
    _pooled_detection_rate,
    _pooled_false_positive_rate,
)
from repro.core.template import GoldenTemplate
from repro.exceptions import DetectorError
from repro.fleet.store import FleetStore
from repro.fleet.watch import WatchResult, watch_scan

__all__ = ["FleetReport", "VehicleDrift", "aggregate_vehicle", "analyze_fleet"]

#: CUSUM slack (reference value) in per-bit threshold units: deviations
#: below half a detection threshold per capture do not accumulate.
DEFAULT_DRIFT_SLACK = 0.5

#: CUSUM decision limit in per-bit threshold units.
DEFAULT_DRIFT_LIMIT = 4.0


@dataclass
class VehicleDrift:
    """One vehicle's time-ordered aggregation against its template."""

    vehicle_id: str
    #: Capture names in time order (the aggregation order).
    capture_names: List[str]
    #: The per-capture reports, aligned with ``capture_names``.
    reports: List[DetectionReport]
    #: Names of captures that raised at least one alarm.
    alarmed_captures: List[str]
    #: Captures contributing drift points (>= 1 clean judged window).
    drift_names: List[str]
    #: Per-point per-bit mean clean-window entropy deviation from the
    #: template (``(n_points, n_bits)``; empty when no clean windows).
    deviations: np.ndarray
    #: Two-sided CUSUM statistics after each point (same shape).
    cusum_pos: np.ndarray
    cusum_neg: np.ndarray
    drift_slack: float
    drift_limit: float

    # ------------------------------------------------------------------
    @property
    def detection_rate(self) -> float:
        """The paper's Dr pooled over the vehicle's judged windows."""
        return _pooled_detection_rate(self.reports)

    @property
    def false_positive_rate(self) -> float:
        """Pooled FPR over the vehicle's clean windows."""
        return _pooled_false_positive_rate(self.reports)

    @property
    def drift_score(self) -> float:
        """Peak CUSUM statistic over all bits and captures."""
        if self.deviations.size == 0:
            return 0.0
        return float(np.maximum(self.cusum_pos, self.cusum_neg).max())

    @property
    def drift_alarm(self) -> bool:
        """True when any bit's CUSUM crossed ``drift_limit``."""
        return self.drift_score > self.drift_limit

    @property
    def drift_bits(self) -> Tuple[int, ...]:
        """Drifting bits, paper 1-based numbering (empty without alarm)."""
        if self.deviations.size == 0:
            return ()
        peak = np.maximum(self.cusum_pos, self.cusum_neg).max(axis=0)
        return tuple(int(b) + 1 for b in np.flatnonzero(peak > self.drift_limit))

    @property
    def first_drift_capture(self) -> Optional[str]:
        """Name of the first capture at which the CUSUM crossed."""
        if self.deviations.size == 0:
            return None
        per_point = np.maximum(self.cusum_pos, self.cusum_neg).max(axis=1)
        crossed = np.flatnonzero(per_point > self.drift_limit)
        return self.drift_names[int(crossed[0])] if crossed.size else None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible digest (drift series included)."""
        return {
            "vehicle_id": self.vehicle_id,
            "captures": list(self.capture_names),
            "alarmed_captures": list(self.alarmed_captures),
            "detection_rate": self.detection_rate,
            "false_positive_rate": self.false_positive_rate,
            "drift": {
                "captures": list(self.drift_names),
                "deviations": [[float(v) for v in row] for row in self.deviations],
                "score": self.drift_score,
                "limit": self.drift_limit,
                "slack": self.drift_slack,
                "alarm": self.drift_alarm,
                "bits": list(self.drift_bits),
                "first_capture": self.first_drift_capture,
            },
        }

    def summary(self) -> str:
        """One line per vehicle for the fleet digest."""
        drift = (
            f"DRIFT bits {','.join(map(str, self.drift_bits))} "
            f"from {self.first_drift_capture}"
            if self.drift_alarm
            else "drift ok"
        )
        return (
            f"{self.vehicle_id}: {len(self.capture_names)} captures, "
            f"{len(self.alarmed_captures)} alarmed, "
            f"Dr={self.detection_rate:.1%}, "
            f"FPR={self.false_positive_rate:.1%}, "
            f"{drift} (score {self.drift_score:.2f}/{self.drift_limit:g})"
        )


_NATURAL_CHUNK = re.compile(r"(\d+)")


def _natural_name_key(name: str):
    """Numeric-aware name ordering: ``drive9`` before ``drive10``."""
    return tuple(
        int(chunk) if chunk.isdigit() else chunk
        for chunk in _NATURAL_CHUNK.split(name)
    )


def _capture_order_key(item):
    """Time order: first window start, then numeric-aware name.

    Capture-relative logs (everything this repo writes) all start near
    t=0, so the window start usually ties and the *name* carries the
    chronology — hence natural ordering (``drive9`` < ``drive10``) and
    the store convention of sortable capture names (ISO dates).
    """
    name, _, block = item
    start = int(block.t_start_us[0]) if len(block) else 0
    return (start, _natural_name_key(name))


def aggregate_vehicle(
    vehicle_id: str,
    captures: Sequence[Tuple[Union[str, Path], DetectionReport]],
    template: GoldenTemplate,
    drift_slack: float = DEFAULT_DRIFT_SLACK,
    drift_limit: float = DEFAULT_DRIFT_LIMIT,
) -> VehicleDrift:
    """Aggregate one vehicle's per-capture reports into drift analytics.

    ``captures`` are ``(path-or-name, report)`` pairs in any order; they
    are time-ordered (first window start, then numeric-aware name)
    before the CUSUM runs, since drift is a *sequential* statistic.
    Capture-relative timestamps start near zero, so in practice the
    name carries the chronology — give store captures sortable names
    (ISO dates, zero-padded or not: ``drive9`` sorts before
    ``drive10``).

    Each report is read as arrays (:attr:`DetectionReport.block`): a
    ledger-replayed report builds no per-window objects here.
    """
    if drift_slack < 0 or drift_limit <= 0:
        raise DetectorError(
            f"drift_slack must be >= 0 and drift_limit > 0, got "
            f"{drift_slack}/{drift_limit}"
        )
    named = sorted(
        ((Path(p).name, report, report.block) for p, report in captures),
        key=_capture_order_key,
    )
    names = [name for name, _, _ in named]
    reports = [report for _, report, _ in named]
    alarmed = [name for name, _, block in named if block.alarm_mask.any()]

    drift_names: List[str] = []
    rows: List[np.ndarray] = []
    for name, _, block in named:
        clean = block.judged & (block.n_attack_messages == 0)
        if not clean.any():
            continue  # all-attack capture: no baseline signal in it
        entropy = block.entropy[clean].mean(axis=0)
        drift_names.append(name)
        rows.append(entropy - template.mean_entropy)

    n_bits = template.n_bits
    deviations = (
        np.stack(rows) if rows else np.empty((0, n_bits), dtype=float)
    )
    cusum_pos = np.zeros_like(deviations)
    cusum_neg = np.zeros_like(deviations)
    if len(rows):
        # Guard a zero threshold (threshold_floor=0 is a legal config
        # and a constant bit has zero range): 0/0 would make the whole
        # CUSUM NaN and silently disable the alarm.  With a tiny floor,
        # a zero-range bit that moves at all drifts immediately — which
        # is the right verdict — and a bit that stays put contributes 0.
        scale = np.maximum(template.thresholds, 1e-12)
        z = deviations / scale[None, :]
        pos = np.zeros(n_bits)
        neg = np.zeros(n_bits)
        for i in range(z.shape[0]):
            pos = np.maximum(0.0, pos + z[i] - drift_slack)
            neg = np.maximum(0.0, neg - z[i] - drift_slack)
            cusum_pos[i] = pos
            cusum_neg[i] = neg
    return VehicleDrift(
        vehicle_id=vehicle_id,
        capture_names=names,
        reports=reports,
        alarmed_captures=alarmed,
        drift_names=drift_names,
        deviations=deviations,
        cusum_pos=cusum_pos,
        cusum_neg=cusum_neg,
        drift_slack=drift_slack,
        drift_limit=drift_limit,
    )


@dataclass
class FleetReport:
    """Fleet-level aggregation: one :class:`VehicleDrift` per vehicle."""

    vehicles: Dict[str, VehicleDrift]
    #: Incremental-scan outcome per vehicle (ledger hit statistics).
    watch: Dict[str, WatchResult] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def vehicle_ids(self) -> Tuple[str, ...]:
        """Vehicle ids in aggregation order."""
        return tuple(self.vehicles)

    @property
    def n_captures(self) -> int:
        """Total captures aggregated across the fleet."""
        return sum(len(v.capture_names) for v in self.vehicles.values())

    @property
    def drifting_vehicles(self) -> List[str]:
        """Vehicles whose drift CUSUM crossed the limit."""
        return [vid for vid, v in self.vehicles.items() if v.drift_alarm]

    @property
    def alarmed_vehicles(self) -> List[str]:
        """Vehicles with at least one alarmed capture."""
        return [vid for vid, v in self.vehicles.items() if v.alarmed_captures]

    @property
    def detection_rate(self) -> float:
        """The paper's Dr pooled over every vehicle's judged windows."""
        return _pooled_detection_rate(
            r for v in self.vehicles.values() for r in v.reports
        )

    @property
    def false_positive_rate(self) -> float:
        """Pooled FPR over every vehicle's clean windows."""
        return _pooled_false_positive_rate(
            r for v in self.vehicles.values() for r in v.reports
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible digest (the CI artifact format)."""
        return {
            "vehicles": {vid: v.to_dict() for vid, v in self.vehicles.items()},
            "watch": {
                vid: {
                    "scanned": len(w.scanned),
                    "cached": len(w.cached),
                    "pruned": w.pruned,
                }
                for vid, w in self.watch.items()
            },
            "pooled": {
                "n_vehicles": len(self.vehicles),
                "n_captures": self.n_captures,
                "detection_rate": self.detection_rate,
                "false_positive_rate": self.false_positive_rate,
                "alarmed_vehicles": self.alarmed_vehicles,
                "drifting_vehicles": self.drifting_vehicles,
            },
        }

    def summary(self) -> str:
        """Per-vehicle digest plus the fleet pool."""
        lines = [self.vehicles[vid].summary() for vid in self.vehicles]
        for vid, watch in self.watch.items():
            lines.append(f"{vid} scan: {watch.summary()}")
        lines.append(
            f"fleet: {len(self.vehicles)} vehicles, {self.n_captures} "
            f"captures, {len(self.alarmed_vehicles)} alarmed, "
            f"{len(self.drifting_vehicles)} drifting, "
            f"pooled Dr={self.detection_rate:.1%}, "
            f"pooled FPR={self.false_positive_rate:.1%}"
        )
        return "\n".join(lines)


def analyze_fleet(
    store: Union[FleetStore, str, Path],
    pipeline: IDSPipeline,
    workers: Optional[int] = None,
    infer_k=1,
    drift_slack: float = DEFAULT_DRIFT_SLACK,
    drift_limit: float = DEFAULT_DRIFT_LIMIT,
    executor=None,
    chunk_windows: Optional[int] = None,
) -> FleetReport:
    """Incrementally scan every vehicle and aggregate fleet analytics.

    Each vehicle scans against its *own* stored golden template when the
    store has one (``pipeline``'s template otherwise) through
    :func:`repro.fleet.watch.watch_scan`, so repeat runs only pay for
    new or changed captures — fresh captures fan out through
    ``executor`` (any :class:`~repro.runtime.base.Executor`; default
    pool per ``workers``).  Drift aggregates against the same template
    the scan used.
    """
    if not isinstance(store, FleetStore):
        store = FleetStore(store)
    vehicles: Dict[str, VehicleDrift] = {}
    watch: Dict[str, WatchResult] = {}
    for vehicle_id in store.vehicles():
        if store.has_template(vehicle_id):
            template = store.load_template(vehicle_id)
            vehicle_pipeline = IDSPipeline(
                template, pipeline.config, pipeline.id_pool
            )
        else:
            template = pipeline.template
            vehicle_pipeline = pipeline
        result = watch_scan(
            vehicle_pipeline,
            store.archive(vehicle_id),
            store.ledger_path(vehicle_id),
            workers=workers,
            infer_k=infer_k,
            executor=executor,
            chunk_windows=chunk_windows,
        )
        watch[vehicle_id] = result
        vehicles[vehicle_id] = aggregate_vehicle(
            vehicle_id,
            result.report.captures,
            template,
            drift_slack=drift_slack,
            drift_limit=drift_limit,
        )
    return FleetReport(vehicles=vehicles, watch=watch)
