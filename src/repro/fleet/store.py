"""The fleet store: per-vehicle captures, templates and ledgers on disk.

The paper trains one golden template per vehicle and monitors that
vehicle for months.  :class:`FleetStore` is the on-disk layout that
makes this a managed system instead of a pile of loose files::

    <root>/
      vehicles/
        <vehicle-id>/
          captures/            # a CaptureArchive directory
            2026-01-03.log
            2026-01-04.log.gz
          template.json        # the vehicle's golden template
          templates/           # per-bus templates (multibus vehicles)
            bus-high_speed.json
            bus-middle_speed.json
          ledger.json          # the vehicle's scan ledger

Every template write goes through
:func:`repro.fleet.ledger.atomic_write_text`, so a crashed run never
leaves a half-written template (same guarantee the ledger has).
Per-bus template files store the bus label *inside* the payload, so
labels never need filename-safe escaping to round-trip.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.template import GoldenTemplate
from repro.exceptions import TemplateError, TraceFormatError
from repro.fleet.ledger import atomic_write_text
from repro.io.archive import DEFAULT_PATTERNS, CaptureArchive

__all__ = ["FleetStore"]

#: Vehicle identifiers are path components; keep them filename-safe.
_VEHICLE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Filename-safe rendering of a bus label (the real label lives in the
#: file payload; this only needs to be unique per distinct label).
_BUS_FILE_RE = re.compile(r"[^A-Za-z0-9._-]")


def _check_vehicle_id(vehicle_id: str) -> str:
    if not _VEHICLE_ID_RE.match(vehicle_id):
        raise TraceFormatError(
            f"invalid vehicle id {vehicle_id!r}; use letters, digits, "
            f"'.', '_' or '-' (must not start with a separator)"
        )
    return vehicle_id


class FleetStore:
    """A directory of per-vehicle capture archives, templates, ledgers.

    Parameters
    ----------
    root:
        The store root.  Construction is side-effect-free — directories
        appear on the first *write* (``add_vehicle``/``add_capture``/
        ``save_template``), so read-only commands (``fleet status``,
        scans of a typo'd path) never materialise an empty store.
    patterns, recursive:
        Forwarded to each vehicle's :class:`CaptureArchive`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        patterns: Sequence[str] = DEFAULT_PATTERNS,
        recursive: bool = False,
    ) -> None:
        self.root = Path(root)
        self.patterns = tuple(patterns)
        self.recursive = recursive
        self._vehicles_dir = self.root / "vehicles"

    # ------------------------------------------------------------------
    # Vehicles
    # ------------------------------------------------------------------
    def vehicle_dir(self, vehicle_id: str) -> Path:
        """The vehicle's directory (not necessarily existing yet)."""
        return self._vehicles_dir / _check_vehicle_id(vehicle_id)

    def add_vehicle(self, vehicle_id: str) -> Path:
        """Create a vehicle's directory tree (idempotent)."""
        directory = self.vehicle_dir(vehicle_id)
        (directory / "captures").mkdir(parents=True, exist_ok=True)
        return directory

    def has_vehicle(self, vehicle_id: str) -> bool:
        """True when the vehicle exists in the store."""
        return self.vehicle_dir(vehicle_id).is_dir()

    def vehicles(self) -> List[str]:
        """All vehicle ids, sorted (deterministic fleet iteration)."""
        if not self._vehicles_dir.is_dir():
            return []
        return sorted(
            p.name for p in self._vehicles_dir.iterdir() if p.is_dir()
        )

    def __len__(self) -> int:
        return len(self.vehicles())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FleetStore({str(self.root)!r}, {len(self)} vehicles)"

    # ------------------------------------------------------------------
    # Captures
    # ------------------------------------------------------------------
    def captures_dir(self, vehicle_id: str) -> Path:
        """The vehicle's capture archive directory (no side effects)."""
        return self.vehicle_dir(vehicle_id) / "captures"

    def archive(self, vehicle_id: str) -> CaptureArchive:
        """A fresh snapshot of the vehicle's capture archive."""
        directory = self.captures_dir(vehicle_id)
        if not directory.is_dir():
            if not self.has_vehicle(vehicle_id):
                raise TraceFormatError(
                    f"vehicle {vehicle_id!r} does not exist in the store"
                )
            # Vehicle directory made by hand without captures/: repair
            # (benign — the vehicle itself was an explicit write).
            directory.mkdir(parents=True, exist_ok=True)
        return CaptureArchive(
            directory, patterns=self.patterns, recursive=self.recursive
        )

    def add_capture(
        self,
        vehicle_id: str,
        name: str,
        trace,
        fmt: Optional[str] = None,
        overwrite: bool = False,
    ) -> Path:
        """Write one capture into the vehicle's archive; returns its path.

        The store is the *persistent* home of a vehicle's history, so a
        name collision refuses rather than silently destroying the old
        capture; pass ``overwrite=True`` to replace deliberately (the
        ledger's content fingerprint then forces a re-scan).
        """
        self.add_vehicle(vehicle_id)
        target = self.captures_dir(vehicle_id) / name
        if target.exists() and not overwrite:
            raise TraceFormatError(
                f"vehicle {vehicle_id!r} already stores a capture named "
                f"{name!r}; pass overwrite=True to replace it"
            )
        return self.archive(vehicle_id).write_capture(name, trace, fmt=fmt)

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    def template_path(self, vehicle_id: str) -> Path:
        """Where the vehicle's golden template lives."""
        return self.vehicle_dir(vehicle_id) / "template.json"

    def has_template(self, vehicle_id: str) -> bool:
        """True when the vehicle has a persisted golden template."""
        return self.template_path(vehicle_id).is_file()

    def save_template(
        self,
        vehicle_id: str,
        template: GoldenTemplate,
        window_us: Optional[int] = None,
    ) -> Path:
        """Persist the vehicle's golden template (atomic write).

        ``window_us`` records the detection window the template was
        trained with — a template only judges correctly at its training
        window, so scan commands read it back
        (:meth:`template_window_us`) and refuse a mismatch.  The key
        rides inside ``template.json`` (``GoldenTemplate.from_dict``
        ignores extra keys, so the file stays loadable as a plain
        template).
        """
        self.add_vehicle(vehicle_id)
        path = self.template_path(vehicle_id)
        payload = template.to_dict()
        if window_us is not None:
            payload["window_us"] = int(window_us)
        atomic_write_text(path, json.dumps(payload, indent=2))
        return path

    def load_template(self, vehicle_id: str) -> GoldenTemplate:
        """Load the vehicle's golden template.

        Raises :class:`TemplateError` whether the template is missing
        *or* corrupt — callers get one diagnosable exception type
        instead of raw JSON tracebacks from a torn file.
        """
        path = self.template_path(vehicle_id)
        if not path.is_file():
            raise TemplateError(
                f"vehicle {vehicle_id!r} has no stored template ({path})"
            )
        try:
            return GoldenTemplate.load(path)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise TemplateError(
                f"vehicle {vehicle_id!r} template file {path} is corrupt: {exc}"
            ) from exc

    def template_window_us(self, vehicle_id: str) -> Optional[int]:
        """The window the vehicle's template was trained with, if recorded.

        Raises :class:`TemplateError` on a corrupt file (same contract
        as :meth:`load_template`).
        """
        path = self.template_path(vehicle_id)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="ascii"))
            if not isinstance(payload, dict):
                raise ValueError("template root is not an object")
        except ValueError as exc:
            raise TemplateError(
                f"vehicle {vehicle_id!r} template file {path} is corrupt: {exc}"
            ) from exc
        window = payload.get("window_us")
        return None if window is None else int(window)

    # ------------------------------------------------------------------
    # Per-bus templates (multibus vehicles)
    # ------------------------------------------------------------------
    def _bus_templates_dir(self, vehicle_id: str) -> Path:
        return self.vehicle_dir(vehicle_id) / "templates"

    def save_bus_templates(
        self, vehicle_id: str, templates: Mapping[str, GoldenTemplate]
    ) -> Dict[str, Path]:
        """Persist one template file per (vehicle, bus), atomically.

        This is the persistence half of the multibus flow: train with
        :func:`repro.vehicle.multibus.build_bus_templates` (or take the
        ``templates`` mapping off a
        :class:`~repro.core.pipeline.MultiBusReport`), save here, and
        feed :meth:`load_bus_templates` to
        :meth:`IDSPipeline.analyze_multibus` on the next capture —
        no hand-training per bus.
        """
        self.add_vehicle(vehicle_id)
        directory = self._bus_templates_dir(vehicle_id)
        directory.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {}
        for label, template in templates.items():
            safe = _BUS_FILE_RE.sub("_", label) or "_"
            path = directory / f"bus-{safe}.json"
            payload = {"bus": label, "template": template.to_dict()}
            atomic_write_text(path, json.dumps(payload, indent=2))
            paths[label] = path
        return paths

    def bus_template_files(self, vehicle_id: str) -> List[Path]:
        """The stored per-bus template files (no parsing).

        The cheap existence/count probe ``fleet status`` uses — it must
        not crash on (or pay for deserialising) a corrupt file the way
        :meth:`load_bus_templates` legitimately would.
        """
        directory = self._bus_templates_dir(vehicle_id)
        if not directory.is_dir():
            return []
        return sorted(directory.glob("bus-*.json"))

    def load_bus_templates(self, vehicle_id: str) -> Dict[str, GoldenTemplate]:
        """Load every stored (vehicle, bus) template as a label mapping."""
        templates: Dict[str, GoldenTemplate] = {}
        for path in self.bus_template_files(vehicle_id):
            payload = json.loads(path.read_text(encoding="ascii"))
            templates[payload["bus"]] = GoldenTemplate.from_dict(
                payload["template"]
            )
        return templates

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def ledger_path(self, vehicle_id: str) -> Path:
        """Where the vehicle's scan ledger lives."""
        return self.vehicle_dir(vehicle_id) / "ledger.json"

    def compact_ledgers(self) -> Dict[str, int]:
        """Compact every vehicle's ledger against its current archive.

        The maintenance pass behind ``repro-ids fleet prune``: entries
        whose capture files left the archive are dropped
        (:meth:`ScanLedger.compact` — loaded in context-adoption mode, so
        unknown detection contexts are never wiped).  The watch daemon
        does not call it: each cycle's watch scans prune as they save.
        Returns pruned-entry counts per vehicle that had a ledger.
        """
        from repro.fleet.ledger import ScanLedger  # cycle-free import

        pruned: Dict[str, int] = {}
        for vehicle_id in self.vehicles():
            path = self.ledger_path(vehicle_id)
            if not path.is_file():
                continue
            ledger = ScanLedger(path, context=None)
            pruned[vehicle_id] = ledger.compact(self.archive(vehicle_id))
        return pruned

    # ------------------------------------------------------------------
    # Retrain event log
    # ------------------------------------------------------------------
    def retrain_log_path(self, vehicle_id: str) -> Path:
        """Where the vehicle's retrain event log lives (JSON lines)."""
        return self.vehicle_dir(vehicle_id) / "retrain-log.jsonl"

    def append_retrain_event(self, vehicle_id: str, event: Mapping) -> Path:
        """Record one re-baselining of a vehicle's golden template.

        The log is append-only JSON lines — every re-baseline in a
        vehicle's life stays auditable (when, why, from which captures,
        replacing which template).  A line is one self-contained event,
        so a torn final line (crash mid-append) costs that event only;
        :meth:`retrain_events` skips it.
        """
        self.add_vehicle(vehicle_id)
        path = self.retrain_log_path(vehicle_id)
        with path.open("a", encoding="ascii") as handle:
            handle.write(json.dumps(dict(event), sort_keys=True) + "\n")
        return path

    def retrain_events(self, vehicle_id: str) -> List[dict]:
        """The vehicle's retrain events, oldest first (torn lines skipped)."""
        path = self.retrain_log_path(vehicle_id)
        if not path.is_file():
            return []
        events: List[dict] = []
        for line in path.read_text(encoding="ascii").splitlines():
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn/foreign line: skip, keep the rest
            if isinstance(event, dict):
                events.append(event)
        return events
