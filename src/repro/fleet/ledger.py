"""The persistent scan ledger: capture fingerprint -> cached report.

One-shot archive scanning re-reads and re-judges every capture on every
run; a fleet deployment scans the same months of captures daily with
only a handful of new files.  :class:`ScanLedger` is the persistence
layer that makes re-scans incremental: a JSON file mapping each
capture's *relative path* to its content fingerprint
(:func:`repro.io.fingerprint.fingerprint_file`) and the cached report of
its last scan.

:class:`ScanLedger` itself is an opaque store of ``{"fingerprint",
"report"}`` entries.  :func:`encode_report` / :func:`decode_report`
define what a version-2 ``report`` holds::

    {"windows": <WindowBlock.to_payload()>, "inference": <dict> | null}

The windows are the columnar payload the scan fabric's results carry
(one encoder, one decoder for wire, queue and ledger), and a decoded
entry replays as a block-backed
:class:`~repro.core.pipeline.DetectionReport` without building
per-window objects.  Alerts are not stored: they are the alarming
windows' ``to_alert()``, the same expression every scan path uses.

Correctness properties:

* **keyed by content, not name** — an appended/replaced capture misses
  (fingerprint mismatch) and re-scans;
* **keyed by detection context** — the ledger stores a ``context`` key
  derived from the template, config and inference settings; a retrained
  template invalidates every entry at load time;
* **crash-safe and durable** — :func:`atomic_write_text` writes and
  fsyncs a temp file in the same directory, ``os.replace``\\ s it over
  the ledger and fsyncs the directory, so a killed watch run (or a
  power loss) leaves either the old ledger or the new one, never a
  truncated hybrid; a ledger that *is* corrupt (partial write by a
  foreign tool, disk fault) is detected at load and rebuilt from
  scratch rather than trusted;
* **versioned** — a ledger written by an older format loads empty with
  ``rebuild_reason == "format-upgraded"`` and rescans once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.core.inference import InferenceResult
from repro.core.kernel import WindowBlock
from repro.core.pipeline import DetectionReport
from repro.io.atomic import atomic_write_text

__all__ = ["ScanLedger", "atomic_write_text", "decode_report", "encode_report"]

#: On-disk schema version; bump on incompatible layout changes.  Version
#: 1 stored per-window ``DetectionReport.to_dict`` reports; version 2
#: stores :func:`encode_report` entries.
LEDGER_VERSION = 2


class ScanLedger:
    """JSON-on-disk cache of per-capture scan results.

    Parameters
    ----------
    path:
        The ledger file.  Missing is fine (fresh ledger); unreadable or
        corrupt content is *detected* and the ledger rebuilds empty
        (``rebuilt`` is set so callers can report it).
    context:
        Opaque string identifying the detection context (template +
        config + inference settings; see
        :func:`repro.fleet.watch.detection_context`).  A ledger written
        under a different context loads empty — cached verdicts from an
        old template must never answer for a new one.  Pass ``None`` to
        *adopt* whatever context the file already carries: maintenance
        operations (:meth:`compact`, ``repro-ids fleet prune`` and
        ``fleet status``) work on a ledger without knowing the template
        that produced it, and must
        never wipe its entries just because they cannot recompute the
        context hash.

    ``hits`` / ``misses`` count :meth:`get` outcomes since construction,
    so incremental scans can assert exactly how much work the ledger
    saved (the watch tests do).  ``rebuilt`` is True whenever the file
    existed but loaded empty; ``rebuild_reason`` says why —
    ``"corrupt"`` (torn/foreign file: worth an operator's attention),
    ``"format-upgraded"`` (written by an older ledger version: one
    rescan) or ``"context-changed"`` (retrained template or new
    settings: routine) — so the cases stay distinguishable in scan
    output.
    """

    def __init__(
        self, path: Union[str, Path], context: Optional[str] = ""
    ) -> None:
        self.path = Path(path)
        self.context = context
        self.rebuild_reason: Optional[str] = None
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, dict] = {}
        self._load()
        if self.context is None:
            # Adoption mode found no usable file: behave like a fresh
            # ledger under the empty context.
            self.context = ""

    @property
    def rebuilt(self) -> bool:
        """True when an existing ledger file could not be used."""
        return self.rebuild_reason is not None

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text(encoding="ascii"))
            if not isinstance(payload, dict):
                raise ValueError("ledger root is not an object")
            version = payload.get("version")
            if type(version) is int and 0 < version < LEDGER_VERSION:
                # An older format: valid once, never replayable now.
                self.rebuild_reason = "format-upgraded"
                return
            if version != LEDGER_VERSION:
                raise ValueError("ledger schema version mismatch")
            entries = payload["entries"]
            if not isinstance(entries, dict) or any(
                not isinstance(e, dict) or "fingerprint" not in e or "report" not in e
                for e in entries.values()
            ):
                raise ValueError("ledger entries malformed")
        except (ValueError, KeyError, OSError):
            # Truncated/corrupt/foreign file: rebuild rather than trust.
            self.rebuild_reason = "corrupt"
            return
        if self.context is None:
            # Adoption mode (maintenance tools): keep the file's own
            # context so a later save never silently re-keys the ledger.
            self.context = str(payload.get("context", ""))
        elif payload.get("context") != self.context:
            # Valid file, different detection context (e.g. retrained
            # template): every cached verdict is stale.
            self.rebuild_reason = "context-changed"
            return
        self._entries = entries

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, rel_path: str) -> bool:
        return rel_path in self._entries

    def keys(self) -> Iterable[str]:
        """The ledgered capture paths (relative, POSIX separators)."""
        return self._entries.keys()

    def get(self, rel_path: str, fingerprint: str) -> Optional[dict]:
        """The cached report dict for a capture, or None on miss.

        A hit requires both the path *and* the content fingerprint to
        match; a re-recorded capture under the same name misses.
        """
        entry = self._entries.get(rel_path)
        if entry is not None and entry["fingerprint"] == fingerprint:
            self.hits += 1
            return entry["report"]
        self.misses += 1
        return None

    def put(self, rel_path: str, fingerprint: str, report: dict) -> None:
        """Record (or replace) a capture's scan result."""
        self._entries[rel_path] = {"fingerprint": fingerprint, "report": report}

    def prune(self, keep: Iterable[str]) -> int:
        """Drop entries for captures no longer in the archive."""
        keep_set = set(keep)
        stale = [k for k in self._entries if k not in keep_set]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def compact(self, archive) -> int:
        """Drop entries whose capture files left ``archive``, and save.

        ``archive`` is a :class:`~repro.io.archive.CaptureArchive` (or a
        directory path).  Watch scans prune as a side effect, but a
        vehicle whose captures are rotated out between scans would grow
        its ledger forever; this is the standalone maintenance pass
        (``repro-ids fleet prune``; the watch daemon's scans prune every
        vehicle as they go).  The
        ledger is only rewritten when something was actually pruned, so
        compacting a corrupt or older-format file never touches it by
        saving the rebuilt-empty state over it.  Returns the number of
        entries dropped.
        """
        from repro.io.archive import CaptureArchive  # cycle-free import

        if not isinstance(archive, CaptureArchive):
            archive = CaptureArchive(archive)
        keep = [
            p.relative_to(archive.directory).as_posix() for p in archive.paths
        ]
        pruned = self.prune(keep)
        if pruned:
            self.save()
        return pruned

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Persist the ledger atomically (crash leaves old or new file)."""
        payload = {
            "version": LEDGER_VERSION,
            "context": self.context,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, json.dumps(payload))


def encode_report(report: DetectionReport) -> dict:
    """A report as a version-2 ledger entry's ``report`` payload."""
    inference = report.inference
    return {
        "windows": report.block.to_payload(),
        "inference": None if inference is None else inference.to_dict(),
    }


def decode_report(payload: dict, n_bits: int, window_us: int) -> DetectionReport:
    """Inverse of :func:`encode_report`: a block-backed report.

    ``n_bits`` and ``window_us`` come from the detection config the
    ledger's context was computed from.  Raises :class:`ValueError`,
    :class:`KeyError` or :class:`TypeError` (or a
    :class:`~repro.exceptions.ReproError` from the inference payload)
    on an entry it cannot decode exactly; callers treat that as a miss.
    """
    block = WindowBlock.from_payload(payload["windows"], n_bits, window_us)
    inference = payload["inference"]
    return DetectionReport.from_block(
        block,
        None if inference is None else InferenceResult.from_dict(inference),
    )
