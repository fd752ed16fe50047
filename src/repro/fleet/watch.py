"""Incremental (watch-mode) archive scanning against a scan ledger.

A fleet deployment re-examines each vehicle's capture archive on a
schedule.  Cold-scanning the whole archive every time is wasted work:
yesterday's captures have not changed and neither has the template.
:func:`watch_scan` diffs a :class:`~repro.io.archive.CaptureArchive`
snapshot against the vehicle's :class:`~repro.fleet.ledger.ScanLedger`
and scans **only** captures whose content fingerprint is new or changed
— through :meth:`IDSPipeline.scan_captures`, the same scan + inference
step a cold :meth:`IDSPipeline.analyze_archive` run takes — then
replays the cached reports for everything else.

The headline guarantee, asserted by ``tests/test_fleet_watch.py``: the
assembled :class:`~repro.core.pipeline.ArchiveReport` is **bit-identical
to a cold full scan** of the same archive at any worker count.  Fresh
results are trivially identical (same code, same bytes); cached results
are identical because the ledger's columnar entries carry the raw bytes
of every window array (:func:`repro.fleet.ledger.encode_report`) and
because the ledger invalidates itself whenever the detection context —
template, config, identifier pool, ``infer_k`` — changes.  Fresh and
cached captures alike are block-backed reports: no per-window objects
are built unless a caller asks for them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.core.config import IDSConfig
from repro.core.pipeline import ArchiveReport, DetectionReport, IDSPipeline
from repro.core.template import GoldenTemplate
from repro.exceptions import ReproError
from repro.fleet.ledger import ScanLedger, decode_report, encode_report
from repro.io.archive import CaptureArchive
from repro.io.fingerprint import fingerprint_file

__all__ = ["WatchResult", "detection_context", "watch_scan"]


def detection_context(
    template: GoldenTemplate,
    config: IDSConfig,
    id_pool=None,
    infer_k=1,
) -> str:
    """Fingerprint of everything that determines a capture's verdict.

    Two scans with equal context keys produce identical reports for
    identical capture bytes; any difference — retrained template,
    changed window, different inference settings — yields a new key and
    therefore a cold ledger.  Training-time-only knobs (``alpha``,
    ``threshold_floor``, ``template_windows``) are deliberately *not*
    hashed: their effect is already baked into the template's
    thresholds, and hashing them would cold-invalidate every vehicle's
    ledger whenever an unrelated vehicle retrains with different
    training settings.
    """
    payload = {
        "template": template.to_dict(),
        "config": {
            "n_bits": config.n_bits,
            "window_us": config.window_us,
            "min_window_messages": config.min_window_messages,
            "rank": config.rank,
            "constraint_z": config.constraint_z,
            "min_injected_fraction": config.min_injected_fraction,
        },
        "id_pool": None if id_pool is None else [int(i) for i in id_pool],
        "infer_k": infer_k if infer_k == "auto" else int(infer_k),
    }
    blob = json.dumps(payload, sort_keys=True).encode("ascii")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass
class WatchResult:
    """Outcome of one incremental archive scan."""

    #: The assembled report — bit-identical to a cold full scan.
    report: ArchiveReport
    #: Captures that were actually (re-)scanned this run, in scan order.
    scanned: List[Path] = field(default_factory=list)
    #: Captures answered from the ledger, in scan order.
    cached: List[Path] = field(default_factory=list)
    #: Ledger entries dropped because their captures left the archive.
    pruned: int = 0
    #: The ledger after the run (saved; exposes hit/miss counters).
    ledger: Optional[ScanLedger] = None

    @property
    def fully_cached(self) -> bool:
        """True when the ledger answered every capture."""
        return not self.scanned

    def summary(self) -> str:
        """One-line digest of how much work the ledger saved."""
        flags = []
        if self.ledger is not None and self.ledger.rebuilt:
            flags.append(f"ledger rebuilt: {self.ledger.rebuild_reason}")
        if self.pruned:
            flags.append(f"{self.pruned} pruned")
        extra = f" ({', '.join(flags)})" if flags else ""
        return (
            f"{len(self.report)} captures: {len(self.scanned)} scanned, "
            f"{len(self.cached)} cached{extra}"
        )


def watch_scan(
    pipeline: IDSPipeline,
    archive: Union[CaptureArchive, str, Path],
    ledger_path: Union[str, Path],
    workers: Optional[int] = None,
    infer_k=1,
    executor=None,
    chunk_windows: Optional[int] = None,
) -> WatchResult:
    """Scan an archive incrementally, updating its ledger.

    Captures whose relative path *and* content fingerprint match a
    ledger entry replay the persisted report; everything else goes
    through :meth:`IDSPipeline.scan_captures` (``workers``,
    ``executor`` and the out-of-core ``chunk_windows`` as there — any
    runtime backend, same bit-identical result) and lands in the ledger
    for next time.
    Entries for captures no longer present are pruned, and the ledger
    is saved atomically before returning.
    """
    if not isinstance(archive, CaptureArchive):
        archive = CaptureArchive(archive)
    context = detection_context(
        pipeline.template, pipeline.config, pipeline.id_pool, infer_k
    )
    ledger = ScanLedger(ledger_path, context)
    n_bits, window_us = pipeline.config.n_bits, pipeline.config.window_us

    rels = [p.relative_to(archive.directory).as_posix() for p in archive.paths]
    fingerprints = [fingerprint_file(p) for p in archive.paths]
    reports: List[Optional[DetectionReport]] = []
    stale: List[int] = []
    cached_paths: List[Path] = []
    for i, (path, rel, fp) in enumerate(zip(archive.paths, rels, fingerprints)):
        entry = ledger.get(rel, fp)
        report = None
        if entry is not None:
            try:
                report = decode_report(entry, n_bits, window_us)
            except (ReproError, TypeError, KeyError, ValueError):
                # The entry passed the ledger's shallow schema check but
                # its report payload is malformed (foreign writer, hand
                # edit, schema drift).  The corrupt-ledger contract is
                # "never trust, re-scan": demote the hit to a miss.
                ledger.hits -= 1
                ledger.misses += 1
        if report is None:
            reports.append(None)
            stale.append(i)
        else:
            reports.append(report)
            cached_paths.append(path)

    scanned_paths = [archive.paths[i] for i in stale]
    if stale:
        fresh = pipeline.scan_captures(
            scanned_paths, workers=workers, infer_k=infer_k,
            executor=executor, chunk_windows=chunk_windows,
        )
        for i, report in zip(stale, fresh):
            reports[i] = report
            ledger.put(rels[i], fingerprints[i], encode_report(report))

    pruned = ledger.prune(rels)
    ledger.save()
    return WatchResult(
        report=ArchiveReport(captures=list(zip(archive.paths, reports))),
        scanned=scanned_paths,
        cached=cached_paths,
        pruned=pruned,
        ledger=ledger,
    )
