"""The filesystem transport of the scan fabric: scans over shared disk.

:class:`WorkQueueExecutor` is the degenerate transport of the protocol
in :mod:`repro.runtime.protocol`: every fabric primitive maps onto a
POSIX filesystem guarantee, so any directory the coordinator and its
workers share (local disk, NFS, a mounted bucket) is a broker.

====================  ==============================================
fabric primitive      filesystem realisation
====================  ==============================================
post a task           atomic write of ``tasks/<job>-<index>.json``
                      (:class:`~repro.runtime.protocol.TaskMessage`
                      wire format)
claim a task          ``os.rename`` into ``claimed/`` — atomic, so
                      exactly one claimant wins
claim lease           the claimed file's mtime, restamped at claim
                      time (:class:`~repro.runtime.protocol.ClaimToken`
                      semantics; ``stale_claim_s`` is the lease)
publish a result      atomic write of ``results/<job>-<index>.json``
                      (:class:`~repro.runtime.protocol.TaskResult`
                      wire format — the spec's columnar result,
                      bit-exact)
quarantine            ``os.replace`` into ``failed/``
====================  ==============================================

Queue directory layout::

    <queue>/
      tasks/     posted task specs, awaiting a claimant
      claimed/   tasks being executed (claim = rename tasks/x -> claimed/x)
      results/   uploaded result dicts, named after their task
      failed/    malformed task files (and ``*.json.corrupt`` result
                 files) quarantined with their evidence intact
      stop       (optional) tells every worker to exit after its task

The coordinator *also drains the queue itself* while waiting (on by
default): with zero workers a queue scan degrades to a serial scan
instead of hanging, and with busy workers the coordinator's cycles are
not wasted.  Claimed tasks whose worker died are re-posted after
``stale_claim_s`` (mtime-based), so a killed worker delays a scan, it
never wedges one.  The TCP transport (:mod:`repro.runtime.net`) speaks
the same protocol without requiring the shared directory at all.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.exceptions import DetectorError
from repro.io.atomic import atomic_write_text
from repro.runtime.base import Executor, ScanSpec
from repro.runtime.protocol import (
    PROTOCOL_VERSION,
    ResultCollector,
    TaskFormatError,
    TaskMessage,
    TaskResult,
    execute_task,
    fabric_stats,
    make_tasks,
    require_portable,
)

__all__ = [
    "WorkQueueExecutor",
    "claim_next_task",
    "execute_claimed_task",
    "queue_dirs",
    "queue_stats",
]

#: Queue-dir protocol version (the fabric protocol version; the wire
#: format is shared with the TCP transport).
QUEUE_VERSION = PROTOCOL_VERSION

#: Name of the file that tells workers to exit (coordinator-independent
#: shutdown; see ``repro-ids worker --stop-file``).
STOP_FILENAME = "stop"


def queue_dirs(queue_dir: Union[str, Path]) -> Tuple[Path, Path, Path, Path]:
    """Create (idempotently) and return the queue's subdirectories."""
    root = Path(queue_dir)
    dirs = (root / "tasks", root / "claimed", root / "results", root / "failed")
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    return dirs


def _index_of(name: str) -> int:
    return int(name.rsplit("-", 1)[1].split(".", 1)[0])


def claim_next_task(
    queue_dir: Union[str, Path], job: Optional[str] = None
) -> Optional[Path]:
    """Claim the oldest pending task via atomic rename; None when idle.

    ``job`` restricts claiming to one coordinator's tasks (the
    coordinator's own drain loop uses this so it never executes another
    scan's work while its own is pending).
    """
    tasks, claimed, _, _ = queue_dirs(queue_dir)
    pattern = f"{job}-*.json" if job else "*.json"
    for path in sorted(tasks.glob(pattern)):
        target = claimed / path.name
        try:
            os.rename(path, target)
        except FileNotFoundError:
            continue  # another claimant won the rename race
        try:
            # rename preserves the posting mtime; stamp the claim time,
            # or a task that merely *queued* longer than stale_claim_s
            # would look instantly stale and be reposted mid-execution.
            os.utime(target)
        except OSError:
            pass
        return target
    return None


def queue_stats(queue_dir: Union[str, Path]) -> dict:
    """Snapshot a queue directory as the shared fabric-stats schema.

    The filesystem face of the TCP coordinator's ``stats`` verb: the
    same :func:`~repro.runtime.protocol.fabric_stats` document, filled
    from directory state.  Point-in-time by construction — results are
    counted while they await collection, and lease ages come from
    claimed-file mtimes (exactly the lease the reposter enforces).  The
    queue keeps no claimant registry, so ``workers`` is empty and each
    outstanding claim reports ``claimant: None``.
    """
    root = Path(queue_dir)
    if not root.is_dir():
        raise DetectorError(f"no queue directory at {root}")
    tasks, claimed, results, failed = queue_dirs(root)
    now = time.time()
    jobs: Dict[str, dict] = {}

    def bump(name: str, state: str) -> None:
        stem = name.split(".", 1)[0]
        job = stem.rsplit("-", 1)[0]
        row = jobs.setdefault(
            job, {"total": 0, "pending": 0, "claimed": 0, "done": 0}
        )
        row[state] += 1
        row["total"] += 1

    n_queued = 0
    for path in tasks.glob("*.json"):
        bump(path.name, "pending")
        n_queued += 1
    claims = []
    for path in claimed.glob("*.json"):
        bump(path.name, "claimed")
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue  # the claimant finished mid-scan
        claims.append(
            {
                "task": path.name.split(".", 1)[0],
                "claimant": None,
                "lease_age_s": round(max(age, 0.0), 3),
            }
        )
    n_done = 0
    for path in results.glob("*.json"):
        bump(path.name, "done")
        n_done += 1
    n_quarantined = sum(1 for _ in failed.glob("*.json*"))
    return fabric_stats(
        "queue",
        draining=(root / STOP_FILENAME).exists(),
        tasks={
            "queued": n_queued,
            "claimed": len(claims),
            "completed": n_done,
            "reposted": 0,
            "quarantined": n_quarantined,
        },
        jobs=jobs,
        claims=sorted(claims, key=lambda row: row["task"]),
    )


def execute_claimed_task(
    claimed_path: Path,
    scanners: Optional[Dict[str, object]] = None,
    stats: Optional[object] = None,
) -> bool:
    """Run one claimed task file and publish its result.

    The filesystem face of :func:`repro.runtime.protocol.execute_task`:
    decode the task file, execute, publish the
    :class:`~repro.runtime.protocol.TaskResult` atomically.  Returns
    True when a result (success *or* recorded failure) was published;
    False when the task file itself was malformed and quarantined into
    ``failed/`` — a foreign or torn task must not crash a fleet's
    shared worker.
    """
    queue_root = claimed_path.parent.parent
    _, _, results, failed = queue_dirs(queue_root)
    try:
        task = TaskMessage.from_wire(
            json.loads(claimed_path.read_text(encoding="ascii"))
        )
    except (TaskFormatError, ValueError, OSError):
        target = failed / claimed_path.name
        try:
            os.replace(claimed_path, target)
        except OSError:
            pass
        return False

    outcome = execute_task(task, scanners, stats=stats)
    atomic_write_text(
        results / f"{task.name}.json", json.dumps(outcome.to_wire())
    )
    try:
        claimed_path.unlink()
    except OSError:
        pass
    return True


class WorkQueueExecutor(Executor):
    """Distribute shard tasks through a shared queue directory.

    Parameters
    ----------
    queue_dir:
        The shared directory (created if missing).  Workers are started
        independently: ``repro-ids worker --queue <dir>`` on any host
        mounting it.
    poll_s:
        Coordinator sleep between collection sweeps when it has nothing
        to drain itself.
    timeout_s:
        Give up (``DetectorError``) when no new result has arrived for
        this long.  ``None`` waits forever — safe with
        ``coordinator_drains`` (progress is then guaranteed even with
        zero workers).
    coordinator_drains:
        When True (default) the coordinator claims and executes its own
        pending tasks while waiting, so workers accelerate a scan but
        are never required for one — including on failure: a worker's
        *error result* (missing mount on its host, transient IO fault)
        is retried locally instead of aborting the scan, and only a
        local failure (the capture really is bad) propagates.  With
        False, an error result raises immediately.
    stale_claim_s:
        The claim lease: claimed tasks older than this are re-posted
        for another worker (crash recovery).  The scan stays correct
        either way: duplicate results of a deterministic task are
        byte-identical, and the coordinator takes whichever arrives.
    orphan_ttl_s:
        At job start the coordinator sweeps ``results/`` and ``failed/``
        files older than this (leftovers of SIGKILLed coordinators or
        workers that finished after their job's cleanup), so a
        long-lived shared queue directory cannot leak files without
        bound.
    """

    def __init__(
        self,
        queue_dir: Union[str, Path],
        poll_s: float = 0.05,
        timeout_s: Optional[float] = None,
        coordinator_drains: bool = True,
        stale_claim_s: float = 300.0,
        orphan_ttl_s: float = 86400.0,
    ) -> None:
        self.queue_dir = Path(queue_dir)
        if poll_s <= 0 or stale_claim_s <= 0 or orphan_ttl_s <= 0:
            raise DetectorError(
                "poll_s, stale_claim_s and orphan_ttl_s must be positive"
            )
        self.poll_s = float(poll_s)
        self.timeout_s = timeout_s
        self.coordinator_drains = bool(coordinator_drains)
        self.stale_claim_s = float(stale_claim_s)
        self.orphan_ttl_s = float(orphan_ttl_s)

    # ------------------------------------------------------------------
    def _sweep_orphans(self) -> None:
        """Drop result/failed files no live job can still be collecting."""
        _, _, results, failed = queue_dirs(self.queue_dir)
        cutoff = time.time() - self.orphan_ttl_s
        for directory in (results, failed):
            for path in directory.glob("*.json*"):
                try:
                    if path.stat().st_mtime < cutoff:
                        path.unlink()
                except OSError:
                    continue  # another sweeper won, or the file is live

    def _post(self, spec: ScanSpec, paths: Sequence[str]) -> str:
        self._sweep_orphans()
        tasks, _, _, _ = queue_dirs(self.queue_dir)
        messages = make_tasks(
            spec, [str(Path(p).resolve()) for p in paths]
        )
        for task in messages:
            atomic_write_text(
                tasks / f"{task.name}.json", json.dumps(task.to_wire())
            )
        return messages[0].job

    def _repost_stale_claims(self, job: str) -> None:
        tasks, claimed, _, _ = queue_dirs(self.queue_dir)
        cutoff = time.time() - self.stale_claim_s
        for path in claimed.glob(f"{job}-*.json"):
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                os.rename(path, tasks / path.name)
            except OSError:
                continue  # the worker finished (or another reposter won)

    def _cleanup(self, job: str) -> None:
        # failed/ is deliberately spared: when run() raises over a
        # quarantined task it points the operator at that directory, so
        # the evidence must outlive the job (the orphan TTL sweeps it).
        tasks, claimed, results, _ = queue_dirs(self.queue_dir)
        for d in (tasks, claimed, results):
            for path in d.glob(f"{job}-*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def _read_outcome(
        self, path: Path, failed_dir: Path, job: str
    ) -> Optional[TaskResult]:
        """Decode one result file; quarantine corruption, never crash.

        A truncated or garbage result file (torn NFS write, disk fault)
        is moved to ``failed/<name>.corrupt`` as evidence and becomes a
        synthetic *error result* carrying the diagnostic — which the
        normal error rule then handles (local retry while draining, a
        clean ``DetectorError`` otherwise).  Returns None when the file
        name itself is unparseable (quarantined the same way; no index
        to synthesise an error for).
        """
        try:
            index = _index_of(path.name)
        except (ValueError, IndexError):
            index = None
        try:
            return TaskResult.from_wire(
                json.loads(path.read_text(encoding="ascii"))
            )
        except (TaskFormatError, ValueError, OSError) as exc:
            target = failed_dir / (path.name + ".corrupt")
            try:
                os.replace(path, target)
            except OSError:
                pass
            if index is None:
                return None
            return TaskResult(
                job,
                index,
                error=(
                    f"corrupt result file quarantined as {target}: {exc}"
                ),
            )

    def run(
        self, spec: ScanSpec, paths: Sequence[Union[str, Path]]
    ) -> List[list]:
        require_portable(spec)
        names = [str(p) for p in paths]
        if not names:
            return []
        job = self._post(spec, names)
        _, _, results_dir, failed_dir = queue_dirs(self.queue_dir)
        collector = ResultCollector(
            spec, names, job, local_retry=self.coordinator_drains
        )
        scanners: Dict[str, object] = {}
        last_progress = time.monotonic()
        try:
            while not collector.done:
                progressed = False
                for path in sorted(results_dir.glob(f"{job}-*.json")):
                    try:
                        if collector.collected(_index_of(path.name)):
                            continue
                    except (ValueError, IndexError):
                        pass
                    outcome = self._read_outcome(path, failed_dir, job)
                    if outcome is not None and collector.offer(outcome):
                        progressed = True
                quarantined = sorted(failed_dir.glob(f"{job}-*.json"))
                if quarantined:
                    # A worker could not even parse one of this job's
                    # task files (transient IO fault, protocol-version
                    # skew after a rolling upgrade).  No result will
                    # ever arrive for it, so waiting — even with
                    # coordinator draining — would hang; surface it.
                    raise DetectorError(
                        f"worker quarantined task(s) "
                        f"{', '.join(p.name for p in quarantined)} under "
                        f"{failed_dir}; check the queue's worker versions"
                    )
                if collector.done:
                    break
                if self.coordinator_drains:
                    claimed = claim_next_task(self.queue_dir, job)
                    if claimed is not None:
                        execute_claimed_task(claimed, scanners)
                        progressed = True
                if progressed:
                    last_progress = time.monotonic()
                    continue
                self._repost_stale_claims(job)
                if (
                    self.timeout_s is not None
                    and time.monotonic() - last_progress > self.timeout_s
                ):
                    outstanding = len(names) - collector.n_collected
                    raise DetectorError(
                        f"work queue {self.queue_dir} made no progress for "
                        f"{self.timeout_s:g}s with {outstanding}"
                        f" of {len(names)} tasks outstanding"
                    )
                time.sleep(self.poll_s)
        finally:
            self._cleanup(job)
        obs.emit(
            "fabric.job", job=job, transport="queue", tasks=len(names)
        )
        return collector.results()

    def describe(self) -> str:
        return f"queue({self.queue_dir})"
