"""The scan-fabric protocol: one state machine, any transport.

Every distributed backend moves the same three messages and obeys the
same rules, no matter what carries the bytes:

* :class:`TaskMessage` — a unit of work: *run this portable spec over
  this capture path*, identified by ``(job, index)``;
* :class:`ClaimToken` — a lease on a claimed task: the claimant must
  finish (or renew) within ``lease_s`` or the task is re-posted for
  another claimant;
* :class:`TaskResult` — the outcome: the spec's columnar window
  verdicts (raw float bytes, so bit-exact) or an error string.

The state machine per task::

    posted ──claim──> claimed ──publish──> done
      ^                 │
      └──lease expiry───┘        (claimant died: re-post, never wedge)

    malformed task ──> quarantined (poison must not crash a claimant;
                       the coordinator raises a diagnostic — no result
                       will ever arrive for it, waiting would hang)

    error result ──> local retry (drain mode: workers accelerate a
                     scan, they are never *required* for one) or a
                     DetectorError (no-drain mode)

Two transports implement it: the filesystem queue
(:mod:`repro.runtime.queue` — posting is a file write, claiming an
atomic rename, the lease stamp an mtime) and the asyncio TCP fabric
(:mod:`repro.runtime.net` — posting is a ``submit`` message, claiming a
``next`` reply, the lease renewed by worker heartbeats).  Both are
bit-identical to a serial scan because both move the same
:class:`TaskResult` codec.

:func:`execute_task` is the claimant half shared by every worker —
filesystem, network, or a draining coordinator — including the
per-spec scanner cache; :class:`ResultCollector` is the coordinator
half: offer results in any order (duplicates welcome — a re-posted
task's duplicate result is byte-identical), get input-ordered results
out.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.exceptions import DetectorError
from repro.runtime.base import ScanSpec, TaskFormatError, spec_from_payload

__all__ = [
    "DEFAULT_LEASE_S",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "STATS_VERSION",
    "ClaimToken",
    "ResultCollector",
    "TaskFormatError",
    "TaskMessage",
    "TaskResult",
    "execute_task",
    "fabric_stats",
    "make_tasks",
    "new_job_id",
    "render_stats",
    "require_portable",
]

#: Wire-format version, stamped into every task and result message.
#: Bump on incompatible changes; claimants quarantine (or reject)
#: anything they cannot speak.  Version 2 carries columnar results
#: (:data:`~repro.runtime.base.RESULT_VERSION` 2).
PROTOCOL_VERSION = 2

#: The largest fabric message, in bytes, either end accepts: one NDJSON
#: line on the TCP transport.  Sized from the columnar result (~411 B
#: per window at 11 bits, ~1,011 B at 29): a 24 h capture in the
#: default 2 s windows is 43,200 windows, ~18 MB (~44 MB at 29 bits).
#: A result that would not fit is published as an error result instead.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Default claim lease: a claimant that neither publishes nor renews
#: within this window is presumed dead and its task is re-posted.
DEFAULT_LEASE_S = 300.0

#: Fabric-statistics schema version (the ``stats`` admin verb and
#: ``queue_stats``).  Versioned separately from the task wire format so
#: observability can evolve without re-posting a single task.
STATS_VERSION = 1


def fabric_stats(
    transport: str,
    *,
    draining: bool = False,
    tasks: Optional[dict] = None,
    jobs: Optional[dict] = None,
    workers: Optional[Sequence[dict]] = None,
    claims: Optional[Sequence[dict]] = None,
    wire: Optional[dict] = None,
) -> dict:
    """Build the one fabric-statistics document both transports speak.

    The schema is transport-neutral on purpose: the TCP coordinator's
    ``stats`` verb and the filesystem queue's directory scan fill in
    the same keys, so ``repro-ids status`` renders either without
    caring what carries the bytes.

    * ``tasks`` — fabric-wide counts: ``queued`` (posted, unclaimed),
      ``claimed`` (leases outstanding), ``completed``, ``reposted``
      (lease expiries + dead claimants), ``quarantined``;
    * ``jobs`` — per-job ``{total, pending, claimed, done}``;
    * ``workers`` — per-claimant rows (name, live claims, lease age,
      executed/cache-hit numbers carried by heartbeats); empty for the
      queue transport, which has no claimant registry;
    * ``claims`` — per-outstanding-claim rows ``{task, claimant,
      lease_age_s}`` (claimant ``None`` on the queue, where the rename
      doesn't record who);
    * ``wire`` — transport bytes in/out (zeros for the queue).
    """
    base_tasks = {
        "queued": 0,
        "claimed": 0,
        "completed": 0,
        "reposted": 0,
        "quarantined": 0,
    }
    if tasks:
        base_tasks.update(tasks)
    base_wire = {"bytes_in": 0, "bytes_out": 0}
    if wire:
        base_wire.update(wire)
    return {
        "version": STATS_VERSION,
        "transport": str(transport),
        "draining": bool(draining),
        "tasks": base_tasks,
        "jobs": dict(jobs or {}),
        "workers": list(workers or []),
        "claims": list(claims or []),
        "wire": base_wire,
    }


def _age(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}s"


def render_stats(stats: dict) -> str:
    """Render a :func:`fabric_stats` document as the status console."""
    if stats.get("version") != STATS_VERSION:
        raise DetectorError(
            f"fabric stats version {stats.get('version')!r} != {STATS_VERSION}"
        )
    tasks = stats["tasks"]
    wire = stats["wire"]
    state = "draining" if stats.get("draining") else "serving"
    lines = [
        f"fabric: {stats['transport']} ({state})",
        (
            f"tasks: {tasks['queued']} queued, {tasks['claimed']} claimed, "
            f"{tasks['completed']} completed, {tasks['reposted']} reposted, "
            f"{tasks['quarantined']} quarantined"
        ),
        f"wire: {wire['bytes_in']} B in, {wire['bytes_out']} B out",
    ]
    jobs = stats.get("jobs", {})
    if jobs:
        lines.append(f"jobs ({len(jobs)}):")
        for job, row in sorted(jobs.items()):
            lines.append(
                f"  {job}: {row['done']}/{row['total']} done, "
                f"{row['pending']} pending, {row['claimed']} claimed"
            )
    workers = stats.get("workers", [])
    if workers:
        lines.append(f"workers ({len(workers)}):")
        for row in workers:
            hits = row.get("cache_hits", 0)
            misses = row.get("cache_misses", 0)
            built = hits + misses
            rate = f"{hits}/{built}" if built else "0/0"
            claims = row.get("claims", [])
            claim_note = ", ".join(claims) if claims else "idle"
            lines.append(
                f"  {row['name']}: {row.get('completed', 0)} completed, "
                f"{len(claims)} claimed ({claim_note}), "
                f"lease age {_age(row.get('lease_age_s'))}, "
                f"cache {rate}, busy {row.get('busy_s', 0.0):.2f}s"
            )
    claims = stats.get("claims", [])
    if claims:
        lines.append(f"claims ({len(claims)}):")
        for row in claims:
            claimant = row.get("claimant") or "?"
            lines.append(
                f"  {row['task']}: {claimant}, "
                f"age {_age(row.get('lease_age_s'))}"
            )
    return "\n".join(lines)


def new_job_id() -> str:
    """A fresh job identifier (also the task-name prefix on disk)."""
    return uuid.uuid4().hex[:12]


def require_portable(spec: ScanSpec) -> None:
    """Refuse specs that cannot serialise across a host boundary."""
    if not spec.portable:
        raise DetectorError(
            f"{type(spec).__name__} cannot be shipped through a work "
            f"queue or network fabric; use the serial or pool executor"
        )


def _decode_error(payload: object, exc: Exception) -> TaskFormatError:
    head = repr(payload)
    if len(head) > 80:
        head = head[:77] + "..."
    return TaskFormatError(f"malformed fabric message {head}: {exc}")


@dataclass(frozen=True)
class TaskMessage:
    """One unit of work: a portable spec payload over one capture path."""

    job: str
    index: int
    path: str
    spec: dict

    @property
    def name(self) -> str:
        """Canonical task name, also the filesystem transport's stem."""
        return f"{self.job}-{self.index:06d}"

    def to_wire(self) -> dict:
        return {
            "version": PROTOCOL_VERSION,
            "job": self.job,
            "index": self.index,
            "path": self.path,
            "spec": self.spec,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "TaskMessage":
        try:
            if payload["version"] != PROTOCOL_VERSION:
                raise ValueError(
                    f"fabric protocol version {payload['version']!r}"
                )
            return cls(
                job=str(payload["job"]),
                index=int(payload["index"]),
                path=str(payload["path"]),
                spec=dict(payload["spec"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _decode_error(payload, exc) from exc


@dataclass(frozen=True)
class TaskResult:
    """A task's outcome: encoded window verdicts, or an error string."""

    job: str
    index: int
    result: Optional[list] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_wire(self) -> dict:
        wire = {
            "version": PROTOCOL_VERSION,
            "job": self.job,
            "index": self.index,
        }
        if self.error is not None:
            wire["error"] = self.error
        else:
            wire["result"] = self.result
        return wire

    @classmethod
    def from_wire(cls, payload: dict) -> "TaskResult":
        try:
            if payload["version"] != PROTOCOL_VERSION:
                raise ValueError(
                    f"fabric protocol version {payload['version']!r}"
                )
            error = payload.get("error")
            if error is None and "result" not in payload:
                raise ValueError("neither result nor error present")
            return cls(
                job=str(payload["job"]),
                index=int(payload["index"]),
                result=payload.get("result"),
                error=None if error is None else str(error),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _decode_error(payload, exc) from exc


@dataclass
class ClaimToken:
    """A lease on a claimed task, renewable by claimant heartbeats."""

    task: TaskMessage
    claimant: str
    claimed_at: float
    lease_s: float = DEFAULT_LEASE_S

    def expired(self, now: float) -> bool:
        return now - self.claimed_at > self.lease_s

    def renew(self, now: float) -> None:
        self.claimed_at = now


def make_tasks(
    spec: ScanSpec, paths: Sequence[str], job: Optional[str] = None
) -> List[TaskMessage]:
    """Describe a job: one :class:`TaskMessage` per capture path."""
    require_portable(spec)
    job = job or new_job_id()
    payload = spec.to_payload()
    return [
        TaskMessage(job=job, index=i, path=str(p), spec=payload)
        for i, p in enumerate(paths)
    ]


def execute_task(
    task: TaskMessage,
    scanners: Optional[Dict[str, object]] = None,
    stats: Optional[object] = None,
) -> TaskResult:
    """Run one task; a scan failure becomes an *error result*.

    The claimant half shared by every worker.  ``scanners`` caches
    built scanners keyed by the canonical spec payload, so a claimant
    draining a whole archive builds its engine once.  Errors are
    published, not raised: the coordinator is the process with a human
    attached, so failures surface there, and the fabric never wedges on
    a poison capture.

    ``stats`` is an optional mutable accumulator (duck-typed
    ``WorkerStats``): per-task timing and engine-cache hit/miss counts
    land on it so workers can carry them in heartbeat renewals.
    """
    key = json.dumps(task.spec, sort_keys=True)
    started = time.perf_counter()
    try:
        spec = spec_from_payload(task.spec)
        if scanners is not None and key in scanners:
            scan = scanners[key]
            if stats is not None:
                stats.cache_hits += 1
        else:
            scan = spec.make_scanner()
            if scanners is not None:
                scanners[key] = scan
            if stats is not None:
                stats.cache_misses += 1
        reg = obs.active()
        if reg is None:
            result = scan(task.path)
        else:
            with reg.span("fabric.task", task=task.name, path=task.path):
                result = scan(task.path)
        return TaskResult(
            task.job, task.index, result=spec.encode_result(result)
        )
    except Exception as exc:  # noqa: BLE001 - published, not swallowed
        return TaskResult(
            task.job, task.index, error=f"{type(exc).__name__}: {exc}"
        )
    finally:
        if stats is not None:
            elapsed = time.perf_counter() - started
            stats.busy_s += elapsed
            stats.last_task_s = elapsed


class ResultCollector:
    """The coordinator half: out-of-order results in, input order out.

    Encapsulates the error-result rule once for every transport (a
    result payload that does not decode counts as an error result):
    with ``local_retry`` (drain mode) a worker's error result is retried
    locally — a remote failure (missing mount on the worker's host,
    transient IO fault) degrades to local execution and only a local
    failure (the capture really is bad) propagates, with the true local
    exception.  Without it, an error result raises immediately.

    Duplicate and foreign results are ignored (``offer`` returns
    False): a re-posted task may legitimately complete twice, and the
    duplicate results of a deterministic task are byte-identical — the
    collector takes whichever arrives first.
    """

    def __init__(
        self,
        spec: ScanSpec,
        paths: Sequence[str],
        job: str,
        local_retry: bool = True,
    ) -> None:
        self.spec = spec
        self.names = [str(p) for p in paths]
        self.job = job
        self.local_retry = bool(local_retry)
        self._collected: Dict[int, list] = {}
        self._local_scan = None

    @property
    def done(self) -> bool:
        return len(self._collected) >= len(self.names)

    @property
    def n_collected(self) -> int:
        return len(self._collected)

    def collected(self, index: int) -> bool:
        return index in self._collected

    def pending_indices(self) -> List[int]:
        return [
            i for i in range(len(self.names)) if i not in self._collected
        ]

    def offer(self, outcome: TaskResult) -> bool:
        """Accept one outcome; True when it progressed the job."""
        if outcome.job != self.job:
            return False
        index = outcome.index
        if not 0 <= index < len(self.names) or index in self._collected:
            return False
        error = outcome.error
        if error is None:
            try:
                windows = self.spec.decode_result(outcome.result)
            except TaskFormatError as exc:
                error = str(exc)  # never decode to wrong windows
            else:
                self._collected[index] = windows
                return True
        if not self.local_retry:
            raise DetectorError(
                f"worker failed scanning {self.names[index]}: {error}"
            )
        if self._local_scan is None:
            self._local_scan = self.spec.make_scanner()
        self._collected[index] = self._local_scan(self.names[index])
        return True

    def results(self) -> List[list]:
        """Input-ordered results; only valid once :attr:`done`."""
        if not self.done:
            raise DetectorError(
                f"job {self.job} incomplete: "
                f"{len(self.names) - len(self._collected)} of "
                f"{len(self.names)} tasks outstanding"
            )
        return [self._collected[i] for i in range(len(self.names))]
