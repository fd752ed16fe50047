"""The TCP transport of the scan fabric: no shared disk required.

The filesystem queue needs every worker to mount the coordinator's
directory; this module carries the same protocol
(:mod:`repro.runtime.protocol`) over a socket instead, so workers need
nothing but a route to one TCP port.  Three pieces:

* :class:`ScanServer` — the asyncio coordinator (``repro-ids serve``).
  A small in-memory broker speaking newline-delimited JSON: submitter
  connections post jobs and stream results back; worker connections
  register, pull tasks, renew leases and upload results.  A worker
  whose connection drops (or whose lease expires — the backstop for
  half-open sockets) has its claimed tasks re-posted immediately, so a
  SIGKILLed worker delays a scan, it never wedges one.  SIGTERM drains
  gracefully: no new jobs are accepted, in-flight jobs finish, idle
  workers are told to exit.

* :class:`NetExecutor` — the coordinator-side backend (``--executor
  net --connect host:port``).  Submits the job, collects streamed
  results, and (by default) drains its own job's tasks through a
  second, worker-role connection — so workers accelerate a scan but
  are never required for one, exactly like the queue backend.  The
  drain loop never blocks while the coordinator still hands it a task:
  it polls the submit socket without waiting, and waits up to
  ``poll_s`` for a pushed result only after an ``idle``/``drain``
  reply.

* :func:`run_net_worker` — the network claimant behind ``repro-ids
  worker --connect``.  Pull a task, execute it through the shared
  :func:`~repro.runtime.protocol.execute_task` (per-spec engine cache
  included), upload, repeat; a background heartbeat renews the lease
  during long scans.

Wire format: one JSON object per line, ASCII, at most
:data:`~repro.runtime.protocol.MAX_MESSAGE_BYTES` long — a longer line
is refused with a named ``error`` by either end, and a result that
would exceed it is published as an error result instead.  Every
conversation opens with ``{"version": 2, "type": "hello", "role":
"worker"|"submit"|"status", "name": ...}`` answered by ``{"type":
"welcome", "lease_s": ...}``; another version gets an ``error`` that
names it.  Workers send ``next`` (→ ``task`` / ``idle`` / ``drain``;
an optional ``job`` restricts the claim to that job), ``result`` (→
``ack``) and fire-and-forget ``renew`` heartbeats (optionally carrying
the worker's running :class:`~repro.runtime.worker.WorkerStats` so the
coordinator sees per-task timing and engine-cache hit rates);
submitters send ``submit`` (→ ``submitted``) and then receive pushed
``result`` messages — except results uploaded with ``"echo": false``,
which the submitter's own drain connection sent and already holds.
Every role may send ``stats`` (→ the transport-neutral
:func:`~repro.runtime.protocol.fabric_stats` document — the admin verb
behind ``repro-ids status --connect``); the ``status`` role may send
nothing else.  Task and result payloads are the protocol module's
versioned codecs — the very bytes the filesystem transport writes to
disk — which is what keeps a net scan bit-identical to a serial one.

Capture *paths* still travel by name, not content: a worker that
cannot read a path publishes an error result and the draining
coordinator retries locally, so a mixed fleet (some hosts with the
archive mounted, some without) degrades instead of failing.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.exceptions import DetectorError
from repro.runtime.base import Executor, ScanSpec
from repro.runtime.protocol import (
    DEFAULT_LEASE_S,
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ClaimToken,
    ResultCollector,
    TaskFormatError,
    TaskMessage,
    TaskResult,
    execute_task,
    fabric_stats,
    make_tasks,
    new_job_id,
    require_portable,
)
from repro.runtime.worker import WorkerStats

__all__ = [
    "NetExecutor",
    "ScanServer",
    "ServerThread",
    "fetch_stats",
    "parse_address",
    "run_net_worker",
]


def _frame(message: dict) -> bytes:
    """One NDJSON line: the wire form of every message."""
    return (json.dumps(message) + "\n").encode("ascii")


def _over_ceiling(what: str, size: int) -> str:
    return (
        f"{what} of {size} B exceeds the {MAX_MESSAGE_BYTES} B fabric "
        f"message ceiling"
    )


def parse_address(connect: str) -> Tuple[str, int]:
    """Split ``host:port`` (the ``--connect`` flag) into its parts."""
    host, sep, port = str(connect).rpartition(":")
    if not sep or not host:
        raise DetectorError(
            f"coordinator address {connect!r} is not host:port"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise DetectorError(
            f"coordinator address {connect!r} has a non-numeric port"
        ) from exc


# ----------------------------------------------------------------------
# Coordinator (asyncio server)
# ----------------------------------------------------------------------

@dataclass
class _Job:
    """One submitted job's server-side state."""

    job: str
    tasks: Dict[int, TaskMessage]
    pending: Deque[int]
    submitter: asyncio.StreamWriter
    claimed: Dict[int, ClaimToken] = field(default_factory=dict)
    done: Set[int] = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return len(self.done) >= len(self.tasks)


@dataclass
class _WorkerConn:
    """One connected worker's claims, for disconnect cleanup.

    ``stats`` is the latest self-report the worker carried in a
    ``renew`` heartbeat (executed/cache-hit/busy numbers);
    ``completed`` counts the uploads *this connection* landed first.
    """

    name: str
    claims: Set[Tuple[str, int]] = field(default_factory=set)
    stats: Dict[str, object] = field(default_factory=dict)
    completed: int = 0


class ScanServer:
    """The asyncio TCP coordinator: an in-memory scan-fabric broker.

    Holds no detection state at all — only the protocol state machine
    (pending / claimed-with-lease / done per task) — so it is cheap
    enough to leave running as a long-lived fleet service.  Start with
    :meth:`start` inside a running event loop; ``repro-ids serve`` and
    :class:`ServerThread` both wrap that.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = DEFAULT_LEASE_S,
        log=None,
    ) -> None:
        if lease_s <= 0:
            raise DetectorError("lease_s must be positive")
        self.host = host
        self.port = int(port)  # rebound to the real port by start()
        self.lease_s = float(lease_s)
        self.log = log
        self.draining = False
        self._jobs: Dict[str, _Job] = {}
        self._workers: Dict[asyncio.StreamWriter, _WorkerConn] = {}
        self._locks: Dict[asyncio.StreamWriter, asyncio.Lock] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        self._reaper: Optional[asyncio.Task] = None
        self._handlers: Set[asyncio.Task] = set()
        # Lifetime telemetry, surfaced by stats()/summary_line().
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_reposted = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.peak_workers = 0

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_MESSAGE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = asyncio.create_task(self._reap_expired())
        self._log(f"serve: listening on {self.host}:{self.port}")

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def close(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Cancel connection handlers ourselves — leaving them to the
        # loop's shutdown sweep spews CancelledError tracebacks.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    def request_drain(self) -> None:
        """Graceful shutdown: finish in-flight jobs, accept no new ones."""
        self.draining = True
        self._log("serve: draining (no new jobs accepted)")
        self._maybe_finish()

    def request_stop(self) -> None:
        """Immediate shutdown (teardown paths; in-flight jobs dropped)."""
        if self._stopped is not None:
            self._stopped.set()

    def snapshot(self) -> dict:
        """Introspection for tests, status lines and operators."""
        return {
            "draining": self.draining,
            "workers": sorted(w.name for w in self._workers.values()),
            "jobs": {
                job.job: {
                    "total": len(job.tasks),
                    "pending": len(job.pending),
                    "claimed": {
                        i: token.claimant
                        for i, token in job.claimed.items()
                    },
                    "done": len(job.done),
                }
                for job in self._jobs.values()
            },
        }

    def stats(self) -> dict:
        """The ``stats`` admin verb: live fabric telemetry, one schema.

        The TCP realisation of
        :func:`~repro.runtime.protocol.fabric_stats` — byte-compatible
        with :func:`repro.runtime.queue.queue_stats`, so ``repro-ids
        status`` renders either transport.  Worker rows fold in each
        connection's latest heartbeat-carried self-report.
        """
        now = time.monotonic()
        queued = sum(len(job.pending) for job in self._jobs.values())
        claims: List[dict] = []
        for job in self._jobs.values():
            for index, token in job.claimed.items():
                claims.append(
                    {
                        "task": job.tasks[index].name,
                        "claimant": token.claimant,
                        "lease_age_s": round(max(now - token.claimed_at, 0.0), 3),
                    }
                )
        workers = []
        for conn in self._workers.values():
            ages = []
            for job_id, index in conn.claims:
                job = self._jobs.get(job_id)
                if job is not None and index in job.claimed:
                    ages.append(now - job.claimed[index].claimed_at)
            row = {
                "name": conn.name,
                "claims": sorted(
                    f"{job_id}-{index:06d}" for job_id, index in conn.claims
                ),
                "lease_age_s": round(max(ages), 3) if ages else None,
                "completed": conn.completed,
            }
            for key in (
                "executed",
                "quarantined",
                "cache_hits",
                "cache_misses",
                "busy_s",
                "last_task_s",
            ):
                if key in conn.stats:
                    row[key] = conn.stats[key]
            workers.append(row)
        jobs = {
            job.job: {
                "total": len(job.tasks),
                "pending": len(job.pending),
                "claimed": len(job.claimed),
                "done": len(job.done),
            }
            for job in self._jobs.values()
        }
        return fabric_stats(
            "net",
            draining=self.draining,
            tasks={
                "queued": queued,
                "claimed": len(claims),
                "completed": self.tasks_completed,
                "reposted": self.tasks_reposted,
                "quarantined": 0,
            },
            jobs=jobs,
            workers=sorted(workers, key=lambda row: row["name"]),
            claims=sorted(claims, key=lambda row: row["task"]),
            wire={"bytes_in": self.bytes_in, "bytes_out": self.bytes_out},
        )

    def summary_line(self) -> str:
        """One-line lifetime digest (logged when a drain completes)."""
        return (
            f"serve: drained: {self.jobs_completed} jobs served "
            f"({self.tasks_completed} tasks), "
            f"{self.tasks_reposted} tasks reposted, "
            f"peak {self.peak_workers} workers, "
            f"{self.bytes_in} B in / {self.bytes_out} B out"
        )

    # -- internals ------------------------------------------------------
    def _log(self, line: str) -> None:
        if self.log is not None:
            self.log(line)

    def _maybe_finish(self) -> None:
        if self.draining and not self._jobs and self._stopped is not None:
            self._stopped.set()

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        data = _frame(message)
        self.bytes_out += len(data)
        lock = self._locks.setdefault(writer, asyncio.Lock())
        async with lock:
            writer.write(data)
            await writer.drain()

    async def _reap_expired(self) -> None:
        """Lease backstop: repost claims of half-open, silent workers."""
        interval = max(self.lease_s / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for job in self._jobs.values():
                for index, token in list(job.claimed.items()):
                    if token.expired(now) and index not in job.done:
                        del job.claimed[index]
                        job.pending.appendleft(index)
                        self.tasks_reposted += 1
                        self._log(
                            f"serve: lease expired, reposted task "
                            f"{job.job}-{index:06d} (was {token.claimant})"
                        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            hello = await self._read(reader, writer)
            if hello is None or hello.get("type") != "hello":
                await self._send(
                    writer, {"type": "error", "error": "bad hello"}
                )
                return
            if hello.get("version") != PROTOCOL_VERSION:
                await self._send(
                    writer,
                    {
                        "type": "error",
                        "error": (
                            f"fabric protocol version {hello.get('version')!r}"
                            f" is not supported (coordinator speaks "
                            f"{PROTOCOL_VERSION})"
                        ),
                    },
                )
                return
            await self._send(
                writer,
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "lease_s": self.lease_s,
                },
            )
            role = hello.get("role")
            name = str(hello.get("name", "?"))
            if role == "worker":
                await self._worker_loop(reader, writer, name)
            elif role == "submit":
                await self._submit_loop(reader, writer, name)
            elif role == "status":
                await self._status_loop(reader, writer)
            else:
                await self._send(
                    writer,
                    {"type": "error", "error": f"unknown role {role!r}"},
                )
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # peer vanished; per-role cleanup below still runs
        except asyncio.CancelledError:
            pass  # server teardown; ending normally keeps the loop quiet
        finally:
            self._release_worker(writer)
            self._release_submitter(writer)
            self._locks.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[dict]:
        """The peer's next message; None once it has closed.

        A line longer than :data:`MAX_MESSAGE_BYTES` (the reader's
        limit) is skipped, logged and answered with a named ``error``;
        the connection stays usable.
        """
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # a torn last line, or b"" on close
                if not line:
                    return None
            except asyncio.LimitOverrunError:
                size = 0
                while True:  # discard the line, newline included
                    try:
                        size += len(await reader.readuntil(b"\n"))
                        break
                    except asyncio.LimitOverrunError as exc:
                        size += len(await reader.readexactly(exc.consumed))
                self.bytes_in += size
                error = _over_ceiling("message", size)
                self._log(f"serve: refused: {error}")
                await self._send(writer, {"type": "error", "error": error})
                continue
            self.bytes_in += len(line)
            try:
                message = json.loads(line)
            except ValueError:
                return {"type": "malformed"}
            if not isinstance(message, dict):
                return {"type": "malformed"}
            return message

    # -- worker role ----------------------------------------------------
    def _claim_for(
        self, conn: _WorkerConn, job_id: Optional[str] = None
    ) -> Optional[TaskMessage]:
        """Claim the next pending task, of job ``job_id`` only if given."""
        for job in self._jobs.values():
            if job_id is not None and job.job != job_id:
                continue
            while job.pending:
                index = job.pending.popleft()
                if index in job.done:
                    continue
                job.claimed[index] = ClaimToken(
                    task=job.tasks[index],
                    claimant=conn.name,
                    claimed_at=time.monotonic(),
                    lease_s=self.lease_s,
                )
                conn.claims.add((job.job, index))
                return job.tasks[index]
        return None

    def _release_worker(self, writer: asyncio.StreamWriter) -> None:
        conn = self._workers.pop(writer, None)
        if conn is None:
            return
        for job_id, index in conn.claims:
            job = self._jobs.get(job_id)
            if job is not None and index not in job.done:
                job.claimed.pop(index, None)
                job.pending.appendleft(index)
                self.tasks_reposted += 1
                self._log(
                    f"serve: worker {conn.name} gone, reposted task "
                    f"{job_id}-{index:06d}"
                )

    async def _complete(self, outcome: TaskResult, echo: bool = True) -> bool:
        """Mark a task done and push its outcome to the submitter —
        unless ``echo`` is False: the submitter's own drain connection
        uploaded it, and the submitter already holds it."""
        job = self._jobs.get(outcome.job)
        if job is None or outcome.index in job.done:
            return False  # stale or duplicate upload: harmless
        job.done.add(outcome.index)
        job.claimed.pop(outcome.index, None)
        self.tasks_completed += 1
        for conn in self._workers.values():
            conn.claims.discard((outcome.job, outcome.index))
        if echo:
            try:
                await self._send(
                    job.submitter,
                    {"type": "result", "outcome": outcome.to_wire()},
                )
            except (ConnectionError, OSError):
                pass  # submitter gone; its cleanup drops the job
        if job.complete:
            del self._jobs[outcome.job]
            self.jobs_completed += 1
            self._log(f"serve: job {outcome.job} complete")
            self._maybe_finish()
        return True

    async def _worker_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        name: str,
    ) -> None:
        conn = _WorkerConn(name)
        self._workers[writer] = conn
        self.peak_workers = max(self.peak_workers, len(self._workers))
        self._log(f"serve: worker {name} registered")
        while True:
            message = await self._read(reader, writer)
            if message is None:
                return
            kind = message.get("type")
            if kind == "next":
                task = self._claim_for(conn, message.get("job"))
                if task is not None:
                    await self._send(
                        writer, {"type": "task", "task": task.to_wire()}
                    )
                elif self.draining:
                    await self._send(writer, {"type": "drain"})
                else:
                    await self._send(writer, {"type": "idle"})
            elif kind == "result":
                try:
                    outcome = TaskResult.from_wire(message.get("outcome"))
                except TaskFormatError as exc:
                    await self._send(
                        writer, {"type": "error", "error": str(exc)}
                    )
                    continue
                conn.claims.discard((outcome.job, outcome.index))
                echo = message.get("echo") is not False
                if await self._complete(outcome, echo):
                    conn.completed += 1
                await self._send(writer, {"type": "ack"})
            elif kind == "renew":
                # Fire-and-forget heartbeat: renew every lease this
                # connection holds (no reply, so the worker's renewal
                # thread never races its request/reply stream).  The
                # heartbeat doubles as the worker's telemetry uplink:
                # a carried self-report lands on the connection row.
                now = time.monotonic()
                for job_id, index in conn.claims:
                    job = self._jobs.get(job_id)
                    if job is not None and index in job.claimed:
                        job.claimed[index].renew(now)
                report = message.get("stats")
                if isinstance(report, dict):
                    conn.stats = report
            elif kind == "stats":
                await self._send(
                    writer, {"type": "stats", "stats": self.stats()}
                )
            elif kind == "ping":
                await self._send(writer, {"type": "pong"})
            else:
                await self._send(
                    writer,
                    {"type": "error", "error": f"unknown message {kind!r}"},
                )

    # -- status role ----------------------------------------------------
    async def _status_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Read-only admin connections: ``stats`` and ``ping`` only."""
        while True:
            message = await self._read(reader, writer)
            if message is None:
                return
            kind = message.get("type")
            if kind == "stats":
                await self._send(
                    writer, {"type": "stats", "stats": self.stats()}
                )
            elif kind == "ping":
                await self._send(writer, {"type": "pong"})
            else:
                await self._send(
                    writer,
                    {"type": "error", "error": f"unknown message {kind!r}"},
                )

    # -- submitter role -------------------------------------------------
    def _release_submitter(self, writer: asyncio.StreamWriter) -> None:
        dead = [
            j for j, job in self._jobs.items() if job.submitter is writer
        ]
        for job_id in dead:
            del self._jobs[job_id]
            self._log(f"serve: submitter gone, dropped job {job_id}")
        if dead:
            self._maybe_finish()

    async def _submit_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        name: str,
    ) -> None:
        while True:
            message = await self._read(reader, writer)
            if message is None:
                return
            if message.get("type") == "stats":
                await self._send(
                    writer, {"type": "stats", "stats": self.stats()}
                )
                continue
            if message.get("type") != "submit":
                await self._send(
                    writer,
                    {
                        "type": "error",
                        "error": f"unknown message {message.get('type')!r}",
                    },
                )
                continue
            if self.draining:
                await self._send(
                    writer,
                    {
                        "type": "error",
                        "error": "coordinator is draining; no new jobs",
                    },
                )
                continue
            try:
                job_id = str(message["job"])
                spec_payload = dict(message["spec"])
                paths = [str(p) for p in message["paths"]]
                if not paths:
                    raise ValueError("empty path list")
                if job_id in self._jobs:
                    raise ValueError(f"job {job_id} already submitted")
            except (KeyError, TypeError, ValueError) as exc:
                await self._send(
                    writer, {"type": "error", "error": f"bad submit: {exc}"}
                )
                continue
            tasks = {
                i: TaskMessage(job=job_id, index=i, path=p, spec=spec_payload)
                for i, p in enumerate(paths)
            }
            self._jobs[job_id] = _Job(
                job=job_id,
                tasks=tasks,
                pending=deque(range(len(paths))),
                submitter=writer,
            )
            self.jobs_submitted += 1
            self.tasks_submitted += len(paths)
            self._log(
                f"serve: job {job_id} submitted by {name} "
                f"({len(paths)} tasks)"
            )
            await self._send(
                writer,
                {"type": "submitted", "job": job_id, "tasks": len(paths)},
            )


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    lease_s: float = DEFAULT_LEASE_S,
    log=None,
    handle_signals: bool = True,
    ready=None,
) -> None:
    """Run a coordinator until it drains (the ``repro-ids serve`` body).

    SIGTERM/SIGINT request a graceful drain: in-flight jobs finish,
    then the server exits.  ``ready`` (optional callable) receives the
    started :class:`ScanServer` once the port is bound.
    """
    server = ScanServer(host=host, port=port, lease_s=lease_s, log=log)
    await server.start()
    if ready is not None:
        ready(server)
    if handle_signals:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
    try:
        await server.wait_stopped()
        if log is not None:
            log(server.summary_line())
    finally:
        await server.close()


class ServerThread:
    """A coordinator on a background thread (tests, benchmarks).

    Context manager: entering starts the event loop thread and blocks
    until the port is bound; ``address`` is then connectable.  Exiting
    stops the server immediately (in-flight jobs dropped — this is a
    teardown path, not a drain).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        lease_s: float = DEFAULT_LEASE_S,
        log=None,
    ) -> None:
        self._host = host
        self._lease_s = lease_s
        self._log = log
        self._ready = threading.Event()
        self.server: Optional[ScanServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        if self.server is None:
            raise DetectorError("server thread not started")
        return f"{self.server.host}:{self.server.port}"

    def _main(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()

            def ready(server: ScanServer) -> None:
                self.server = server
                self._ready.set()

            await serve(
                host=self._host,
                lease_s=self._lease_s,
                log=self._log,
                handle_signals=False,
                ready=ready,
            )

        asyncio.run(body())

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise DetectorError("scan coordinator failed to start")
        return self

    def drain(self) -> None:
        """Thread-safe graceful drain (the SIGTERM path, from outside)."""
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_drain)
            except RuntimeError:
                pass  # loop already finished: nothing left to drain

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already finished (e.g. a drain completed)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Blocking client plumbing (executor + worker side)
# ----------------------------------------------------------------------

class _Connection:
    """A blocking NDJSON client connection with timeout-safe framing.

    Partial lines survive timeouts (the buffer persists across
    :meth:`recv` calls), so a slow coordinator can never tear a
    message.  Writes are locked: the worker's heartbeat thread shares
    the socket with the claim loop.  Neither end sends or accepts a
    line longer than :data:`MAX_MESSAGE_BYTES`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        role: str,
        name: Optional[str] = None,
        connect_timeout_s: float = 10.0,
    ) -> None:
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout_s
            )
        except OSError as exc:
            raise DetectorError(
                f"cannot reach scan coordinator at {host}:{port}: {exc} "
                f"(is repro-ids serve running?)"
            ) from exc
        # Receive deadlines come from the selector; the socket timeout
        # only bounds a send to a coordinator that stopped reading.
        self._sock.settimeout(30.0)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._sock, selectors.EVENT_READ)
        self._buffer = bytearray()
        self._scanned = 0  # buffer prefix known to hold no newline
        self._lock = threading.Lock()
        self.send(
            {
                "version": PROTOCOL_VERSION,
                "type": "hello",
                "role": role,
                "name": name or f"{socket.gethostname()}:{os.getpid()}",
            }
        )
        welcome = self.recv(timeout=connect_timeout_s)
        if welcome is None or welcome.get("type") != "welcome":
            self.close()
            raise DetectorError(
                f"scan coordinator at {host}:{port} rejected the "
                f"handshake: {welcome!r}"
            )
        self.lease_s = float(welcome.get("lease_s", DEFAULT_LEASE_S))

    def _write(self, data: bytes) -> None:
        if len(data) > MAX_MESSAGE_BYTES:
            raise DetectorError(_over_ceiling("outgoing message", len(data)))
        with self._lock:
            self._sock.sendall(data)

    def send(self, message: dict) -> None:
        self._write(_frame(message))

    def publish(
        self, outcome: TaskResult, echo: bool = True
    ) -> Optional[dict]:
        """Upload one task outcome and return the coordinator's reply.

        ``echo=False`` marks the upload as the submitter's own (its
        drain connection), so the coordinator does not push it back.
        A result too large for :data:`MAX_MESSAGE_BYTES` is published
        as an error result naming the ceiling: the submitter retries
        locally or raises, and the task is never reposted in a loop.
        """
        message = {"type": "result", "outcome": outcome.to_wire()}
        if not echo:
            message["echo"] = False
        data = _frame(message)
        if len(data) > MAX_MESSAGE_BYTES:
            message["outcome"] = TaskResult(
                outcome.job,
                outcome.index,
                error=_over_ceiling("result", len(data)),
            ).to_wire()
            data = _frame(message)
        self._write(data)
        return self.recv(timeout=30.0)

    def recv(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Next message, or None when none completes within ``timeout``.

        ``timeout=0`` polls: it reads what has already arrived without
        blocking.  Raises on a closed peer and on a line longer than
        :data:`MAX_MESSAGE_BYTES`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            message = self._pop_message()
            if message is not None:
                return message
            wait = None
            if deadline is not None:
                wait = max(deadline - time.monotonic(), 0.0)
            if not self._selector.select(wait):
                return None
            chunk = self._sock.recv(65536)
            if not chunk:
                raise DetectorError(
                    "scan coordinator closed the connection"
                )
            self._buffer.extend(chunk)

    def _pop_message(self) -> Optional[dict]:
        """The next complete message in the buffer, if any."""
        while True:
            newline = self._buffer.find(b"\n", self._scanned)
            size = len(self._buffer) if newline < 0 else newline
            if size > MAX_MESSAGE_BYTES:
                raise DetectorError(
                    _over_ceiling("message from the scan coordinator", size)
                )
            if newline < 0:
                self._scanned = size
                return None
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            self._scanned = 0
            try:
                message = json.loads(line)
            except ValueError:
                continue  # torn foreign junk; keep the stream alive
            if isinstance(message, dict):
                return message

    def close(self) -> None:
        try:
            self._selector.close()
            self._sock.close()
        except OSError:
            pass


class _Heartbeat:
    """Fire-and-forget lease renewal on a background thread.

    ``payload`` (optional callable) builds each renewal message, which
    lets the network worker piggyback its running stats on the beat it
    already pays for — telemetry with zero extra round trips.
    """

    def __init__(
        self, conn: _Connection, every_s: float, payload=None
    ) -> None:
        self._conn = conn
        self._every_s = max(every_s, 0.05)
        self._payload = payload or (lambda: {"type": "renew"})
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._every_s):
            try:
                self._conn.send(self._payload())
            except OSError:
                return  # connection gone; the main loop will notice

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


# ----------------------------------------------------------------------
# NetExecutor (coordinator side)
# ----------------------------------------------------------------------

class NetExecutor(Executor):
    """Distribute shard tasks through a running scan coordinator.

    Parameters
    ----------
    connect:
        Coordinator address, ``host:port`` (a running ``repro-ids
        serve``).
    drain:
        When True (default) the executor opens a second, worker-role
        connection and executes its own job's pending tasks while
        waiting — zero workers degrade to a serial scan, and a worker's
        error result is retried locally.  With False every task must be
        served by a network worker and an error result raises.
    timeout_s:
        Give up (``DetectorError``) when no result has arrived for this
        long.  ``None`` waits forever — safe with ``drain``.
    poll_s:
        How long to block for a pushed result when there is nothing to
        drain: after the coordinator answers ``idle`` or ``drain`` (every
        task of the job is claimed), and on every sweep without
        ``drain``.  A draining executor never waits while the
        coordinator still hands it tasks.
    """

    def __init__(
        self,
        connect: str,
        drain: bool = True,
        timeout_s: Optional[float] = None,
        poll_s: float = 0.05,
    ) -> None:
        self.host, self.port = parse_address(connect)
        if poll_s <= 0:
            raise DetectorError("poll_s must be positive")
        self.drain = bool(drain)
        self.timeout_s = timeout_s
        self.poll_s = float(poll_s)

    def run(
        self, spec: ScanSpec, paths: Sequence[Union[str, Path]]
    ) -> List[list]:
        require_portable(spec)
        names = [str(p) for p in paths]
        if not names:
            return []
        job = new_job_id()
        collector = ResultCollector(
            spec, names, job, local_retry=self.drain
        )
        submit = _Connection(self.host, self.port, "submit")
        drain_conn: Optional[_Connection] = None
        scanners: Dict[str, object] = {}
        try:
            submit.send(
                {
                    "type": "submit",
                    "job": job,
                    "spec": spec.to_payload(),
                    "paths": [str(Path(p).resolve()) for p in names],
                }
            )
            reply = submit.recv(timeout=30.0)
            if reply is None or reply.get("type") != "submitted":
                raise DetectorError(
                    f"scan coordinator refused the job: {reply!r}"
                )
            if self.drain:
                drain_conn = _Connection(
                    self.host, self.port, "worker", name="coordinator-drain"
                )
            idle = drain_conn is None
            last_progress = time.monotonic()
            while not collector.done:
                progressed = False
                # Workers' results first; block only with nothing to drain.
                message = submit.recv(timeout=self.poll_s if idle else 0.0)
                if message is not None:
                    if message.get("type") == "result":
                        try:
                            outcome = TaskResult.from_wire(
                                message.get("outcome")
                            )
                        except TaskFormatError:
                            outcome = None
                        if outcome is not None and collector.offer(outcome):
                            progressed = True
                    elif message.get("type") == "error":
                        raise DetectorError(
                            f"scan coordinator error: {message.get('error')}"
                        )
                elif drain_conn is not None:
                    # Claims are scoped to this job, so every drained
                    # outcome is ours to keep: it need not come back.
                    drain_conn.send({"type": "next", "job": job})
                    reply = drain_conn.recv(timeout=30.0)
                    idle = reply is None or reply.get("type") != "task"
                    if not idle:
                        task = TaskMessage.from_wire(reply["task"])
                        outcome = execute_task(task, scanners)
                        drain_conn.publish(outcome, echo=False)
                        progressed = collector.offer(outcome)
                if progressed:
                    last_progress = time.monotonic()
                    continue
                if (
                    self.timeout_s is not None
                    and time.monotonic() - last_progress > self.timeout_s
                ):
                    outstanding = len(names) - collector.n_collected
                    raise DetectorError(
                        f"scan coordinator {self.host}:{self.port} made no "
                        f"progress for {self.timeout_s:g}s with "
                        f"{outstanding} of {len(names)} tasks outstanding"
                    )
        finally:
            submit.close()
            if drain_conn is not None:
                drain_conn.close()
        obs.emit(
            "fabric.job", job=job, transport="net", tasks=len(names)
        )
        return collector.results()

    def describe(self) -> str:
        return f"net({self.host}:{self.port})"


def fetch_stats(connect: str, timeout_s: float = 10.0) -> dict:
    """One-shot fabric-stats poll of a running coordinator.

    The client half of the ``stats`` admin verb (``repro-ids status
    --connect``): open a read-only ``status``-role connection, ask
    once, return the :func:`~repro.runtime.protocol.fabric_stats`
    document.
    """
    host, port = parse_address(connect)
    conn = _Connection(host, port, "status", name="status")
    try:
        conn.send({"type": "stats"})
        reply = conn.recv(timeout=timeout_s)
        if reply is None or reply.get("type") != "stats":
            raise DetectorError(
                f"coordinator at {connect} did not answer stats: {reply!r}"
            )
        stats = reply.get("stats")
        if not isinstance(stats, dict):
            raise DetectorError(
                f"coordinator at {connect} sent malformed stats: {stats!r}"
            )
        return stats
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Network worker (claimant side)
# ----------------------------------------------------------------------

def run_net_worker(
    connect: str,
    poll_s: float = 0.2,
    max_idle_s: Optional[float] = None,
    max_tasks: Optional[int] = None,
    handle_signals: bool = False,
    log=None,
) -> WorkerStats:
    """Serve a scan coordinator over TCP until told to stop.

    The network twin of :func:`repro.runtime.worker.run_worker`: pull a
    task, execute it (shared per-spec engine cache), upload the result,
    repeat; sleep ``poll_s`` between polls of an idle coordinator.
    Stops on SIGTERM/SIGINT (``handle_signals``), ``max_idle_s`` of
    continuous emptiness, ``max_tasks`` executed, a draining
    coordinator, or a vanished one.  A heartbeat thread renews the
    claim lease during long scans, so a slow task is never mistaken for
    a dead worker.
    """
    host, port = parse_address(connect)
    stats = WorkerStats()
    stop_requested: List[str] = []

    def _request_stop(signum, frame):  # pragma: no cover - signal timing
        stop_requested.append(signal.Signals(signum).name)

    previous = {}
    if handle_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _request_stop)

    conn = _Connection(host, port, "worker")
    heartbeat = _Heartbeat(
        conn,
        every_s=conn.lease_s / 3.0,
        payload=lambda: {"type": "renew", "stats": stats.to_wire()},
    )
    scanners: Dict[str, object] = {}
    idle_since = time.monotonic()
    try:
        while True:
            if stop_requested:
                stats.stop_reason = stop_requested[0]
                break
            try:
                conn.send({"type": "next"})
                reply = conn.recv(timeout=30.0)
            except (DetectorError, OSError):
                stats.stop_reason = "coordinator gone"
                break
            kind = None if reply is None else reply.get("type")
            if kind == "drain":
                stats.stop_reason = "coordinator drained"
                break
            if kind != "task":
                # idle (or a slow coordinator): wait and re-poll.
                if (
                    max_idle_s is not None
                    and time.monotonic() - idle_since >= max_idle_s
                ):
                    stats.stop_reason = f"idle {max_idle_s:g}s"
                    break
                time.sleep(poll_s)
                continue
            try:
                task = TaskMessage.from_wire(reply.get("task"))
            except TaskFormatError as exc:
                # Version skew or a torn relay: publish the rejection
                # as an error result (when addressable) so the
                # coordinator's poison rule surfaces it, and move on.
                stats.quarantined += 1
                raw = reply.get("task")
                if isinstance(raw, dict) and "job" in raw and "index" in raw:
                    try:
                        conn.publish(
                            TaskResult(
                                str(raw["job"]),
                                int(raw["index"]),
                                error=f"TaskFormatError: {exc}",
                            )
                        )
                    except (DetectorError, OSError, TypeError, ValueError):
                        pass
                if log is not None:
                    log(f"worker: rejected malformed task ({exc})")
                idle_since = time.monotonic()
                continue
            outcome = execute_task(task, scanners, stats=stats)
            try:
                conn.publish(outcome)
            except (DetectorError, OSError):
                stats.stop_reason = "coordinator gone"
                break
            stats.executed += 1
            if log is not None:
                log(f"worker: executed {task.name}")
            idle_since = time.monotonic()
            if max_tasks is not None and stats.executed >= max_tasks:
                stats.stop_reason = f"max tasks {max_tasks}"
                break
    finally:
        heartbeat.stop()
        conn.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return stats
