"""The execution protocol behind every archive-scale scan.

Every scan path in the repository — cold ``analyze_archive``,
incremental ``watch_scan``, fleet-wide ``analyze_fleet`` — reduces to
the same *shard task*: given a detection context and a capture file
path, load the capture through the columnar readers and return the
per-window verdicts as one :class:`~repro.core.kernel.WindowBlock`.
:class:`Executor` is the protocol over that task:

* :meth:`Executor.run` takes a :class:`ScanSpec` (the per-capture work
  description) and a sequence of capture paths, and returns one result
  per path **in input order**, no matter which backend ran which task
  when — order stability is what makes every backend bit-identical to
  a serial scan.

Four backends implement it:

* :class:`~repro.runtime.serial.SerialExecutor` — one process, one
  loop; the reference semantics;
* :class:`~repro.runtime.pool.PoolExecutor` — a ``multiprocessing``
  pool on one host (the default of
  :meth:`~repro.core.pipeline.IDSPipeline.scan_captures`);
* :class:`~repro.runtime.queue.WorkQueueExecutor` — a filesystem work
  queue; independent ``repro-ids worker`` processes (on this host or
  any host sharing the directory) claim tasks via atomic rename and
  upload columnar results;
* :class:`~repro.runtime.net.NetExecutor` — the same protocol over an
  asyncio TCP coordinator (``repro-ids serve``); workers need only a
  route to the coordinator's port, no shared disk.

A :class:`ScanSpec` describes the work one capture needs.
:class:`EntropyScanSpec` (the paper's detector) is additionally
*portable*: it serialises to a JSON payload so the distributed
backends can ship it to workers that share nothing but a directory or
a socket.  :class:`BaselineScanSpec` carries a fitted baseline object —
picklable (serial/pool) but not portable, which the distributed
backends refuse explicitly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.baselines.base import BaselineIDS, BaselineVerdict
from repro.core.config import IDSConfig
from repro.core.engine import DEFAULT_CHUNK_WINDOWS, BatchEntropyEngine
# The columnar result payload (RESULT_VERSION, RESULT_FIELDS) is
# WindowBlock's codec, shared by fabric results and fleet-ledger entries;
# the names stay importable from here.
from repro.core.kernel import (  # noqa: F401 - RESULT_* re-exported
    RESULT_FIELDS,
    RESULT_VERSION,
    WindowBlock,
)
from repro.core.template import GoldenTemplate
from repro.exceptions import DetectorError
from repro.io.archive import (
    capture_suffix,
    load_capture_columns,
    open_capture_stream,
)
from repro.io.blocks import BLOCKS_SUFFIX

__all__ = [
    "BaselineScanSpec",
    "EntropyScanSpec",
    "Executor",
    "ScanSpec",
    "TaskFormatError",
    "resolve_executor",
    "spec_from_payload",
]

#: Work-queue task payload schema version; bump on incompatible changes.
SPEC_VERSION = 1


class TaskFormatError(DetectorError):
    """A task or result message could not be decoded.

    Transports translate this into their quarantine rule: the
    filesystem queue moves the file into ``failed/``, the network
    fabric relays an error result.  Never fatal to a claimant — a
    poison message must not crash a fleet's shared worker.
    """


class ScanSpec(ABC):
    """Description of the work one capture path needs.

    A spec is *stateless work context*: :meth:`make_scanner` builds the
    actual per-process scanner (engine or fitted baseline) exactly once
    per worker, and the returned callable maps ``path -> result``.
    Specs must be picklable (the pool backend ships them to workers via
    the pool initializer) and results must round-trip unchanged through
    whatever transport the executor uses.
    """

    #: True when the spec serialises to JSON (:meth:`to_payload`) and
    #: can therefore cross host boundaries through the work queue.
    portable = False

    @abstractmethod
    def make_scanner(self) -> Callable[[str], Any]:
        """Build the per-process ``path -> result`` callable."""

    def to_payload(self) -> dict:
        """JSON task payload for the work-queue backend."""
        raise DetectorError(
            f"{type(self).__name__} cannot be shipped through a work "
            f"queue; use the serial or pool executor"
        )

    def encode_result(self, result: Any) -> dict:
        """Serialise one task's result for transport (portable specs)."""
        raise DetectorError(
            f"{type(self).__name__} results cannot cross a work queue"
        )

    def decode_result(self, payload: dict) -> Any:
        """Inverse of :meth:`encode_result`; :class:`TaskFormatError`
        on a payload it cannot decode exactly."""
        raise DetectorError(
            f"{type(self).__name__} results cannot cross a work queue"
        )


@dataclass(frozen=True)
class EntropyScanSpec(ScanSpec):
    """The paper's detector over one capture (``scan_block``).

    Each result is one :class:`~repro.core.kernel.WindowBlock` — exactly
    what the serial scan produces, and (via the lossless columnar codec,
    :meth:`encode_result`) exactly what a remote worker uploads.

    ``chunk_windows`` switches the worker to the out-of-core path:
    captures are loaded lazily (memory-mapped for ``.npz``) and scanned
    through :meth:`BatchEntropyEngine.scan_stream_block` in chunks of
    that many detection windows — bit-identical results, bounded
    memory.  ``.npb`` captures take that path on both routes (in chunks
    of :data:`~repro.core.engine.DEFAULT_CHUNK_WINDOWS` without
    ``chunk_windows``), so their blocks inflate only the columns the
    kernel reads.

    A template that monitors another bit width than the config is
    refused at construction, so a mismatch fails in the submitting
    process before any worker starts (and a worker refuses a remote
    payload that carries one).
    """

    template: GoldenTemplate
    config: IDSConfig
    chunk_windows: Optional[int] = None

    portable = True

    def __post_init__(self) -> None:
        if self.template.n_bits != self.config.n_bits:
            raise DetectorError(
                f"template monitors {self.template.n_bits} bits, config "
                f"expects {self.config.n_bits}"
            )

    def make_scanner(self) -> Callable[[str], WindowBlock]:
        engine = BatchEntropyEngine(self.template, self.config)
        in_ram = self.chunk_windows is None
        chunk_windows = DEFAULT_CHUNK_WINDOWS if in_ram else int(self.chunk_windows)

        def scan(path: str) -> WindowBlock:
            if in_ram and capture_suffix(path) != BLOCKS_SUFFIX:
                return engine.scan_block(load_capture_columns(path))
            # Streaming sources (mapped npz, block-compressed npb) keep
            # the worker's memory bounded; the reader handle — if the
            # source has one — is released when the scan ends.
            source = open_capture_stream(path)
            try:
                return engine.scan_stream_block(source, chunk_windows)
            finally:
                close = getattr(source, "close", None)
                if close is not None:
                    close()

        return scan

    def to_payload(self) -> dict:
        payload = {
            "version": SPEC_VERSION,
            "kind": "entropy",
            "template": self.template.to_dict(),
            "config": {
                "n_bits": self.config.n_bits,
                "window_us": self.config.window_us,
                "min_window_messages": self.config.min_window_messages,
                "alpha": self.config.alpha,
            },
        }
        if self.chunk_windows is not None:
            # Additive optional key: workers predating it ignore it and
            # scan in-RAM — same bits, just unbounded memory there.
            payload["chunk_windows"] = int(self.chunk_windows)
        return payload

    def encode_result(self, result: WindowBlock) -> dict:
        # The lossless columnar payload, so an uploaded result is
        # bit-identical to a local one.
        return result.to_payload()

    def decode_result(self, payload: dict) -> WindowBlock:
        try:
            return WindowBlock.from_payload(
                payload, self.config.n_bits, self.config.window_us
            )
        except ValueError as exc:
            raise TaskFormatError(f"malformed result payload: {exc}") from exc


@dataclass(frozen=True)
class BaselineScanSpec(ScanSpec):
    """A fitted baseline's ``scan`` over one capture."""

    baseline: BaselineIDS

    def __post_init__(self) -> None:
        if not self.baseline._fitted:
            raise DetectorError(f"{self.baseline.name}: scan before fit")

    def make_scanner(self) -> Callable[[str], List[BaselineVerdict]]:
        baseline = self.baseline
        return lambda path: baseline.scan(load_capture_columns(path))


def spec_from_payload(payload: dict) -> EntropyScanSpec:
    """Rebuild a portable spec from its work-queue JSON payload."""
    try:
        if payload["version"] != SPEC_VERSION:
            raise DetectorError(
                f"task spec version {payload['version']!r} not supported"
            )
        kind = payload["kind"]
        if kind != "entropy":
            raise DetectorError(f"unknown task spec kind {kind!r}")
        template = GoldenTemplate.from_dict(payload["template"])
        config = IDSConfig(
            alpha=float(payload["config"]["alpha"]),
            n_bits=int(payload["config"]["n_bits"]),
            window_us=int(payload["config"]["window_us"]),
            min_window_messages=int(payload["config"]["min_window_messages"]),
        )
        chunk_windows = payload.get("chunk_windows")
        if chunk_windows is not None:
            chunk_windows = int(chunk_windows)
    except (KeyError, TypeError, ValueError) as exc:
        raise DetectorError(f"malformed task spec payload: {exc}") from exc
    return EntropyScanSpec(template, config, chunk_windows)


class Executor(ABC):
    """Submit per-capture shard tasks, collect order-stable results.

    The single correctness contract every backend must honour: for any
    spec and path sequence, ``run`` returns ``[scan(paths[0]),
    scan(paths[1]), ...]`` — the exact results a fresh serial loop would
    produce, in input order.  The parity suite
    (``tests/test_runtime_executors.py``) asserts this bit for bit
    across all backends at several worker counts.
    """

    @abstractmethod
    def run(self, spec: ScanSpec, paths: Sequence[Union[str, Path]]) -> List[Any]:
        """Execute the spec over every path; results in input order."""

    def describe(self) -> str:
        """Short human-readable backend name for status lines."""
        return type(self).__name__


def resolve_executor(
    executor: Union[str, Executor, None],
    workers: Optional[int] = None,
    queue_dir: Union[str, Path, None] = None,
    queue_drain: bool = True,
    connect: Optional[str] = None,
) -> Optional["Executor"]:
    """Turn a CLI-style executor choice into an :class:`Executor`.

    ``executor`` may be an instance (returned as-is), one of the names
    ``"serial"`` / ``"pool"`` / ``"queue"`` / ``"net"``, or ``None``
    (returns ``None`` — callers fall back to their default pool
    behaviour, which keeps the historical ``workers=`` semantics
    intact).  ``"queue"`` requires ``queue_dir``; ``"net"`` requires
    ``connect`` (``host:port`` of a running ``repro-ids serve``).
    ``queue_drain=False`` (CLI: ``--no-drain``) forbids the coordinator
    from executing its own tasks — every task must be served by a
    worker, with a bounded timeout so a worker-less fabric errors
    instead of hanging.
    """
    if executor is None or isinstance(executor, Executor):
        return executor
    from repro.runtime.net import NetExecutor
    from repro.runtime.pool import PoolExecutor
    from repro.runtime.queue import WorkQueueExecutor
    from repro.runtime.serial import SerialExecutor

    if executor == "serial":
        return SerialExecutor()
    if executor == "pool":
        return PoolExecutor(workers=workers)
    if executor == "queue":
        if queue_dir is None:
            raise DetectorError(
                "the queue executor needs a queue directory (--queue-dir)"
            )
        return WorkQueueExecutor(
            queue_dir,
            coordinator_drains=queue_drain,
            timeout_s=None if queue_drain else 600.0,
        )
    if executor == "net":
        if connect is None:
            raise DetectorError(
                "the net executor needs a coordinator address (--connect)"
            )
        return NetExecutor(
            connect,
            drain=queue_drain,
            timeout_s=None if queue_drain else 600.0,
        )
    raise DetectorError(
        f"unknown executor {executor!r}; expected serial, pool, queue "
        f"or net"
    )
