"""Vectorised batch detection over columnar traces.

:class:`BatchEntropyEngine` computes exactly what the streaming
:class:`~repro.core.detector.EntropyDetector` computes — the same
tumbling windows, per-bit probabilities, entropies, deviations, verdicts
and alerts — but over a whole recorded capture at once, by delegating to
the fused kernel (:func:`repro.core.kernel.scan_windows`): packed-field
bit counting, binary-search segmentation, and a struct-of-arrays
:class:`~repro.core.kernel.WindowBlock` result with no per-window Python
in the hot path.

The result is bit-for-bit identical to ``EntropyDetector.scan`` (the
parity test suite asserts array equality, not approximation): both paths
divide the same ``int64`` counts, feed the same ``float64``
probabilities through :func:`~repro.core.entropy.binary_entropy`, and
subtract the same template arrays.  The streaming detector remains the
deployment path for live buses; this engine is the path for recorded
captures.

Two call shapes per path:

* :meth:`scan` / :meth:`scan_stream` — legacy list-of-
  :class:`WindowResult` API, alerts emitted to the sink;
* :meth:`scan_block` / :meth:`scan_stream_block` — the
  :class:`WindowBlock` struct-of-arrays, for callers that only need
  aggregates (no per-window objects are built).

The ``stream`` variants drive the same kernel chunk-by-chunk over
window-aligned slices (:meth:`ColumnTrace.iter_window_chunks`), so a
memory-mapped 100M-frame capture scans under a bounded memory budget
with a report bit-identical to the in-RAM scan.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro import obs
from repro.core.alerts import AlertSink
from repro.core.config import IDSConfig
from repro.core.detector import WindowResult
from repro.core.kernel import (
    KERNEL_COLUMNS,
    KernelWorkspace,
    WindowBlock,
    scan_windows,
)
from repro.core.template import GoldenTemplate
from repro.exceptions import DetectorError
from repro.io.columnar import ChunkSource, ColumnTrace
from repro.io.trace import Trace

__all__ = ["BatchEntropyEngine", "batch_scan", "DEFAULT_CHUNK_WINDOWS"]

#: Default chunk size (in detection windows) for the streamed scan: big
#: enough that per-chunk overhead vanishes, small enough that a chunk of
#: a dense bus (tens of thousands of frames) stays cache-resident.
DEFAULT_CHUNK_WINDOWS = 64


class BatchEntropyEngine:
    """Whole-capture tumbling-window entropy detection.

    Construction mirrors :class:`~repro.core.detector.EntropyDetector`;
    :meth:`scan` accepts either representation and converts record
    traces on entry (callers holding large captures should pass a
    :class:`~repro.io.columnar.ColumnTrace` to skip the conversion).
    """

    def __init__(
        self,
        template: GoldenTemplate,
        config: Optional[IDSConfig] = None,
        sink: Optional[AlertSink] = None,
    ) -> None:
        self.config = config or IDSConfig()
        if template.n_bits != self.config.n_bits:
            raise DetectorError(
                f"template monitors {template.n_bits} bits, config expects "
                f"{self.config.n_bits}"
            )
        self.template = template
        self.sink = sink if sink is not None else AlertSink()

    # ------------------------------------------------------------------
    def scan_block(
        self, trace: Union[Trace, ColumnTrace, ChunkSource]
    ) -> WindowBlock:
        """Judge every tumbling window, returning the struct-of-arrays
        :class:`WindowBlock` (no per-window objects, no alert emission).

        This is the aggregate fast path: callers that only need counts,
        verdicts or entropy series read the block's arrays directly.
        Streaming-only sources (any other :class:`ChunkSource`, e.g. a
        ``BlockReader``) are scanned via :meth:`scan_stream_block` —
        identical result, bounded memory.
        """
        if not isinstance(trace, ColumnTrace) and isinstance(trace, ChunkSource):
            return self.scan_stream_block(trace)
        source = ColumnTrace.coerce(trace)
        if len(source) == 0:
            return WindowBlock.empty(self.config.n_bits, self.config.window_us)
        reg = obs.active()
        if reg is None:  # telemetry off: the hot path pays this branch only
            return scan_windows(source, self.template, self.config)
        with reg.span("engine.kernel", frames=len(source)):
            return scan_windows(source, self.template, self.config)

    def scan_stream_block(
        self,
        trace: Union[Trace, ColumnTrace, ChunkSource],
        chunk_windows: int = DEFAULT_CHUNK_WINDOWS,
    ) -> WindowBlock:
        """Chunked :meth:`scan_block`: bounded peak memory, identical
        result.

        The trace is consumed in window-aligned chunks (so no chunk
        boundary can split a detection window) with the grid anchored
        once at the trace's first timestamp; each chunk runs through
        the same fused kernel with a shared workspace, and the
        per-chunk blocks concatenate into a block bit-identical to the
        whole-trace scan.  Chunks are asked for the kernel's columns
        only (:data:`~repro.core.kernel.KERNEL_COLUMNS`).  On a
        memory-mapped trace only the chunk currently being scanned is
        paged in; on a block-compressed ``BlockReader`` only one
        inflated block is ever held, and only those columns of it are
        inflated.  Record traces are converted on entry.
        """
        if isinstance(trace, ColumnTrace) or isinstance(trace, ChunkSource):
            ct = trace  # the cheap exact check first: protocol checks are slow
        else:
            ct = ColumnTrace.coerce(trace)
        if len(ct) == 0:
            return WindowBlock.empty(self.config.n_bits, self.config.window_us)
        origin = ct.start_us
        workspace = KernelWorkspace()
        blocks: List[WindowBlock] = []
        emitted = 0
        reg = obs.active()
        if reg is None:
            # Telemetry off: the untouched loop — one branch, zero
            # allocations beyond what the scan itself needs.
            for chunk in ct.iter_window_chunks(
                self.config.window_us, chunk_windows, columns=KERNEL_COLUMNS
            ):
                block = scan_windows(
                    chunk,
                    self.template,
                    self.config,
                    origin_us=origin,
                    index_base=emitted,
                    workspace=workspace,
                )
                emitted += len(block)
                blocks.append(block)
        else:
            # Traced twin: chunk fetch (IO/decompress side) and kernel
            # timed separately so span sums attribute the wall clock.
            chunks = iter(
                ct.iter_window_chunks(
                    self.config.window_us,
                    chunk_windows,
                    columns=KERNEL_COLUMNS,
                )
            )
            while True:
                with reg.span("engine.chunk"):
                    chunk = next(chunks, None)
                if chunk is None:
                    break
                with reg.span("engine.kernel", frames=len(chunk)):
                    block = scan_windows(
                        chunk,
                        self.template,
                        self.config,
                        origin_us=origin,
                        index_base=emitted,
                        workspace=workspace,
                    )
                emitted += len(block)
                blocks.append(block)
        if reg is None:
            return WindowBlock.concat(
                blocks, self.config.n_bits, self.config.window_us
            )
        with reg.span("engine.assemble", windows=emitted):
            return WindowBlock.concat(
                blocks, self.config.n_bits, self.config.window_us
            )

    def scan(
        self, trace: Union[Trace, ColumnTrace, ChunkSource]
    ) -> List[WindowResult]:
        """Judge every tumbling window of a recorded capture.

        Produces the identical :class:`WindowResult` sequence the
        streaming detector emits: one result per *non-empty* grid window
        (silent gaps are skipped without verdicts), indices sequential
        over the emitted windows, the trailing partial window included.
        Alarming windows are emitted to the sink, in window order.
        """
        return self._emit(self.scan_block(trace))

    def scan_stream(
        self,
        trace: Union[Trace, ColumnTrace, ChunkSource],
        chunk_windows: int = DEFAULT_CHUNK_WINDOWS,
    ) -> List[WindowResult]:
        """Chunked :meth:`scan`: same results, same alerts, bounded
        memory (see :meth:`scan_stream_block`)."""
        return self._emit(self.scan_stream_block(trace, chunk_windows))

    def _emit(self, block: WindowBlock) -> List[WindowResult]:
        """Materialise the legacy result list and emit alarm alerts."""
        reg = obs.active()
        if reg is None:
            results = block.results()
        else:
            with reg.span("engine.assemble", windows=len(block)):
                results = block.results()
        for i in np.flatnonzero(block.alarm_mask):
            self.sink.emit(results[int(i)].to_alert())
        return results


def batch_scan(
    trace: Union[Trace, ColumnTrace],
    template: GoldenTemplate,
    config: Optional[IDSConfig] = None,
    sink: Optional[AlertSink] = None,
) -> List[WindowResult]:
    """One-call batch detection (convenience wrapper)."""
    return BatchEntropyEngine(template, config, sink).scan(trace)
