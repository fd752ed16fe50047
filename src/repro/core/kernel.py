"""Fused single-pass detection kernel over columnar window segments.

The original batch engine computed per-window verdicts in ``n_bits``
separate ``np.add.reduceat`` passes (one shift/mask/reduce per
identifier bit) and then materialised one :class:`WindowResult` object
per window in a Python loop.  Both costs scale with the capture, and
both are avoidable:

* **packed bit counting** — identifiers are mapped through a
  precomputed lookup table whose rows pack four per-bit partial counts
  into 16-bit fields of one ``int64`` word, so *one* gather plus *one*
  ``reduceat`` accumulates four bit columns at a time (11-bit CAN ids
  need three words instead of eleven passes).  Fields cannot carry into
  each other as long as every window holds fewer than 2**16 messages;
  larger windows fall back to the per-bit path, bit-identically.
* **searchsorted segmentation** — window boundaries come from
  ``O(n_windows log n)`` binary searches over the (sorted) timestamp
  column instead of an ``O(n)`` integer-divide pass, which also keeps a
  memory-mapped capture from being paged in just to find its windows.
* **struct-of-arrays results** — the kernel returns a
  :class:`WindowBlock` (parallel arrays over windows, not objects), and
  :class:`~repro.core.detector.WindowResult` rows are materialised
  lazily only for callers that need the list API.

Everything downstream of the integer counts — probabilities, entropy,
deviations, verdicts — runs the exact float expressions the original
engine ran, so the kernel is bit-for-bit identical to the streaming
detector (the parity suites assert array equality, not approximation).

The kernel is strip-mined: segments are processed in bounded strips
through buffers owned by a reusable :class:`KernelWorkspace`, so peak
temporary memory is independent of capture length — which is what lets
:meth:`BatchEntropyEngine.scan_stream` hold a whole 100M-frame mmap
scan inside a fixed RSS budget.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitprob import check_id_range, window_bit_counts
from repro.core.config import IDSConfig
from repro.core.detector import WindowResult
from repro.core.entropy import binary_entropy
from repro.core.template import GoldenTemplate
from repro.exceptions import DetectorError

__all__ = [
    "KERNEL_COLUMNS",
    "KernelWorkspace",
    "RESULT_FIELDS",
    "RESULT_VERSION",
    "WindowBlock",
    "scan_windows",
]

#: The columns :func:`scan_windows` reads — the detector judges a window
#: from identifier bits and times alone; ``is_attack`` only feeds the
#: ground-truth ``n_attack_messages``.  Chunked scans ask their source
#: for these and nothing else.
KERNEL_COLUMNS = ("timestamp_us", "can_id", "is_attack")

#: Version of the columnar window payload (:meth:`WindowBlock.to_payload`)
#: that the scan fabric's results and the fleet ledger's entries carry.
#: Version 1 was a list of per-window ``WindowResult.to_dict`` dicts;
#: only version 2 decodes.
RESULT_VERSION = 2

#: The columnar payload: one little-endian array per
#: :class:`WindowBlock` field, ``(name, dtype, per_bit)``; per-bit
#: arrays are ``windows x n_bits``, row-major.  ``t_end_us`` is not
#: sent: it is always ``t_start_us + window_us``.
RESULT_FIELDS = (
    ("index", "<i8", False),
    ("t_start_us", "<i8", False),
    ("n_messages", "<i8", False),
    ("n_attack_messages", "<i8", False),
    ("probabilities", "<f8", True),
    ("entropy", "<f8", True),
    ("deviations", "<f8", True),
    ("violated", "|b1", True),
    ("judged", "|b1", False),
)

#: Bits per packed partial-count field.  A field accumulates one bit's
#: 1-count for one window, so windows must stay below ``2**16`` messages
#: for the packed path (checked per call; larger windows fall back).
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELDS_PER_WORD = 64 // _FIELD_BITS

#: Widest identifier the packed lookup table supports (2**16 rows); the
#: base-frame 11-bit case uses a 2048-row table.
_PACK_MAX_BITS = 16

#: Rows per internal strip: bounds the gather buffer (strip × 24 bytes,
#: ~1.5 MiB — L2-resident, so the reduceat reads it hot) regardless of
#: capture size.  Strips always cover whole segments, so a segment
#: larger than this simply gets a larger strip.
_STRIP_ROWS = 1 << 16

_PACK_TABLES: Dict[int, np.ndarray] = {}


def _pack_table(n_bits: int) -> np.ndarray:
    """Lookup table ``(2**n_bits, n_words)``: row ``v`` packs the bits
    of identifier ``v`` (MSB first) into 16-bit fields, four per word."""
    table = _PACK_TABLES.get(n_bits)
    if table is None:
        n_words = -(-n_bits // _FIELDS_PER_WORD)
        values = np.arange(1 << n_bits, dtype=np.int64)
        table = np.zeros((values.size, n_words), dtype=np.int64)
        for bit in range(n_bits):
            word, field = divmod(bit, _FIELDS_PER_WORD)
            column = (values >> np.int64(n_bits - 1 - bit)) & np.int64(1)
            table[:, word] |= column << np.int64(_FIELD_BITS * field)
        _PACK_TABLES[n_bits] = table
    return table


class KernelWorkspace:
    """Reusable scratch buffers for :func:`scan_windows`.

    One workspace serves any number of sequential kernel calls (e.g.
    every chunk of a streamed scan); buffers grow to the largest strip
    seen and are then reused, so a long out-of-core scan allocates its
    temporaries once instead of once per chunk.
    """

    __slots__ = ("_gather", "_packed")

    def __init__(self) -> None:
        self._gather: Optional[np.ndarray] = None
        self._packed: Optional[np.ndarray] = None

    def gather(self, rows: int, words: int) -> np.ndarray:
        """A ``(rows, words)`` int64 gather buffer (grown as needed)."""
        buf = self._gather
        if buf is None or buf.shape[0] < rows or buf.shape[1] != words:
            buf = np.empty((max(rows, 1), words), dtype=np.int64)
            self._gather = buf
        return buf[:rows]

    def packed(self, rows: int, words: int) -> np.ndarray:
        """A ``(rows, words)`` int64 reduce buffer (grown as needed)."""
        buf = self._packed
        if buf is None or buf.shape[0] < rows or buf.shape[1] != words:
            buf = np.empty((max(rows, 1), words), dtype=np.int64)
            self._packed = buf
        return buf[:rows]


def _segment_windows(
    timestamps: np.ndarray,
    window_us: int,
    origin_us: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-empty tumbling-window segments via binary search.

    Returns ``(grid, seg_starts, seg_ends)`` exactly as
    :meth:`ColumnTrace.window_segments` would, but in
    ``O(n_windows log n)`` instead of ``O(n)`` — no full pass over the
    timestamp column, which matters both for speed and for not paging
    in an entire memory-mapped capture.  Falls back to the dividing
    pass when the window grid is denser than the records (a sparse
    capture full of silent gaps) or when records precede the origin.
    """
    n = timestamps.size
    first = int(timestamps[0])
    last = int(timestamps[-1])
    w_total = (last - origin_us) // window_us + 1
    if first < origin_us or w_total > n:
        grid = (timestamps - np.int64(origin_us)) // np.int64(window_us)
        boundaries = np.flatnonzero(np.diff(grid)) + 1
        seg_starts = np.concatenate(([0], boundaries))
        seg_ends = np.concatenate((boundaries, [n]))
        return grid[seg_starts], seg_starts, seg_ends
    edges = np.int64(origin_us) + np.arange(1, w_total, dtype=np.int64) * np.int64(
        window_us
    )
    bounds = np.empty(w_total + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[-1] = n
    bounds[1:-1] = np.searchsorted(timestamps, edges, side="left")
    nonempty = np.flatnonzero(np.diff(bounds) > 0)
    return nonempty.astype(np.int64), bounds[nonempty], bounds[nonempty + 1]


def _fused_counts(
    ids: np.ndarray,
    seg_starts: np.ndarray,
    seg_ends: np.ndarray,
    totals: np.ndarray,
    n_bits: int,
    workspace: KernelWorkspace,
) -> np.ndarray:
    """Per-window, per-bit 1-counts, packed-field formulation.

    Bit-identical to :func:`~repro.core.bitprob.window_bit_counts` (the
    per-bit ``reduceat`` reference), which also serves as the fallback
    for identifiers wider than the lookup table or windows too large
    for 16-bit partial counts.
    """
    n_windows = seg_starts.size
    if n_bits > _PACK_MAX_BITS or (n_windows and int(totals.max()) > _FIELD_MASK):
        return window_bit_counts(ids, seg_starts, n_bits)
    table = _pack_table(n_bits)
    n_words = table.shape[1]
    counts = np.empty((n_windows, n_bits), dtype=np.int64)
    strip = 0
    while strip < n_windows:
        # Cover whole segments up to ~_STRIP_ROWS rows per strip.
        stop = int(
            np.searchsorted(
                seg_starts, int(seg_starts[strip]) + _STRIP_ROWS, side="left"
            )
        )
        stop = max(stop, strip + 1)
        lo = int(seg_starts[strip])
        hi = int(seg_ends[stop - 1])
        gathered = workspace.gather(hi - lo, n_words)
        # mode="clip" is safe (check_id_range ran) and avoids the slow
        # buffered path np.take uses for out= with mode="raise".
        np.take(table, ids[lo:hi], axis=0, out=gathered, mode="clip")
        packed = workspace.packed(stop - strip, n_words)
        np.add.reduceat(gathered, seg_starts[strip:stop] - lo, axis=0, out=packed)
        for bit in range(n_bits):
            word, field = divmod(bit, _FIELDS_PER_WORD)
            np.right_shift(
                packed[:, word], _FIELD_BITS * field, out=counts[strip:stop, bit]
            )
        counts[strip:stop] &= _FIELD_MASK
        strip = stop
    return counts


def _segment_attack_counts(
    is_attack: np.ndarray, seg_starts: np.ndarray, seg_ends: np.ndarray
) -> np.ndarray:
    """Ground-truth attack messages per segment.

    Attack rows are sparse (usually absent), so count them once with
    ``flatnonzero`` and place them into segments by binary search — a
    single cheap pass over the bool column instead of an int64 cast +
    ``reduceat``.
    """
    if seg_starts.size == 0:
        return np.zeros(0, dtype=np.int64)
    rows = np.flatnonzero(is_attack)
    if rows.size == 0:
        return np.zeros(seg_starts.size, dtype=np.int64)
    return (
        np.searchsorted(rows, seg_ends, side="left")
        - np.searchsorted(rows, seg_starts, side="left")
    ).astype(np.int64)


@dataclass
class WindowBlock:
    """Struct-of-arrays window verdicts (one row per non-empty window).

    This is the kernel's native result: every field the per-window
    :class:`~repro.core.detector.WindowResult` carries, held as one
    parallel array over all windows.  Aggregate consumers (metrics,
    throughput experiments, drift series) read the arrays directly;
    list-API consumers call :meth:`results`, which materialises
    ``WindowResult`` rows lazily as zero-copy row views.
    """

    window_us: int
    index: np.ndarray
    t_start_us: np.ndarray
    n_messages: np.ndarray
    n_attack_messages: np.ndarray
    probabilities: np.ndarray
    entropy: np.ndarray
    deviations: np.ndarray
    violated: np.ndarray
    judged: np.ndarray

    def __len__(self) -> int:
        return self.index.size

    @property
    def n_bits(self) -> int:
        return self.probabilities.shape[1]

    @property
    def t_end_us(self) -> np.ndarray:
        """Window end times (start + window length)."""
        return self.t_start_us + np.int64(self.window_us)

    @property
    def alarm_mask(self) -> np.ndarray:
        """Per-window alarm verdicts (judged and >= 1 violated bit)."""
        return self.judged & self.violated.any(axis=1)

    @property
    def n_alarmed(self) -> int:
        """Number of alarming windows."""
        return int(np.count_nonzero(self.alarm_mask))

    @property
    def n_judged(self) -> int:
        """Number of judged windows."""
        return int(np.count_nonzero(self.judged))

    @property
    def total_messages(self) -> int:
        """Messages across all windows."""
        return int(self.n_messages.sum())

    def result(self, i: int) -> WindowResult:
        """Row ``i`` as a :class:`WindowResult` (arrays are row views)."""
        t_start = int(self.t_start_us[i])
        return WindowResult(
            index=int(self.index[i]),
            t_start_us=t_start,
            t_end_us=t_start + self.window_us,
            n_messages=int(self.n_messages[i]),
            n_attack_messages=int(self.n_attack_messages[i]),
            probabilities=self.probabilities[i],
            entropy=self.entropy[i],
            deviations=self.deviations[i],
            violated=self.violated[i],
            judged=bool(self.judged[i]),
        )

    def results(self) -> List[WindowResult]:
        """Every row as a :class:`WindowResult` list (the legacy API)."""
        return [self.result(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[WindowResult]:
        return iter(self.results())

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n_bits: int, window_us: int) -> "WindowBlock":
        """A block with zero windows."""
        i64 = np.empty(0, dtype=np.int64)
        f = np.empty((0, n_bits), dtype=float)
        return cls(
            window_us=window_us,
            index=i64,
            t_start_us=i64.copy(),
            n_messages=i64.copy(),
            n_attack_messages=i64.copy(),
            probabilities=f,
            entropy=f.copy(),
            deviations=f.copy(),
            violated=np.empty((0, n_bits), dtype=bool),
            judged=np.empty(0, dtype=bool),
        )

    @classmethod
    def concat(
        cls, blocks: Sequence["WindowBlock"], n_bits: int, window_us: int
    ) -> "WindowBlock":
        """Stack chunked blocks into one (indices must already be global)."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return cls.empty(n_bits, window_us)
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            window_us=window_us,
            index=np.concatenate([b.index for b in blocks]),
            t_start_us=np.concatenate([b.t_start_us for b in blocks]),
            n_messages=np.concatenate([b.n_messages for b in blocks]),
            n_attack_messages=np.concatenate(
                [b.n_attack_messages for b in blocks]
            ),
            probabilities=np.concatenate([b.probabilities for b in blocks]),
            entropy=np.concatenate([b.entropy for b in blocks]),
            deviations=np.concatenate([b.deviations for b in blocks]),
            violated=np.concatenate([b.violated for b in blocks]),
            judged=np.concatenate([b.judged for b in blocks]),
        )

    @classmethod
    def from_results(
        cls, windows: Sequence[WindowResult], n_bits: int, window_us: int
    ) -> "WindowBlock":
        """Stack :class:`WindowResult` rows into one block (the inverse
        of :meth:`results`).

        A block has one window length and one row width, so every
        window must be ``window_us`` long and ``n_bits`` wide.
        """
        if any(w.t_end_us - w.t_start_us != window_us for w in windows):
            raise DetectorError(
                f"cannot stack windows that are not {window_us} us long"
            )
        n = len(windows)
        columns = {}
        for name, dtype, per_bit in RESULT_FIELDS:
            shape = (n, n_bits) if per_bit else (n,)
            column = np.array([getattr(w, name) for w in windows], dtype=dtype[1:])
            if not n:
                column = column.reshape(shape)
            elif column.shape != shape:
                raise DetectorError(
                    f"cannot stack {name} of shape {column.shape} "
                    f"for {n} windows of {n_bits} bits"
                )
            columns[name] = column
        return cls(window_us=window_us, **columns)

    # ------------------------------------------------------------------
    # The columnar payload (scan-fabric results and fleet-ledger entries)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe columnar payload: the raw little-endian bytes of
        every :data:`RESULT_FIELDS` array, base64-encoded.

        Lossless, so a decoded block is bit-identical to this one.
        """
        payload: dict = {"version": RESULT_VERSION, "windows": len(self)}
        for name, dtype, _ in RESULT_FIELDS:
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            payload[name] = base64.b64encode(column.tobytes()).decode("ascii")
        return payload

    @classmethod
    def from_payload(
        cls, payload: dict, n_bits: int, window_us: int
    ) -> "WindowBlock":
        """Inverse of :meth:`to_payload`.

        Raises :class:`ValueError` on a payload it cannot decode
        exactly: another version, a missing field, bad base64, an array
        whose size disagrees with the window count, or a bool byte
        other than 0 and 1.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"a {type(payload).__name__} payload is not the "
                f"columnar result version {RESULT_VERSION}"
            )
        if payload.get("version") != RESULT_VERSION:
            raise ValueError(
                f"result version {payload.get('version')!r} is not "
                f"supported (expected {RESULT_VERSION})"
            )
        n = payload.get("windows")
        if type(n) is not int or n < 0:
            raise ValueError(f"window count {n!r}")
        columns = {}
        for name, dtype, per_bit in RESULT_FIELDS:
            if name not in payload:
                raise ValueError(f"no {name} field")
            try:
                raw = base64.b64decode(payload[name], validate=True)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name} is not base64 ({exc})") from exc
            shape = (n, n_bits) if per_bit else (n,)
            size = n * (n_bits if per_bit else 1) * np.dtype(dtype).itemsize
            if len(raw) != size:
                raise ValueError(
                    f"{name} holds {len(raw)} B, not {size} B for "
                    f"{n} windows of {n_bits} bits"
                )
            if dtype == "|b1" and raw.translate(None, b"\x00\x01"):
                raise ValueError(f"{name} holds bytes other than 0 and 1")
            columns[name] = np.frombuffer(raw, dtype=dtype).reshape(
                shape
            ).astype(dtype[1:])
        return cls(window_us=window_us, **columns)


def scan_windows(
    trace,
    template: GoldenTemplate,
    config: IDSConfig,
    *,
    origin_us: Optional[int] = None,
    index_base: int = 0,
    workspace: Optional[KernelWorkspace] = None,
) -> WindowBlock:
    """Judge every tumbling window of a columnar trace in one fused pass.

    ``trace`` is a non-empty :class:`~repro.io.columnar.ColumnTrace`
    (or any object exposing ``timestamp_us`` / ``can_id`` /
    ``is_attack`` columns).  ``origin_us`` anchors the window grid
    (default: the trace's own first timestamp) and ``index_base``
    offsets the emitted window indices — together they let a chunked
    driver call the kernel per window-aligned chunk and concatenate
    blocks that are bit-identical to one whole-trace call.

    The numeric path is exactly the reference engine's: int64 counts /
    float totals -> :func:`binary_entropy` -> template subtraction ->
    threshold comparison.  Only the *route* to the counts differs.
    """
    n = trace.timestamp_us.size
    if n == 0:
        raise DetectorError("scan_windows needs a non-empty trace")
    if config.window_us <= 0:
        raise ValueError(f"window must be positive, got {config.window_us}")
    n_bits = config.n_bits
    if template.n_bits != n_bits:
        raise DetectorError(
            f"template monitors {template.n_bits} bits, config expects {n_bits}"
        )
    ids = trace.can_id
    check_id_range(ids, n_bits)
    if workspace is None:
        workspace = KernelWorkspace()
    t0 = int(trace.timestamp_us[0]) if origin_us is None else int(origin_us)

    grid, seg_starts, seg_ends = _segment_windows(
        trace.timestamp_us, config.window_us, t0
    )
    totals = seg_ends - seg_starts
    counts = _fused_counts(ids, seg_starts, seg_ends, totals, n_bits, workspace)
    attacks = _segment_attack_counts(trace.is_attack, seg_starts, seg_ends)

    # Same float path as the streaming BitCounter.probabilities(): int64
    # counts divided by the float total — then the shared entropy
    # function and template arithmetic.  Bit-identical by construction.
    probabilities = counts / totals[:, None].astype(float)
    entropy = np.asarray(binary_entropy(probabilities), dtype=float)
    judged = totals >= config.min_window_messages
    deviations = np.where(judged[:, None], entropy - template.mean_entropy, 0.0)
    violated = np.abs(deviations) > template.thresholds
    violated &= judged[:, None]

    return WindowBlock(
        window_us=config.window_us,
        index=np.arange(index_base, index_base + grid.size, dtype=np.int64),
        t_start_us=np.int64(t0) + grid * np.int64(config.window_us),
        n_messages=totals,
        n_attack_messages=attacks,
        probabilities=probabilities,
        entropy=entropy,
        deviations=deviations,
        violated=violated,
        judged=judged,
    )
