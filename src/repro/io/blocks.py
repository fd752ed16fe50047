"""Block-compressed columnar capture container (``.npb``).

The uncompressed aligned ``.npz`` (see :mod:`repro.io.columnar`) is the
memory-mapping format: bounded-memory scans, zero-copy loads, but
full-size on disk.  Fleet corpora are large *and* compressed, so this
module adds the complementary container: every column is cut into
per-block streams with a JSON block index, so archives stay small
on disk without giving up the RSS ceiling — :class:`BlockReader`
inflates one block at a time and plugs straight into
``BatchEntropyEngine.scan_stream``.

File layout (all integers little-endian)::

    magic            8 bytes   b"REPRONB1"
    column chunks    back-to-back zlib streams, one per (block, column)
    index            JSON (UTF-8): schema version, global intern
                     tables, per-column codec choices, per-block row
                     counts / time bounds / per-column entries
    trailer          <QQ8s: index offset, index size, magic again

Format v2 filters each column through a codec (:mod:`repro.io.codecs`)
*before* deflate — delta+zigzag for monotone timestamps and payload
offsets (whose deltas are the DLC sequence), dictionary encoding for
the few-distinct-values ID/source/bus columns, byte-transpose for
payload bytes — chosen automatically per column by trying every
candidate on the first block and keeping the smallest, with ``raw``
as the always-available escape hatch (so v2 never loses to v1) and a
per-block ``raw`` fallback when the winner cannot apply (e.g. a
ragged-DLC block under the payload transpose).  Each v2 column entry
records ``{off, csize, raw, dtype, codec, meta, crc}``; the CRC is of
the filtered (pre-deflate) bytes, so a bit-flipped block is always a
diagnosed ``TraceFormatError``, never silent garbage.  v1 files
(plain per-column zlib, list-shaped entries) remain readable forever:
the ``version`` gate dispatches, and :class:`BlockWriter` can still
emit v1 byte-identically (``version=1``) for compatibility tooling
and size comparisons.

The writer is append-only (stream parse → filter → compress → append,
nothing buffered beyond one block) and fsyncs the index before the
trailer so a crash mid-write leaves a detectably-truncated file; the
reader seeks the trailer first, so both directions are O(block)
memory.  Alignment rule: blocks are cut on frame boundaries only —
every block holds exactly ``block_frames`` rows (the last may be
short) with its payload offsets rebased to 0 — and window alignment
is applied at *read* time by joining the carry (the previous block's
open grid chunk) with the next block's rows up to the carry's chunk
boundary, so any ``(window_us, chunk_windows)`` grid scans
bit-identically to the in-RAM path.  Unknown index versions are
refused up front (``version`` gate), like the npz schema gate, and so
is an index whose frame count disagrees with its blocks.

Decoded block columns land in the process-wide
:mod:`repro.io.blockcache` LRU (keyed by path + stat fingerprint +
block + column), so warm fleet rescans and multi-detector passes over
the same capture stop re-inflating identical blocks.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import (
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.exceptions import TraceFormatError
from repro.io import codecs as npb_codecs
from repro.io.blockcache import DecodedBlockCache, default_cache, file_fingerprint
from repro.io.codecs import CODEC_NAMES, CodecUnsuitable
from repro.io.columnar import (
    COLUMN_DTYPES,
    COLUMNS,
    ColumnTrace,
    column_projection,
)
from repro.io.trace import Trace

__all__ = ["BlockReader", "BlockWriter", "write_blocks", "BLOCKS_SUFFIX"]

#: Canonical file suffix (``capture.npb`` — "numpy blocks").
BLOCKS_SUFFIX = ".npb"

_MAGIC = b"REPRONB1"
_TRAILER = struct.Struct("<QQ8s")
_FORMAT_NAME = "repro-blocks"
_VERSION = 2
_READABLE = (1, 2)

#: Default rows per compressed block.  256 K rows ≈ 8 MB of raw column
#: data — large enough that zlib sees real redundancy, small enough
#: that one inflated block is a rounding error under an RSS ceiling.
DEFAULT_BLOCK_FRAMES = 262_144

#: zlib level 6: the default speed/size trade-off.
DEFAULT_LEVEL = 6

#: Per-block column order (also the byte order inside the file).
_COLUMNS = COLUMNS

#: Codec candidates per column, tried in order on the first block; the
#: smallest compressed result wins (``raw`` is always a candidate, so
#: a filter has to *pay* to be chosen).  Booleans stay raw: deflate
#: already collapses their runs, and no filter here can beat that.
_CANDIDATES: Dict[str, Tuple[str, ...]] = {
    "timestamp_us": ("delta", "shuffle", "raw"),
    "can_id": ("dict", "shuffle", "raw"),
    "payload": ("shuffle", "raw"),
    "payload_offsets": ("delta", "raw"),
    "extended": ("raw",),
    "is_attack": ("raw",),
    "source_code": ("dict", "raw"),
    "bus_code": ("dict", "raw"),
}


class BlockWriter:
    """Append-only writer for the ``.npb`` container.

    ``append`` takes time-ordered :class:`ColumnTrace` chunks of any
    size (the streaming readers' chunks, mapped npz slices, other
    readers' blocks); the writer re-cuts them into exact
    ``block_frames`` blocks, re-interns source/bus tags into global
    tables, filters + compresses each column and appends it.  Peak
    memory is O(block), never O(capture).  Use as a context manager —
    the index and trailer are written on a clean :meth:`close`.

    ``codecs`` forces specific codecs per column (skipping the
    first-block selection for those columns); ``version=1`` writes the
    legacy format byte-identically (all-raw, list-shaped entries).
    Batch converts appending several captures into one container
    should call :meth:`flush` between captures so the buffered column
    scratch drains and no block straddles a capture boundary.
    """

    def __init__(
        self,
        path: Union[str, Path],
        block_frames: int = DEFAULT_BLOCK_FRAMES,
        level: int = DEFAULT_LEVEL,
        *,
        codecs: Optional[Mapping[str, str]] = None,
        version: int = _VERSION,
    ) -> None:
        if block_frames <= 0:
            raise TraceFormatError(
                f"block_frames must be positive, got {block_frames}"
            )
        if not -1 <= int(level) <= 9:
            raise TraceFormatError(
                f"compression level must be in -1..9, got {level}"
            )
        if version not in _READABLE:
            raise TraceFormatError(
                f"cannot write block trace version {version} "
                f"(writable: {list(_READABLE)})"
            )
        self.path = Path(path)
        self.block_frames = int(block_frames)
        self.level = int(level)
        self.version = int(version)
        self._codec_overrides: Dict[str, str] = {}
        for name, codec in dict(codecs or {}).items():
            if name not in _COLUMNS:
                raise TraceFormatError(
                    f"unknown column {name!r} in codec overrides "
                    f"(columns: {', '.join(_COLUMNS)})"
                )
            if codec not in CODEC_NAMES:
                raise TraceFormatError(
                    f"unknown codec {codec!r} for column {name!r} "
                    f"(codecs: {', '.join(CODEC_NAMES)})"
                )
            self._codec_overrides[name] = codec
        if self._codec_overrides and self.version < 2:
            raise TraceFormatError(
                "codec overrides require format version 2"
            )
        #: Selected codec per column — fixed after the first block.
        self._codecs: Dict[str, str] = {}
        self._source_table: Dict[str, int] = {}
        self._bus_table: Dict[str, int] = {}
        self._parts: List[Dict[str, np.ndarray]] = []
        self._buffered = 0
        self._blocks: List[dict] = []
        self._n_frames = 0
        self._last_end: Optional[int] = None
        self._closed = False
        self._handle = open(self.path, "wb")
        self._handle.write(_MAGIC)

    # ------------------------------------------------------------------
    def _recode(
        self, codes: np.ndarray, names, table: Dict[str, int]
    ) -> np.ndarray:
        mapping = np.empty(len(names), dtype=np.int32)
        for i, name in enumerate(names):
            mapping[i] = table.setdefault(name, len(table))
        return mapping[codes]

    def append(self, trace) -> None:
        """Append a time-ordered chunk (``Trace`` or ``ColumnTrace``)."""
        if self._closed:
            raise TraceFormatError(f"{self.path}: writer already closed")
        ct = ColumnTrace.coerce(trace)
        if not len(ct):
            return
        if self._last_end is not None and ct.start_us < self._last_end:
            raise TraceFormatError(
                f"{self.path}: appended chunk starts at {ct.start_us} us, "
                f"before the previous chunk's end {self._last_end} us; "
                f"blocks must be time-ordered"
            )
        if np.any(np.diff(ct.timestamp_us) < 0):
            raise TraceFormatError(
                f"{self.path}: appended chunk is not time-ordered"
            )
        self._last_end = ct.end_us
        self._parts.append(
            {
                "timestamp_us": ct.timestamp_us,
                "can_id": ct.can_id,
                "payload": ct.payload_bytes(),
                "lengths": ct.dlc,
                "extended": ct.extended,
                "is_attack": ct.is_attack,
                "source_code": self._recode(
                    ct.source_code, ct.source_table, self._source_table
                ),
                "bus_code": self._recode(
                    ct.bus_code, ct.bus_table, self._bus_table
                ),
            }
        )
        self._buffered += len(ct)
        if self._buffered >= self.block_frames:
            self._drain(final=False)

    def flush(self) -> None:
        """Drain every buffered frame into blocks now (capture boundary).

        Batch converts call this between captures: the column scratch
        (``_parts``) empties completely, the tail becomes a (possibly
        short) block, and the next capture starts on a fresh block —
        no block ever straddles two captures.
        """
        if self._closed:
            raise TraceFormatError(f"{self.path}: writer already closed")
        self._drain(final=True)

    # ------------------------------------------------------------------
    def _drain(self, final: bool) -> None:
        """Flush buffered parts as exact ``block_frames`` blocks."""
        if not self._parts:
            return
        cat = {
            name: np.concatenate([p[name] for p in self._parts])
            for name in (
                "timestamp_us",
                "can_id",
                "payload",
                "lengths",
                "extended",
                "is_attack",
                "source_code",
                "bus_code",
            )
        }
        n = cat["timestamp_us"].size
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cat["lengths"], out=offsets[1:] if n else None)
        lo = 0
        while n - lo >= self.block_frames or (final and lo < n):
            hi = min(lo + self.block_frames, n)
            self._write_block(cat, offsets, lo, hi)
            lo = hi
        if lo:
            rest = {
                name: cat[name][lo:]
                for name in cat
                if name != "payload"
            }
            rest["payload"] = cat["payload"][offsets[lo]:]
            self._parts = [rest] if n - lo else []
        else:
            self._parts = [dict(cat)]
        self._buffered = n - lo

    # ------------------------------------------------------------------
    def _select_codec(self, name: str, data: np.ndarray, width) -> str:
        """First-block selection: smallest deflated candidate wins."""
        forced = self._codec_overrides.get(name)
        if forced is not None:
            return forced
        best_codec = "raw"
        best_cost = None
        for cand in _CANDIDATES[name]:
            try:
                payload, meta = npb_codecs.encode(cand, data, width=width)
            except CodecUnsuitable:
                continue
            cost = len(zlib.compress(payload, self.level))
            if meta:
                cost += len(json.dumps(meta, separators=(",", ":")))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_codec = cand
        return best_codec

    def _encode_column(
        self, name: str, data: np.ndarray, width
    ) -> Tuple[str, bytes, dict]:
        """Filter one column -> ``(codec used, payload, meta)``."""
        if self.version < 2:
            return "raw", data.tobytes(), {}
        chosen = self._codecs.get(name)
        if chosen is None:
            chosen = self._select_codec(name, data, width)
            self._codecs[name] = chosen
        if chosen == "raw":
            return "raw", data.tobytes(), {}
        try:
            payload, meta = npb_codecs.encode(chosen, data, width=width)
        except CodecUnsuitable:
            # Per-block escape hatch: the column-wide winner does not
            # apply here (e.g. a ragged-DLC block under the payload
            # transpose) — this block records ``raw``.
            return "raw", data.tobytes(), {}
        return chosen, payload, meta

    def _write_block(self, cat, offsets, lo: int, hi: int) -> None:
        ts = cat["timestamp_us"]
        arrays = {
            "timestamp_us": ts[lo:hi],
            "can_id": cat["can_id"][lo:hi],
            "payload": cat["payload"][offsets[lo]:offsets[hi]],
            "payload_offsets": offsets[lo : hi + 1] - offsets[lo],
            "extended": cat["extended"][lo:hi],
            "is_attack": cat["is_attack"][lo:hi],
            "source_code": cat["source_code"][lo:hi],
            "bus_code": cat["bus_code"][lo:hi],
        }
        lengths = cat["lengths"][lo:hi]
        width = None
        if lengths.size and int(lengths.min()) == int(lengths.max()):
            width = int(lengths[0])
        columns = {}
        for name in _COLUMNS:
            data = np.ascontiguousarray(arrays[name])
            codec, payload, meta = self._encode_column(
                name, data, width if name == "payload" else None
            )
            comp = zlib.compress(payload, self.level)
            if self.version < 2:
                columns[name] = [
                    self._handle.tell(),
                    len(comp),
                    len(payload),
                    data.dtype.str,
                ]
            else:
                columns[name] = {
                    "off": self._handle.tell(),
                    "csize": len(comp),
                    "raw": int(data.nbytes),
                    "dtype": data.dtype.str,
                    "codec": codec,
                    "meta": meta,
                    "crc": zlib.crc32(payload),
                }
            self._handle.write(comp)
        self._blocks.append(
            {
                "rows": hi - lo,
                "start_us": int(ts[lo]),
                "end_us": int(ts[hi - 1]),
                "columns": columns,
            }
        )
        self._n_frames += hi - lo

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush the final block, then write the index and trailer.

        The index is fsynced *before* the trailer goes out: a crash at
        any point leaves a file without a valid trailer — detectably
        truncated — never a valid trailer over a torn index.
        """
        if self._closed:
            return
        self._drain(final=True)
        index = {
            "format": _FORMAT_NAME,
            "version": self.version,
            "n_frames": self._n_frames,
            "block_frames": self.block_frames,
            "level": self.level,
            "source_table": list(self._source_table) or [""],
            "bus_table": list(self._bus_table) or [""],
            "blocks": self._blocks,
        }
        if self.version >= 2:
            index["codecs"] = {
                name: self._codecs[name]
                for name in _COLUMNS
                if name in self._codecs
            }
        payload = json.dumps(index, separators=(",", ":")).encode("utf-8")
        offset = self._handle.tell()
        self._handle.write(payload)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.write(_TRAILER.pack(offset, len(payload), _MAGIC))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._closed = True

    def abort(self) -> None:
        """Close the raw handle without finalising (file stays invalid)."""
        if not self._closed:
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_blocks(
    path: Union[str, Path],
    trace,
    block_frames: int = DEFAULT_BLOCK_FRAMES,
    level: int = DEFAULT_LEVEL,
    *,
    codecs: Optional[Mapping[str, str]] = None,
    version: int = _VERSION,
) -> None:
    """Write a capture (or an iterable of time-ordered chunks) as ``.npb``.

    Accepts a :class:`Trace`/:class:`ColumnTrace`, or any iterator of
    :class:`ColumnTrace` chunks (e.g. ``iter_candump_columns``) — the
    streaming form never materialises the capture.
    """
    with BlockWriter(
        path,
        block_frames=block_frames,
        level=level,
        codecs=codecs,
        version=version,
    ) as writer:
        if isinstance(trace, (Trace, ColumnTrace)):
            writer.append(trace)
        else:
            for chunk in trace:
                writer.append(chunk)


def _join(parts: List[ColumnTrace], columns) -> ColumnTrace:
    """One grid chunk from its time-ordered parts (as is when whole)."""
    if len(parts) == 1:
        return parts[0]
    return ColumnTrace.merge(*parts, columns=columns)


class BlockReader:
    """One-block-at-a-time reader for the ``.npb`` container.

    A :class:`~repro.io.columnar.ChunkSource` like :class:`ColumnTrace`
    (``len``, ``start_us``, ``iter_window_chunks``), so
    ``BatchEntropyEngine.scan_stream`` accepts it directly: peak memory
    is one inflated block plus one window-grid carry, no matter how
    large the capture is, and a scan inflates only the columns its
    kernel reads.

    Decode path: compressed bytes are read into a reusable scratch
    buffer (``readinto`` + ``memoryview`` — no transient read
    allocations), inflated via ``zlib.decompressobj``, CRC-checked,
    and un-filtered with vectorised numpy; ``raw`` columns alias the
    inflated bytes outright (``np.frombuffer`` — zero copy).  Decoded
    columns are published read-only to the process-wide
    :func:`repro.io.blockcache.default_cache` keyed by
    ``(path, fingerprint, block, column)``, making repeat scans of the
    same capture — fleet watch cycles, drift + detect double passes —
    warm.  Pass ``cache=False`` to opt out, or a private
    :class:`DecodedBlockCache` to isolate.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        cache: Union[None, bool, DecodedBlockCache] = None,
    ) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "rb")
        try:
            index = self._read_index()
        except Exception:
            self._handle.close()
            raise
        self._index = index
        self.version = int(index["version"])
        self.n_frames = int(index["n_frames"])
        self.source_table = tuple(index["source_table"])
        self.bus_table = tuple(index["bus_table"])
        self.blocks = index["blocks"]
        self.codecs = dict(index.get("codecs") or {})
        if cache is None:
            self._cache: Optional[DecodedBlockCache] = default_cache()
        elif cache is False:
            self._cache = None
        elif cache is True:
            self._cache = default_cache()
        else:
            self._cache = cache
        self._fingerprint = file_fingerprint(os.fstat(self._handle.fileno()))
        self._cache_path = str(self.path.resolve())
        self._scratch = bytearray()

    def _read_index(self) -> dict:
        fh = self._handle
        fh.seek(0, 2)
        size = fh.tell()
        if size < len(_MAGIC) + _TRAILER.size:
            raise TraceFormatError(
                f"not a block-compressed trace: {self.path} (truncated)"
            )
        fh.seek(0)
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise TraceFormatError(
                f"not a block-compressed trace: {self.path} (bad magic)"
            )
        fh.seek(size - _TRAILER.size)
        offset, length, magic = _TRAILER.unpack(fh.read(_TRAILER.size))
        if magic != _MAGIC or offset + length + _TRAILER.size != size:
            raise TraceFormatError(
                f"not a block-compressed trace: {self.path} (bad trailer)"
            )
        fh.seek(offset)
        try:
            index = json.loads(fh.read(length).decode("utf-8"))
        except ValueError as exc:
            raise TraceFormatError(
                f"not a block-compressed trace: {self.path} (bad index: {exc})"
            ) from exc
        if index.get("format") != _FORMAT_NAME:
            raise TraceFormatError(
                f"not a block-compressed trace: {self.path} "
                f"(format {index.get('format')!r})"
            )
        version = index.get("version")
        if version not in _READABLE:
            raise TraceFormatError(
                f"block trace schema version {version} not supported "
                f"(expected one of {list(_READABLE)})"
            )
        try:
            n_frames = int(index["n_frames"])
            rows = sum(int(block["rows"]) for block in index["blocks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"not a block-compressed trace: {self.path} "
                f"(bad index: {exc!r})"
            ) from exc
        if rows != n_frames:
            # len() and the scans trust n_frames: an index that
            # disagrees with its blocks would drop or invent frames.
            raise TraceFormatError(
                f"{self.path}: index says {n_frames} frames but its "
                f"blocks hold {rows}"
            )
        return index

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_frames

    @property
    def start_us(self) -> int:
        """Timestamp of the first record (0 when empty)."""
        return int(self.blocks[0]["start_us"]) if self.blocks else 0

    @property
    def end_us(self) -> int:
        """Timestamp of the last record (0 when empty)."""
        return int(self.blocks[-1]["end_us"]) if self.blocks else 0

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "BlockReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _column_entry(self, i: int, name: str):
        """Normalise one column's index entry across format versions.

        Returns ``(offset, csize, rawsize, dtype, codec, meta, crc)``
        where ``rawsize`` is the *decoded* column's byte length in
        both versions and ``crc`` (v2 only) covers the filtered
        pre-deflate bytes.
        """
        try:
            e = self.blocks[i]["columns"][name]
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"{self.path}: block {i} index is missing column {name!r}"
            ) from exc
        if self.version >= 2:
            try:
                return (
                    int(e["off"]),
                    int(e["csize"]),
                    int(e["raw"]),
                    e["dtype"],
                    e.get("codec", "raw"),
                    e.get("meta") or {},
                    e.get("crc"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(
                    f"{self.path}: block {i} column {name!r} has a "
                    f"malformed index entry: {exc}"
                ) from exc
        offset, csize, rawsize, dtype = e
        return (int(offset), int(csize), int(rawsize), dtype, "raw", {}, None)

    def _decode_entry(self, i: int, name: str, entry) -> np.ndarray:
        """Read + inflate + CRC-check + un-filter one column of block ``i``."""
        offset, csize, rawsize, dtype, codec, meta, crc = entry
        if len(self._scratch) < csize:
            self._scratch = bytearray(csize)
        view = memoryview(self._scratch)[:csize]
        self._handle.seek(offset)
        got = self._handle.readinto(view)
        if got != csize:
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} truncated "
                f"({got} of {csize} compressed bytes)"
            )
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(view)
            raw += inflater.flush()
        except zlib.error as exc:
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} is corrupt: {exc}"
            ) from exc
        if not inflater.eof or inflater.unused_data:
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} compressed "
                f"stream is malformed"
            )
        if crc is not None and zlib.crc32(raw) != int(crc):
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} failed its "
                f"checksum — the block is corrupt"
            )
        try:
            arr = npb_codecs.decode(codec, raw, np.dtype(dtype), meta)
        except KeyError as exc:
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} has unknown "
                f"codec tag {codec!r}"
            ) from exc
        except (ValueError, TypeError) as exc:
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} failed to "
                f"decode under codec {codec!r}: {exc}"
            ) from exc
        if int(arr.nbytes) != rawsize:
            raise TraceFormatError(
                f"{self.path}: block {i} column {name!r} decoded to "
                f"{arr.nbytes} bytes, index says {rawsize}"
            )
        return arr

    def _column_array(self, i: int, name: str, reg) -> np.ndarray:
        """One decoded column, served from the cache when warm."""
        key = None
        if self._cache is not None:
            key = (self._cache_path, self._fingerprint, i, name)
            arr = self._cache.get(key)
            if arr is not None:
                if reg is not None:
                    reg.counter("io.cache.hit").inc()
                return arr
            if reg is not None:
                reg.counter("io.cache.miss").inc()
        entry = self._column_entry(i, name)
        codec = entry[4]
        if reg is None:
            arr = self._decode_entry(i, name, entry)
        else:
            with reg.span(f"io.decode.{codec}", block=i, column=name):
                arr = self._decode_entry(i, name, entry)
        if key is not None:
            arr = self._cache.put(key, arr)
        return arr

    def _inflate_columns(
        self, i: int, names: Tuple[str, ...], reg
    ) -> Dict[str, np.ndarray]:
        """Decode the named columns of block ``i`` (the IO cost)."""
        return {name: self._column_array(i, name, reg) for name in names}

    def read_block(
        self, i: int, columns: Optional[Collection[str]] = None
    ) -> ColumnTrace:
        """Inflate block ``i`` into an in-RAM :class:`ColumnTrace`.

        ``columns`` projects the read (see
        :func:`~repro.io.columnar.column_projection`): only those
        columns are inflated, CRC-checked and validated; the others
        keep the :class:`ColumnTrace` constructor's absent defaults.
        Either way the timestamps must not decrease and must start and
        end where the index says.  Without a projection every column is
        decoded and validated.
        """
        names = column_projection(columns)
        entry = self.blocks[i]
        rows = int(entry["rows"])
        reg = obs.active()
        if reg is None:
            arrays = self._inflate_columns(i, names, None)
        else:
            with reg.span("io.decompress", block=i, rows=rows):
                arrays = self._inflate_columns(i, names, reg)
        for name, arr in arrays.items():
            if arr.dtype != COLUMN_DTYPES[name]:
                raise TraceFormatError(
                    f"{self.path}: block {i} column {name!r} has dtype "
                    f"{arr.dtype}, expected {COLUMN_DTYPES[name]}"
                )
        ts = arrays["timestamp_us"]
        if ts.size != rows:
            raise TraceFormatError(
                f"{self.path}: block {i} has {ts.size} timestamps, index "
                f"says {rows} rows"
            )
        if rows and (
            int(ts[0]) != int(entry["start_us"])
            or int(ts[-1]) != int(entry["end_us"])
        ):
            raise TraceFormatError(
                f"{self.path}: block {i} spans {int(ts[0])}..{int(ts[-1])} "
                f"us, index says {entry['start_us']}..{entry['end_us']} us"
            )
        if np.any(ts[1:] < ts[:-1]):
            raise TraceFormatError(
                f"{self.path}: block {i} timestamps are not non-decreasing"
            )
        trace = ColumnTrace(
            ts,
            arrays.get("can_id"),
            payload=arrays.get("payload"),
            payload_offsets=arrays.get("payload_offsets"),
            extended=arrays.get("extended"),
            is_attack=arrays.get("is_attack"),
            source_code=arrays.get("source_code"),
            source_table=self.source_table,
            bus_code=arrays.get("bus_code"),
            bus_table=self.bus_table,
            validate=False,
        )
        try:
            trace._check_layout(names)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{self.path}: block {i}: {exc}") from exc
        return trace

    def iter_blocks(self) -> Iterator[ColumnTrace]:
        """Yield every block in order, one inflated at a time."""
        for i in range(len(self.blocks)):
            yield self.read_block(i)

    def to_columns(self) -> ColumnTrace:
        """Eagerly inflate the whole capture (the non-streaming load)."""
        parts = list(self.iter_blocks())
        if not parts:
            return ColumnTrace(np.empty(0, np.int64), np.empty(0, np.int64))
        if len(parts) == 1:
            return parts[0]
        return ColumnTrace.merge(*parts)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Machine-readable container summary (``repro-ids inspect``).

        Per column: the codec actually used per block (winner plus any
        ``raw`` fallbacks), logical vs compressed byte totals and the
        resulting ratio.
        """
        file_bytes = os.fstat(self._handle.fileno()).st_size
        columns: Dict[str, dict] = {}
        for name in _COLUMNS:
            raw_total = 0
            comp_total = 0
            used: Dict[str, int] = {}
            for i in range(len(self.blocks)):
                _, csize, rawsize, _, codec, _, _ = self._column_entry(i, name)
                raw_total += rawsize
                comp_total += csize
                used[codec] = used.get(codec, 0) + 1
            selected = self.codecs.get(name)
            if selected is None:
                if len(used) == 1:
                    selected = next(iter(used))
                else:
                    selected = "mixed" if used else "raw"
            columns[name] = {
                "codec": selected,
                "codecs_used": dict(sorted(used.items())),
                "raw_bytes": raw_total,
                "compressed_bytes": comp_total,
                "ratio": (raw_total / comp_total) if comp_total else 0.0,
            }
        raw_total = sum(c["raw_bytes"] for c in columns.values())
        comp_total = sum(c["compressed_bytes"] for c in columns.values())
        return {
            "path": str(self.path),
            "format": _FORMAT_NAME,
            "version": self.version,
            "n_frames": self.n_frames,
            "blocks": len(self.blocks),
            "block_frames": int(self._index.get("block_frames", 0)),
            "level": int(self._index.get("level", -2)),
            "file_bytes": int(file_bytes),
            "raw_bytes": raw_total,
            "compressed_bytes": comp_total,
            "ratio": (raw_total / comp_total) if comp_total else 0.0,
            "columns": columns,
        }

    def iter_window_chunks(
        self,
        window_us: int,
        chunk_windows: int,
        *,
        origin_us: Optional[int] = None,
        columns: Optional[Collection[str]] = None,
    ) -> Iterator[ColumnTrace]:
        """Window-grid-aligned chunks, one block in memory at a time.

        Blocks are cut on frame boundaries, not window boundaries; the
        alignment rule is applied here, by splitting each block at the
        first grid boundary after the carry (the open, last grid chunk
        so far).  The block's head joins the carry in one
        :meth:`ColumnTrace.merge` of O(chunk) rows; the rest of the
        block is sliced into chunks zero-copy.  Blocks are written in
        time order, so the join only checks that time does not run
        backwards across the block edge — a block that starts before
        the carry ends is a :class:`TraceFormatError`.  The result is
        exactly the chunk stream
        ``self.to_columns().iter_window_chunks(...)`` would produce,
        with O(block + chunk) peak memory.  ``columns`` is passed to
        :meth:`read_block` and the join: only those columns are
        inflated and merged.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us}")
        if chunk_windows <= 0:
            raise ValueError(
                f"chunk_windows must be positive, got {chunk_windows}"
            )
        t0 = self.start_us if origin_us is None else int(origin_us)
        span = int(window_us) * int(chunk_windows)
        # The open grid chunk, as time-ordered parts from one or more
        # blocks; merged once, when a later block closes it.
        carry: List[ColumnTrace] = []
        for i in range(len(self.blocks)):
            block = self.read_block(i, columns)
            if carry:
                if block.start_us < carry[-1].end_us:
                    raise TraceFormatError(
                        f"{self.path}: block {i} starts at "
                        f"{block.start_us} us, before the previous "
                        f"block's last frame at {carry[-1].end_us} us"
                    )
                k = (carry[0].start_us - t0) // span
                cut = int(
                    np.searchsorted(
                        block.timestamp_us, t0 + (k + 1) * span, side="left"
                    )
                )
                if cut:
                    carry.append(block.slice(0, cut))
                if cut == len(block):
                    continue
                yield _join(carry, columns)
                block = block.slice(cut, len(block))
            chunks = list(
                block.iter_window_chunks(
                    window_us, chunk_windows, origin_us=t0
                )
            )
            carry = chunks[-1:]
            yield from chunks[:-1]
        if carry:
            yield _join(carry, columns)
