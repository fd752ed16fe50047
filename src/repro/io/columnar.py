"""Structure-of-arrays trace storage.

:class:`~repro.io.trace.Trace` stores one :class:`~repro.io.trace.TraceRecord`
object per frame, which is convenient for building captures frame by
frame but bounds every whole-trace operation by Python interpreter
overhead.  :class:`ColumnTrace` stores the same capture as parallel
NumPy columns — one array per field — so slicing is zero-copy, time
windowing is a ``searchsorted``, and the detection engines can judge
millions of frames in a handful of vectorised passes.

The two representations are losslessly interconvertible
(:meth:`ColumnTrace.from_trace` / :meth:`ColumnTrace.to_trace`): payload
bytes live in one flat ``uint8`` buffer indexed by an offsets array, and
source names are interned into a string table referenced by per-record
codes.  The conversion contract and when to use which representation are
documented in ``ARCHITECTURE.md``.
"""

from __future__ import annotations

import io
import struct
import warnings
import zipfile
from typing import (
    Collection,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro import obs
from repro.can.constants import SECOND_US
from repro.exceptions import TraceFormatError
from repro.io.trace import Trace, TraceRecord

__all__ = [
    "COLUMNS",
    "COLUMN_DTYPES",
    "ChunkSource",
    "ColumnTrace",
    "column_projection",
    "npz_is_compressed",
]

#: Every column of a :class:`ColumnTrace` with its dtype, in the order
#: the ``.npz`` and ``.npb`` containers store them.
COLUMN_DTYPES = {
    "timestamp_us": np.dtype(np.int64),
    "can_id": np.dtype(np.int64),
    "payload": np.dtype(np.uint8),
    "payload_offsets": np.dtype(np.int64),
    "extended": np.dtype(bool),
    "is_attack": np.dtype(bool),
    "source_code": np.dtype(np.int32),
    "bus_code": np.dtype(np.int32),
}
COLUMNS = tuple(COLUMN_DTYPES)

#: Interned columns and the string table each indexes.
_CODE_TABLES = {"source_code": "source_table", "bus_code": "bus_table"}


def column_projection(columns: Optional[Collection[str]]) -> Tuple[str, ...]:
    """The columns a projected read decodes, in storage order.

    ``None`` means every column.  ``timestamp_us`` is always included:
    the window grid and every ordering check run on it.  ``payload``
    and ``payload_offsets`` come as a pair: neither means anything
    alone.  Unknown names raise ``ValueError``.
    """
    if columns is None:
        return COLUMNS
    wanted = set(columns)
    unknown = wanted.difference(COLUMNS)
    if unknown:
        raise ValueError(
            f"unknown column(s) {sorted(unknown)}; columns are "
            f"{', '.join(COLUMNS)}"
        )
    wanted.add("timestamp_us")
    if wanted & {"payload", "payload_offsets"}:
        wanted |= {"payload", "payload_offsets"}
    return tuple(name for name in COLUMNS if name in wanted)


@runtime_checkable
class ChunkSource(Protocol):
    """What a chunked scan needs from a capture.

    A frame count, the first timestamp (the window-grid origin) and
    window-aligned chunks.  ``columns`` names the columns the consumer
    reads; a source may leave the others at the :class:`ColumnTrace`
    constructor's absent defaults.  :class:`ColumnTrace` (zero-copy
    slices, nothing to skip) and :class:`repro.io.blocks.BlockReader`
    (which then inflates only those columns) implement it.
    """

    def __len__(self) -> int: ...

    @property
    def start_us(self) -> int: ...

    def iter_window_chunks(
        self,
        window_us: int,
        chunk_windows: int,
        *,
        origin_us: Optional[int] = None,
        columns: Optional[Collection[str]] = None,
    ) -> Iterator["ColumnTrace"]: ...


def npz_is_compressed(path) -> bool:
    """True when any member of an ``.npz`` archive is deflated.

    Cheap (central directory only, no member reads).  The out-of-core
    CLI path uses it to refuse compressed npz captures *up front* with
    a ``repro-ids convert`` hint, instead of silently busting the
    memory budget through the eager-load fallback.  Non-zip files
    return False — the capture loader reports those with its own
    diagnostics.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            return any(
                info.compress_type != zipfile.ZIP_STORED
                for info in zf.infolist()
            )
    except (OSError, zipfile.BadZipFile):
        return False


def _as_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise TraceFormatError(f"columns must be 1-D, got shape {arr.shape}")
    return arr


def _gather_payload(
    payload: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Gather per-row byte runs ``payload[starts[r]:starts[r]+lengths[r]]``
    into one contiguous buffer, fully vectorised (no per-row Python loop)."""
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=np.uint8)
    out_offsets = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_offsets[1:])
    indices = (
        np.repeat(starts - out_offsets, lengths) + np.arange(total, dtype=np.int64)
    )
    return payload[indices]


#: Alignment of array data inside uncompressed ``.npz`` archives.  The
#: npy format already pads its own header to 64 bytes; padding each zip
#: member's *local header* (via a benign extra field) keeps that
#: guarantee through the archive, so ``np.memmap`` hands back ALIGNED
#: arrays.  Without it, whole-column kernels on a mapped trace (e.g.
#: ``searchsorted`` over 100M timestamps) silently copy the column into
#: anonymous memory — exactly what the out-of-core path must never do.
_NPZ_ALIGN = 64


def _write_aligned_npz(handle, members: Dict[str, np.ndarray]) -> None:
    """Write an uncompressed ``.npz`` whose array data is 64-byte aligned.

    Layout-compatible with ``np.savez`` (``np.load`` and the mmap reader
    accept both); the only difference is a padding extra field (id 0,
    skipped by every zip reader) sized so each member's array data lands
    on a :data:`_NPZ_ALIGN` boundary.  Timestamps are pinned to the zip
    epoch so identical traces produce identical bytes.
    """
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as zf:
        for name, value in members.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(
                buffer, np.asanyarray(value), allow_pickle=False
            )
            filename = f"{name}.npy"
            offset = handle.tell()
            pad = -(offset + 30 + len(filename.encode("ascii"))) % _NPZ_ALIGN
            if 0 < pad < 4:
                pad += _NPZ_ALIGN
            info = zipfile.ZipInfo(filename, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            if pad:
                info.extra = struct.pack("<HH", 0, pad - 4) + bytes(pad - 4)
            zf.writestr(info, buffer.getvalue())


class _CompressedNpz(Exception):
    """Internal: an npz member needs inflating, so it cannot be mapped."""

    def __init__(self, member: str) -> None:
        super().__init__(member)
        self.member = member


def _mmap_npz_member(
    zf: zipfile.ZipFile, fh, name: str
) -> np.ndarray:
    """Map one stored ``.npy`` member of an open ``.npz`` read-only.

    A ``ZIP_STORED`` member's bytes sit verbatim in the archive: seek
    to its local file header (whose filename/extra lengths may differ
    from the central directory's, so parse them from the header
    itself), step over the npy magic + header, and hand the remaining
    offset to ``np.memmap``.  Zero-length arrays are returned as empty
    ndarrays — ``mmap`` cannot map zero bytes.
    """
    info = zf.getinfo(f"{name}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise _CompressedNpz(name)
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise TraceFormatError(f"corrupt zip local header for member {name!r}")
    fn_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    fh.seek(info.header_offset + 30 + fn_len + extra_len)
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    else:
        raise TraceFormatError(
            f"unsupported npy format version {version} for member {name!r}"
        )
    if fortran or len(shape) != 1:
        raise TraceFormatError(f"npz member {name!r} is not a 1-D C array")
    if shape[0] == 0:
        return np.empty(0, dtype=dtype)
    return np.memmap(fh, mode="r", dtype=dtype, shape=shape, offset=fh.tell())


class ColumnTrace:
    """A CAN capture as parallel columns.

    Columns (all length ``n`` except ``payload_offsets``, length
    ``n + 1``):

    * ``timestamp_us`` — ``int64``, non-decreasing frame completion times;
    * ``can_id`` — ``int64`` identifiers;
    * ``payload`` / ``payload_offsets`` — flat ``uint8`` buffer; frame
      ``i``'s data bytes are ``payload[payload_offsets[i]:payload_offsets[i+1]]``;
    * ``extended`` — ``bool`` frame-format flags;
    * ``is_attack`` — ``bool`` ground-truth injection labels;
    * ``source_code`` — ``int32`` indices into :attr:`source_table`, the
      interned tuple of distinct source names;
    * ``bus_code`` — ``int32`` indices into :attr:`bus_table`, the
      interned tuple of bus labels (a columnar-only extension for
      multi-bus fan-in; see :meth:`with_bus`).

    Instances are immutable by convention: operations return new views
    or new traces, never mutate columns in place.  Every column but
    ``timestamp_us`` may be left out (``None``): absent columns default
    to zeros (no payload bytes, no attacks, code 0).
    """

    __slots__ = (
        "timestamp_us",
        "can_id",
        "payload",
        "payload_offsets",
        "extended",
        "is_attack",
        "source_code",
        "source_table",
        "bus_code",
        "bus_table",
    )

    def __init__(
        self,
        timestamp_us,
        can_id,
        *,
        payload=None,
        payload_offsets=None,
        extended=None,
        is_attack=None,
        source_code=None,
        source_table: Sequence[str] = ("",),
        bus_code=None,
        bus_table: Sequence[str] = ("",),
        validate: bool = True,
    ) -> None:
        self.timestamp_us = _as_array(timestamp_us, np.int64)
        n = self.timestamp_us.size
        self.can_id = (
            _as_array(can_id, np.int64) if can_id is not None
            else np.zeros(n, dtype=np.int64)
        )
        self.payload = (
            _as_array(payload, np.uint8) if payload is not None
            else np.empty(0, dtype=np.uint8)
        )
        self.payload_offsets = (
            _as_array(payload_offsets, np.int64) if payload_offsets is not None
            else np.zeros(n + 1, dtype=np.int64)
        )
        self.extended = (
            _as_array(extended, bool) if extended is not None
            else np.zeros(n, dtype=bool)
        )
        self.is_attack = (
            _as_array(is_attack, bool) if is_attack is not None
            else np.zeros(n, dtype=bool)
        )
        self.source_code = (
            _as_array(source_code, np.int32) if source_code is not None
            else np.zeros(n, dtype=np.int32)
        )
        self.source_table: Tuple[str, ...] = tuple(source_table)
        self.bus_code = (
            _as_array(bus_code, np.int32) if bus_code is not None
            else np.zeros(n, dtype=np.int32)
        )
        self.bus_table: Tuple[str, ...] = tuple(bus_table)
        if validate:
            self._validate()

    def _validate(self) -> None:
        self._check_layout()
        if len(self) and np.any(np.diff(self.timestamp_us) < 0):
            raise TraceFormatError("timestamps must be non-decreasing")

    def _check_layout(self, columns: Collection[str] = COLUMNS) -> None:
        """Validate column dtypes, shapes and offset consistency.

        Everything except timestamp monotonicity — cheap enough to run
        on every merge, raising :class:`TraceFormatError` instead of
        letting ragged arrays reach a numpy concatenate/broadcast.
        ``columns`` limits the check to those columns (a projected
        :meth:`merge` reads no others).
        """
        n = self.timestamp_us.size
        for name in columns:
            dtype = COLUMN_DTYPES[name]
            column = getattr(self, name)
            if not isinstance(column, np.ndarray) or column.ndim != 1:
                raise TraceFormatError(f"column {name!r} must be a 1-D array")
            if column.dtype != dtype:
                raise TraceFormatError(
                    f"column {name!r} has dtype {column.dtype}, expected {dtype}"
                )
            rows = n + 1 if name == "payload_offsets" else n
            if name != "payload" and column.size != rows:
                raise TraceFormatError(
                    f"column {name!r} has {column.size} rows, expected {rows}"
                )
        if not n:
            return
        if "payload_offsets" in columns:
            offsets = self.payload_offsets
            if np.any(np.diff(offsets) < 0):
                raise TraceFormatError("payload_offsets must be non-decreasing")
            if int(offsets[0]) < 0 or int(offsets[-1]) > self.payload.size:
                raise TraceFormatError("payload_offsets exceed the payload buffer")
        for name, table_name in _CODE_TABLES.items():
            if name not in columns:
                continue
            table = getattr(self, table_name)
            if not table:
                raise TraceFormatError(f"{table_name} must not be empty")
            codes = getattr(self, name)
            if int(codes.min()) < 0 or int(codes.max()) >= len(table):
                raise TraceFormatError(f"{name} out of {table_name} range")

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Union[Trace, Sequence[TraceRecord]]) -> "ColumnTrace":
        """Convert a record trace (lossless, one pass)."""
        records = list(trace) if not isinstance(trace, list) else trace
        n = len(records)
        timestamp_us = np.fromiter((r.timestamp_us for r in records), np.int64, n)
        can_id = np.fromiter((r.can_id for r in records), np.int64, n)
        extended = np.fromiter((r.extended for r in records), bool, n)
        is_attack = np.fromiter((r.is_attack for r in records), bool, n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(r.data) for r in records), np.int64, n),
            out=offsets[1:] if n else None,
        )
        payload = np.frombuffer(
            b"".join(r.data for r in records), dtype=np.uint8
        ).copy() if n else np.empty(0, dtype=np.uint8)
        intern: Dict[str, int] = {}
        codes = np.empty(n, dtype=np.int32)
        for i, record in enumerate(records):
            code = intern.get(record.source)
            if code is None:
                code = intern.setdefault(record.source, len(intern))
            codes[i] = code
        table = tuple(intern) if intern else ("",)
        return cls(
            timestamp_us,
            can_id,
            payload=payload,
            payload_offsets=offsets,
            extended=extended,
            is_attack=is_attack,
            source_code=codes,
            source_table=table,
            validate=False,
        )

    def to_trace(self) -> Trace:
        """Convert back to a record trace (lossless inverse of
        :meth:`from_trace`)."""
        return Trace(self.iter_records())

    def iter_records(self) -> Iterator[TraceRecord]:
        """Yield each row as a :class:`TraceRecord` (lazy).

        Only the payload span this trace references is copied out — a
        zero-copy window slice of a huge capture must not materialise
        the whole shared buffer just to iterate its few rows.
        """
        base = int(self.payload_offsets[0]) if len(self) else 0
        data = self.payload_bytes().tobytes()
        for i in range(len(self)):
            lo = int(self.payload_offsets[i]) - base
            hi = int(self.payload_offsets[i + 1]) - base
            yield TraceRecord(
                timestamp_us=int(self.timestamp_us[i]),
                can_id=int(self.can_id[i]),
                data=data[lo:hi],
                extended=bool(self.extended[i]),
                source=self.source_table[self.source_code[i]],
                is_attack=bool(self.is_attack[i]),
            )

    __iter__ = iter_records

    @classmethod
    def coerce(cls, trace: Union[Trace, "ColumnTrace"]) -> "ColumnTrace":
        """Return ``trace`` itself if already columnar, else convert."""
        return trace if isinstance(trace, cls) else cls.from_trace(trace)

    # ------------------------------------------------------------------
    # Columnar file export (.npz)
    # ------------------------------------------------------------------

    #: On-disk schema version of the ``.npz`` export.  v1 stored the
    #: per-row ``dlc`` column; v2 stores the (rebased) ``payload_offsets``
    #: array directly so a memory-mapped load needs no cumsum pass.
    _NPZ_VERSION = 2

    #: Versions :meth:`load_npz` accepts (v1 files remain readable).
    _NPZ_READABLE = (1, 2)

    def save_npz(self, path, compressed: bool = False) -> None:
        """Write the trace as a NumPy ``.npz`` archive (columnar-native).

        This is the columnar counterpart of the text log writers: one
        array per column, written as-is — no per-frame text rendering,
        no parsing on the way back — so it is both the fastest
        round-trip format and the only one that preserves *everything*,
        including bus tags (which the text formats drop) and
        ground-truth attack labels.  ``compressed`` trades write speed
        for size (zlib per column) but forfeits memory-mapped loading:
        only the default uncompressed (``ZIP_STORED``) layout supports
        ``load_npz(mmap=True)``.  :meth:`load_npz` is the lossless
        inverse; ``tests/test_io_npz.py`` asserts field-exact equality.
        """
        base = int(self.payload_offsets[0]) if len(self) else 0
        members = dict(
            version=np.int64(self._NPZ_VERSION),
            timestamp_us=self.timestamp_us,
            can_id=self.can_id,
            payload=self.payload_bytes(),
            payload_offsets=self.payload_offsets - np.int64(base),
            extended=self.extended,
            is_attack=self.is_attack,
            source_code=self.source_code,
            source_table=np.asarray(self.source_table, dtype=np.str_),
            bus_code=self.bus_code,
            bus_table=np.asarray(self.bus_table, dtype=np.str_),
        )
        # Write through an open handle: np.savez given a *name* appends
        # ".npz" when the suffix is missing, and the file the caller
        # asked for would then not exist for load_npz.
        with open(path, "wb") as handle:
            if compressed:
                np.savez_compressed(handle, **members)
            else:
                _write_aligned_npz(handle, members)

    #: Large per-row columns worth memory-mapping (the intern tables and
    #: version scalar are a few bytes and always loaded eagerly).
    _NPZ_COLUMNS_V2 = COLUMNS
    _NPZ_COLUMNS_V1 = (
        "timestamp_us",
        "can_id",
        "payload",
        "dlc",
        "extended",
        "is_attack",
        "source_code",
        "bus_code",
    )

    @classmethod
    def load_npz(cls, path, *, mmap: bool = False) -> "ColumnTrace":
        """Read a trace written by :meth:`save_npz` (lossless inverse).

        With ``mmap=True`` the per-row columns are returned as lazy,
        read-only ``np.memmap`` views over the file — nothing is paged
        in until touched, so a 100M-frame capture "loads" in
        milliseconds and scanning it costs only the pages the kernel
        actually reads.  Requires the uncompressed (default) npz
        layout; compressed files fall back to an eager load with a
        warning.  Memory-mapped columns are enforced read-only.
        """
        reg = obs.active()
        if reg is None:
            return cls._load_npz(path, mmap=mmap)
        with reg.span("io.parse", format="npz", mmap=bool(mmap)):
            return cls._load_npz(path, mmap=mmap)

    @classmethod
    def _load_npz(cls, path, *, mmap: bool = False) -> "ColumnTrace":
        if mmap:
            try:
                columns = cls._mmap_npz_columns(path)
            except _CompressedNpz as exc:
                warnings.warn(
                    f"npz trace {path} stores member {exc.member!r} "
                    "compressed; memory-mapping needs the uncompressed "
                    "save_npz layout — falling back to an eager load. "
                    "For compressed storage that still scans under a "
                    "memory ceiling, convert to the block-compressed "
                    "container: repro-ids convert <trace> --out "
                    "<trace>.npb",
                    RuntimeWarning,
                    stacklevel=2,
                )
            except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
                raise TraceFormatError(
                    f"not a columnar npz trace: {path} ({exc})"
                ) from exc
            else:
                return cls(validate=False, **columns)
        try:
            with np.load(path) as data:
                version = int(data["version"])
                if version not in cls._NPZ_READABLE:
                    raise TraceFormatError(
                        f"npz trace schema version {version} not supported "
                        f"(expected one of {list(cls._NPZ_READABLE)})"
                    )
                if version == 1:
                    dlc = np.asarray(data["dlc"], dtype=np.int64)
                    offsets = np.zeros(dlc.size + 1, dtype=np.int64)
                    np.cumsum(dlc, out=offsets[1:] if dlc.size else None)
                else:
                    offsets = np.asarray(data["payload_offsets"], dtype=np.int64)
                return cls(
                    data["timestamp_us"],
                    data["can_id"],
                    payload=data["payload"],
                    payload_offsets=offsets,
                    extended=data["extended"],
                    is_attack=data["is_attack"],
                    source_code=data["source_code"],
                    source_table=tuple(str(s) for s in data["source_table"]),
                    bus_code=data["bus_code"],
                    bus_table=tuple(str(s) for s in data["bus_table"]),
                )
        except (KeyError, ValueError, OSError) as exc:
            raise TraceFormatError(
                f"not a columnar npz trace: {path} ({exc})"
            ) from exc

    @classmethod
    def _mmap_npz_columns(cls, path) -> Dict[str, object]:
        """Constructor kwargs with per-row columns memory-mapped.

        An ``.npz`` is a ZIP of ``.npy`` members; for ``ZIP_STORED``
        (uncompressed) members the array bytes sit verbatim in the file
        at ``local header + npy header``, so each column can be mapped
        with ``np.memmap`` at that offset — zero copies, zero reads
        until a page is touched.  Raises :class:`_CompressedNpz` if any
        needed member is deflated.
        """
        with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
            with zf.open("version.npy") as member:
                version = int(np.lib.format.read_array(member))
            if version not in cls._NPZ_READABLE:
                raise TraceFormatError(
                    f"npz trace schema version {version} not supported "
                    f"(expected one of {list(cls._NPZ_READABLE)})"
                )
            tables: Dict[str, Tuple[str, ...]] = {}
            for name in ("source_table", "bus_table"):
                with zf.open(f"{name}.npy") as member:
                    tables[name] = tuple(
                        str(s) for s in np.lib.format.read_array(member)
                    )
            names = cls._NPZ_COLUMNS_V2 if version == 2 else cls._NPZ_COLUMNS_V1
            raw = {name: _mmap_npz_member(zf, fh, name) for name in names}
        if version == 1:
            # v1 stored dlc, not offsets: rebuild eagerly (one pass over
            # the mapped dlc column), then freeze to match the read-only
            # contract of the mapped columns.
            dlc = np.asarray(raw.pop("dlc"), dtype=np.int64)
            offsets = np.zeros(dlc.size + 1, dtype=np.int64)
            np.cumsum(dlc, out=offsets[1:] if dlc.size else None)
            offsets.flags.writeable = False
            raw["payload_offsets"] = offsets
        raw["source_table"] = tables["source_table"]
        raw["bus_table"] = tables["bus_table"]
        return raw

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.timestamp_us.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step != 1:
                raise TraceFormatError("ColumnTrace slices must be contiguous")
            return self.slice(lo, hi)
        i = int(index)
        if i < 0:
            i += len(self)
        return self.slice(i, i + 1).to_trace()[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnTrace):
            return NotImplemented
        if len(self) != len(other):
            return False
        return (
            bool(np.array_equal(self.timestamp_us, other.timestamp_us))
            and bool(np.array_equal(self.can_id, other.can_id))
            and bool(np.array_equal(self.dlc, other.dlc))
            and bool(np.array_equal(self.payload_bytes(), other.payload_bytes()))
            and bool(np.array_equal(self.extended, other.extended))
            and bool(np.array_equal(self.is_attack, other.is_attack))
            # Decoded source/bus comparison last: the intern tables may
            # order names differently, so compare decoded arrays — but
            # only after every cheap vectorised check has passed.
            and bool(
                np.array_equal(
                    np.asarray(self.source_table, dtype=object)[self.source_code],
                    np.asarray(other.source_table, dtype=object)[other.source_code],
                )
            )
            and bool(
                np.array_equal(
                    np.asarray(self.bus_table, dtype=object)[self.bus_code],
                    np.asarray(other.bus_table, dtype=object)[other.bus_code],
                )
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        span = f"{self.duration_us / SECOND_US:.3f}s" if len(self) else "empty"
        return f"ColumnTrace({len(self)} records, {span})"

    # ------------------------------------------------------------------
    # Basic properties (Trace-compatible surface)
    # ------------------------------------------------------------------
    @property
    def start_us(self) -> int:
        """Timestamp of the first record (0 for an empty trace)."""
        return int(self.timestamp_us[0]) if len(self) else 0

    @property
    def end_us(self) -> int:
        """Timestamp of the last record (0 for an empty trace)."""
        return int(self.timestamp_us[-1]) if len(self) else 0

    @property
    def duration_us(self) -> int:
        """Time spanned by the records."""
        return self.end_us - self.start_us

    @property
    def attack_count(self) -> int:
        """Number of ground-truth attack records."""
        return int(np.count_nonzero(self.is_attack))

    @property
    def dlc(self) -> np.ndarray:
        """Per-record payload byte counts (derived from the offsets)."""
        return np.diff(self.payload_offsets)

    def payload_bytes(self) -> np.ndarray:
        """The payload bytes actually referenced by the offsets.

        Rows are stored contiguously, so this is the single buffer span
        ``payload[offsets[0]:offsets[-1]]``.
        """
        if not len(self):
            return np.empty(0, dtype=np.uint8)
        return self.payload[int(self.payload_offsets[0]) : int(self.payload_offsets[-1])]

    def ids(self) -> np.ndarray:
        """All identifiers (the column itself; treat as read-only)."""
        return self.can_id

    def timestamps_us(self) -> np.ndarray:
        """All timestamps (the column itself; treat as read-only)."""
        return self.timestamp_us

    def attack_mask(self) -> np.ndarray:
        """Ground-truth attack labels (the column itself)."""
        return self.is_attack

    def unique_ids(self) -> np.ndarray:
        """Sorted array of distinct identifiers."""
        return np.unique(self.can_id) if len(self) else np.empty(0, dtype=np.int64)

    def sources(self) -> List[str]:
        """Per-record source names (decoded from the intern table)."""
        return [self.source_table[c] for c in self.source_code]

    # ------------------------------------------------------------------
    # Bus tagging (multi-bus fan-in)
    # ------------------------------------------------------------------
    def with_bus(self, label: str) -> "ColumnTrace":
        """A view of this trace with every record tagged as bus ``label``.

        Bus tags are a columnar-layer extension for multi-bus fan-in:
        they survive slicing, filtering and :meth:`merge` (which
        re-interns tables from all parts), but :class:`TraceRecord` has
        no bus field, so :meth:`to_trace` drops them — see the contract
        notes in ``ARCHITECTURE.md``.
        """
        if not label:
            raise TraceFormatError("bus label must be a non-empty string")
        return ColumnTrace(
            self.timestamp_us,
            self.can_id,
            payload=self.payload,
            payload_offsets=self.payload_offsets,
            extended=self.extended,
            is_attack=self.is_attack,
            source_code=self.source_code,
            source_table=self.source_table,
            bus_code=np.zeros(len(self), dtype=np.int32),
            bus_table=(label,),
            validate=False,
        )

    def buses(self) -> List[str]:
        """Per-record bus labels (decoded from the intern table)."""
        return [self.bus_table[c] for c in self.bus_code]

    def bus_labels(self) -> Tuple[str, ...]:
        """Distinct bus labels actually referenced, in table order."""
        if not len(self):
            return ()
        present = np.unique(self.bus_code)
        return tuple(self.bus_table[c] for c in present)

    def for_bus(self, label: str) -> "ColumnTrace":
        """Only the records captured on bus ``label`` (copies)."""
        try:
            code = self.bus_table.index(label)
        except ValueError:
            raise TraceFormatError(
                f"bus {label!r} not present; trace carries "
                f"{sorted(set(self.bus_table))}"
            ) from None
        return self.take(self.bus_code == code)

    # ------------------------------------------------------------------
    # Slicing and filtering
    # ------------------------------------------------------------------
    def slice(self, lo: int, hi: int) -> "ColumnTrace":
        """Rows ``lo:hi`` as zero-copy column views."""
        lo = max(0, min(lo, len(self)))
        hi = max(lo, min(hi, len(self)))
        return ColumnTrace(
            self.timestamp_us[lo:hi],
            self.can_id[lo:hi],
            payload=self.payload,
            payload_offsets=self.payload_offsets[lo : hi + 1]
            if hi > lo
            else np.zeros(1, dtype=np.int64),
            extended=self.extended[lo:hi],
            is_attack=self.is_attack[lo:hi],
            source_code=self.source_code[lo:hi],
            source_table=self.source_table,
            bus_code=self.bus_code[lo:hi],
            bus_table=self.bus_table,
            validate=False,
        )

    def between(self, start_us: int, end_us: int) -> "ColumnTrace":
        """Records with ``start_us <= timestamp < end_us`` (zero-copy)."""
        lo = int(np.searchsorted(self.timestamp_us, start_us, side="left"))
        hi = int(np.searchsorted(self.timestamp_us, end_us, side="left"))
        return self.slice(lo, hi)

    def take(self, mask_or_indices) -> "ColumnTrace":
        """Rows selected by a boolean mask or index array (copies)."""
        indices = np.asarray(mask_or_indices)
        if indices.dtype == bool:
            if indices.size != len(self):
                raise TraceFormatError(
                    f"boolean mask has {indices.size} entries for a trace of "
                    f"{len(self)} records"
                )
            indices = np.flatnonzero(indices)
        lengths = self.dlc[indices]
        new_offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:] if indices.size else None)
        payload = _gather_payload(
            self.payload, self.payload_offsets[indices], lengths
        ) if indices.size else np.empty(0, dtype=np.uint8)
        return ColumnTrace(
            self.timestamp_us[indices],
            self.can_id[indices],
            payload=payload,
            payload_offsets=new_offsets,
            extended=self.extended[indices],
            is_attack=self.is_attack[indices],
            source_code=self.source_code[indices],
            source_table=self.source_table,
            bus_code=self.bus_code[indices],
            bus_table=self.bus_table,
            validate=False,
        )

    def without_attacks(self) -> "ColumnTrace":
        """Only the legitimate traffic (by ground truth)."""
        return self.take(~self.is_attack)

    def only_attacks(self) -> "ColumnTrace":
        """Only the injected traffic (by ground truth)."""
        return self.take(self.is_attack)

    def shifted(self, offset_us: int) -> "ColumnTrace":
        """A copy whose timestamps are moved by ``offset_us``."""
        return ColumnTrace(
            self.timestamp_us + np.int64(offset_us),
            self.can_id,
            payload=self.payload,
            payload_offsets=self.payload_offsets,
            extended=self.extended,
            is_attack=self.is_attack,
            source_code=self.source_code,
            source_table=self.source_table,
            bus_code=self.bus_code,
            bus_table=self.bus_table,
            validate=False,
        )

    @staticmethod
    def _reintern(parts: Sequence["ColumnTrace"], code_attr: str, table_attr: str):
        """Re-intern per-part string tables into one shared table.

        Returns ``(recoded_concat, table)`` where ``recoded_concat`` is
        the concatenated per-record codes remapped into ``table``.
        """
        table: Dict[str, int] = {}
        recoded: List[np.ndarray] = []
        for part in parts:
            names = getattr(part, table_attr)
            mapping = np.empty(len(names), dtype=np.int32)
            for i, name in enumerate(names):
                mapping[i] = table.setdefault(name, len(table))
            recoded.append(mapping[getattr(part, code_attr)])
        return np.concatenate(recoded), tuple(table)

    @staticmethod
    def merge(
        *traces: "ColumnTrace", columns: Optional[Collection[str]] = None
    ) -> "ColumnTrace":
        """Merge time-ordered columnar traces into one (stable sort).

        Source and bus tags survive: each part's intern tables are
        re-interned into shared ones, so merging per-bus captures tagged
        via :meth:`with_bus` yields one fused trace whose records still
        know which bus carried them.  Parts that are already in time
        order (a block reader's carry joins, consecutive blocks) are
        concatenated as they are: the stable sort would be the identity.
        ``columns`` (see :func:`column_projection`) merges only those
        columns and leaves the rest at the absent defaults — how a
        projected chunk source joins parts that never decoded the rest.

        Raises
        ------
        TraceFormatError
            If any input is not a :class:`ColumnTrace` or carries ragged
            columns (wrong dtype, dimensionality, length or offsets) —
            checked up front, so malformed inputs fail with a clear
            message instead of a numpy broadcast error mid-merge.
        """
        names = column_projection(columns)
        for trace in traces:
            if not isinstance(trace, ColumnTrace):
                raise TraceFormatError(
                    f"merge expects ColumnTrace parts, got {type(trace).__name__}"
                )
            trace._check_layout(names)
        parts = [t for t in traces if len(t)]
        if not parts:
            return ColumnTrace(np.empty(0, np.int64), np.empty(0, np.int64))
        rows = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in names
            if name not in ("payload", "payload_offsets") and name not in _CODE_TABLES
        }
        tables = {}
        for name, table_name in _CODE_TABLES.items():
            if name in names:
                rows[name], tables[table_name] = ColumnTrace._reintern(
                    parts, name, table_name
                )
        payload = lengths = None
        if "payload" in names:
            lengths = np.concatenate([p.dlc for p in parts])
            payload = np.concatenate([p.payload_bytes() for p in parts])
        timestamp_us = rows["timestamp_us"]
        if np.any(timestamp_us[1:] < timestamp_us[:-1]):
            order = np.argsort(timestamp_us, kind="stable")
            rows = {name: column[order] for name, column in rows.items()}
            if payload is not None:
                # Row start offsets into the concatenated payload buffer.
                offsets_all = np.zeros(lengths.size + 1, dtype=np.int64)
                np.cumsum(lengths, out=offsets_all[1:])
                starts = offsets_all[:-1][order]
                lengths = lengths[order]
                payload = _gather_payload(payload, starts, lengths)
        offsets = None
        if payload is not None:
            offsets = np.zeros(lengths.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
        return ColumnTrace(
            rows.pop("timestamp_us"),
            rows.pop("can_id", None),
            payload=payload,
            payload_offsets=offsets,
            validate=False,
            **tables,
            **rows,
        )

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def window_segments(
        self, window_us: int, *, origin_us: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tumbling-window segmentation of the record array.

        Returns ``(window_index, seg_starts, seg_ends)`` where
        ``window_index[j]`` is the grid index (``(t - origin) // window``)
        of the ``j``-th *non-empty* window and rows
        ``seg_starts[j]:seg_ends[j]`` are its records.  Empty grid
        windows simply do not appear — matching how the streaming
        detector skips silent gaps.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us}")
        n = len(self)
        empty = np.empty(0, dtype=np.int64)
        if n == 0:
            return empty, empty, empty
        t0 = self.start_us if origin_us is None else origin_us
        grid = (self.timestamp_us - np.int64(t0)) // np.int64(window_us)
        boundaries = np.flatnonzero(np.diff(grid)) + 1
        seg_starts = np.concatenate(([0], boundaries))
        seg_ends = np.concatenate((boundaries, [n]))
        return grid[seg_starts], seg_starts, seg_ends

    def attack_counts(self, seg_starts: np.ndarray) -> np.ndarray:
        """Ground-truth attack message counts per segment.

        ``seg_starts`` are row starts as returned by
        :meth:`window_segments`; both detection paths (batch engine and
        baseline scans) share this accumulation.
        """
        if seg_starts.size == 0:
            return np.zeros(0, dtype=np.int64)
        if not self.is_attack.any():
            return np.zeros(seg_starts.size, dtype=np.int64)
        return np.add.reduceat(self.is_attack.astype(np.int64), seg_starts)

    def iter_window_chunks(
        self,
        window_us: int,
        chunk_windows: int,
        *,
        origin_us: Optional[int] = None,
        columns: Optional[Collection[str]] = None,
    ) -> Iterator["ColumnTrace"]:
        """Yield zero-copy chunks aligned to the detection-window grid.

        Each chunk covers ``chunk_windows`` consecutive grid windows
        (``window_us`` each, anchored at ``origin_us`` / the first
        timestamp), so a chunk boundary is always a window boundary —
        chunking can never split a detection window, which is what
        makes the chunked scan bit-identical to a whole-trace scan.
        Empty chunks are skipped (silent gaps of any length cost
        nothing); every yielded chunk is non-empty.  On a memory-mapped
        trace the slices stay lazy: only the pages a chunk's consumer
        touches are ever read.  ``columns`` (the :class:`ChunkSource`
        projection) is checked but changes nothing here: the slices
        carry every column at no cost.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us}")
        if chunk_windows <= 0:
            raise ValueError(
                f"chunk_windows must be positive, got {chunk_windows}"
            )
        column_projection(columns)
        n = len(self)
        if n == 0:
            return
        t0 = self.start_us if origin_us is None else int(origin_us)
        span = int(window_us) * int(chunk_windows)
        ts = self.timestamp_us
        lo = 0
        while lo < n:
            # Jump straight to the chunk containing the next record —
            # floor division lands in the right chunk even for records
            # before the origin (negative grid indices).
            k = (int(ts[lo]) - t0) // span
            boundary = t0 + (k + 1) * span
            hi = int(np.searchsorted(ts, boundary, side="left"))
            yield self.slice(lo, hi)
            lo = hi

    def time_windows(
        self, window_us: int, *, start_us: Optional[int] = None
    ) -> Iterator["ColumnTrace"]:
        """Yield consecutive tumbling time windows (zero-copy slices).

        Mirrors :meth:`Trace.time_windows`: empty windows inside the
        capture are yielded too, so callers relying on positional window
        indices see the same sequence.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive, got {window_us}")
        if not len(self):
            return
        t0 = self.start_us if start_us is None else start_us
        t_end = self.end_us
        while t0 <= t_end:
            yield self.between(t0, t0 + window_us)
            t0 += window_us

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def message_rate_hz(self) -> float:
        """Average message rate over the trace duration."""
        if len(self) < 2 or self.duration_us == 0:
            return 0.0
        return (len(self) - 1) / (self.duration_us / SECOND_US)

    def id_histogram(self) -> dict:
        """Mapping of identifier -> occurrence count."""
        if not len(self):
            return {}
        values, counts = np.unique(self.can_id, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}
