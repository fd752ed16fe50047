"""Capture archives: directories of recorded CAN log files.

The paper evaluates on single captures; the production target (see
ROADMAP.md) is fleet-sized *archives* — a directory of candump/CSV
capture files that may collectively be far larger than RAM.
:class:`CaptureArchive` is the io-layer view of such a directory:

* **enumeration** is deterministic (sorted relative paths), so sharded
  scans and serial scans agree on capture order;
* **loading** is lazy and columnar-native — nothing is read until a
  capture is requested, and each capture parses straight into a
  :class:`~repro.io.columnar.ColumnTrace` via the vectorised readers;
* **chunked streaming** (:meth:`iter_chunks`) yields bounded-size
  column chunks so archives larger than RAM stream through without
  materialising any single capture.

The archive does not interpret captures (no detection here); the
scanning layers (:mod:`repro.runtime`,
:meth:`repro.core.pipeline.IDSPipeline.scan_captures`) build on it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.exceptions import TraceFormatError
from repro.io.blocks import BlockReader, write_blocks
from repro.io.columnar import ColumnTrace
from repro.io.csvlog import iter_csv_columns, read_csv_columns, write_csv_columns
from repro.io.log import (
    iter_candump_columns,
    read_candump_columns,
    write_candump_columns,
)

__all__ = [
    "CaptureArchive",
    "capture_suffix",
    "iter_capture_chunks",
    "load_capture_columns",
    "open_capture_stream",
]

#: File patterns an archive enumerates by default (gzipped twins of
#: both text formats included; the readers decompress transparently,
#: columnar ``.npz`` exports load without parsing at all, and
#: block-compressed ``.npb`` containers stream block by block).
DEFAULT_PATTERNS = (
    "*.log", "*.csv", "*.npz", "*.npb", "*.log.gz", "*.csv.gz",
)


def capture_suffix(path: Union[str, Path]) -> str:
    """The format-determining suffix, looking through ``.gz``.

    ``drive.log`` and ``drive.log.gz`` are both ``".log"``; compression
    is an IO-layer property, not a format.
    """
    path = Path(path)
    if path.suffix.lower() == ".gz":
        path = path.with_suffix("")
    return path.suffix.lower()


def load_capture_columns(
    path: Union[str, Path], *, mmap: bool = False
) -> ColumnTrace:
    """Load one capture file into columns, choosing the reader by suffix.

    ``.csv`` (or ``.csv.gz``) files take the CSV reader, ``.npz`` the
    columnar loader (with ``mmap=True`` the columns come back as lazy
    read-only memory maps — see :meth:`ColumnTrace.load_npz`; the flag
    has no effect on text formats, which must be parsed anyway).
    Anything else is treated as a candump text log.  This is the
    module-level loader the shard workers call, so it must stay
    importable (picklable) by name.
    """
    path = Path(path)
    suffix = capture_suffix(path)
    if suffix == ".csv":
        return read_csv_columns(path)
    if suffix == ".npz":
        return ColumnTrace.load_npz(path, mmap=mmap)
    if suffix == ".npb":
        with BlockReader(path) as reader:
            return reader.to_columns()
    return read_candump_columns(path)


def open_capture_stream(path: Union[str, Path]):
    """Open a capture as a *streaming* window-chunk source.

    The out-of-core scan paths (``scan_stream``, ``--out-of-core``)
    need a source whose memory footprint is bounded:

    * ``.npz`` — the memory-mapped :class:`ColumnTrace` (lazy pages);
    * ``.npb`` — a :class:`~repro.io.blocks.BlockReader` (one inflated
      block at a time);
    * text formats — parsed eagerly (chunk-parsing text would re-read
      the file once per scan; converting once with ``repro-ids
      convert`` is the bounded-memory route, which the CLI hints at).

    The returned object may expose ``close()``; callers should call it
    (or ignore it — :class:`ColumnTrace` has none) when the scan ends.
    """
    path = Path(path)
    if capture_suffix(path) == ".npb":
        return BlockReader(path)
    return load_capture_columns(path, mmap=True)


def _iter_npz_chunks(path: Path, chunk_frames: int) -> Iterator[ColumnTrace]:
    # Chunks of an npz capture are zero-copy slices over the memory
    # map, so only ~chunk_frames of pages are resident at a time.
    trace = ColumnTrace.load_npz(path, mmap=True)
    for lo in range(0, len(trace), chunk_frames):
        yield trace.slice(lo, lo + chunk_frames)


def _iter_blocks_chunks(path: Path, chunk_frames: int) -> Iterator[ColumnTrace]:
    # One inflated block resident at a time, re-sliced to the caller's
    # chunk size.
    with BlockReader(path) as reader:
        for block in reader.iter_blocks():
            for lo in range(0, len(block), chunk_frames):
                yield block.slice(lo, lo + chunk_frames)


def iter_capture_chunks(
    path: Path, chunk_frames: int
) -> Iterator[ColumnTrace]:
    suffix = capture_suffix(path)
    if suffix == ".csv":
        return iter_csv_columns(path, chunk_frames)
    if suffix == ".npz":
        return _iter_npz_chunks(path, chunk_frames)
    if suffix == ".npb":
        return _iter_blocks_chunks(path, chunk_frames)
    return iter_candump_columns(path, chunk_frames)


class CaptureArchive:
    """A directory of capture files, enumerated deterministically.

    Parameters
    ----------
    directory:
        The archive root.  Must exist.
    patterns:
        Glob patterns selecting capture files (default ``*.log``,
        ``*.csv`` and their gzipped ``.gz`` twins).
    recursive:
        Also search subdirectories (``**/pattern``).

    The file list is snapshotted at construction (sorted by relative
    path) so concurrent writers cannot reorder an ongoing scan.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        patterns: Sequence[str] = DEFAULT_PATTERNS,
        recursive: bool = False,
    ) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise TraceFormatError(f"archive directory {directory!r} does not exist")
        self.patterns = tuple(patterns)
        self.recursive = recursive
        found = set()
        for pattern in self.patterns:
            globber = self.directory.rglob if recursive else self.directory.glob
            found.update(p for p in globber(pattern) if p.is_file())
        # Compression is an IO property, not a different capture: when a
        # gzipped file sits next to its uncompressed twin (gzip -k), the
        # pair is ONE capture — enumerate only the plain file so scans
        # and pooled metrics never double-count a drive.
        found -= {p for p in found
                  if p.suffix.lower() == ".gz" and p.with_suffix("") in found}
        self._paths: Tuple[Path, ...] = tuple(
            sorted(found, key=lambda p: p.relative_to(self.directory).as_posix())
        )

    # ------------------------------------------------------------------
    @property
    def paths(self) -> Tuple[Path, ...]:
        """The capture files, in scan order."""
        return self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CaptureArchive({str(self.directory)!r}, {len(self)} captures)"

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, index: int) -> ColumnTrace:
        """Load capture ``index`` (in scan order) into columns."""
        return load_capture_columns(self._paths[index])

    def __iter__(self) -> Iterator[ColumnTrace]:
        """Yield each capture's columns lazily, in scan order."""
        for path in self._paths:
            yield load_capture_columns(path)

    def items(self) -> Iterator[Tuple[Path, ColumnTrace]]:
        """Yield ``(path, columns)`` pairs lazily, in scan order."""
        for path in self._paths:
            yield path, load_capture_columns(path)

    def iter_chunks(
        self, chunk_frames: int
    ) -> Iterator[Tuple[Path, ColumnTrace]]:
        """Stream every capture as bounded-size column chunks.

        Yields ``(path, chunk)`` pairs; each chunk holds at most
        ``chunk_frames`` frames, so peak memory is bounded by the chunk
        size regardless of capture or archive size.  Chunks of one
        capture arrive consecutively and in time order.
        """
        for path in self._paths:
            for chunk in iter_capture_chunks(path, chunk_frames):
                yield path, chunk

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def write_capture(
        self,
        name: str,
        trace,
        fmt: Optional[str] = None,
    ) -> Path:
        """Write a capture into the archive directory and index it.

        ``fmt`` is ``"candump"``, ``"csv"``, ``"npz"`` or ``"npb"``
        (inferred from the name's suffix when omitted).  Accepts either
        trace representation;
        returns the file path.  The new file is appended to the scan
        order snapshot — and must therefore match the archive's
        patterns, or a freshly constructed archive over the same
        directory would enumerate a different capture set.
        """
        parts = Path(name).parts
        if not parts or ".." in parts:
            raise TraceFormatError(f"invalid capture name {name!r}")
        if len(parts) > 1 and not self.recursive:
            raise TraceFormatError(
                f"capture name {name!r} lands in a subdirectory this "
                f"non-recursive archive would not enumerate"
            )
        path = self.directory / name
        if not any(path.match(pattern) for pattern in self.patterns):
            raise TraceFormatError(
                f"capture name {name!r} matches none of the archive "
                f"patterns {self.patterns}"
            )
        twin = (
            path.with_suffix("")
            if path.suffix.lower() == ".gz"
            else path.with_name(path.name + ".gz")
        )
        if twin in self._paths:
            # One capture, one enumerated file: a plain/gzip twin would
            # be dropped (or shadow this one) on the next enumeration.
            raise TraceFormatError(
                f"capture name {name!r} is the compression twin of "
                f"already-indexed {twin.name!r}"
            )
        ct = ColumnTrace.coerce(trace)
        if fmt is None:
            suffix = capture_suffix(path)
            fmt = {"csv": "csv", "npz": "npz", "npb": "npb"}.get(
                suffix.lstrip("."), "candump"
            )
        if fmt == "csv":
            write_csv_columns(ct, path)
        elif fmt == "npz":
            ct.save_npz(path)
        elif fmt == "npb":
            write_blocks(path, ct)
        elif fmt == "candump":
            write_candump_columns(ct, path)
        else:
            raise TraceFormatError(f"unknown capture format {fmt!r}")
        if path not in self._paths:
            self._paths = tuple(
                sorted(
                    self._paths + (path,),
                    key=lambda p: p.relative_to(self.directory).as_posix(),
                )
            )
        return path
