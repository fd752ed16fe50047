"""The block-compressed columnar container (``.npb``).

Chunked per-column zlib compression with a JSON block index: captures
round-trip losslessly, stream back one inflated block at a time, scan
bit-identically to the in-RAM engine paths, and dispatch through the
archive/runtime layers by suffix like any other capture format.
"""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core import BatchEntropyEngine
from repro.exceptions import TraceFormatError
from repro.io import (
    BlockReader,
    BlockWriter,
    CaptureArchive,
    DecodedBlockCache,
    load_capture_columns,
    open_capture_stream,
    write_blocks,
)
from repro.io.archive import DEFAULT_PATTERNS, iter_capture_chunks
from repro.io.blocks import BLOCKS_SUFFIX
from repro.io.columnar import ColumnTrace
from repro.vehicle.traffic import generate_drive_columns

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def capture(catalog):
    """A payload-bearing drive capture with interned source tables."""
    return generate_drive_columns(
        3.0, scenario="city", seed=41, catalog=catalog
    )


@pytest.fixture()
def npb(capture, tmp_path):
    path = tmp_path / "drive.npb"
    write_blocks(path, capture, block_frames=1000)
    return path


class TestRoundTrip:
    def test_lossless(self, capture, npb):
        with BlockReader(npb) as reader:
            assert len(reader) == len(capture)
            assert reader.to_columns() == capture

    def test_blocks_are_frame_aligned(self, capture, npb):
        with BlockReader(npb) as reader:
            blocks = list(reader.iter_blocks())
        assert all(len(b) == 1000 for b in blocks[:-1])
        assert sum(len(b) for b in blocks) == len(capture)
        assert ColumnTrace.merge(*blocks) == capture

    def test_streamed_appends_match_single_write(self, capture, tmp_path):
        """Odd-sized appends land in the same exact-size blocks."""
        whole = tmp_path / "whole.npb"
        write_blocks(whole, capture, block_frames=777)
        appended = tmp_path / "appended.npb"
        with BlockWriter(appended, block_frames=777) as writer:
            for lo in range(0, len(capture), 313):
                writer.append(capture.slice(lo, lo + 313))
        assert (
            load_capture_columns(appended) == load_capture_columns(whole)
        )
        assert appended.read_bytes() == whole.read_bytes()

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.npb"
        empty = ColumnTrace(np.empty(0, np.int64), np.empty(0, np.int64))
        write_blocks(path, empty)
        with BlockReader(path) as reader:
            assert len(reader) == 0
            assert reader.to_columns() == empty
            assert list(reader.iter_window_chunks(2_000_000, 8)) == []

    def test_out_of_order_appends_rejected(self, capture, tmp_path):
        with BlockWriter(tmp_path / "o.npb") as writer:
            writer.append(capture.slice(100, 200))
            with pytest.raises(TraceFormatError, match="time-ordered"):
                writer.append(capture.slice(0, 100))

    def test_writer_validates_parameters(self, tmp_path):
        with pytest.raises(TraceFormatError, match="positive"):
            BlockWriter(tmp_path / "b.npb", block_frames=0)
        with pytest.raises(TraceFormatError, match="level"):
            BlockWriter(tmp_path / "b.npb", level=99)


class TestFormatGates:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npb"
        path.write_bytes(b"NOTABLOCKFILE" + b"\0" * 64)
        with pytest.raises(TraceFormatError, match="bad magic"):
            BlockReader(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.npb"
        path.write_bytes(b"REPRO")
        with pytest.raises(TraceFormatError, match="truncated"):
            BlockReader(path)

    def test_corrupt_trailer(self, npb):
        data = bytearray(npb.read_bytes())
        data[-8:] = b"XXXXXXXX"  # trailer magic
        npb.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad trailer"):
            BlockReader(npb)

    def test_future_version_refused(self, npb, capture, tmp_path):
        """A reader must refuse schema versions it does not understand
        rather than misread them."""
        raw = npb.read_bytes()
        trailer = struct.Struct("<QQ8s")
        offset, length, magic = trailer.unpack(raw[-trailer.size:])
        index = json.loads(raw[offset:offset + length])
        index["version"] = 999
        body = raw[:offset]
        new_index = json.dumps(index).encode("ascii")
        bumped = tmp_path / "future.npb"
        bumped.write_bytes(
            body + new_index
            + trailer.pack(offset, len(new_index), magic)
        )
        with pytest.raises(TraceFormatError, match="version 999"):
            BlockReader(bumped)


def _payload_trace(dlcs, seed=0, id_pool=(0x1A4, 0x2C0, 0x7DF)):
    """A hand-built payload-bearing trace with the given DLC sequence."""
    rng = np.random.default_rng(seed)
    dlcs = np.asarray(dlcs, dtype=np.int64)
    n = dlcs.size
    ts = np.cumsum(rng.integers(100, 900, n)).astype(np.int64)
    ids = rng.choice(np.array(id_pool, dtype=np.int64), size=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dlcs, out=offsets[1:])
    payload = rng.integers(0, 256, int(offsets[-1])).astype(np.uint8)
    return ColumnTrace(ts, ids, payload=payload, payload_offsets=offsets)


def _rewrite_index(path, mutate):
    """Apply ``mutate(index)`` to the JSON index and re-pack the file."""
    raw = path.read_bytes()
    trailer = struct.Struct("<QQ8s")
    offset, length, magic = trailer.unpack(raw[-trailer.size:])
    index = json.loads(raw[offset:offset + length])
    mutate(index)
    new_index = json.dumps(index, separators=(",", ":")).encode("utf-8")
    path.write_bytes(
        raw[:offset] + new_index + trailer.pack(offset, len(new_index), magic)
    )


class TestCodecPipeline:
    """Format v2: per-column filters selected on the first block."""

    def test_selection_recorded_in_index(self, capture, npb):
        with BlockReader(npb) as reader:
            assert reader.version == 2
            assert reader.codecs["timestamp_us"] == "delta"
            assert reader.codecs["can_id"] == "dict"
            assert reader.codecs["payload_offsets"] == "delta"
            assert set(reader.codecs) == {
                "timestamp_us", "can_id", "payload", "payload_offsets",
                "extended", "is_attack", "source_code", "bus_code",
            }

    def test_v2_not_larger_than_v1(self, capture, tmp_path):
        """The raw escape hatch guarantees v2 never loses to v1."""
        v1 = tmp_path / "v1.npb"
        v2 = tmp_path / "v2.npb"
        write_blocks(v1, capture, block_frames=2000, version=1)
        write_blocks(v2, capture, block_frames=2000)
        assert v2.stat().st_size <= v1.stat().st_size

    def test_v1_writer_roundtrip(self, capture, tmp_path):
        path = tmp_path / "legacy.npb"
        write_blocks(path, capture, block_frames=1000, version=1)
        with BlockReader(path) as reader:
            assert reader.version == 1
            assert reader.codecs == {}
            assert reader.to_columns() == capture

    def test_codec_override(self, capture, tmp_path):
        path = tmp_path / "forced.npb"
        write_blocks(
            path, capture, block_frames=1000,
            codecs={"timestamp_us": "shuffle", "can_id": "raw"},
        )
        with BlockReader(path) as reader:
            assert reader.codecs["timestamp_us"] == "shuffle"
            assert reader.codecs["can_id"] == "raw"
            assert reader.to_columns() == capture

    def test_bad_override_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown column"):
            BlockWriter(tmp_path / "x.npb", codecs={"nope": "raw"})
        with pytest.raises(TraceFormatError, match="unknown codec"):
            BlockWriter(tmp_path / "x.npb", codecs={"can_id": "zstd"})
        with pytest.raises(TraceFormatError, match="version 2"):
            BlockWriter(
                tmp_path / "x.npb", codecs={"can_id": "raw"}, version=1
            )

    def test_unwritable_version_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="version 7"):
            BlockWriter(tmp_path / "x.npb", version=7)

    def test_per_block_raw_fallback(self, tmp_path):
        """A ragged-DLC block under the payload transpose records raw
        for that block only — and still round-trips."""
        uniform = [8] * 4
        ragged = [8, 3, 8, 5]
        trace = _payload_trace(uniform + ragged)
        path = tmp_path / "ragged.npb"
        write_blocks(
            path, trace, block_frames=4, codecs={"payload": "shuffle"}
        )
        with BlockReader(path) as reader:
            assert reader.codecs["payload"] == "shuffle"
            assert reader.blocks[0]["columns"]["payload"]["codec"] == "shuffle"
            assert reader.blocks[1]["columns"]["payload"]["codec"] == "raw"
            assert reader.to_columns() == trace

    def test_selection_prefers_raw_when_filters_do_not_pay(self, tmp_path):
        """Incompressible ragged payloads: shuffle is unsuitable on the
        selection block, so the column-wide winner is raw."""
        trace = _payload_trace([8, 3, 5, 2, 8, 1, 4, 6] * 8, seed=3)
        path = tmp_path / "noise.npb"
        write_blocks(path, trace, block_frames=16)
        with BlockReader(path) as reader:
            assert reader.codecs["payload"] == "raw"
            assert reader.to_columns() == trace

    def test_flush_is_a_block_boundary(self, capture, tmp_path):
        """Batch converts flush between captures: no block straddles
        two captures, and every capture restarts on a fresh block."""
        path = tmp_path / "batch.npb"
        first = capture.slice(0, 1500)
        second = capture.slice(1500, len(capture))
        with BlockWriter(path, block_frames=1000) as writer:
            writer.append(first)
            writer.flush()
            writer.append(second)
        with BlockReader(path) as reader:
            rows = [int(b["rows"]) for b in reader.blocks]
            # The flush drains the 500-frame tail of the first capture
            # as its own short block; the second capture starts fresh.
            tail = len(second) % 1000 or 1000
            assert rows == [1000, 500] + [1000] * (len(second) // 1000) + (
                [tail] if len(second) % 1000 else []
            )
            assert reader.to_columns() == ColumnTrace.merge(first, second)

    def test_describe_totals(self, capture, npb):
        with BlockReader(npb, cache=False) as reader:
            info = reader.describe()
        assert info["version"] == 2
        assert info["n_frames"] == len(capture)
        assert info["file_bytes"] == npb.stat().st_size
        assert info["ratio"] > 1.0
        ts = info["columns"]["timestamp_us"]
        assert ts["codec"] == "delta"
        assert sum(ts["codecs_used"].values()) == info["blocks"]
        assert ts["raw_bytes"] == len(capture) * 8


def _flip_bit(path, column, block=0):
    """Flip one bit in the middle of a column's compressed stream."""
    with BlockReader(path, cache=False) as reader:
        entry = reader.blocks[block]["columns"][column]
        offset = int(entry["off"]) + int(entry["csize"]) // 2
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x40
    path.write_bytes(bytes(data))


def _stream_scan(path, template, config):
    """The projected detection scan (no cache: every block decoded)."""
    engine = BatchEntropyEngine(template, config)
    with BlockReader(path, cache=False) as reader:
        return [w.to_dict() for w in engine.scan_stream(reader, 16)]


class TestCorruption:
    """Damage is always a diagnosed TraceFormatError, never garbage."""

    def test_bit_flip_in_block_body(self, npb):
        _flip_bit(npb, "timestamp_us")
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(
                TraceFormatError, match="corrupt|checksum|malformed"
            ):
                reader.read_block(0)

    @pytest.mark.parametrize("column", ["timestamp_us", "can_id", "is_attack"])
    def test_bit_flip_in_kernel_column_fails_the_scan(
        self, npb, column, golden_template, ids_config
    ):
        """The scan decodes only the kernel's columns, and still checks
        every one of them."""
        _flip_bit(npb, column)
        with pytest.raises(TraceFormatError, match="corrupt|checksum|malformed"):
            _stream_scan(npb, golden_template, ids_config)

    def test_bit_flip_in_payload_spares_the_scan_only(
        self, npb, golden_template, ids_config, tmp_path
    ):
        """A scan never inflates payload, so its report is the clean
        file's; every full read still diagnoses the damage."""
        from repro.cli import main

        clean = _stream_scan(npb, golden_template, ids_config)
        _flip_bit(npb, "payload")
        assert _stream_scan(npb, golden_template, ids_config) == clean
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(TraceFormatError, match="checksum|corrupt"):
                reader.read_block(0)
            with pytest.raises(TraceFormatError, match="checksum|corrupt"):
                reader.to_columns()
        out = tmp_path / "copy.npb"
        assert main(["convert", "--trace", str(npb), "--out", str(out)]) == 1

    def test_swapped_block_entries_fail_the_scan(
        self, npb, golden_template, ids_config
    ):
        """Each entry still matches its own data, but time runs backwards
        at the block edge: the carry join refuses it."""
        _rewrite_index(
            npb,
            lambda ix: ix["blocks"].__setitem__(
                slice(0, 2), ix["blocks"][1::-1]
            ),
        )
        with pytest.raises(TraceFormatError, match="before the previous"):
            _stream_scan(npb, golden_template, ids_config)

    def test_frame_count_disagreeing_with_blocks(self, npb):
        """n_frames steers len() and the scans: it must match the blocks."""
        _rewrite_index(npb, lambda ix: ix.update(n_frames=0))
        with pytest.raises(TraceFormatError, match="0 frames"):
            BlockReader(npb)

    def test_block_time_bounds_disagreeing_with_index(
        self, npb, golden_template, ids_config
    ):
        """start_us anchors the window grid: a block whose data starts
        elsewhere fails instead of shifting every window."""
        _rewrite_index(
            npb,
            lambda ix: ix["blocks"][0].update(
                start_us=ix["blocks"][0]["start_us"] - 1_000_000
            ),
        )
        with pytest.raises(TraceFormatError, match="index says"):
            _stream_scan(npb, golden_template, ids_config)
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(TraceFormatError, match="index says"):
                reader.read_block(0)

    def test_truncated_block_stream(self, npb):
        """An index that points past EOF (torn write) is truncation."""
        _rewrite_index(
            npb,
            lambda ix: ix["blocks"][0]["columns"]["timestamp_us"].update(
                off=10 ** 9
            ),
        )
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(TraceFormatError, match="truncated"):
                reader.read_block(0)

    def test_unknown_codec_tag(self, npb):
        _rewrite_index(
            npb,
            lambda ix: ix["blocks"][0]["columns"]["can_id"].update(
                codec="zstd"
            ),
        )
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(TraceFormatError, match="unknown.*codec"):
                reader.read_block(0)

    def test_tampered_meta_is_decode_failure(self, npb):
        """Inconsistent codec metadata (CRC still valid) must surface
        as a decode failure, not wrong values."""
        _rewrite_index(
            npb,
            lambda ix: ix["blocks"][0]["columns"]["can_id"]["meta"].update(
                nvals=0
            ),
        )
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(
                TraceFormatError, match="failed to decode|decoded to"
            ):
                reader.read_block(0)

    def test_malformed_v2_entry(self, npb):
        _rewrite_index(
            npb,
            lambda ix: ix["blocks"][0]["columns"].update(can_id={"off": 8}),
        )
        with BlockReader(npb, cache=False) as reader:
            with pytest.raises(TraceFormatError, match="malformed"):
                reader.read_block(0)


class TestDecodedBlockCache:
    def test_warm_reread_hits(self, capture, npb):
        cache = DecodedBlockCache(max_bytes=1 << 26)
        with BlockReader(npb, cache=cache) as reader:
            cold = reader.to_columns()
        assert cache.stats()["hits"] == 0
        with BlockReader(npb, cache=cache) as reader:
            warm = reader.to_columns()
        stats = cache.stats()
        assert stats["misses"] > 0
        assert stats["hits"] == stats["misses"]  # full warm pass
        assert warm == cold == capture

    def test_cached_arrays_are_read_only(self, npb):
        cache = DecodedBlockCache(max_bytes=1 << 26)
        with BlockReader(npb, cache=cache) as reader:
            block = reader.read_block(0)
        with pytest.raises(ValueError):
            block.timestamp_us[0] = 0

    def test_eviction_respects_budget(self, npb):
        cache = DecodedBlockCache(max_bytes=4096)
        with BlockReader(npb, cache=cache) as reader:
            reader.to_columns()
        assert cache.nbytes <= 4096

    def test_rewritten_file_invalidates(self, capture, tmp_path):
        """The stat fingerprint keys the cache: replacing the capture
        on disk must never serve the old blocks."""
        path = tmp_path / "swap.npb"
        cache = DecodedBlockCache(max_bytes=1 << 26)
        write_blocks(path, capture.slice(0, 500), block_frames=250)
        with BlockReader(path, cache=cache) as reader:
            first = reader.to_columns()
        write_blocks(path, capture.slice(500, 1000), block_frames=250)
        with BlockReader(path, cache=cache) as reader:
            second = reader.to_columns()
        assert first == capture.slice(0, 500)
        assert second == capture.slice(500, 1000)

    def test_cache_false_disables(self, npb):
        from repro.io.blockcache import default_cache

        default_cache().clear()
        with BlockReader(npb, cache=False) as reader:
            reader.to_columns()
        assert len(default_cache()) == 0

    def test_default_cache_used_when_unset(self, npb):
        from repro.io.blockcache import default_cache

        default_cache().clear()
        try:
            with BlockReader(npb) as reader:
                reader.to_columns()
            assert len(default_cache()) > 0
        finally:
            default_cache().clear()

    def test_scan_parity_cold_vs_warm(
        self, capture, npb, golden_template, ids_config
    ):
        engine = BatchEntropyEngine(golden_template, ids_config)
        cache = DecodedBlockCache(max_bytes=1 << 26)
        with BlockReader(npb, cache=cache) as reader:
            cold = engine.scan_stream(reader, chunk_windows=16)
        with BlockReader(npb, cache=cache) as reader:
            warm = engine.scan_stream(reader, chunk_windows=16)
        assert cache.stats()["hits"] > 0
        assert [w.to_dict() for w in warm] == [w.to_dict() for w in cold]


class TestV1Compatibility:
    """v1 files must stay readable forever.

    ``tests/fixtures/tiny_v1.npb`` is a checked-in v1 container built
    from the literal trace below (``scripts`` in its header comment);
    if this test breaks, the reader lost v1 compatibility.
    """

    def test_checked_in_v1_fixture_reads(self):
        fixture = FIXTURES / "tiny_v1.npb"
        with BlockReader(fixture, cache=False) as reader:
            assert reader.version == 1
            assert reader.codecs == {}
            assert reader.to_columns() == _tiny_v1_trace()

    def test_v1_fixture_streams(self, golden_template, ids_config):
        fixture = FIXTURES / "tiny_v1.npb"
        engine = BatchEntropyEngine(golden_template, ids_config)
        with BlockReader(fixture, cache=False) as reader:
            streamed = engine.scan_stream(reader, chunk_windows=4)
        assert [w.to_dict() for w in streamed] == [
            w.to_dict() for w in engine.scan(_tiny_v1_trace())
        ]


def _tiny_v1_trace():
    """The exact contents of ``tests/fixtures/tiny_v1.npb``."""
    return _payload_trace([8, 8, 8, 4, 8, 0, 8, 2, 8, 8, 8, 8], seed=99)


class TestWindowChunking:
    @pytest.mark.parametrize("chunk_windows", [1, 7, 64])
    def test_chunks_match_in_ram_iterator(self, capture, npb, chunk_windows):
        window_us = 2_000_000
        with BlockReader(npb) as reader:
            streamed = list(
                reader.iter_window_chunks(window_us, chunk_windows)
            )
        in_ram = list(
            capture.iter_window_chunks(window_us, chunk_windows)
        )
        assert ColumnTrace.merge(*streamed) == ColumnTrace.merge(*in_ram)

    def test_engine_scan_stream_parity(self, capture, npb, golden_template, ids_config):
        engine = BatchEntropyEngine(golden_template, ids_config)
        reference = engine.scan(capture)
        with BlockReader(npb) as reader:
            streamed = engine.scan_stream(reader, chunk_windows=16)
        assert [w.to_dict() for w in streamed] == [
            w.to_dict() for w in reference
        ]

    def test_engine_scan_block_delegates(self, capture, npb, golden_template, ids_config):
        engine = BatchEntropyEngine(golden_template, ids_config)
        with BlockReader(npb) as reader:
            block = engine.scan_block(reader)
        assert [w.to_dict() for w in block.results()] == [
            w.to_dict() for w in engine.scan(capture)
        ]


class TestDispatch:
    def test_npb_in_default_patterns(self):
        assert "*" + BLOCKS_SUFFIX in DEFAULT_PATTERNS

    def test_archive_enumerates_and_loads(self, capture, tmp_path):
        write_blocks(tmp_path / "a.npb", capture, block_frames=500)
        archive = CaptureArchive(tmp_path)
        assert [p.name for p in archive.paths] == ["a.npb"]
        assert archive.load(0) == capture

    def test_iter_capture_chunks(self, capture, npb):
        chunks = list(iter_capture_chunks(npb, 333))
        assert all(len(c) <= 333 for c in chunks)
        assert ColumnTrace.merge(*chunks) == capture

    def test_archive_write_capture(self, capture, tmp_path):
        archive = CaptureArchive(tmp_path)
        path = archive.write_capture("out.npb", capture)
        assert path.suffix == ".npb"
        assert load_capture_columns(path) == capture

    def test_open_capture_stream(self, capture, npb):
        source = open_capture_stream(npb)
        assert isinstance(source, BlockReader)
        source.close()

    def test_container_beats_uncompressed_npz_on_disk(
        self, capture, npb, tmp_path
    ):
        npz = tmp_path / "drive.npz"
        capture.save_npz(npz)
        assert npb.stat().st_size < npz.stat().st_size


class TestRuntimeSpec:
    def test_entropy_scan_spec_scans_npb(
        self, capture, npb, golden_template, ids_config
    ):
        from repro.runtime.base import EntropyScanSpec

        spec = EntropyScanSpec(
            template=golden_template,
            config=ids_config,
            chunk_windows=16,
        )
        scanner = spec.make_scanner()
        windows = scanner(str(npb))
        engine = BatchEntropyEngine(golden_template, ids_config)
        assert [w.to_dict() for w in windows] == [
            w.to_dict() for w in engine.scan(capture)
        ]
