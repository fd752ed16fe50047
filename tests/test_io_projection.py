"""Column projection: a detection scan decodes only what the kernel reads.

``KERNEL_COLUMNS`` names the columns the fused kernel reads; chunked
scans ask their :class:`ChunkSource` for those alone.  A ``BlockReader``
then inflates three columns instead of eight and joins each block to the
running carry with O(chunk) rows.  The property sweep pins the result:
for random traces written as v1 and v2 ``.npb`` at block sizes that put
chunk boundaries before, on and after block edges, the projected stream
scan equals the in-RAM engine and the per-record ``EntropyDetector``.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BatchEntropyEngine, BitCounter, IDSConfig, TemplateBuilder
from repro.core.detector import EntropyDetector
from repro.core.kernel import KERNEL_COLUMNS
from repro.io import BlockReader, DecodedBlockCache, Trace, write_blocks
from repro.io.blockcache import default_cache
from repro.io.columnar import ChunkSource, ColumnTrace
from repro.runtime.base import EntropyScanSpec
from repro.vehicle.traffic import generate_drive_columns


def tiny_template(n_bits):
    config = IDSConfig(n_bits=n_bits, window_us=1_000, min_window_messages=4)
    top = (1 << n_bits) - 1
    builder = TemplateBuilder(config)
    for ids in (
        [0x100, 0x2A5, 0x0F3, 0x555, top],
        [0x101, 0x2A5, 0x100, 0x7FF, top >> 3],
        [0x100, 0x1A5, 0x0F3, 0x3F0, top >> 7],
    ):
        builder.add_counter(BitCounter.from_ids(ids, n_bits))
    return builder.build(), config


TEMPLATES = {n_bits: tiny_template(n_bits) for n_bits in (11, 29)}


def windows(results):
    return [w.to_dict() for w in results]


@pytest.fixture(scope="module")
def capture(catalog):
    return generate_drive_columns(3.0, scenario="city", seed=41, catalog=catalog)


@pytest.fixture()
def npb(capture, tmp_path):
    path = tmp_path / "drive.npb"
    write_blocks(path, capture, block_frames=1000)
    return path


class TestProjectedReads:
    def test_projected_block_keeps_kernel_columns_only(self, npb):
        cache = DecodedBlockCache(max_bytes=1 << 26)
        with BlockReader(npb, cache=cache) as reader:
            block = reader.read_block(1, KERNEL_COLUMNS)
            full = reader.read_block(1)
        # The projected read inflated its three columns; the full read
        # found those cached and inflated the other five.
        assert cache.stats()["misses"] == 8
        assert cache.stats()["hits"] == len(KERNEL_COLUMNS)
        for name in KERNEL_COLUMNS:
            assert np.array_equal(getattr(block, name), getattr(full, name))
        assert block.payload.size == 0
        assert not block.payload_offsets.any()
        assert not block.extended.any()
        assert not block.source_code.any() and not block.bus_code.any()

    def test_timestamps_always_decoded(self, npb):
        cache = DecodedBlockCache(max_bytes=1 << 26)
        with BlockReader(npb, cache=cache) as reader:
            block = reader.read_block(0, ("can_id",))
            assert np.array_equal(
                block.timestamp_us, reader.read_block(0).timestamp_us
            )

    def test_unknown_column_rejected(self, capture, npb):
        with BlockReader(npb) as reader:
            with pytest.raises(ValueError, match="unknown column"):
                reader.read_block(0, ("can_idd",))
            with pytest.raises(ValueError, match="unknown column"):
                next(reader.iter_window_chunks(2_000_000, 4, columns=("dlc",)))
        with pytest.raises(ValueError, match="unknown column"):
            next(capture.iter_window_chunks(2_000_000, 4, columns=("dlc",)))

    def test_kernel_ignores_every_other_column(self, capture, golden_template, ids_config):
        engine = BatchEntropyEngine(golden_template, ids_config)
        bare = ColumnTrace(
            capture.timestamp_us, capture.can_id, is_attack=capture.is_attack
        )
        assert windows(engine.scan(bare)) == windows(engine.scan(capture))

    def test_column_trace_projection_is_zero_copy(self, capture):
        chunks = list(
            capture.iter_window_chunks(1_000_000, 2, columns=KERNEL_COLUMNS)
        )
        assert all(
            np.shares_memory(c.timestamp_us, capture.timestamp_us)
            and np.shares_memory(c.payload, capture.payload)
            for c in chunks
        )
        plain = list(capture.iter_window_chunks(1_000_000, 2))
        assert len(chunks) == len(plain)
        assert all(a == b for a, b in zip(chunks, plain))

    def test_chunk_source_protocol(self, capture, npb):
        with BlockReader(npb) as reader:
            assert isinstance(reader, ChunkSource)
        assert isinstance(capture, ChunkSource)
        assert not isinstance(Trace(), ChunkSource)

    def test_scan_spec_decodes_kernel_columns_on_both_routes(
        self, capture, npb, golden_template, ids_config
    ):
        """In-RAM and out-of-core spec scans of .npb both stream, so the
        process-wide cache only ever sees the kernel's columns."""
        engine = BatchEntropyEngine(golden_template, ids_config)
        expected = windows(engine.scan(capture))
        with BlockReader(npb) as reader:
            n_blocks = len(reader.blocks)
        for chunk_windows in (None, 16):
            default_cache().clear()
            spec = EntropyScanSpec(golden_template, ids_config, chunk_windows)
            assert windows(spec.make_scanner()(str(npb))) == expected
            entries = default_cache().stats()["entries"]
            assert entries == n_blocks * len(KERNEL_COLUMNS)
        default_cache().clear()


class TestCarryJoin:
    def test_equal_timestamps_across_block_edges(self, tmp_path):
        """Bursts of identical timestamps straddling every block edge
        keep their order and their window."""
        template, config = TEMPLATES[11]
        ts = np.repeat(np.arange(0, 40_000, 700, dtype=np.int64), 7)
        ids = np.arange(ts.size, dtype=np.int64) % 0x7FF
        trace = ColumnTrace(ts, ids, is_attack=ids % 5 == 0)
        engine = BatchEntropyEngine(template, config)
        expected = windows(engine.scan(trace))
        for block_frames in (3, 5, 7, 11):
            path = tmp_path / f"burst{block_frames}.npb"
            write_blocks(path, trace, block_frames=block_frames)
            for chunk_windows in (1, 2, 64):
                with BlockReader(path, cache=False) as reader:
                    got = engine.scan_stream(reader, chunk_windows)
                assert windows(got) == expected

    def test_merge_of_ordered_parts_is_concatenation(self, capture):
        parts = [capture.slice(0, 10), capture.slice(10, 10), capture.slice(10, 25)]
        merged = ColumnTrace.merge(*parts)
        assert merged == capture.slice(0, 25)
        # Out-of-order parts still come back sorted (stable).
        swapped = ColumnTrace.merge(parts[2], parts[0])
        assert swapped == capture.slice(0, 25)


# ----------------------------------------------------------------------
# The property sweep
# ----------------------------------------------------------------------

#: Inter-frame gaps at a 1 ms window: equal timestamps, bursts, ordinary
#: spacing, and silences longer than a 64-window chunk.
gaps = st.one_of(
    st.just(0),
    st.integers(1, 60),
    st.integers(61, 900),
    st.integers(70_000, 250_000),
)


@st.composite
def traces(draw):
    n_bits = draw(st.sampled_from((11, 29)))
    n = draw(st.integers(0, 160))
    steps = draw(st.lists(gaps, min_size=n, max_size=n))
    ts = np.cumsum(np.asarray(steps, dtype=np.int64)) + draw(
        st.integers(0, 10**9)
    )
    # On a 125 us lattice many frames sit exactly on window and chunk
    # boundaries, where an off-by-one split would show.
    ts -= ts % draw(st.sampled_from((1, 125)))
    ids = draw(
        st.lists(st.integers(0, (1 << n_bits) - 1), min_size=n, max_size=n)
    )
    attacks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    dlcs = np.asarray(
        draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)), np.int64
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(dlcs, out=offsets[1:])
    payload = (np.arange(offsets[-1], dtype=np.int64) * 37 % 251).astype(np.uint8)
    trace = ColumnTrace(
        ts.astype(np.int64),
        np.asarray(ids, dtype=np.int64),
        payload=payload,
        payload_offsets=offsets,
        extended=np.full(n, n_bits == 29),
        is_attack=np.asarray(attacks, dtype=bool),
    )
    return n_bits, trace


class TestProjectedStreamProperty:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(traces(), st.integers(1, 64))
    def test_projected_stream_equals_engine_and_oracle(self, drawn, block_frames):
        n_bits, trace = drawn
        template, config = TEMPLATES[n_bits]
        engine = BatchEntropyEngine(template, config)
        expected = windows(engine.scan(trace))
        oracle = windows(EntropyDetector(template, config).scan(trace))
        assert expected == oracle
        with tempfile.TemporaryDirectory() as tmp:
            for version in (1, 2):
                path = Path(tmp) / f"v{version}.npb"
                write_blocks(path, trace, block_frames=block_frames, version=version)
                warm = DecodedBlockCache(max_bytes=1 << 24)
                with BlockReader(path, cache=warm) as reader:
                    for i in range(len(reader.blocks)):
                        reader.read_block(i, KERNEL_COLUMNS)
                for chunk_windows in (1, 2, 64):
                    for cache in (False, warm):
                        with BlockReader(path, cache=cache) as reader:
                            got = engine.scan_stream(reader, chunk_windows)
                        assert windows(got) == expected
                assert warm.stats()["hits"] == 3 * warm.stats()["misses"]
