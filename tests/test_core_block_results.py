"""One result type from kernel to report: every scan path carries the
kernel's ``WindowBlock`` and builds ``WindowResult`` rows only when a
caller reads them.

* inference reads the block's arrays and agrees, ``to_dict``-exact,
  with the per-window aggregation loop it replaced (kept here as the
  oracle);
* a cold archive scan, serial or pooled, and a cold watch scan build
  no rows and restack none, and the pool's blocks equal the serial
  ones byte for byte;
* a template/config bit-width mismatch fails when the scan spec is
  built, before any worker starts.
"""

from collections import Counter

import numpy as np
import pytest

from repro.attacks import FloodingAttacker, MultiIDAttacker, SingleIDAttacker
from repro.core import (
    BatchEntropyEngine,
    IDSConfig,
    IDSPipeline,
    InferenceEngine,
)
from repro.core.kernel import RESULT_FIELDS, WindowBlock
from repro.exceptions import DetectorError
from repro.fleet import watch_scan
from repro.io import CaptureArchive
from repro.runtime import (
    EntropyScanSpec,
    PoolExecutor,
    SerialExecutor,
    spec_from_payload,
)
from repro.vehicle import VehicleSimulation
from repro.vehicle.traffic import simulate_drive


def attacked_drive(catalog, attacker, seed, duration_s=10.0):
    sim = VehicleSimulation(catalog=catalog, scenario="city", seed=seed)
    sim.add_node(attacker)
    return sim.run(duration_s)


def row_loop_inference(engine, windows, infer_k):
    """The per-row inference the block path replaced: the ``"auto"``
    estimate over the alarmed rows, then the alarmed (or, failing
    those, judged) rows aggregated one window at a time."""
    if infer_k == "auto":
        alarmed = [w for w in windows if w.alarm]
        total = sum(w.n_messages for w in alarmed)
        combined = sum(w.probabilities * w.n_messages for w in alarmed) / total
        infer_k = engine.estimate_k(combined, total, n_windows=len(alarmed))
    selected = [w for w in windows if w.alarm]
    if not selected:
        selected = [w for w in windows if w.judged]
    total = sum(w.n_messages for w in selected)
    combined = np.zeros(engine.config.n_bits, dtype=float)
    for window in selected:
        combined += window.probabilities * window.n_messages
    combined /= total
    return engine.infer(combined, total, k=infer_k, n_windows=len(selected))


def assert_blocks_identical(a, b):
    assert a.window_us == b.window_us
    for name, _dtype, _per_bit in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def count_rows(monkeypatch):
    """Count rows built (``result``/``results``) and rows restacked
    (``from_results``) on ``WindowBlock``."""
    calls = Counter()
    result, results = WindowBlock.result, WindowBlock.results
    from_results = WindowBlock.from_results.__func__

    def counting_result(self, i):
        calls["result"] += 1
        return result(self, i)

    def counting_results(self):
        calls["results"] += 1
        return results(self)

    def counting_from_results(cls, *args, **kwargs):
        calls["from_results"] += 1
        return from_results(cls, *args, **kwargs)

    monkeypatch.setattr(WindowBlock, "result", counting_result)
    monkeypatch.setattr(WindowBlock, "results", counting_results)
    monkeypatch.setattr(
        WindowBlock, "from_results", classmethod(counting_from_results)
    )
    return calls


@pytest.fixture(scope="module")
def pipeline(golden_template, ids_config, catalog):
    return IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)


@pytest.fixture(scope="module")
def engine(golden_template, ids_config, catalog):
    """The inference engine the pipeline builds from the same pool."""
    return InferenceEngine(catalog.ids, golden_template, ids_config)


@pytest.fixture(scope="module")
def attacked_blocks(golden_template, ids_config, catalog):
    """Three attacked drives (one, two and a flood of identifiers) with
    their traces and kernel blocks."""
    attackers = [
        SingleIDAttacker(
            can_id=catalog.ids[70], frequency_hz=60.0,
            start_s=2.0, duration_s=6.0, seed=61,
        ),
        MultiIDAttacker(
            [catalog.ids[40], catalog.ids[150]], frequency_hz=50.0,
            start_s=2.0, duration_s=6.0, seed=62,
        ),
        FloodingAttacker(frequency_hz=200.0, start_s=3.0, duration_s=5.0, seed=63),
    ]
    engine = BatchEntropyEngine(golden_template, ids_config)
    drives = []
    for seed, attacker in enumerate(attackers, start=71):
        trace = attacked_drive(catalog, attacker, seed)
        block = engine.scan_block(trace)
        assert block.n_alarmed > 0
        drives.append((trace, block))
    return drives


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory, catalog):
    """Three captures; the attacked one alarms."""
    directory = tmp_path_factory.mktemp("block-archive")
    archive = CaptureArchive(directory)
    archive.write_capture("a0.log", simulate_drive(6.0, seed=81, catalog=catalog))
    archive.write_capture(
        "a1.csv",
        attacked_drive(
            catalog,
            SingleIDAttacker(
                can_id=catalog.ids[60], frequency_hz=100.0,
                start_s=1.0, duration_s=4.0, seed=82,
            ),
            seed=82,
            duration_s=6.0,
        ),
    )
    archive.write_capture("a2.log", simulate_drive(6.0, seed=83, catalog=catalog))
    return directory


class TestInferenceReadsArrays:
    @pytest.mark.parametrize("infer_k", [1, 2, "auto"])
    def test_equals_the_per_row_loop(
        self, pipeline, engine, attacked_blocks, infer_k
    ):
        for trace, block in attacked_blocks:
            expected = row_loop_inference(engine, block.results(), infer_k)
            got = engine.infer_from_windows(block, k=infer_k)
            assert got.to_dict() == expected.to_dict()
            assert got.composition.tobytes() == expected.composition.tobytes()
            report = pipeline.analyze(trace, infer_k=infer_k)
            assert report.inference.to_dict() == expected.to_dict()

    def test_falls_back_to_judged_rows(
        self, pipeline, engine, golden_template, ids_config, catalog
    ):
        clean = simulate_drive(8.0, seed=91, catalog=catalog)
        block = BatchEntropyEngine(golden_template, ids_config).scan_block(clean)
        assert block.n_alarmed == 0 and block.n_judged > 0
        expected = row_loop_inference(engine, block.results(), 1)
        assert engine.infer_from_windows(block).to_dict() == expected.to_dict()
        # A report only infers when a window alarmed.
        assert pipeline.analyze(clean).inference is None


class TestNoRowsUntilAsked:
    @pytest.mark.parametrize(
        "executor", [SerialExecutor(), PoolExecutor(workers=2)],
        ids=["serial", "pool"],
    )
    def test_cold_archive_scan_builds_no_rows(
        self, pipeline, archive_dir, executor, monkeypatch
    ):
        reference = pipeline.analyze_archive(archive_dir, workers=1)
        calls = count_rows(monkeypatch)
        report = pipeline.analyze_archive(archive_dir, executor=executor)
        (alarmed,) = [r for r in report.reports if r.inference is not None]
        assert calls == {}
        n_rows = len(alarmed.windows)
        assert calls == {"results": 1, "result": n_rows}
        assert [p.name for p in report.alarmed_captures] == ["a1.csv"]
        assert calls["from_results"] == 0
        for mine, theirs in zip(report.reports, reference.reports):
            assert_blocks_identical(mine.block, theirs.block)
        assert report.to_dict() == reference.to_dict()

    def test_cold_watch_scan_builds_no_rows(
        self, pipeline, archive_dir, tmp_path, monkeypatch
    ):
        reference = pipeline.analyze_archive(archive_dir, workers=1)
        calls = count_rows(monkeypatch)
        result = watch_scan(
            pipeline, archive_dir, tmp_path / "ledger.json", workers=1
        )
        assert len(result.scanned) == 3
        assert calls == {}
        for mine, theirs in zip(result.report.reports, reference.reports):
            assert_blocks_identical(mine.block, theirs.block)
        assert calls == {}
        assert result.report.to_dict() == reference.to_dict()


class TestBitWidthCheckedUpFront:
    def test_spec_refuses_a_mismatch(self, golden_template):
        with pytest.raises(DetectorError, match="11 bits"):
            EntropyScanSpec(golden_template, IDSConfig(n_bits=29))

    def test_a_remote_payload_with_a_mismatch_is_refused(
        self, golden_template, ids_config
    ):
        payload = EntropyScanSpec(golden_template, ids_config).to_payload()
        payload["config"]["n_bits"] = 29
        with pytest.raises(DetectorError, match="11 bits"):
            spec_from_payload(payload)

    def test_archive_scan_fails_before_any_pool(
        self, golden_template, archive_dir, monkeypatch
    ):
        def no_pool(self, spec, paths):
            raise AssertionError("a pool ran")

        monkeypatch.setattr(PoolExecutor, "run", no_pool)
        pipeline = IDSPipeline(golden_template, IDSConfig(n_bits=29))
        with pytest.raises(DetectorError, match="11 bits"):
            pipeline.analyze_archive(archive_dir, workers=2)
