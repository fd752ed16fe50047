"""Sharded archive scanning: determinism, serial parity, reporting.

An archive scan is one task per capture through an executor
(``IDSPipeline.scan_captures``, ``PoolExecutor`` by default); each task
returns the capture's ``WindowBlock``.
"""

import numpy as np
import pytest

from repro.attacks import SingleIDAttacker
from repro.baselines import FrequencyIDS
from repro.core import BatchEntropyEngine, IDSPipeline
from repro.core.kernel import RESULT_FIELDS
from repro.exceptions import DetectorError
from repro.io import CaptureArchive
from repro.io.archive import load_capture_columns
from repro.runtime import BaselineScanSpec, PoolExecutor
from repro.runtime.pool import default_workers
from repro.vehicle import VehicleSimulation
from repro.vehicle.traffic import record_template_windows, simulate_drive


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory, catalog):
    """Six small captures, one with an injected attack, mixed formats."""
    directory = tmp_path_factory.mktemp("archive")
    archive = CaptureArchive(directory)
    for i in range(6):
        if i == 3:
            sim = VehicleSimulation(catalog=catalog, scenario="city", seed=40 + i)
            sim.add_node(
                SingleIDAttacker(
                    can_id=catalog.ids[60], frequency_hz=100.0,
                    start_s=1.0, duration_s=5.0, seed=i,
                )
            )
            trace = sim.run(7.0)
        else:
            trace = simulate_drive(7.0, seed=40 + i, catalog=catalog)
        archive.write_capture(f"cap{i}.{'csv' if i % 2 else 'log'}", trace)
    return directory


@pytest.fixture()
def pipeline(golden_template, ids_config):
    return IDSPipeline(golden_template, ids_config)


def assert_windows_identical(a, b):
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert s.index == t.index
        assert s.t_start_us == t.t_start_us and s.t_end_us == t.t_end_us
        assert s.n_messages == t.n_messages
        assert s.n_attack_messages == t.n_attack_messages
        assert np.array_equal(s.probabilities, t.probabilities)
        assert np.array_equal(s.entropy, t.entropy)
        assert np.array_equal(s.deviations, t.deviations)
        assert np.array_equal(s.violated, t.violated)
        assert s.judged == t.judged


def assert_blocks_identical(a, b):
    assert a.window_us == b.window_us
    for name, _dtype, _per_bit in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


class TestShardedScanner:
    def test_one_and_four_workers_identical(self, pipeline, archive_dir):
        """The determinism satellite: results must not depend on the
        pool size, bit for bit."""
        paths = CaptureArchive(archive_dir).paths
        serial = pipeline.scan_captures(paths, workers=1)
        sharded = pipeline.scan_captures(paths, workers=4)
        assert len(serial) == len(sharded) == len(paths)
        for a, b in zip(serial, sharded):
            assert_blocks_identical(a.block, b.block)

    def test_matches_plain_engine_scan(
        self, pipeline, golden_template, ids_config, archive_dir
    ):
        paths = CaptureArchive(archive_dir).paths
        reports = pipeline.scan_captures(paths, workers=2)
        engine = BatchEntropyEngine(golden_template, ids_config)
        for path, report in zip(paths, reports):
            assert_windows_identical(
                report.windows, engine.scan(load_capture_columns(path))
            )

    def test_accepts_path_lists(
        self, pipeline, golden_template, ids_config, archive_dir
    ):
        paths = sorted(archive_dir.glob("*.log"))
        reports = pipeline.scan_captures(paths, workers=2)
        assert len(reports) == len(paths)
        engine = BatchEntropyEngine(golden_template, ids_config)
        for path, report in zip(paths, reports):
            assert_blocks_identical(
                report.block, engine.scan_block(load_capture_columns(path))
            )

    def test_empty_archive(self, pipeline, tmp_path):
        assert pipeline.scan_captures(CaptureArchive(tmp_path).paths) == []
        assert len(pipeline.analyze_archive(tmp_path)) == 0

    def test_alarmed_capture_flagged(self, pipeline, archive_dir):
        paths = CaptureArchive(archive_dir).paths
        reports = pipeline.scan_captures(paths, workers=2)
        alarmed = [
            path.name
            for path, report in zip(paths, reports)
            if report.block.alarm_mask.any()
        ]
        assert alarmed == ["cap3.csv"]

    def test_rejects_bad_workers(self, pipeline, archive_dir):
        with pytest.raises(DetectorError):
            PoolExecutor(workers=0)
        with pytest.raises(DetectorError):
            pipeline.scan_captures(CaptureArchive(archive_dir).paths, workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestBaselineSharding:
    def test_baseline_verdicts_match_serial(
        self, catalog, archive_dir, ids_config
    ):
        clean = record_template_windows(6, 2.0, seed=21, catalog=catalog)
        baseline = FrequencyIDS(window_us=ids_config.window_us).fit(clean)
        archive = CaptureArchive(archive_dir)
        sharded = PoolExecutor(workers=2).run(
            BaselineScanSpec(baseline), archive.paths
        )
        assert len(sharded) == len(archive)
        for path, verdicts in zip(archive.paths, sharded):
            assert verdicts == baseline.scan(load_capture_columns(path))

    def test_unfitted_baseline_rejected(self):
        with pytest.raises(DetectorError):
            BaselineScanSpec(FrequencyIDS())


class TestAnalyzeArchive:
    def test_report_structure_and_metrics(
        self, golden_template, ids_config, catalog, archive_dir
    ):
        pipeline = IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)
        report = pipeline.analyze_archive(archive_dir, workers=2)
        assert len(report) == 6
        assert [p.name for p in report.alarmed_captures] == ["cap3.csv"]
        assert report.detection_rate > 0.9
        assert report.false_positive_rate == 0.0
        attacked = dict(report.captures)[
            [p for p, _ in report.captures if p.name == "cap3.csv"][0]
        ]
        assert attacked.inference is not None  # alarm + pool -> inference
        summary = report.summary()
        assert "cap3.csv: ALARM" in summary and "6 captures" in summary

    def test_accepts_archive_object(
        self, golden_template, ids_config, archive_dir
    ):
        pipeline = IDSPipeline(golden_template, ids_config)
        report = pipeline.analyze_archive(
            CaptureArchive(archive_dir), workers=1
        )
        assert len(report.reports) == 6
