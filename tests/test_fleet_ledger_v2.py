"""Ledger format 2: columnar entries on the fabric's codec, and the v1 upgrade.

A version-2 entry's report holds the scan fabric's columnar window
payload plus the inference verdict.  These tests pin that the payload
replays the scan bit for bit, that it is much smaller than the
per-window dicts of format 1, that it already carries the window counts
exactly, that malformed entries rescan instead of answering, and that a
checked-in format-1 ledger upgrades with a named reason.
"""

import base64
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import SingleIDAttacker
from repro.cli import main
from repro.core import IDSPipeline
from repro.core.kernel import RESULT_FIELDS
from repro.fleet import FleetStore
from repro.fleet.ledger import LEDGER_VERSION, ScanLedger, decode_report
from repro.fleet.watch import detection_context, watch_scan
from repro.io import CaptureArchive
from repro.vehicle import VehicleSimulation
from repro.vehicle.traffic import simulate_drive

#: ``captures/drive.npb`` (an 8 s drive with a 1 s single-id injection)
#: and the ``ledger.json`` that ``watch_scan`` wrote for it while the
#: ledger was at format version 1, under the ``pipeline`` fixture's
#: detection context.
V1_FIXTURE = Path(__file__).parent / "fixtures" / "ledger_v1"


def attacked_drive(catalog, seed, duration_s=6.0):
    sim = VehicleSimulation(catalog=catalog, scenario="city", seed=seed)
    sim.add_node(
        SingleIDAttacker(
            can_id=catalog.ids[60], frequency_hz=100.0,
            start_s=1.0, duration_s=4.0, seed=seed,
        )
    )
    return sim.run(duration_s)


@pytest.fixture()
def pipeline(golden_template, ids_config, catalog):
    return IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)


@pytest.fixture()
def archive_dir(tmp_path, catalog):
    directory = tmp_path / "captures"
    directory.mkdir()
    archive = CaptureArchive(directory)
    archive.write_capture("cap0.log", simulate_drive(6.0, seed=70, catalog=catalog))
    archive.write_capture("cap1.log", attacked_drive(catalog, 71))
    archive.write_capture("cap2.log", simulate_drive(6.0, seed=72, catalog=catalog))
    return directory


def cold_reports(pipeline, archive_dir):
    cold = pipeline.analyze_archive(CaptureArchive(archive_dir), workers=1)
    return {Path(path).name: report for path, report in cold.captures}


def load_entries(path):
    return json.loads(Path(path).read_text())["entries"]


class TestColumnarEntries:
    def test_ledgered_windows_equal_the_scan_bit_for_bit(
        self, pipeline, archive_dir, tmp_path, ids_config
    ):
        ledger_path = tmp_path / "ledger.json"
        watch_scan(pipeline, archive_dir, ledger_path)
        assert json.loads(ledger_path.read_text())["version"] == LEDGER_VERSION == 2
        cold = cold_reports(pipeline, archive_dir)
        for rel, entry in load_entries(ledger_path).items():
            assert set(entry["report"]) == {"windows", "inference"}
            block = decode_report(
                entry["report"], ids_config.n_bits, ids_config.window_us
            ).block
            windows = cold[rel].windows
            assert len(block) == len(windows) > 0
            for name, _, _ in RESULT_FIELDS:
                want = np.array([getattr(w, name) for w in windows])
                got = getattr(block, name)
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name
            assert block.t_end_us.tolist() == [w.t_end_us for w in windows]

    def test_entry_is_far_smaller_than_per_window_dicts(
        self, pipeline, archive_dir, tmp_path
    ):
        ledger_path = tmp_path / "ledger.json"
        watch_scan(pipeline, archive_dir, ledger_path)
        cold = cold_reports(pipeline, archive_dir)
        for rel, entry in load_entries(ledger_path).items():
            columnar = len(json.dumps(entry["report"]))
            per_window = len(json.dumps(cold[rel].to_dict()))
            # Measured 2.2-2.3x on 11-bit windows: base64 of the raw
            # float64 bytes against shortest-repr decimal floats.
            assert per_window >= 2 * columnar, rel

    def test_probabilities_and_totals_carry_the_counts_exactly(
        self, pipeline, archive_dir, tmp_path, ids_config
    ):
        """No count column is needed: ``rint(p * n)`` is the integer
        count, and dividing it by ``n`` the kernel's way gives ``p``
        back bit for bit."""
        ledger_path = tmp_path / "ledger.json"
        watch_scan(pipeline, archive_dir, ledger_path)
        for entry in load_entries(ledger_path).values():
            block = decode_report(
                entry["report"], ids_config.n_bits, ids_config.window_us
            ).block
            totals = block.n_messages[:, None]
            counts = np.rint(block.probabilities * totals)
            assert np.all((counts >= 0) & (counts <= totals))
            again = counts.astype(np.int64) / totals.astype(float)
            assert again.tobytes() == block.probabilities.tobytes()


def _tamper_field(name, mutate):
    def tamper(windows):
        raw = base64.b64decode(windows[name])
        windows[name] = base64.b64encode(mutate(raw)).decode("ascii")
    return tamper


class TestMalformedEntries:
    @pytest.mark.parametrize(
        "tamper",
        [
            lambda w: w.update(entropy="!!not base64!!"),
            _tamper_field("probabilities", lambda raw: raw[:-8]),
            lambda w: w.pop("deviations"),
            lambda w: w.update(windows=w["windows"] + 1),
            lambda w: w.update(version=1),
            _tamper_field("violated", lambda raw: b"\x07" + raw[1:]),
        ],
        ids=[
            "bad-base64", "short-array", "missing-field",
            "wrong-window-count", "old-payload-version", "non-bool-byte",
        ],
    )
    def test_malformed_entry_demotes_to_a_miss_and_rescans(
        self, pipeline, archive_dir, tmp_path, tamper
    ):
        ledger_path = tmp_path / "ledger.json"
        watch_scan(pipeline, archive_dir, ledger_path)
        payload = json.loads(ledger_path.read_text())
        victim = sorted(payload["entries"])[1]
        tamper(payload["entries"][victim]["report"]["windows"])
        ledger_path.write_text(json.dumps(payload))

        result = watch_scan(pipeline, archive_dir, ledger_path)
        assert [p.name for p in result.scanned] == [victim]
        assert result.ledger.hits == 2 and result.ledger.misses == 1
        cold = pipeline.analyze_archive(CaptureArchive(archive_dir), workers=1)
        assert result.report.to_dict() == cold.to_dict()
        assert watch_scan(pipeline, archive_dir, ledger_path).fully_cached

    def test_garbled_inference_demotes_too(
        self, pipeline, archive_dir, tmp_path
    ):
        ledger_path = tmp_path / "ledger.json"
        watch_scan(pipeline, archive_dir, ledger_path)
        payload = json.loads(ledger_path.read_text())
        payload["entries"]["cap1.log"]["report"]["inference"] = {"bogus": 1}
        ledger_path.write_text(json.dumps(payload))
        result = watch_scan(pipeline, archive_dir, ledger_path)
        assert [p.name for p in result.scanned] == ["cap1.log"]


class TestFormatUpgrade:
    @pytest.fixture()
    def v1_copy(self, tmp_path):
        root = tmp_path / "v1"
        shutil.copytree(V1_FIXTURE, root)
        return root

    def test_fixture_is_format_1_under_this_context(
        self, v1_copy, pipeline, ids_config
    ):
        payload = json.loads((v1_copy / "ledger.json").read_text())
        assert payload["version"] == 1
        # Same context: only the format forces the rebuild below.
        assert payload["context"] == detection_context(
            pipeline.template, ids_config, pipeline.id_pool, 1
        )

    def test_v1_ledger_rebuilds_as_format_upgraded(self, v1_copy, pipeline):
        ledger = ScanLedger(v1_copy / "ledger.json", context=None)
        assert ledger.rebuilt and ledger.rebuild_reason == "format-upgraded"
        assert len(ledger) == 0

    def test_first_scan_rebuilds_then_second_is_cached(self, v1_copy, pipeline):
        ledger_path = v1_copy / "ledger.json"
        v1_report = load_entries(ledger_path)["drive.npb"]["report"]
        cold = pipeline.analyze_archive(
            CaptureArchive(v1_copy / "captures"), workers=1
        )

        first = watch_scan(pipeline, v1_copy / "captures", ledger_path)
        assert first.ledger.rebuild_reason == "format-upgraded"
        assert "ledger rebuilt: format-upgraded" in first.summary()
        assert [p.name for p in first.scanned] == ["drive.npb"]
        assert first.report.to_dict() == cold.to_dict()
        # The format-1 writer recorded exactly what this scan produces.
        assert v1_report == cold.reports[0].to_dict()
        assert cold.reports[0].alerts and cold.reports[0].inference

        assert json.loads(ledger_path.read_text())["version"] == 2
        second = watch_scan(pipeline, v1_copy / "captures", ledger_path)
        assert second.fully_cached and not second.ledger.rebuilt
        assert second.report.to_dict() == cold.to_dict()

    def test_newer_format_is_not_an_upgrade(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(
            {"version": LEDGER_VERSION + 1, "context": "", "entries": {}}
        ))
        assert ScanLedger(path, context=None).rebuild_reason == "corrupt"

    @pytest.fixture()
    def v1_store(self, tmp_path, catalog):
        """A store whose ledger is format 1 and names a capture that
        has since left the archive."""
        store = FleetStore(tmp_path / "fleet")
        store.add_capture(
            "car-a", "other.log", simulate_drive(4.0, seed=5, catalog=catalog)
        )
        shutil.copyfile(V1_FIXTURE / "ledger.json", store.ledger_path("car-a"))
        return store

    def test_prune_leaves_a_v1_ledger_untouched(self, v1_store, capsys):
        path = v1_store.ledger_path("car-a")
        before = path.read_bytes()
        assert v1_store.compact_ledgers() == {"car-a": 0}
        assert main(["fleet", "prune", "--store", str(v1_store.root)]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_status_names_the_rebuild_reason(self, v1_store, capsys):
        capsys.readouterr()
        assert main(["fleet", "status", "--store", str(v1_store.root)]) == 0
        assert "ledger entries=format-upgraded" in capsys.readouterr().out
        assert main(
            ["fleet", "status", "--store", str(v1_store.root), "--json"]
        ) == 0
        row = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert row["ledger"] == "format-upgraded"
        assert row["ledger_entries"] is None
