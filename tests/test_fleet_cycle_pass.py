"""A daemon cycle pays for new data, not history.

One ledger load and one save per vehicle per cycle, cached captures
replayed as arrays (no per-window objects), and a warm cycle that is
indistinguishable from one with every ledger deleted.
"""

import shutil
from collections import Counter

import pytest

from repro.attacks import SingleIDAttacker
from repro.core import IDSPipeline
from repro.core.kernel import WindowBlock
from repro.fleet import FleetStore, WatchDaemon, aggregate_vehicle, watch_scan
from repro.fleet.ledger import ScanLedger
from repro.vehicle import VehicleSimulation
from repro.vehicle.traffic import simulate_drive


@pytest.fixture()
def store(tmp_path, catalog, golden_template, ids_config):
    """car-a: three clean drives and one attacked; car-b: one drive."""
    store = FleetStore(tmp_path / "fleet")
    for i in range(3):
        store.add_capture(
            "car-a", f"d{i}.log",
            simulate_drive(6.0, seed=300 + i, catalog=catalog),
        )
    sim = VehicleSimulation(catalog=catalog, scenario="city", seed=303)
    sim.add_node(
        SingleIDAttacker(
            can_id=catalog.ids[60], frequency_hz=100.0,
            start_s=1.0, duration_s=4.0, seed=303,
        )
    )
    store.add_capture("car-a", "d3.log", sim.run(6.0))
    store.add_capture(
        "car-b", "d0.log", simulate_drive(6.0, seed=310, catalog=catalog)
    )
    for vehicle in ("car-a", "car-b"):
        store.save_template(
            vehicle, golden_template, window_us=ids_config.window_us
        )
    return store


@pytest.fixture()
def pipeline(golden_template, ids_config, catalog):
    return IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)


def daemon_for(store, pipeline):
    return WatchDaemon(
        store, pipeline, interval_s=0.01, retrain=False, workers=1,
        log=lambda line: None,
    )


def count_ledger_io(monkeypatch):
    """Count ScanLedger constructions and saves, per ledger file name."""
    loads, saves = Counter(), Counter()
    init, save = ScanLedger.__init__, ScanLedger.save

    def counting_init(self, path, *args, **kwargs):
        loads[str(path)] += 1
        init(self, path, *args, **kwargs)

    def counting_save(self):
        saves[str(self.path)] += 1
        save(self)

    monkeypatch.setattr(ScanLedger, "__init__", counting_init)
    monkeypatch.setattr(ScanLedger, "save", counting_save)
    return loads, saves


def count_rows(monkeypatch):
    """Count WindowResult rows built by WindowBlock.result/results."""
    built = Counter()
    result, results = WindowBlock.result, WindowBlock.results

    def counting_result(self, i):
        built["result"] += 1
        return result(self, i)

    def counting_results(self):
        built["results"] += 1
        return results(self)

    monkeypatch.setattr(WindowBlock, "result", counting_result)
    monkeypatch.setattr(WindowBlock, "results", counting_results)
    return built


class TestOneLedgerPass:
    def test_cycle_loads_and_saves_each_ledger_once(
        self, store, pipeline, monkeypatch
    ):
        daemon = daemon_for(store, pipeline)
        daemon.run_cycle()  # cold fill
        (store.captures_dir("car-a") / "d0.log").unlink()
        loads, saves = count_ledger_io(monkeypatch)
        cycle = daemon.run_cycle()
        ledgers = {str(store.ledger_path(v)) for v in ("car-a", "car-b")}
        assert loads == {path: 1 for path in ledgers}
        assert saves == {path: 1 for path in ledgers}
        # The rotated-out capture is pruned by the scan's own save.
        assert cycle.compacted == 1
        assert "1 ledger entries pruned" in cycle.status_line()
        assert "d0.log" not in ScanLedger(store.ledger_path("car-a"), None)

    def test_prune_command_still_compacts(self, store, pipeline):
        daemon_for(store, pipeline).run_cycle()
        (store.captures_dir("car-a") / "d1.log").unlink()
        assert store.compact_ledgers() == {"car-a": 1, "car-b": 0}


class TestWarmEqualsCold:
    def test_warm_cycle_equals_a_cycle_without_ledgers(
        self, store, pipeline, tmp_path
    ):
        daemon = daemon_for(store, pipeline)
        daemon.run_cycle()
        warm = daemon.run_cycle()
        assert warm.scanned == 0 and warm.cached == 5

        cold_store = FleetStore(tmp_path / "cold")
        shutil.copytree(store.root, cold_store.root)
        for vehicle in cold_store.vehicles():
            cold_store.ledger_path(vehicle).unlink()
        cold = daemon_for(cold_store, pipeline).run_cycle()
        assert cold.scanned == 5 and cold.cached == 0

        warm_dict, cold_dict = warm.report.to_dict(), cold.report.to_dict()
        warm_dict.pop("watch"), cold_dict.pop("watch")
        assert warm_dict == cold_dict
        for vehicle, drift in warm.report.vehicles.items():
            other = cold.report.vehicles[vehicle]
            # Bit-exact drift series: same mean over the same rows.
            assert drift.deviations.tobytes() == other.deviations.tobytes()
            assert drift.cusum_pos.tobytes() == other.cusum_pos.tobytes()
            assert drift.cusum_neg.tobytes() == other.cusum_neg.tobytes()
            assert drift.alarmed_captures == other.alarmed_captures == (
                ["d3.log"] if vehicle == "car-a" else []
            )
            for mine, theirs in zip(drift.reports, other.reports):
                assert mine.to_dict() == theirs.to_dict()


class TestReplayWithoutRows:
    def test_cached_scan_and_aggregation_build_no_rows(
        self, store, pipeline, golden_template, monkeypatch
    ):
        archive = store.archive("car-a")
        ledger_path = store.ledger_path("car-a")
        cold = watch_scan(pipeline, archive, ledger_path, workers=1)
        cold_drift = aggregate_vehicle(
            "car-a", cold.report.captures, golden_template
        )
        # The cold report is block-backed too: its dict builds rows.
        cold_dict = cold.report.reports[3].to_dict()

        built = count_rows(monkeypatch)
        warm = watch_scan(pipeline, archive, ledger_path, workers=1)
        assert warm.fully_cached
        drift = aggregate_vehicle(
            "car-a", warm.report.captures, golden_template
        )
        assert built == {}
        assert drift.alarmed_captures == ["d3.log"]
        assert drift.deviations.tobytes() == cold_drift.deviations.tobytes()

        # Rows appear only when asked for, once per report.
        report = warm.report.reports[3]
        assert report.alerts
        assert built == {"results": 1, "result": len(report.windows)}
        assert report.to_dict() == cold_dict
        assert built["results"] == 1
