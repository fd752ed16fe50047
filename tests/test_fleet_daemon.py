"""The watch daemon: monitoring loop, retraining loop, safe shutdown.

Two acceptance bars live here:

* **drift closes the loop** — a drift alarm on synthetically shifted
  traffic triggers *exactly one* retrain event, and the post-retrain
  cycle cold-rescans that vehicle only;
* **shutdown is crash-safe** — SIGTERM or a stop file mid-run leaves
  every ledger uncorrupted, and the next cold start replays the cached
  verdicts bit-identically (even after SIGKILL, which skips all
  cleanup).
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import IDSPipeline
from repro.fleet import FleetStore, WatchDaemon, watch_scan
from repro.vehicle.traffic import simulate_drive

#: Drift knobs used throughout: a persistent ~0.5-threshold shift never
#: alarms a window (needs z > 1) but crosses this CUSUM limit in two
#: captures (accumulates ~0.4 per capture over the 0.1 slack).
DRIFT = dict(drift_slack=0.1, drift_limit=0.6)


def shifted_copy(template, fraction=0.5):
    """A template whose baseline is off by ``fraction`` thresholds —
    equivalently, a vehicle whose real traffic drifted that far."""
    return dataclasses.replace(
        template,
        mean_entropy=template.mean_entropy + fraction * template.thresholds,
    )


@pytest.fixture()
def drifting_store(tmp_path, catalog, golden_template, ids_config):
    """car-a drifts (shifted baseline), car-b is healthy."""
    store = FleetStore(tmp_path / "fleet")
    for i in range(3):
        store.add_capture(
            "car-a", f"d{i}.log",
            simulate_drive(6.0, seed=200 + i, catalog=catalog),
        )
    store.save_template(
        "car-a", shifted_copy(golden_template), window_us=ids_config.window_us
    )
    store.add_capture(
        "car-b", "d0.log", simulate_drive(6.0, seed=210, catalog=catalog)
    )
    store.save_template(
        "car-b", golden_template, window_us=ids_config.window_us
    )
    return store


@pytest.fixture()
def pipeline(golden_template, ids_config):
    return IDSPipeline(golden_template, ids_config)


class TestDriftRetrainLoop:
    def test_drift_triggers_exactly_one_retrain(
        self, drifting_store, pipeline
    ):
        """The acceptance criterion, end to end inside the daemon."""
        lines = []
        daemon = WatchDaemon(
            drifting_store,
            pipeline,
            interval_s=0.01,
            workers=1,
            log=lines.append,
            **DRIFT,
        )
        first, second = daemon.run(max_cycles=2)

        # Cycle 1: the shifted vehicle drifts and is re-baselined.
        assert first.report.drifting_vehicles == ["car-a"]
        assert first.report.alarmed_vehicles == []  # drift, not detection
        assert first.retrained == ["car-a"]
        assert len(drifting_store.retrain_events("car-a")) == 1
        assert drifting_store.retrain_events("car-b") == []

        # Cycle 2: the new context hash cold-rescans car-a — only car-a.
        assert len(second.report.watch["car-a"].scanned) == 3
        assert second.report.watch["car-a"].ledger.rebuild_reason == (
            "context-changed"
        )
        assert second.report.watch["car-b"].fully_cached
        # Re-baselined against its own traffic, the drift is gone and no
        # second retrain event appears.
        assert second.report.drifting_vehicles == []
        assert second.retrained == []
        assert len(drifting_store.retrain_events("car-a")) == 1
        assert any("retrained car-a" in line for line in lines)

    def test_no_retrain_mode_reports_only(self, drifting_store, pipeline):
        daemon = WatchDaemon(
            drifting_store,
            pipeline,
            interval_s=0.01,
            retrain=False,
            workers=1,
            log=lambda line: None,
            **DRIFT,
        )
        (cycle,) = daemon.run(max_cycles=1)
        assert cycle.report.drifting_vehicles == ["car-a"]
        assert cycle.retrained == []
        assert drifting_store.retrain_events("car-a") == []

    def test_persistent_drift_without_new_data_retrains_once(
        self, drifting_store, pipeline
    ):
        """Even if drift re-alarmed, the should_retrain guard keeps one
        drift episode at one retrain event across many cycles."""
        daemon = WatchDaemon(
            drifting_store, pipeline, interval_s=0.01, workers=1,
            log=lambda line: None, **DRIFT,
        )
        daemon.run(max_cycles=4)
        assert len(drifting_store.retrain_events("car-a")) == 1


class TestCycleMaintenance:
    def test_cycle_compacts_rotated_captures(self, drifting_store, pipeline):
        """The prune satellite's daemon half: entries for deleted
        captures are dropped at the next cycle."""
        daemon = WatchDaemon(
            drifting_store, pipeline, interval_s=0.01, retrain=False,
            workers=1, log=lambda line: None, **DRIFT,
        )
        daemon.run(max_cycles=1)
        (drifting_store.captures_dir("car-a") / "d0.log").unlink()
        cycle = daemon.run_cycle()
        assert cycle.compacted == 1
        assert "1 ledger entries pruned" in cycle.status_line()

    def test_unbounded_run_keeps_only_the_latest_cycle(
        self, drifting_store, pipeline
    ):
        """Each cycle holds every vehicle's full report: a daemon with no
        ``max_cycles`` must not accumulate them for its whole life."""
        lines = []

        def log(line):
            lines.append(line)
            if line.startswith("cycle 4:"):
                daemon.request_stop("five cycles")

        daemon = WatchDaemon(
            drifting_store, pipeline, interval_s=0.01, retrain=False,
            workers=1, log=log, **DRIFT,
        )
        kept = daemon.run()
        assert len(kept) <= 1 and kept is daemon.cycles
        assert [c.index for c in kept] == [4]
        numbered = [line.split(":")[0] for line in lines if line.startswith("cycle ")]
        assert numbered == [f"cycle {i}" for i in range(5)]

    def test_idle_cycles_back_off(self, drifting_store, pipeline):
        lines = []
        daemon = WatchDaemon(
            drifting_store, pipeline, interval_s=0.05, backoff=3.0,
            max_interval_s=0.45, retrain=False, workers=1,
            log=lines.append, **DRIFT,
        )
        daemon.run(max_cycles=3)
        waits = [line for line in lines if "next cycle in" in line]
        # Cycle 0 scanned (work -> base interval, no "idle" label);
        # cycles 1-2 were idle and backed off 3x.
        assert waits == [
            "next cycle in 0.05s", "idle; next cycle in 0.15s",
        ]


def assert_ledgers_replay_bit_identically(store, vehicle_pipelines):
    """The crash-safety property: every surviving ledger parses, and an
    incremental scan equals a cold scan of the same archive exactly."""
    for vehicle_id, pipeline in vehicle_pipelines.items():
        path = store.ledger_path(vehicle_id)
        if path.is_file():
            json.loads(path.read_text())  # must parse: atomic writes
        incremental = watch_scan(
            pipeline, store.archive(vehicle_id), path, workers=1
        )
        path.unlink()
        cold = watch_scan(
            pipeline, store.archive(vehicle_id), path, workers=1
        )
        assert incremental.report.to_dict() == cold.report.to_dict()


class TestShutdown:
    def test_stop_file_mid_run(self, drifting_store, pipeline, tmp_path,
                               golden_template, ids_config):
        """A stop file lands while the daemon loops; the stop is
        graceful and the on-disk state replays bit-identically."""
        stop = tmp_path / "halt"
        daemon = WatchDaemon(
            drifting_store, pipeline, interval_s=0.05, retrain=False,
            workers=1, stop_file=stop, log=lambda line: None, **DRIFT,
        )
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while not daemon.cycles and time.monotonic() < deadline:
            time.sleep(0.02)
        assert daemon.cycles, "daemon never completed a cycle"
        stop.touch()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert "stop file" in daemon.stop_reason
        assert_ledgers_replay_bit_identically(
            drifting_store,
            {
                "car-a": IDSPipeline(
                    drifting_store.load_template("car-a"), ids_config
                ),
                "car-b": IDSPipeline(golden_template, ids_config),
            },
        )

    def test_sigterm_mid_run(self, drifting_store, pipeline):
        """SIGTERM lands while a cycle is (likely) in flight; the daemon
        finishes the cycle and exits at the next safe point."""
        daemon = WatchDaemon(
            drifting_store, pipeline, interval_s=0.05, retrain=False,
            workers=1, log=lambda line: None, **DRIFT,
        )
        saved = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        timer = threading.Timer(
            0.2, os.kill, args=(os.getpid(), signal.SIGTERM)
        )
        try:
            daemon.install_signal_handlers()
            timer.start()
            daemon.run()  # unbounded: only the signal stops it
        finally:
            timer.cancel()
            for sig, handler in saved.items():
                signal.signal(sig, handler)
        assert daemon.stop_reason == "SIGTERM"
        assert daemon.cycles  # it was genuinely running


@pytest.fixture()
def cli_store(tmp_path, catalog, golden_template, ids_config):
    """A small two-vehicle store for subprocess daemon tests."""
    store = FleetStore(tmp_path / "fleet")
    for vid, seed in (("car-a", 220), ("car-b", 230)):
        store.add_capture(
            vid, "d0.log", simulate_drive(5.0, seed=seed, catalog=catalog)
        )
        store.save_template(vid, golden_template, window_us=ids_config.window_us)
    return store


def spawn_watch(store, *extra):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "fleet", "watch",
            "--store", str(store.root), "--interval", "0.1",
            "--workers", "1", *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


class TestCliDaemon:
    def test_sigterm_exits_zero_with_status_lines(
        self, cli_store, golden_template, ids_config
    ):
        process = spawn_watch(cli_store)
        time.sleep(6.0)  # enough for startup + at least one cycle
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, output
        assert "cycle 0:" in output
        assert "watch daemon stopped (SIGTERM)" in output
        pipelines = {
            vid: IDSPipeline(golden_template, ids_config)
            for vid in cli_store.vehicles()
        }
        assert_ledgers_replay_bit_identically(cli_store, pipelines)

    def test_sigkill_leaves_replayable_state(
        self, cli_store, golden_template, ids_config
    ):
        """SIGKILL skips every cleanup path; atomic writes must still
        leave ledgers a cold start replays bit-identically."""
        process = spawn_watch(cli_store)
        time.sleep(6.0)
        process.kill()
        process.communicate(timeout=120)
        pipelines = {
            vid: IDSPipeline(golden_template, ids_config)
            for vid in cli_store.vehicles()
        }
        assert_ledgers_replay_bit_identically(cli_store, pipelines)
