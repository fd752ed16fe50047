"""Executor backends: bit-identical reports across serial/pool/queue/net.

The runtime layer's acceptance bar: ``analyze_archive``, ``watch_scan``
and ``analyze_fleet`` must produce **bit-identical** reports under
:class:`SerialExecutor`, :class:`PoolExecutor`,
:class:`WorkQueueExecutor` and :class:`NetExecutor` at any worker
count.  (Multiprocess *perf* is never asserted — the container may
expose one CPU — only equality.)
"""

import threading

import pytest

from repro.attacks import SingleIDAttacker
from repro.baselines import FrequencyIDS
from repro.core import IDSPipeline
from repro.exceptions import DetectorError
from repro.fleet import FleetStore, watch_scan
from repro.io import CaptureArchive
from repro.runtime import (
    BaselineScanSpec,
    EntropyScanSpec,
    NetExecutor,
    PoolExecutor,
    SerialExecutor,
    ServerThread,
    WorkQueueExecutor,
    resolve_executor,
    run_net_worker,
    run_worker,
)
from repro.vehicle import VehicleSimulation
from repro.vehicle.traffic import record_template_windows, simulate_drive


def make_capture(catalog, seed, attacked=False, duration_s=6.0):
    if not attacked:
        return simulate_drive(duration_s, seed=seed, catalog=catalog)
    sim = VehicleSimulation(catalog=catalog, scenario="city", seed=seed)
    sim.add_node(
        SingleIDAttacker(
            can_id=catalog.ids[60], frequency_hz=100.0,
            start_s=1.0, duration_s=4.0, seed=seed,
        )
    )
    return sim.run(duration_s)


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory, catalog):
    """Four small captures, one attacked, mixed formats."""
    directory = tmp_path_factory.mktemp("runtime-archive")
    archive = CaptureArchive(directory)
    for i in range(4):
        archive.write_capture(
            f"cap{i}.{'csv' if i % 2 else 'log'}",
            make_capture(catalog, 50 + i, attacked=(i == 2)),
        )
    return directory


@pytest.fixture()
def pipeline(golden_template, ids_config, catalog):
    return IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)


@pytest.fixture(scope="module")
def coordinator():
    """One TCP scan coordinator shared by every net-backend run."""
    with ServerThread() as st:
        yield st


def executors_for(tmp_path, coordinator):
    return [
        SerialExecutor(),
        PoolExecutor(workers=1),
        PoolExecutor(workers=3),
        WorkQueueExecutor(tmp_path / "queue", timeout_s=120.0),
        NetExecutor(coordinator.address, timeout_s=120.0),
    ]


class TestArchiveParity:
    def test_analyze_archive_identical_across_backends(
        self, pipeline, archive_dir, tmp_path, coordinator
    ):
        """The acceptance criterion, on the cold scan path."""
        reference = pipeline.analyze_archive(archive_dir, workers=1)
        assert [p.name for p in reference.alarmed_captures] == ["cap2.log"]
        for executor in executors_for(tmp_path, coordinator):
            report = pipeline.analyze_archive(archive_dir, executor=executor)
            assert report.to_dict() == reference.to_dict(), executor.describe()

    def test_watch_scan_identical_across_backends(
        self, pipeline, archive_dir, tmp_path, coordinator
    ):
        """The acceptance criterion, on the incremental path: every
        backend feeds the same bytes into the same ledger protocol."""
        reference = pipeline.analyze_archive(archive_dir, workers=1)
        for i, executor in enumerate(executors_for(tmp_path, coordinator)):
            result = watch_scan(
                pipeline,
                archive_dir,
                tmp_path / f"ledger{i}.json",
                executor=executor,
            )
            assert len(result.scanned) == 4  # cold ledger: all fresh
            assert result.report.to_dict() == reference.to_dict()

    def test_analyze_fleet_identical_across_backends(
        self, pipeline, golden_template, ids_config, catalog, tmp_path,
        coordinator,
    ):
        """The acceptance criterion, fleet-wide."""
        store = FleetStore(tmp_path / "fleet")
        for v, vid in enumerate(("car-a", "car-b")):
            store.add_capture(
                vid, "d0.log", make_capture(catalog, 70 + v)
            )
            store.add_capture(
                vid, "d1.log", make_capture(catalog, 75 + v, attacked=(v == 1))
            )
            store.save_template(
                vid, golden_template, window_us=ids_config.window_us
            )
        reports = []
        for executor in executors_for(tmp_path, coordinator):
            # Fresh ledgers per backend: each run must be a cold scan.
            for vid in store.vehicles():
                if store.ledger_path(vid).is_file():
                    store.ledger_path(vid).unlink()
            report = pipeline.analyze_fleet(store, executor=executor)
            reports.append(
                {vid: v.to_dict() for vid, v in report.vehicles.items()}
            )
        assert all(r == reports[0] for r in reports[1:])
        assert reports[0]["car-b"]["alarmed_captures"] == ["d1.log"]

    def test_sharded_scanner_accepts_executor(
        self, golden_template, ids_config, archive_dir, tmp_path
    ):
        paths = CaptureArchive(archive_dir).paths
        pipeline = IDSPipeline(golden_template, ids_config)
        serial = pipeline.scan_captures(paths, workers=1)
        queued = pipeline.scan_captures(
            paths,
            executor=WorkQueueExecutor(tmp_path / "q", timeout_s=120.0),
        )
        assert len(serial) == len(queued) == len(paths)
        for a, b in zip(serial, queued):
            assert [w.to_dict() for w in a.windows] == [
                w.to_dict() for w in b.windows
            ]


class TestQueueWithRealWorkers:
    def test_background_workers_serve_the_scan(
        self, pipeline, archive_dir, tmp_path
    ):
        """With ``coordinator_drains=False`` the scan *only* completes if
        independent workers execute the tasks — the distributed path."""
        queue = tmp_path / "queue"
        threads = [
            threading.Thread(
                target=run_worker,
                kwargs=dict(
                    queue_dir=queue, poll_s=0.02, max_idle_s=30.0
                ),
                daemon=True,
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        executor = WorkQueueExecutor(
            queue, coordinator_drains=False, timeout_s=120.0
        )
        report = pipeline.analyze_archive(archive_dir, executor=executor)
        (queue / "stop").touch()  # release the workers before joining
        for t in threads:
            t.join(timeout=60)
        reference = pipeline.analyze_archive(archive_dir, workers=1)
        assert report.to_dict() == reference.to_dict()


class TestNetWithRealWorkers:
    def test_network_workers_serve_the_scan(
        self, pipeline, archive_dir, coordinator
    ):
        """The network twin of the queue test above: ``drain=False``
        means completion proves the TCP workers executed every task."""
        threads = [
            threading.Thread(
                target=run_net_worker,
                kwargs=dict(
                    connect=coordinator.address, poll_s=0.02, max_idle_s=5.0
                ),
                daemon=True,
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        executor = NetExecutor(
            coordinator.address, drain=False, timeout_s=120.0
        )
        report = pipeline.analyze_archive(archive_dir, executor=executor)
        reference = pipeline.analyze_archive(archive_dir, workers=1)
        assert report.to_dict() == reference.to_dict()
        # Idle the workers out rather than draining: the module-scoped
        # coordinator must survive for later net-backend runs.
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()


class TestBackendSelection:
    def test_resolve_executor_names(self, tmp_path):
        assert resolve_executor(None) is None
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        pool = resolve_executor("pool", workers=3)
        assert isinstance(pool, PoolExecutor) and pool.workers == 3
        queue = resolve_executor("queue", queue_dir=tmp_path / "q")
        assert isinstance(queue, WorkQueueExecutor)
        assert queue.coordinator_drains and queue.timeout_s is None
        strict = resolve_executor(
            "queue", queue_dir=tmp_path / "q", queue_drain=False
        )
        # No self-drain means no progress guarantee: a timeout replaces
        # the wait-forever default so a worker-less queue errors out.
        assert not strict.coordinator_drains and strict.timeout_s is not None
        net = resolve_executor("net", connect="127.0.0.1:7341")
        assert isinstance(net, NetExecutor)
        assert net.drain and net.timeout_s is None
        strict_net = resolve_executor(
            "net", connect="127.0.0.1:7341", queue_drain=False
        )
        assert not strict_net.drain and strict_net.timeout_s is not None
        passthrough = SerialExecutor()
        assert resolve_executor(passthrough) is passthrough

    def test_resolve_executor_rejects_bad_input(self, tmp_path):
        with pytest.raises(DetectorError):
            resolve_executor("queue")  # no queue dir
        with pytest.raises(DetectorError):
            resolve_executor("net")  # no coordinator address
        with pytest.raises(DetectorError, match="serial, pool, queue or net"):
            resolve_executor("carrier-pigeon")

    def test_queue_rejects_baseline_specs(
        self, ids_config, catalog, archive_dir, tmp_path
    ):
        """A fitted baseline object is picklable, not portable: the
        queue backend must refuse instead of half-working."""
        clean = record_template_windows(6, 2.0, seed=21, catalog=catalog)
        baseline = FrequencyIDS(window_us=ids_config.window_us).fit(clean)
        executor = WorkQueueExecutor(tmp_path / "q")
        with pytest.raises(DetectorError, match="work.queue"):
            executor.run(
                BaselineScanSpec(baseline), CaptureArchive(archive_dir).paths
            )

    def test_baseline_parity_serial_vs_pool(
        self, ids_config, catalog, archive_dir
    ):
        clean = record_template_windows(6, 2.0, seed=21, catalog=catalog)
        baseline = FrequencyIDS(window_us=ids_config.window_us).fit(clean)
        paths = CaptureArchive(archive_dir).paths
        spec = BaselineScanSpec(baseline)
        serial = SerialExecutor().run(spec, paths)
        pooled = PoolExecutor(workers=2).run(spec, paths)
        assert serial == pooled

    def test_entropy_spec_payload_round_trip(self, golden_template, ids_config):
        from repro.runtime import spec_from_payload

        spec = EntropyScanSpec(golden_template, ids_config)
        rebuilt = spec_from_payload(spec.to_payload())
        assert rebuilt.to_payload() == spec.to_payload()
        assert rebuilt.config.window_us == ids_config.window_us
