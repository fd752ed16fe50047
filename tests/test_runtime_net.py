"""The TCP scan fabric: coordinator, network workers, crash recovery.

The headline acceptance test lives at the bottom: a real coordinator,
two ``repro-ids worker --connect`` *subprocesses*, and a SIGKILL of a
worker mid-scan — the dead worker's tasks must be re-posted and the
final report must still be bit-identical to a serial scan.
"""

import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import IDSPipeline
from repro.exceptions import DetectorError
from repro.io import CaptureArchive
from repro.runtime import (
    PROTOCOL_VERSION,
    EntropyScanSpec,
    NetExecutor,
    ServerThread,
    TaskMessage,
    TaskResult,
    net,
    run_net_worker,
)
from repro.runtime.net import _Connection, parse_address
from repro.vehicle.traffic import generate_drive_columns, simulate_drive

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory, catalog):
    """Six captures: enough runway to kill a worker mid-scan."""
    directory = tmp_path_factory.mktemp("net-archive")
    archive = CaptureArchive(directory)
    for i in range(6):
        archive.write_capture(
            f"cap{i}.log", simulate_drive(6.0, seed=90 + i, catalog=catalog)
        )
    return directory


@pytest.fixture()
def pipeline(golden_template, ids_config, catalog):
    return IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)


@pytest.fixture(scope="module")
def reference(golden_template, ids_config, catalog, archive_dir):
    pipeline = IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)
    return pipeline.analyze_archive(archive_dir, workers=1).to_dict()


def wait_until(predicate, timeout_s=30.0, poll_s=0.002):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


class TestAddressParsing:
    def test_host_port_split(self):
        assert parse_address("10.0.0.7:7341") == ("10.0.0.7", 7341)

    def test_bad_addresses_rejected(self):
        for bad in ("7341", "host:", "host:web", ":7341"):
            with pytest.raises(DetectorError):
                parse_address(bad)


class TestCoordinator:
    def test_refused_connection_is_a_clean_error(
        self, golden_template, ids_config, archive_dir
    ):
        from repro.runtime import EntropyScanSpec

        # Grab (then free) an ephemeral port nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        spec = EntropyScanSpec(golden_template, ids_config)
        path = str(sorted(archive_dir.glob("*.log"))[0])
        with pytest.raises(DetectorError, match="repro-ids serve"):
            NetExecutor(f"127.0.0.1:{port}").run(spec, [path])

    def test_self_drain_matches_serial(self, pipeline, archive_dir, reference):
        """Zero workers: the coordinator degrades to a local scan."""
        with ServerThread() as st:
            report = pipeline.analyze_archive(
                archive_dir, executor=NetExecutor(st.address)
            )
        assert report.to_dict() == reference

    def test_no_drain_times_out_without_workers(self, pipeline, archive_dir):
        with ServerThread() as st:
            executor = NetExecutor(
                st.address, drain=False, timeout_s=0.5, poll_s=0.02
            )
            with pytest.raises(DetectorError, match="no progress"):
                pipeline.analyze_archive(archive_dir, executor=executor)

    def test_worker_threads_serve_the_scan(
        self, pipeline, archive_dir, reference
    ):
        """drain=False: completion *proves* network workers did the work."""
        with ServerThread() as st:
            threads = [
                threading.Thread(
                    target=run_net_worker,
                    kwargs=dict(
                        connect=st.address, poll_s=0.02, max_idle_s=60.0
                    ),
                    daemon=True,
                )
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            report = pipeline.analyze_archive(
                archive_dir,
                executor=NetExecutor(st.address, drain=False, timeout_s=120.0),
            )
            st.drain()  # releases the idle workers
            for t in threads:
                t.join(timeout=60)
        assert report.to_dict() == reference

    def test_drain_request_stops_idle_workers(self):
        with ServerThread() as st:
            box = {}
            t = threading.Thread(
                target=lambda: box.update(
                    stats=run_net_worker(
                        st.address, poll_s=0.01, max_idle_s=30.0
                    )
                ),
                daemon=True,
            )
            t.start()
            assert wait_until(
                lambda: len(st.server.snapshot()["workers"]) == 1
            )
            st.drain()
            t.join(timeout=30)
            assert not t.is_alive()
        stats = box["stats"]
        # The worker may catch the explicit drain reply or (when the
        # drained server exits between its polls) the closed socket —
        # both are a clean stop with zero tasks executed.
        assert stats.stop_reason in ("coordinator drained", "coordinator gone")
        assert stats.executed == 0

    def test_disconnect_reposts_claimed_tasks(
        self, golden_template, ids_config, archive_dir
    ):
        """The deterministic core of crash recovery: claim a task over a
        raw connection, vanish without publishing, and watch the server
        re-post it the moment the socket drops."""
        from repro.runtime import EntropyScanSpec

        spec = EntropyScanSpec(golden_template, ids_config)
        path = str(sorted(archive_dir.glob("*.log"))[0])
        with ServerThread() as st:
            host, port = st.server.host, st.server.port
            submit = _Connection(host, port, "submit")
            submit.send({"type": "submit", "job": "deadbeef0001",
                         "spec": spec.to_payload(), "paths": [path]})
            assert submit.recv(timeout=10)["type"] == "submitted"

            doomed = _Connection(host, port, "worker", name="doomed")
            doomed.send({"type": "next"})
            reply = doomed.recv(timeout=10)
            assert reply["type"] == "task"

            def job_state():
                return st.server.snapshot()["jobs"].get("deadbeef0001", {})

            assert job_state()["claimed"] == {0: "doomed"}
            doomed.close()  # SIGKILL as seen from the server's side
            assert wait_until(lambda: job_state().get("pending") == 1)
            assert job_state()["claimed"] == {}

            # A healthy worker now finishes the re-posted task and the
            # submitter still gets its result.
            stats_box = {}
            t = threading.Thread(
                target=lambda: stats_box.update(
                    stats=run_net_worker(
                        st.address, poll_s=0.01, max_idle_s=20.0
                    )
                ),
                daemon=True,
            )
            t.start()
            pushed = submit.recv(timeout=60)
            assert pushed["type"] == "result"
            assert pushed["outcome"]["index"] == 0
            assert "result" in pushed["outcome"]
            submit.close()
            st.drain()
            t.join(timeout=60)
            assert stats_box["stats"].executed == 1

    def test_lease_expiry_reposts_silent_claims(
        self, golden_template, ids_config, archive_dir
    ):
        """The backstop for half-open sockets: a connected-but-silent
        worker loses its claim after the lease runs out."""
        from repro.runtime import EntropyScanSpec

        spec = EntropyScanSpec(golden_template, ids_config)
        path = str(sorted(archive_dir.glob("*.log"))[0])
        with ServerThread(lease_s=0.2) as st:
            submit = _Connection(st.server.host, st.server.port, "submit")
            submit.send({"type": "submit", "job": "deadbeef0002",
                         "spec": spec.to_payload(), "paths": [path]})
            assert submit.recv(timeout=10)["type"] == "submitted"
            silent = _Connection(
                st.server.host, st.server.port, "worker", name="silent"
            )
            silent.send({"type": "next"})
            assert silent.recv(timeout=10)["type"] == "task"
            # No result, no renew: the reaper must take the claim back.
            assert wait_until(
                lambda: st.server.snapshot()["jobs"]
                .get("deadbeef0002", {}).get("pending") == 1,
                timeout_s=10.0,
            )
            silent.close()
            submit.close()


def write_drives(directory, catalog, names, duration_s, seed=0):
    """Fast vectorised drives (no bus simulation) as ``.npb`` captures."""
    directory.mkdir(parents=True, exist_ok=True)
    archive = CaptureArchive(directory)
    for i, name in enumerate(names):
        archive.write_capture(
            name,
            generate_drive_columns(duration_s, seed=seed + i, catalog=catalog),
        )
    return directory


@contextlib.contextmanager
def raw_peer(st, version=PROTOCOL_VERSION, role="status"):
    """A bare socket past its hello: (socket, line reader, reply)."""
    address = (st.server.host, st.server.port)
    hello = {"version": version, "type": "hello", "role": role, "name": "raw"}
    with socket.create_connection(address, 10) as sock, \
            sock.makefile("rb") as lines:
        sock.sendall(json.dumps(hello).encode("ascii") + b"\n")
        yield sock, lines, json.loads(lines.readline())


class TestLongCaptures:
    """A 600 s drive (300 windows) returns over net, bit-identical,
    within a bounded ``timeout_s``: its ~120 KB result line is far
    longer than any short capture's."""

    @pytest.fixture(scope="class")
    def long_dir(self, tmp_path_factory, catalog):
        return write_drives(
            tmp_path_factory.mktemp("net-long"), catalog, ["long.npb"], 600.0,
            seed=97,
        )

    @pytest.fixture(scope="class")
    def long_reference(self, golden_template, ids_config, catalog, long_dir):
        pipeline = IDSPipeline(golden_template, ids_config, id_pool=catalog.ids)
        report = pipeline.analyze_archive(long_dir, workers=1).to_dict()
        assert len(report["captures"][0]["report"]["windows"]) >= 300
        return report

    def test_worker_returns_a_long_capture(
        self, pipeline, long_dir, long_reference
    ):
        with ServerThread() as st:
            worker = threading.Thread(
                target=run_net_worker,
                kwargs=dict(connect=st.address, poll_s=0.01, max_idle_s=60.0),
                daemon=True,
            )
            worker.start()
            report = pipeline.analyze_archive(
                long_dir,
                executor=NetExecutor(st.address, drain=False, timeout_s=30.0),
            )
            st.drain()
            worker.join(timeout=60)
        assert report.to_dict() == long_reference

    def test_drain_returns_a_long_capture(
        self, pipeline, long_dir, long_reference
    ):
        with ServerThread() as st:
            report = pipeline.analyze_archive(
                long_dir, executor=NetExecutor(st.address, timeout_s=30.0)
            )
        assert report.to_dict() == long_reference


class TestWaitFreeDrain:
    def test_drain_never_waits_out_poll_s(
        self, pipeline, archive_dir, reference
    ):
        """No workers, ``poll_s=5``: the executor drains task after task
        and only polls once the coordinator has nothing left to hand
        out, so six captures finish well inside one poll."""
        with ServerThread() as st:
            started = time.monotonic()
            report = pipeline.analyze_archive(
                archive_dir,
                executor=NetExecutor(st.address, poll_s=5.0, timeout_s=60.0),
            )
            elapsed = time.monotonic() - started
        assert report.to_dict() == reference
        assert elapsed < 2.5

    def test_self_drained_results_are_not_pushed_back(
        self, pipeline, tmp_path, catalog
    ):
        """The submitter already holds what its drain uploaded, so the
        coordinator pushes none of it back: a drain-only job's
        ``bytes_out`` is the same for 2-window and 30-window results,
        while its ``bytes_in`` carries each result once."""
        names = [f"d{i}.npb" for i in range(4)]
        short = write_drives(tmp_path / "a", catalog, names, 4.0)
        long = write_drives(tmp_path / "b", catalog, names, 60.0)
        with ServerThread() as st:
            deltas = []
            for directory in (short, long):
                before = st.server.stats()["wire"]
                pipeline.analyze_archive(
                    directory, executor=NetExecutor(st.address, timeout_s=60.0)
                )
                after = st.server.stats()["wire"]
                deltas.append({k: after[k] - before[k] for k in after})
        assert deltas[1]["bytes_out"] == deltas[0]["bytes_out"]
        assert deltas[1]["bytes_in"] - deltas[0]["bytes_in"] > 4 * 10_000

    def test_recv_zero_timeout_reads_a_waiting_message(self):
        with ServerThread() as st:
            conn = _Connection(st.server.host, st.server.port, "status")
            try:
                conn.send({"type": "ping"})
                assert wait_until(
                    lambda: select.select([conn._sock], [], [], 0)[0],
                    timeout_s=10.0,
                )
                assert conn.recv(timeout=0) == {"type": "pong"}
                assert conn.recv(timeout=0) is None
            finally:
                conn.close()


class TestMessageCeiling:
    """``MAX_MESSAGE_BYTES`` bounds every line both ways; these tests
    shrink it so a few-KB message crosses it."""

    @pytest.fixture()
    def ceiling(self, monkeypatch):
        monkeypatch.setattr(net, "MAX_MESSAGE_BYTES", 8192)
        return 8192

    def test_coordinator_refuses_an_oversize_line(self, ceiling):
        lines = []
        with ServerThread(log=lines.append) as st:
            with raw_peer(st) as (sock, replies, welcome):
                assert welcome["type"] == "welcome"
                pad = {"type": "ping", "pad": "x" * (3 * ceiling)}
                sock.sendall(json.dumps(pad).encode("ascii") + b"\n")
                sock.sendall(b'{"type": "ping"}\n')
                refused = json.loads(replies.readline())
                assert refused["type"] == "error"
                assert f"{ceiling} B fabric message ceiling" in refused["error"]
                # The rest of the line was skipped; the stream goes on.
                assert json.loads(replies.readline()) == {"type": "pong"}
        assert any("ceiling" in line for line in lines)

    def test_client_refuses_an_oversize_line(self, ceiling):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        done = threading.Event()

        def fake_coordinator():
            peer, _ = listener.accept()
            with peer:
                peer.makefile("rb").readline()  # hello
                peer.sendall(b'{"type": "welcome", "lease_s": 30.0}\n')
                peer.sendall(b"x" * (2 * ceiling))
                done.wait(30)

        thread = threading.Thread(target=fake_coordinator, daemon=True)
        thread.start()
        conn = _Connection("127.0.0.1", port, "status")
        try:
            with pytest.raises(DetectorError, match="message ceiling"):
                conn.recv(timeout=10)
        finally:
            done.set()
            conn.close()
            thread.join(timeout=30)
            listener.close()

    def test_oversize_result_is_a_named_error_without_drain(
        self, ceiling, pipeline, tmp_path, catalog
    ):
        big = write_drives(tmp_path, catalog, ["big.npb"], 60.0)
        with ServerThread() as st:
            worker = threading.Thread(
                target=run_net_worker,
                kwargs=dict(connect=st.address, poll_s=0.01, max_idle_s=60.0),
                daemon=True,
            )
            worker.start()
            with pytest.raises(DetectorError, match="B fabric message ceiling"):
                pipeline.analyze_archive(
                    big,
                    executor=NetExecutor(
                        st.address, drain=False, timeout_s=30.0
                    ),
                )
            st.drain()
            worker.join(timeout=60)

    def test_oversize_result_is_retried_locally_with_drain(
        self, ceiling, pipeline, tmp_path, catalog
    ):
        big = write_drives(tmp_path, catalog, ["b0.npb", "b1.npb"], 60.0)
        reference = pipeline.analyze_archive(big, workers=1).to_dict()
        with ServerThread() as st:
            worker = threading.Thread(
                target=run_net_worker,
                kwargs=dict(connect=st.address, poll_s=0.01, max_idle_s=60.0),
                daemon=True,
            )
            worker.start()
            report = pipeline.analyze_archive(
                big, executor=NetExecutor(st.address, timeout_s=30.0)
            )
            st.drain()
            worker.join(timeout=60)
        assert report.to_dict() == reference


class TestVersionSkew:
    def test_old_protocol_version_refused_by_name(self):
        with ServerThread() as st:
            with raw_peer(st, version=PROTOCOL_VERSION - 1) as (_, _, reply):
                pass
        assert reply["type"] == "error"
        assert (
            f"fabric protocol version {PROTOCOL_VERSION - 1} is not "
            f"supported" in reply["error"]
        )

    def test_per_window_result_refused_by_name(
        self, golden_template, ids_config, archive_dir
    ):
        """A peer uploading the old per-window dict payload: the
        submitter names the result version instead of decoding it."""
        spec = EntropyScanSpec(golden_template, ids_config)
        path = str(sorted(archive_dir.glob("*.log"))[0])
        box = {}

        def scan():
            try:
                NetExecutor(st.address, drain=False, timeout_s=30.0).run(
                    spec, [path]
                )
            except DetectorError as exc:
                box["error"] = str(exc)

        with ServerThread() as st:
            submitter = threading.Thread(target=scan, daemon=True)
            submitter.start()
            old = _Connection(st.server.host, st.server.port, "worker")
            try:
                reply = {}

                def claimed():
                    old.send({"type": "next"})
                    reply.update(old.recv(timeout=10))
                    return reply.get("type") == "task"

                assert wait_until(claimed, poll_s=0.01)
                task = TaskMessage.from_wire(reply["task"])
                windows = spec.make_scanner()(task.path)
                old.publish(
                    TaskResult(
                        task.job, task.index,
                        result=[w.to_dict() for w in windows],
                    )
                )
                submitter.join(timeout=30)
            finally:
                old.close()
        assert "columnar result version 2" in box["error"]


def spawn_cli_worker(address, log_path):
    """A real ``repro-ids worker --connect`` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    handle = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", address, "--poll", "0.01", "--max-idle", "120"],
        stdout=handle, stderr=subprocess.STDOUT, env=env,
    )
    proc._log_handle = handle  # closed by the caller after wait()
    return proc


class TestSubprocessWorkers:
    def test_two_cli_workers_serve_a_net_scan(
        self, pipeline, archive_dir, reference, tmp_path
    ):
        """End to end over real process boundaries: two CLI workers, a
        no-drain coordinator, bit-identical report."""
        with ServerThread() as st:
            workers = [
                spawn_cli_worker(st.address, tmp_path / f"w{i}.log")
                for i in range(2)
            ]
            try:
                assert wait_until(
                    lambda: len(st.server.snapshot()["workers"]) >= 2,
                    timeout_s=60.0, poll_s=0.05,
                )
                report = pipeline.analyze_archive(
                    archive_dir,
                    executor=NetExecutor(
                        st.address, drain=False, timeout_s=180.0
                    ),
                )
            finally:
                st.drain()
                for proc in workers:
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                    proc._log_handle.close()
        assert report.to_dict() == reference
        executed = sum(
            (tmp_path / f"w{i}.log").read_text().count("worker: executed")
            for i in range(2)
        )
        assert executed >= len(list(archive_dir.glob("*.log")))

    def test_sigkill_mid_scan_still_bit_identical(
        self, pipeline, archive_dir, reference, tmp_path
    ):
        """The acceptance criterion: SIGKILL a worker while it holds a
        claim; its tasks are re-posted and the report is unchanged."""
        log_lines = []
        with ServerThread(log=log_lines.append) as st:
            workers = [
                spawn_cli_worker(st.address, tmp_path / f"k{i}.log")
                for i in range(2)
            ]
            try:
                assert wait_until(
                    lambda: len(st.server.snapshot()["workers"]) >= 2,
                    timeout_s=60.0, poll_s=0.05,
                )
                box = {}

                def scan():
                    box["report"] = pipeline.analyze_archive(
                        archive_dir,
                        executor=NetExecutor(
                            st.address, drain=False, timeout_s=180.0
                        ),
                    )

                scanner = threading.Thread(target=scan, daemon=True)
                scanner.start()

                # Catch any worker red-handed: holding a live claim.
                doomed_pid = None

                def find_victim():
                    nonlocal doomed_pid
                    for job in st.server.snapshot()["jobs"].values():
                        for claimant in job["claimed"].values():
                            doomed_pid = int(claimant.rsplit(":", 1)[1])
                            return True
                    return False

                assert wait_until(find_victim, timeout_s=60.0)
                os.kill(doomed_pid, signal.SIGKILL)
                scanner.join(timeout=180)
                assert not scanner.is_alive()
            finally:
                st.drain()
                for proc in workers:
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                    proc._log_handle.close()
        assert any(proc.returncode == -signal.SIGKILL for proc in workers)
        assert box["report"].to_dict() == reference
        assert any("reposted task" in line for line in log_lines)
