"""Protocol-layer coverage: codecs, leases, claimant and collector.

The transports (filesystem queue, TCP fabric) have their own suites;
this one pins down the transport-neutral rules they share — wire
format versioning, the claim lease, the shared claimant
(``execute_task``) and the coordinator-side ``ResultCollector`` whose
error rule decides when a scan degrades locally versus fails.
"""

import base64
import json

import numpy as np
import pytest

from repro.baselines import FrequencyIDS
from repro.core.kernel import WindowBlock
from repro.exceptions import DetectorError
from repro.runtime import (
    BaselineScanSpec,
    EntropyScanSpec,
    ResultCollector,
    TaskFormatError,
    TaskMessage,
    TaskResult,
    execute_task,
    make_tasks,
    new_job_id,
    require_portable,
)
from repro.runtime.base import RESULT_VERSION
from repro.runtime.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    ClaimToken,
)
from repro.vehicle.traffic import simulate_drive


@pytest.fixture()
def spec(golden_template, ids_config):
    return EntropyScanSpec(golden_template, ids_config)


@pytest.fixture()
def capture_path(tmp_path, catalog):
    from repro.io import write_candump

    path = tmp_path / "drive.log"
    write_candump(simulate_drive(5.0, seed=31, catalog=catalog), path)
    return path


class TestCodecs:
    def test_task_round_trips(self, spec):
        task = TaskMessage("abc123", 4, "/data/cap.log", spec.to_payload())
        assert task.name == "abc123-000004"
        assert TaskMessage.from_wire(task.to_wire()) == task
        assert task.to_wire()["version"] == PROTOCOL_VERSION

    def test_result_round_trips(self):
        ok = TaskResult("abc123", 1, result=[{"w": 1}])
        err = TaskResult("abc123", 2, error="boom")
        assert TaskResult.from_wire(ok.to_wire()) == ok and ok.ok
        assert TaskResult.from_wire(err.to_wire()) == err and not err.ok

    def test_future_version_rejected(self, spec):
        wire = TaskMessage("j", 0, "p", spec.to_payload()).to_wire()
        wire["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(TaskFormatError):
            TaskMessage.from_wire(wire)
        wire = TaskResult("j", 0, result=[]).to_wire()
        wire["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(TaskFormatError):
            TaskResult.from_wire(wire)

    def test_result_needs_result_or_error(self):
        with pytest.raises(TaskFormatError):
            TaskResult.from_wire({"version": PROTOCOL_VERSION,
                                  "job": "j", "index": 0})

    def test_garbage_rejected_with_diagnostic(self):
        with pytest.raises(TaskFormatError, match="malformed"):
            TaskMessage.from_wire({"torn": True})

    def test_make_tasks_enumerates_one_job(self, spec):
        tasks = make_tasks(spec, ["a.log", "b.log"], job="feedface")
        assert [t.index for t in tasks] == [0, 1]
        assert {t.job for t in tasks} == {"feedface"}
        assert tasks[0].spec == tasks[1].spec == spec.to_payload()

    def test_job_ids_unique(self):
        assert new_job_id() != new_job_id()

    def test_baseline_specs_are_not_portable(self, catalog):
        baseline = FrequencyIDS()
        baseline.fit(
            [simulate_drive(2.0, seed=s, catalog=catalog) for s in (1, 2)]
        )
        with pytest.raises(DetectorError, match="work queue"):
            require_portable(BaselineScanSpec(baseline))


class TestClaimToken:
    def test_lease_expires_and_renews(self, spec):
        task = TaskMessage("j", 0, "p", spec.to_payload())
        token = ClaimToken(task, "worker-a", claimed_at=100.0, lease_s=30.0)
        assert not token.expired(129.0)
        assert token.expired(131.0)
        token.renew(131.0)
        assert not token.expired(160.0)


class TestExecuteTask:
    def test_result_matches_direct_scan(self, spec, capture_path):
        task = make_tasks(spec, [str(capture_path)])[0]
        outcome = execute_task(task)
        assert outcome.ok and (outcome.job, outcome.index) == (task.job, 0)
        direct = spec.make_scanner()(str(capture_path))
        assert outcome.result == spec.encode_result(direct)

    def test_scanner_cache_shared_across_tasks(self, spec, capture_path):
        scanners = {}
        for task in make_tasks(spec, [str(capture_path)] * 2):
            assert execute_task(task, scanners).ok
        assert len(scanners) == 1  # one spec payload, one built engine

    def test_failure_becomes_error_result(self, spec, tmp_path):
        task = make_tasks(spec, [str(tmp_path / "missing.log")])[0]
        outcome = execute_task(task)
        assert not outcome.ok and "missing.log" in outcome.error


class TestResultCollector:
    def test_out_of_order_results_come_back_in_input_order(
        self, spec, capture_path
    ):
        paths = [str(capture_path)] * 3
        tasks = make_tasks(spec, paths)
        collector = ResultCollector(spec, paths, tasks[0].job)
        for task in reversed(tasks):
            assert collector.offer(execute_task(task))
        assert collector.done
        direct = spec.make_scanner()(str(capture_path))
        for got in collector.results():
            assert [w.to_dict() for w in got] == [w.to_dict() for w in direct]

    def test_duplicates_and_foreign_jobs_ignored(self, spec, capture_path):
        paths = [str(capture_path)]
        task = make_tasks(spec, paths)[0]
        collector = ResultCollector(spec, paths, task.job)
        outcome = execute_task(task)
        assert collector.offer(outcome)
        assert not collector.offer(outcome)  # duplicate (re-posted task)
        foreign = TaskResult("other-job", 0, result=outcome.result)
        assert not collector.offer(foreign)
        bogus = TaskResult(task.job, 99, result=outcome.result)
        assert not collector.offer(bogus)  # index out of range

    def test_error_result_retries_locally_by_default(
        self, spec, capture_path
    ):
        paths = [str(capture_path)]
        job = new_job_id()
        collector = ResultCollector(spec, paths, job)
        assert collector.offer(TaskResult(job, 0, error="remote mount lost"))
        direct = spec.make_scanner()(str(capture_path))
        got = collector.results()[0]
        assert [w.to_dict() for w in got] == [w.to_dict() for w in direct]

    def test_error_result_raises_without_local_retry(
        self, spec, capture_path
    ):
        job = new_job_id()
        collector = ResultCollector(
            spec, [str(capture_path)], job, local_retry=False
        )
        with pytest.raises(DetectorError, match="remote mount lost"):
            collector.offer(TaskResult(job, 0, error="remote mount lost"))

    def test_local_retry_surfaces_the_true_local_exception(
        self, spec, tmp_path
    ):
        job = new_job_id()
        missing = str(tmp_path / "gone.log")
        collector = ResultCollector(spec, [missing], job)
        with pytest.raises(Exception, match="gone.log"):
            collector.offer(TaskResult(job, 0, error="worker io fault"))

    def test_incomplete_results_raise(self, spec, capture_path):
        collector = ResultCollector(
            spec, [str(capture_path)] * 2, new_job_id()
        )
        assert collector.pending_indices() == [0, 1]
        with pytest.raises(DetectorError, match="outstanding"):
            collector.results()


def _window(index, judged=True, n_bits=11, fill=0.25):
    from repro.core.detector import WindowResult

    deviations = np.full(n_bits, fill)
    deviations[0] = -0.0  # the sign of zero must survive the wire
    deviations[1] = 5e-324  # and the smallest subnormal
    return WindowResult(
        index=index,
        t_start_us=2_000_000 * index - 7,
        t_end_us=2_000_000 * index - 7 + 2_000_000,
        n_messages=1000 + index,
        n_attack_messages=index,
        probabilities=np.linspace(0.0, 1.0, n_bits),
        entropy=np.linspace(1.0, 0.0, n_bits) / 3.0,
        deviations=deviations,
        violated=np.arange(n_bits) % 3 == index % 3,
        judged=judged,
    )


class TestColumnarResultCodec:
    """``EntropyScanSpec``'s result codec: one little-endian array per
    ``WindowBlock`` field, bit-exact, and strict on decode."""

    FIELDS = (
        "index", "t_start_us", "t_end_us", "n_messages",
        "n_attack_messages", "judged",
    )
    ARRAYS = ("probabilities", "entropy", "deviations", "violated")

    @staticmethod
    def block(spec, windows):
        return WindowBlock.from_results(
            windows, spec.config.n_bits, spec.config.window_us
        )

    def assert_bit_identical(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for name in self.FIELDS:
                assert getattr(g, name) == getattr(w, name), name
                assert type(getattr(g, name)) is type(getattr(w, name)), name
            for name in self.ARRAYS:
                a, b = getattr(g, name), getattr(w, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_every_field_round_trips_bit_exactly(self, spec):
        windows = [_window(i, judged=i != 2) for i in range(5)]
        payload = spec.encode_result(self.block(spec, windows))
        assert payload["version"] == RESULT_VERSION
        got = spec.decode_result(json.loads(json.dumps(payload)))
        self.assert_bit_identical(got, windows)
        assert np.signbit(got.result(0).deviations[0])

    def test_real_scan_round_trips_bit_exactly(self, spec, capture_path):
        direct = spec.make_scanner()(str(capture_path))
        assert direct
        got = spec.decode_result(spec.encode_result(direct))
        self.assert_bit_identical(got, direct)

    def test_zero_window_result_round_trips(self, spec):
        payload = spec.encode_result(self.block(spec, []))
        assert payload["windows"] == 0
        assert len(spec.decode_result(payload)) == 0

    def test_payload_is_smaller_than_per_window_dicts(self, spec, capture_path):
        direct = spec.make_scanner()(str(capture_path))
        columnar = len(json.dumps(spec.encode_result(direct)))
        per_window = len(json.dumps([w.to_dict() for w in direct]))
        assert per_window >= 2 * columnar

    def test_a_day_of_windows_fits_the_message_ceiling(self, spec):
        """24 h of the default 2 s windows, as one result line."""
        day = [_window(i) for i in range(24 * 3600 // 2)]
        payload = spec.encode_result(self.block(spec, day))
        outcome = TaskResult("j", 0, result=payload)
        line = json.dumps({"type": "result", "outcome": outcome.to_wire()})
        assert len(line) < MAX_MESSAGE_BYTES / 2

    def test_windows_of_another_length_are_not_encoded(self, spec):
        import dataclasses

        window = _window(0)
        window = dataclasses.replace(window, t_end_us=window.t_end_us + 1)
        with pytest.raises(DetectorError, match="long"):
            self.block(spec, [window])

    def test_rows_of_another_width_are_not_encoded(self, spec):
        with pytest.raises(DetectorError, match="shape"):
            self.block(spec, [_window(0, n_bits=29)])

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda p: p.update(probabilities="!!not base64!!"),
             "probabilities is not base64"),
            (lambda p: p.update(entropy=base64.b64encode(
                base64.b64decode(p["entropy"])[:-8]).decode()), "entropy holds"),
            (lambda p: p.update(index=base64.b64encode(
                base64.b64decode(p["index"]) + bytes(8)).decode()), "index holds"),
            (lambda p: p.pop("deviations"), "no deviations field"),
            (lambda p: p.update(windows=p["windows"] + 1), "holds"),
            (lambda p: p.update(windows=-1), "window count"),
            (lambda p: p.update(windows="3"), "window count"),
            (lambda p: p.update(version=RESULT_VERSION + 1), "result version"),
            (lambda p: p.pop("version"), "result version None"),
            (lambda p: p.update(violated=base64.b64encode(
                b"\x02" + base64.b64decode(p["violated"])[1:]).decode()),
             "other than 0 and 1"),
        ],
        ids=[
            "bad-base64", "short-per-bit-array", "long-array",
            "missing-field", "wrong-window-count", "negative-count",
            "string-count", "unknown-version", "no-version", "non-bool-byte",
        ],
    )
    def test_malformed_payload_refused(self, spec, tamper, message):
        windows = [_window(i) for i in range(3)]
        payload = spec.encode_result(self.block(spec, windows))
        tamper(payload)
        with pytest.raises(TaskFormatError, match=message):
            spec.decode_result(payload)

    def test_per_window_payload_refused_by_name(self, spec):
        old = [_window(i).to_dict() for i in range(3)]
        with pytest.raises(TaskFormatError, match="columnar result version 2"):
            spec.decode_result(old)

    def test_undecodable_result_is_an_error_result(self, spec, capture_path):
        """The collector never takes a payload it cannot decode: it is
        retried locally, or raised without local retry."""
        paths = [str(capture_path)]
        job = new_job_id()
        old = [w.to_dict() for w in spec.make_scanner()(paths[0])]
        strict = ResultCollector(spec, paths, job, local_retry=False)
        with pytest.raises(DetectorError, match="columnar result version"):
            strict.offer(TaskResult(job, 0, result=old))
        collector = ResultCollector(spec, paths, job)
        assert collector.offer(TaskResult(job, 0, result=old))
        direct = spec.make_scanner()(paths[0])
        self.assert_bit_identical(collector.results()[0], direct)
