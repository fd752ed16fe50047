"""Runtime executor benchmark: serial vs pool vs work queue vs net.

Sizes the four execution backends over dozens of generated
vehicle-drives and appends the table to ``results/throughput.txt``.
Parity (bit-identical reports across backends) is asserted always;
the pool-vs-serial assertion is gated on a second core *measured* in
the same test (a two-process CPU burn: effective parallelism >= 1.5).
``os.cpu_count()`` is not enough — a CI container or a shared host may
report two CPUs and deliver one, where a pool cannot win and the
queue/net JSON transports are pure overhead, so such a run checks
correctness only.
"""

import os

from conftest import append_artifact, append_bench, measured_parallelism
from repro.experiments import runtime as runtime_experiment

#: Sizing knobs (kept modest by default; scale up via the environment
#: for fleet-regime measurements).
RUNTIME_CAPTURES = int(os.environ.get("REPRO_BENCH_RUNTIME_CAPTURES", "24"))
RUNTIME_FRAMES = int(os.environ.get("REPRO_BENCH_RUNTIME_FRAMES", "12000"))


class TestRuntimeExecutors:
    def test_bench_executor_backends(self, setup):
        result = runtime_experiment.run(
            setup.template,
            setup.config,
            n_captures=RUNTIME_CAPTURES,
            frames_per_capture=RUNTIME_FRAMES,
            catalog=setup.catalog,
        )
        append_artifact("throughput", result.render())
        append_bench("throughput", result.bench_records())
        # Bit-identical reports are the runtime layer's headline
        # guarantee — a perf number without it is meaningless.
        assert result.parity_ok, result.render()
        assert result.total_frames == RUNTIME_CAPTURES * RUNTIME_FRAMES
        # Every backend actually ran (a zero timing means a scan was
        # skipped, which would make the parity assertion vacuous).
        assert min(
            result.serial_s,
            result.pool_s,
            result.queue_drained_s,
            result.queue_served_s,
            result.net_served_s,
        ) > 0, result.render()
        parallelism = measured_parallelism()
        print(f"measured two-process parallelism: {parallelism:.2f}")
        if parallelism >= 1.5:
            # With real cores the pool must at least roughly keep up
            # with serial (it usually wins; allow scheduling noise).
            assert result.pool_s < result.serial_s * 1.5, (
                f"{result.render()}\nmeasured parallelism {parallelism:.2f}"
            )
