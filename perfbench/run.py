#!/usr/bin/env python3
"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload text-scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --self-check                 # the machinery

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The
exit code is non-zero when any op or reference check failed.  All files
the run writes stay under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A run that has not finished by then stops with an error, no result.
RUN_LIMIT_S = 170

# The load budget counts native threads: keep numeric libraries to one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class RunTimeout(Exception):
    """The run outlived :data:`RUN_LIMIT_S`."""


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S}s")


def workload_names():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in definition["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the benchmark's own machinery and exit")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def run_all(args) -> int:
    """Every workload, one process each, one after the other."""
    status = 0
    for name in workload_names():
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = subprocess.run(command, cwd=ROOT).returncode
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        from perfbench import selfcheck

        if args.self_check:
            return selfcheck.main(ROOT)
        selfcheck.definition(ROOT)
        selfcheck.span_arithmetic()
        from perfbench import measure

        return measure.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report, no result line
        traceback.print_exc()
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
