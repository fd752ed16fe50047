"""Shared fixtures for the benchmark harness.

The experiment setup (catalog + golden template) is built once per
session; every benchmark then runs its attack campaign against the same
trained IDS, exactly like the paper's evaluation flow.

Environment knobs:

* ``REPRO_BENCH_SEEDS`` — comma-separated seeds per scenario run
  (default ``1,2``); more seeds -> smoother numbers, longer runtime.

Every regenerated table/figure is also written to ``results/<name>.txt``
at the repository root, so the artifacts survive pytest's output capture
(run with ``-s`` to see them inline).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import IDSConfig
from repro.experiments import build_setup

#: Where regenerated paper artifacts are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def save_artifact(name: str, text: str) -> Path:
    """Persist a rendered table/figure under results/ and return the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def append_artifact(name: str, text: str) -> Path:
    """Append a blank-line-separated section to an artifact.

    The section replaces any previous copy of itself — matched by its
    first line heading a section — leaving every other section (before
    or after) untouched, so multi-test artifacts survive partial
    re-runs in any order.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    header = text.splitlines()[0]
    sections = []
    if path.exists():
        content = path.read_text(encoding="utf-8")
        sections = [s for s in content.split("\n\n") if s.strip()]
    replaced = False
    for i, section in enumerate(sections):
        if section.lstrip("\n").splitlines()[0] == header:
            sections[i] = text
            replaced = True
            break
    if not replaced:
        sections.append(text)
    path.write_text(
        "\n\n".join(s.strip("\n") for s in sections) + "\n", encoding="utf-8"
    )
    return path


def append_bench(name: str, records) -> Path:
    """Merge benchmark records into ``results/BENCH_<name>.json``.

    The JSON twin of :func:`append_artifact`: sections present in
    ``records`` are replaced, everything else in the file survives, so
    partial benchmark re-runs keep the other experiments' numbers.
    """
    from repro.experiments.bench import write_bench_json

    RESULTS_DIR.mkdir(exist_ok=True)
    return write_bench_json(RESULTS_DIR / f"BENCH_{name}.json", records)


# Each burner sleeps until a shared start instant, runs a fixed number of
# loop iterations and prints how long that took.
_BURN = (
    "import sys, time\n"
    "time.sleep(max(0.0, float(sys.argv[1]) - time.time()))\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(int(sys.argv[2])):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t)\n"
)


def _burn(n_procs: int, loops: int) -> float:
    start = repr(time.time() + 0.1)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BURN, start, str(loops)],
            stdout=subprocess.PIPE, text=True,
        )
        for _ in range(n_procs)
    ]
    try:
        return max(float(proc.communicate(timeout=60)[0]) for proc in procs)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def measured_parallelism(loops: int = 1_500_000) -> float:
    """Two-process throughput over one process's, measured now.

    The same CPU burn ``perfbench/host.py`` stamps on benchmark runs:
    2.0 means two free cores, 1.0 means the two processes share one —
    which ``os.cpu_count()`` cannot tell on a shared host.
    """
    solo = _burn(1, loops)
    return 2.0 * solo / _burn(2, loops)


def bench_seeds() -> tuple:
    """Seeds used by the campaign benchmarks (env-overridable)."""
    raw = os.environ.get("REPRO_BENCH_SEEDS", "1,2")
    return tuple(int(s) for s in raw.split(",") if s.strip())


@pytest.fixture(scope="session")
def setup():
    """Catalog + golden template, the paper's training phase."""
    return build_setup(config=IDSConfig(), seed=7)


@pytest.fixture(scope="session")
def seeds():
    return bench_seeds()
