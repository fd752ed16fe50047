"""The multiprocessing executor: the default of ``scan_captures``.

One capture archive, many CPU cores: the pool backend fans shard tasks
across a ``multiprocessing`` pool, one task per capture.  Workers build
their scanner once (pool initializer) and receive only *paths* per
task — captures are loaded inside the worker through the columnar
readers, so no bulk frame data crosses the process boundary; each
capture's verdicts come back as one pickled
:class:`~repro.core.kernel.WindowBlock`.

``pool.map`` preserves task order, so results are deterministic no
matter which worker finishes first; a single worker (or a single task)
runs inline without a pool, which is also the fallback wherever
``multiprocessing`` is unavailable or undesirable.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.exceptions import DetectorError
from repro.runtime.base import Executor, ScanSpec

__all__ = ["PoolExecutor", "default_workers"]

#: Worker-process state installed by the pool initializer.  With the
#: ``fork`` start method this is inherited for free; with ``spawn`` the
#: initializer argument (the spec) is pickled once per worker, not per
#: task.
_WORKER: dict = {}


def _init_worker(spec: ScanSpec) -> None:
    _WORKER["scan"] = spec.make_scanner()


def _init_pool_worker(spec: ScanSpec) -> None:
    # A forked worker inherits the parent's signal handlers.  If the
    # parent is a daemon (``fleet watch`` installs a graceful SIGTERM
    # handler), an inheriting worker would *survive* the pool's own
    # ``terminate()`` — the handler just sets a flag on the parent's
    # daemon object — and ``Pool.__exit__`` would then wait on it
    # forever.  Pool workers are disposable by design: restore default
    # dispositions so terminate means terminate.  (Only here, never in
    # the inline path, which runs in the coordinator's own process.)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _init_worker(spec)


def _run_task(path: str) -> list:
    return _WORKER["scan"](path)


def _pool_context():
    """Prefer ``fork`` (cheap, inherits the spec) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def default_workers(n_tasks: Optional[int] = None) -> int:
    """Worker count when none is given: one per core, capped at 8.

    When the task count is known it caps the answer too — an archive of
    3 captures never warrants 8 workers, and on a 1-CPU host the cap
    collapses to 1, which the pool runs inline: no fork, no pickling,
    no pool overhead for parallelism the hardware cannot deliver
    (results/throughput.txt showed pool(1) at 0.87x serial before this).
    """
    cap = max(1, min(os.cpu_count() or 1, 8))
    if n_tasks is not None:
        cap = max(1, min(cap, int(n_tasks)))
    return cap


class PoolExecutor(Executor):
    """Fan shard tasks across a process pool, one capture per task.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` runs inline (no pool).  Defaults to
        :func:`default_workers` sized against the actual task count at
        :meth:`run` time.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self._requested = None if workers is None else int(workers)
        if self._requested is not None and self._requested < 1:
            raise DetectorError(f"workers must be >= 1, got {workers}")

    @property
    def workers(self) -> int:
        """The effective pool size (before the per-run task-count cap)."""
        return (
            default_workers() if self._requested is None else self._requested
        )

    def run(
        self, spec: ScanSpec, paths: Sequence[Union[str, Path]]
    ) -> List[list]:
        names = [str(p) for p in paths]
        requested = (
            default_workers(len(names))
            if self._requested is None
            else self._requested
        )
        n_workers = min(requested, len(names))
        if n_workers <= 1:
            _init_worker(spec)
            try:
                return [_run_task(p) for p in names]
            finally:
                _WORKER.clear()
        ctx = _pool_context()
        with ctx.Pool(
            n_workers, initializer=_init_pool_worker, initargs=(spec,)
        ) as pool:
            # map() preserves task order, so results are deterministic
            # no matter which worker finished first.
            return pool.map(_run_task, names, chunksize=1)

    def describe(self) -> str:
        return f"pool({self.workers})"
