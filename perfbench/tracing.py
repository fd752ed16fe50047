"""Outside-in span tracing: wrap layer entry points, record spans, sum self time.

The program is measured from outside.  A :class:`Shims` context replaces
each entry point in :data:`perfbench.layers.TARGETS` where its caller
looks it up (a module global or a class attribute) with a wrapper that
records one :class:`Span` per call, and puts every original back on
exit.  Only calls made on the op thread while an op is open are
recorded; other threads (the in-process scan coordinator) run the
original functions untouched, because their work overlaps the op
thread's waiting and would otherwise be counted twice.

Spans stay in memory (:class:`Recorder`) and are written out when the
run ends.  A span's *self time* is its duration minus the durations of
its direct children, so the self times of one op's spans add up to the
op's wall time; the root ``op`` span's self time is what no layer
accounts for (``bench.unattributed_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root span that covers one whole op.
OP_SPAN = "op"


@dataclass
class Span:
    """One recorded call: layer name, interval, parent index, op id."""

    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span log for the thread that created it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.thread = threading.get_ident()
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def recording(self) -> bool:
        """True on the op thread while an op is open."""
        return self.op is not None and threading.get_ident() == self.thread

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int, counts=None, error: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        if counts:
            span.counts = counts
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def op_span(self, op: int) -> Iterator[int]:
        """Open the root span of op ``op``; layer spans nest under it."""
        if self.op is not None or self._stack:
            raise RuntimeError("ops do not nest")
        self.op = op
        index = self.open(OP_SPAN)
        try:
            yield index
        finally:
            self.close(index)
            self.op = None

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line (name, interval, parent, op)."""
        with open(path, "w", encoding="ascii") as handle:
            for index, (span, own) in enumerate(
                zip(self.spans, self_times(self.spans))
            ):
                row = {
                    "id": index,
                    "name": span.name,
                    "op": span.op,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "self_s": own,
                    "counts": span.counts,
                    "error": span.error,
                }
                handle.write(json.dumps(row) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.duration
    return [span.duration - covered for span, covered in zip(spans, children)]


def per_op_totals(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Per op: ``<layer>.self_s``, ``<layer>.calls`` and summed counts.

    The root span contributes ``op.self_s`` (unattributed time) and
    ``op.wall_s``.
    """
    totals: Dict[int, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = totals.setdefault(span.op, {})
        row[f"{span.name}.self_s"] = row.get(f"{span.name}.self_s", 0.0) + own
        row[f"{span.name}.calls"] = row.get(f"{span.name}.calls", 0) + 1
        for key, value in span.counts.items():
            row[f"{span.name}.{key}"] = row.get(f"{span.name}.{key}", 0) + value
        if span.name == OP_SPAN:
            row["op.wall_s"] = span.duration
    return totals


# ----------------------------------------------------------------------
# Shims
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``owner`` is the module whose namespace the caller reads; ``attr``
    is ``name`` for a module global or ``Class.name`` for a class
    attribute (plain, class or static method).  ``count`` maps
    ``(args, result)`` to the span's counters.
    """

    layer: str
    owner: str
    attr: str
    count: Optional[Callable[[tuple, object], Dict[str, float]]] = None

    def resolve(self) -> Tuple[object, str]:
        """The object holding the attribute, and the attribute name."""
        holder: object = importlib.import_module(self.owner)
        *path, name = self.attr.split(".")
        for part in path:
            holder = getattr(holder, part)
        if name not in vars(holder):
            raise AttributeError(
                f"{self.owner}.{self.attr} is not defined where it is looked up"
            )
        return holder, name


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    layer, count = target.layer, target.count

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not recorder.recording():
            return fn(*args, **kwargs)
        index = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(index, error=True)
            raise
        recorder.close(index, count(args, result) if count else None)
        return result

    return shim


def _wrapped(raw, target: Target, recorder: Recorder):
    if isinstance(raw, staticmethod):
        return staticmethod(_wrap(raw.__func__, target, recorder))
    if isinstance(raw, classmethod):
        return classmethod(_wrap(raw.__func__, target, recorder))
    if callable(raw):
        return _wrap(raw, target, recorder)
    raise TypeError(f"{target.owner}.{target.attr} is not callable")


class Shims:
    """Install every target's wrapper on entry; restore originals on exit.

    Exit verifies that each attribute is the very object it was before
    entry, so an untraced op after a traced one runs unwrapped code.
    """

    def __init__(self, targets, recorder: Recorder) -> None:
        self.targets = list(targets)
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Shims":
        if self._saved:
            raise RuntimeError("shims already installed")
        try:
            for target in self.targets:
                holder, name = target.resolve()
                raw = vars(holder)[name]
                setattr(holder, name, _wrapped(raw, target, self.recorder))
                self._saved.append((holder, name, raw))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            holder, name, raw = self._saved.pop()
            setattr(holder, name, raw)
            if vars(holder)[name] is not raw:
                raise RuntimeError(f"could not restore {holder!r}.{name}")


def installed(targets) -> Dict[Tuple[str, str], object]:
    """The object currently installed at every target."""
    out = {}
    for target in targets:
        holder, name = target.resolve()
        out[(target.owner, target.attr)] = vars(holder)[name]
    return out
