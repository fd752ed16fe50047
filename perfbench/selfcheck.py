"""Checks of the benchmark's own machinery (``run.py --self-check``).

* self-time arithmetic on nested calls and on calls that raise, on
  hand-made spans and on live wrapped calls;
* every shim restored after traced ops, so untraced ops run the
  unwrapped functions;
* a one-op miniature of each workload passes its correctness check, and
  fails it once a reference is tampered with.

:func:`span_arithmetic` is cheap and also runs at the start of every
benchmark run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import threading
import types
from pathlib import Path

from perfbench.tracing import Recorder, Shims, Span, Target, installed, per_op_totals, self_times


class SelfCheckError(RuntimeError):
    """The benchmark's machinery is broken."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfCheckError(message)


_TOY_SOURCE = '''
import time

def leaf():
    time.sleep(0.002)
    return 1

def inner():
    leaf()
    return leaf() + 1

def failing():
    leaf()
    raise ValueError("expected")

def outer():
    total = inner()
    try:
        failing()
    except ValueError:
        total += 10
    return total

class Holder:
    @staticmethod
    def static():
        return leaf()

    @classmethod
    def klass(cls):
        return leaf()
'''


def _toy_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_selfcheck_toy")
    exec(_TOY_SOURCE, module.__dict__)
    sys.modules[module.__name__] = module
    return module


def span_arithmetic() -> None:
    """Self time on hand-made and live nested spans, raising calls included."""
    # Hand-made: op [0,10] holds a [1,6] (holding b [2,3] and a raising
    # b [4,5.5]) and c [7,9].
    spans = [
        Span("op", 0.0, -1, 0, end=10.0),
        Span("a", 1.0, 0, 0, end=6.0),
        Span("b", 2.0, 1, 0, end=3.0),
        Span("b", 4.0, 1, 0, end=5.5, error=True),
        Span("c", 7.0, 0, 0, end=9.0),
    ]
    _expect(self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0], "hand-made self times")
    totals = per_op_totals(spans)[0]
    _expect(totals["b.calls"] == 2 and totals["b.self_s"] == 2.5, "per-op totals")

    toy = _toy_module()
    try:
        targets = [
            Target(name, toy.__name__, name)
            for name in ("leaf", "inner", "failing", "outer")
        ] + [
            Target("static", toy.__name__, "Holder.static"),
            Target("klass", toy.__name__, "Holder.klass"),
        ]
        originals = installed(targets)
        recorder = Recorder()
        toy.outer()  # not recording: no spans even while wrapped below
        with Shims(targets, recorder):
            toy.outer()
            with recorder.op_span(0):
                _expect(toy.outer() == 12, "wrapped outer returned a wrong value")
                _expect(toy.Holder.static() == 1 and toy.Holder.klass() == 1,
                        "wrapped static/class methods")
                worker = threading.Thread(target=toy.leaf)
                worker.start()
                worker.join()
        restored = installed(targets)
        _expect(all(restored[k] is originals[k] for k in originals),
                "a toy shim was not restored")
        names = [s.name for s in recorder.spans]
        _expect(names == ["op", "outer", "inner", "leaf", "leaf", "failing",
                          "leaf", "static", "leaf", "klass", "leaf"],
                f"recorded spans {names}")
        errors = [s.name for s in recorder.spans if s.error]
        _expect(errors == ["failing"], f"error spans {errors}")
        parents = [recorder.spans[s.parent].name if s.parent >= 0 else None
                   for s in recorder.spans]
        _expect(parents == [None, "op", "outer", "inner", "inner", "outer",
                            "failing", "op", "static", "op", "klass"],
                f"parents {parents}")
        own = self_times(recorder.spans)
        _expect(all(t >= 0 for t in own), "negative self time")
        _expect(math.isclose(sum(own), recorder.spans[0].duration, rel_tol=1e-9),
                "self times do not add up to the op")
    finally:
        del sys.modules[toy.__name__]


def definition(root: Path) -> None:
    """``BENCHMARK.json`` names exactly the workloads and metrics a run reports."""
    from perfbench.layers import LAYER_METRICS
    from perfbench.measure import END_TO_END_UNITS
    from perfbench.workloads import WORKLOADS

    doc = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    _expect(names == list(WORKLOADS), f"BENCHMARK.json workloads {names}")
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    _expect(end_to_end == END_TO_END_UNITS, f"BENCHMARK.json end_to_end {end_to_end}")
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    _expect(per_layer == {k: unit for k, (unit, _) in LAYER_METRICS.items()},
            "BENCHMARK.json per_layer differs from perfbench.layers.LAYER_METRICS")


def miniature(cls):
    """A small copy of a workload class: same code paths, fewer inputs."""
    small = {"n_captures": 4, "duration_s": 20.0}
    if cls.name == "npb-scan":
        small["duration_s"] = 360.0  # still two blocks per capture
    if cls.name == "fleet-cycle":
        small.update(vehicles=2, history=8)
    return type(f"Mini{cls.__name__}", (cls,), small)


#: Layers each miniature's traced op must record.
EXPECTED_LAYERS = {
    "text-scan": ("io.parse", "core.kernel", "core.materialise"),
    "npb-scan": ("io.inflate", "io.unfilter", "io.merge", "core.kernel"),
    "net-scan": ("runtime.task", "runtime.wait", "runtime.encode", "runtime.decode"),
    "fleet-cycle": ("fleet.fingerprint", "fleet.ledger_load", "fleet.ledger_save",
                    "fleet.replay", "fleet.persist", "fleet.drift"),
}


def miniatures(root: Path) -> None:
    from perfbench.layers import TARGETS
    from perfbench.measure import run_op
    from perfbench.workloads import WORKLOADS

    originals = installed(TARGETS)
    for name, cls in WORKLOADS.items():
        workload = miniature(cls)(7, root / name)
        try:
            workload.setup()
            workload.references()
            problems = workload.oracle_problems()
            _expect(not problems, f"{name} references: {problems}")
            recorder = Recorder()
            shims = Shims(TARGETS, recorder)
            traced = run_op(workload, 1, True, shims, recorder)
            _expect(traced.ok, f"{name} traced op: {traced.problems}")
            restored = installed(TARGETS)
            _expect(all(restored[k] is originals[k] for k in originals),
                    f"{name}: a shim was not restored")
            n_spans = len(recorder.spans)
            plain = run_op(workload, 2, False, shims, recorder)
            _expect(plain.ok, f"{name} untraced op: {plain.problems}")
            _expect(len(recorder.spans) == n_spans, f"{name}: untraced op recorded spans")
            layers = {s.name for s in recorder.spans}
            missing = [layer for layer in EXPECTED_LAYERS[name] if layer not in layers]
            _expect(not missing, f"{name}: no spans for {missing}")
            capture = next(iter(workload.refs))
            workload.refs[capture] = dict(workload.refs[capture], alerts=["tampered"])
            tampered = run_op(workload, 3, False, shims, recorder)
            _expect(not tampered.ok, f"{name}: a wrong reference went unnoticed")
            print(f"self-check: {name} miniature ok "
                  f"({traced.frames} frames, {len(recorder.spans)} spans)")
        finally:
            workload.close()


def main(root: Path) -> int:
    definition(root)
    span_arithmetic()
    print("self-check: definition and span arithmetic ok")
    work = root / ".perfbench" / f"selfcheck-{os.getpid()}"
    try:
        miniatures(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-check: all ok")
    return 0
