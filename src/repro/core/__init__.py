"""The paper's contribution: bit-entropy intrusion detection.

Pipeline overview (Section IV of the paper)::

    trace/bus ──► BitCounter ──► entropy vector H (11 bits)
                                    │
        GoldenTemplate (mean/range over 35 clean windows)
                                    │
            per-bit thresholds Th_i = alpha * (max H_i − min H_i)
                                    │
      EntropyDetector: |H_i − H_temp,i| > Th_i  ⇒  window alarm
                                    │
      InferenceEngine: Δp direction/magnitude ⇒ ranked malicious-ID
                        candidates (rank selection, paper rank = 10)

Public classes:

* :class:`IDSConfig` — every tunable (window, alpha, rank, ...).
* :class:`BitCounter` — streaming per-bit occurrence counts.
* :func:`binary_entropy` — the Bernoulli entropy function H_b(p).
* :class:`TemplateBuilder` / :class:`GoldenTemplate` — golden template.
* :class:`EntropyDetector` — windowed detection (streaming or batch).
* :class:`InferenceEngine` — malicious-ID inference via rank selection.
* :class:`IDSPipeline` — detector + inference + reporting in one call.
"""

from repro.core.alerts import Alert, AlertSink
from repro.core.bitprob import BitCounter
from repro.core.config import IDSConfig
from repro.core.detector import EntropyDetector, WindowResult
from repro.core.engine import BatchEntropyEngine, batch_scan
from repro.core.entropy import binary_entropy, entropy_vector, shannon_entropy
from repro.core.inference import InferenceEngine, InferenceResult
from repro.core.kernel import KernelWorkspace, WindowBlock, scan_windows
from repro.core.pipeline import (
    ArchiveReport,
    DetectionReport,
    IDSPipeline,
    MultiBusReport,
)
from repro.core.response import Blocklist, ResponseGate, ResponseOutcome
from repro.core.ring import FrameRing
from repro.core.sliding import SlidingEntropyDetector
from repro.core.template import GoldenTemplate, TemplateBuilder, build_template

__all__ = [
    "Alert",
    "AlertSink",
    "ArchiveReport",
    "BatchEntropyEngine",
    "BitCounter",
    "Blocklist",
    "DetectionReport",
    "EntropyDetector",
    "FrameRing",
    "GoldenTemplate",
    "IDSConfig",
    "IDSPipeline",
    "InferenceEngine",
    "InferenceResult",
    "KernelWorkspace",
    "MultiBusReport",
    "ResponseGate",
    "ResponseOutcome",
    "SlidingEntropyDetector",
    "TemplateBuilder",
    "WindowBlock",
    "WindowResult",
    "batch_scan",
    "scan_windows",
    "binary_entropy",
    "build_template",
    "entropy_vector",
    "shannon_entropy",
]
