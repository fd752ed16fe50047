"""Seeded benchmark inputs: the golden template and the drives.

Everything is a pure function of the ``--seed`` argument.  Drives are
``generate_drive_columns`` city traffic; every fourth drive (index 3, 7,
11, ...) carries the benchmark's own single-ID injection at 100 Hz over
the middle half of the drive, labelled as ground truth.  The program
under test only ever sees the files written from these columns.
"""

from __future__ import annotations

import numpy as np

from repro.can.constants import SECOND_US
from repro.core import IDSConfig, build_template
from repro.core.template import GoldenTemplate
from repro.io.columnar import ColumnTrace
from repro.vehicle import ford_fusion_catalog
from repro.vehicle.driving import STANDARD_SCENARIOS, random_scenario
from repro.vehicle.traffic import generate_drive_columns

INJECTION_HZ = 100
ATTACK_EVERY = 4
CATALOG = ford_fusion_catalog(seed=0)
CONFIG = IDSConfig()


def is_attacked(index: int) -> bool:
    """True for every fourth drive."""
    return index % ATTACK_EVERY == ATTACK_EVERY - 1


def train_template(seed: int) -> GoldenTemplate:
    """The paper's training phase: 35 clean windows over mixed scenarios.

    Each window is its own short drive; every third uses a randomised
    scenario mix, the rest cycle through the standard scenarios.
    """
    rng = np.random.default_rng([seed, 0])
    window_s = CONFIG.window_us / SECOND_US
    windows = []
    for i in range(CONFIG.template_windows):
        if i % 3 == 2:
            scenario = random_scenario(rng)
        else:
            scenario = STANDARD_SCENARIOS[i % len(STANDARD_SCENARIOS)]
        windows.append(
            generate_drive_columns(
                window_s,
                scenario=scenario,
                seed=int(rng.integers(1 << 31)),
                catalog=CATALOG,
            )
        )
    return build_template(windows, CONFIG)


def _injection(rng: np.random.Generator, duration_s: float) -> ColumnTrace:
    """100 Hz frames of one catalog identifier over the middle half."""
    can_id = int(rng.choice(CATALOG.ids))
    period = SECOND_US // INJECTION_HZ
    duration_us = int(duration_s * SECOND_US)
    start = duration_us // 4 + int(rng.integers(period))
    stamps = np.arange(start, 3 * duration_us // 4, period, dtype=np.int64)
    n = stamps.size
    return ColumnTrace(
        stamps,
        np.full(n, can_id, dtype=np.int64),
        payload=rng.integers(0, 256, 8 * n, dtype=np.uint8),
        payload_offsets=np.arange(n + 1, dtype=np.int64) * 8,
        is_attack=np.ones(n, dtype=bool),
        source_code=np.zeros(n, dtype=np.int32),
        source_table=("attacker",),
    )


def drive(seed: int, index: int, duration_s: float) -> ColumnTrace:
    """Drive ``index`` of the run seeded ``seed`` (attacked when due)."""
    rng = np.random.default_rng([seed, 1, index, int(duration_s)])
    columns = generate_drive_columns(
        duration_s, scenario="city", seed=int(rng.integers(1 << 31)),
        catalog=CATALOG,
    )
    if is_attacked(index):
        columns = ColumnTrace.merge(columns, _injection(rng, duration_s))
    return columns
