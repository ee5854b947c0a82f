"""The benchmark's workloads: fixed sweep configurations, seeded per run.

Each workload is one ``SimConfig`` whose ``seed`` is chosen by the
benchmark's ``--seed`` argument. The sweep seed is ``seed % REFERENCE_SEEDS``
so that every run can be checked against a stored reference record; see
``reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from asyncrelay.harness import SimConfig

REFERENCE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    config: SimConfig
    reference: str  # name of the workload whose reference record applies

    def sweep_config(self, seed: int) -> SimConfig:
        return replace(self.config, seed=sweep_seed(seed))

    def setup_config(self, seed: int) -> SimConfig:
        """One unit per point: validation, engine build and a single unit each."""
        return replace(self.sweep_config(seed), frames=1, max_frames=1)


def sweep_seed(seed: int) -> int:
    return int(seed) % REFERENCE_SEEDS


_RELAY4_N64 = SimConfig(
    mode="coherent",
    code="relay4",
    n_fft=64,
    cp_len=16,
    power_db=(10.0, 15.0, 20.0, 25.0, 30.0),
    frames=100,
    min_errors=100,
    max_frames=400,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coh-relay4-n64",
            _RELAY4_N64,
            "coh-relay4-n64",
        ),
        Workload(
            "coh-relay5-n1024",
            SimConfig(
                mode="coherent",
                code="relay5",
                n_fft=1024,
                cp_len=64,
                power_db=(15.0, 25.0),
                frames=30,
                min_errors=0,
                max_frames=30,
            ),
            "coh-relay5-n1024",
        ),
        Workload(
            "diff-relay4-n256-c8",
            SimConfig(
                mode="differential",
                code="relay4_diff",
                n_fft=256,
                cp_len=32,
                power_db=(15.0, 20.0, 25.0),
                frames=20,
                min_errors=0,
                max_frames=20,
                diff_chain=8,
            ),
            "diff-relay4-n256-c8",
        ),
        Workload(
            "coh-relay4-n64-w2",
            replace(_RELAY4_N64, workers=2),
            "coh-relay4-n64",
        ),
    )
}


def expected_batches(cfg: SimConfig, units_per_point) -> int:
    """Batches the harness dispatches for points that simulated the given unit counts."""
    return sum(math.ceil(units / cfg.frames) for units in units_per_point)
