"""Host-speed probes that put times from a shared host on one scale.

This host is shared: its speed drifts by up to 1.5x over seconds to minutes,
and the program's speed drifts with it. So while a command runs, a timer
interrupts it every ``INTERVAL_S`` and times a fixed probe; more probes run
just before and after it. The command's time, less the probes, is divided by
the mean probe time over the probe's nominal time. Times are thus seconds on
a host where the probe takes its nominal time.

Each workload gets the probe whose work is most like its own hot path. A
numpy probe normalised the transcript workload worse than no probe at all,
and the JSON probe did best there (window-to-window spread 0.03 against 0.10
raw); on the sweeps the numpy probe did best.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
#: Probes taken just before and just after every timed call.
AROUND = 5

_MATRIX = np.eye(4, dtype=complex) + 0.1j


def _numpy_work() -> None:
    """Small-matrix numpy calls from a Python loop, like the physics layers."""
    m = _MATRIX
    for _ in range(50):
        np.linalg.eigvalsh(m + m.conj().T)
        np.kron(m[:2, :2], m[:2, :2]).real.sum()


def _json_work() -> None:
    """Small records encoded to JSON text, like a transcript dump."""
    "".join(json.dumps({"round": i, "basis": i & 1, "sifted": True}) for i in range(300))


@dataclass(frozen=True)
class Probe:
    work: object  # callable() -> None
    nominal_s: float

    def seconds(self) -> float:
        start = perf_counter()
        self.work()
        return perf_counter() - start


NUMPY = Probe(_numpy_work, 0.0015)
JSON = Probe(_json_work, 0.0008)
