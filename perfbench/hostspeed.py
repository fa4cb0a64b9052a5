"""Host-speed probe: end-to-end times scaled to a nominal host.

The benchmark runs on a few cores of a shared host.  There a fixed
reference loop runs 10-40% faster or slower for minutes at a time, for
every kind of code at once, while its CPU time equals its wall time.
Raw wall times of two runs of the same code therefore differ by more
than a regression bound.  The probe is a fixed task that is not the
program's; the benchmark runs it between ops and scales each time to a
host on which one probe takes ``PROBE_NOMINAL_S``.  The program's own
speed still shows in full, because the probe does not run its code.

Op times do not move one for one with the probe: over 66 runs of both
workloads, log op time against log typical probe had slope 0.53
(correlation 0.7-0.85).  The scale is therefore the square root of
nominal / typical probe.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, Sequence

import numpy as np

#: Seconds one probe is scaled to (about its median on a 2-core VM).
PROBE_NOMINAL_S = 0.35
#: Op time ~ probe time ** PROBE_EXPONENT across runs (fitted 0.53).
PROBE_EXPONENT = 0.5

_VALUES = np.random.default_rng(0).random(1 << 18)


def host_probe() -> float:
    """Seconds of one probe.

    Its three parts are the three kinds of work the ops do: array
    kernels (real FFT and sort of 2^18 doubles), an interpreter loop
    (per-step simulation code), and a fresh interpreter importing numpy
    (every ``cli`` op starts one).
    """
    start = time.perf_counter()
    for _ in range(8):
        np.fft.rfft(_VALUES)
        np.sort(_VALUES)
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    subprocess.run([sys.executable, "-c", "import numpy"],
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - start


def typical(probes: Sequence[float]) -> float:
    """Mean of the probes without the fastest and the slowest fifth."""
    ordered = sorted(probes)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def host_scaled(raw: Dict[str, float], units: Dict[str, str],
                probes: Iterable[float]) -> Dict[str, float]:
    """``raw`` scaled to a host on which one probe takes PROBE_NOMINAL_S.

    Times (unit ``s``) are multiplied and rates (``1/s``) divided by
    (nominal / typical probe) ** PROBE_EXPONENT; other units are left
    as measured.
    """
    factor = (PROBE_NOMINAL_S / typical(list(probes))) ** PROBE_EXPONENT
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {name: value * scale.get(units.get(name), 1.0)
            for name, value in raw.items()}
