"""Ablation — the aggregate marginal: cost of the N-fold convolution.

``aggregate_marginal`` builds the marginal of the sum of N iid sources
by FFT convolution along the binary expansion of N: at most
``2 log2 N`` real-FFT convolutions on grids of at most 4096 bins.  This
bench times it on the fitted empirical law (the 200-bin histogram the
unified model inverts, here of the full-length intraframe trace) at
N = 256 (the ``repro simulate`` benchmark workload), 2000 and 10^6.

Asserted: each N takes < 1 s of marginal work, and the N = 10^6 time is
<= 10x the N = 256 time (cost grows with log N, not with N; the Monte
Carlo convolution it replaced drew 2^17 x N samples, 2.2 s at N = 256).
Each time is the minimum of five runs.  Results land in
``REPRO_BENCH_JSON``.  Sizes are not scaled by ``REPRO_BENCH_SCALE``:
the contract is about them.
"""

import time

from repro.core.multiplex import aggregate_marginal
from repro.marginals.empirical import EmpiricalDistribution

from .conftest import format_series

SOURCES = (256, 2000, 10**6)
ROUNDS = 5
MAX_SECONDS = 1.0
MAX_GROWTH = 10.0


def _best_ms(marginal, n: int) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        aggregate_marginal(marginal, n)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def test_aggregate_marginal_ablation(intra_trace_full, emit, record_bench):
    marginal = EmpiricalDistribution(intra_trace_full.sizes, bins=200)
    ms = {n: _best_ms(marginal, n) for n in SOURCES}
    bins = {n: aggregate_marginal(marginal, n).masses.size for n in SOURCES}

    emit(
        "== Ablation: aggregate marginal (FFT doubling convolution) ==",
        *format_series(
            ("sources N", "ms (min of 5)", "bins"),
            [(n, f"{ms[n]:.2f}", bins[n]) for n in SOURCES],
        ),
    )
    record_bench(
        "aggregate_marginal",
        ms={str(n): ms[n] for n in SOURCES},
        bins={str(n): bins[n] for n in SOURCES},
        growth_1e6_over_256=ms[10**6] / ms[256],
    )
    for n in SOURCES:
        assert ms[n] < 1e3 * MAX_SECONDS, (n, ms[n])
    assert ms[10**6] <= MAX_GROWTH * ms[256], ms
