"""Extension — statistical multiplexing gain (the paper's §1 motivation).

The paper opens with the promise of "efficient statistical
multiplexing of bursty traffic".  This bench quantifies it inside the
reproduced framework: aggregates of 1, 4, and 16 homogeneous fitted
video sources feed the multiplexer at the same utilization, and the
overflow probability at the same normalized buffer size drops sharply
as sources are added (short-term burstiness averages out), while the
long-range dependence — which multiplexing cannot remove — keeps the
decay with buffer size slow for every aggregate size.
"""

import numpy as np

from repro.core.multiplex import AggregateVBRModel
from repro.queueing.multiplexer import service_rate_for_utilization
from repro.simulation.importance import is_overflow_probability

from .conftest import format_series, scaled

UTILIZATION = 0.4
BUFFER_SIZES = [10.0, 25.0, 50.0]
SOURCES = (1, 4, 16)
REPLICATIONS = 600
TWISTS = {1: 1.5, 4: 1.5, 16: 1.5}


def test_ext_multiplexing_gain(benchmark, unified_model, emit):
    def run_all():
        table = {}
        for n in SOURCES:
            aggregate = AggregateVBRModel(unified_model, n)
            arrivals = aggregate.arrival_transform()
            estimates = []
            for i, b in enumerate(BUFFER_SIZES):
                estimates.append(
                    is_overflow_probability(
                        aggregate.background_correlation,
                        arrivals,
                        service_rate=service_rate_for_utilization(
                            1.0, UTILIZATION
                        ),
                        buffer_size=b,
                        horizon=10 * int(b),
                        twisted_mean=TWISTS[n],
                        replications=scaled(REPLICATIONS),
                        random_state=500 + 10 * n + i,
                    )
                )
            table[n] = (aggregate.attenuation, estimates)
        return table

    table = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for n in SOURCES:
        attenuation, estimates = table[n]
        rows.append(
            (
                n,
                f"{attenuation:.3f}",
                *(f"{e.log10_probability:.2f}"
                  if e.probability > 0 else "<= -4"
                  for e in estimates),
            )
        )
    emit(
        "== Extension: statistical multiplexing gain "
        f"(util {UTILIZATION}) ==",
        *format_series(
            ("sources", "attenuation a",
             *(f"log10 P(Q>{int(b)})" for b in BUFFER_SIZES)),
            rows,
        ),
        "multiplexing averages out short-term burstiness (overflow "
        "drops with n)\nbut cannot remove the long-range dependence "
        "(decay with b stays slow).",
    )
    # Monotone multiplexing gain at every buffer size with resolution.
    for i in range(len(BUFFER_SIZES)):
        p1 = table[1][1][i].probability
        p16 = table[16][1][i].probability
        assert p16 < p1
    # CLT on the transform: attenuation rises toward 1.
    assert table[16][0] > table[1][0]
