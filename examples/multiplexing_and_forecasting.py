"""Statistical multiplexing gain and bandwidth forecasting.

Two applications built on the fitted unified model:

1. **Multiplexing gain** (the paper's §1 motivation): aggregates of
   1/4/16 homogeneous video sources share one multiplexer at the same
   utilization.  Short-term burstiness averages out — overflow
   probabilities fall steeply with the number of sources — while the
   long-range dependence they all share keeps the decay with buffer
   size slow at every aggregate size.

2. **Bandwidth forecasting**: exact Gaussian conditional prediction of
   a source's near future from its recent history (the machinery a
   connection-admission controller would use), mapped through the
   marginal transform into byte forecasts with prediction bands.

Run:  python examples/multiplexing_and_forecasting.py
"""

import numpy as np

from repro import (
    SyntheticCodecConfig,
    SyntheticMPEGCodec,
    UnifiedVBRModel,
    conditional_forecast,
)
from repro.core import AggregateVBRModel
from repro.simulation import is_overflow_probability

UTILIZATION = 0.4
BUFFER_SIZE = 25.0


def main() -> None:
    trace = SyntheticMPEGCodec(
        SyntheticCodecConfig.intraframe_paper_like(num_frames=120_000)
    ).generate(random_state=31)
    model = UnifiedVBRModel(max_lag=400).fit(trace, random_state=32)
    print(f"fitted: {model}\n")

    # ------------------------------------------------------------------
    # 1. Multiplexing gain.
    # ------------------------------------------------------------------
    print(f"multiplexing gain at utilization {UTILIZATION}, "
          f"normalized buffer {BUFFER_SIZE:.0f}:")
    print("  sources   attenuation a   log10 P(Q > b)")
    for n in (1, 4, 16):
        aggregate = AggregateVBRModel(model, n)
        estimate = is_overflow_probability(
            aggregate.background_correlation,
            aggregate.arrival_transform(),
            service_rate=1.0 / UTILIZATION,
            buffer_size=BUFFER_SIZE,
            horizon=250,
            twisted_mean=1.5,
            replications=500,
            random_state=34,
        )
        log_p = (
            f"{estimate.log10_probability:.2f}"
            if estimate.probability > 0
            else "below IS resolution"
        )
        print(f"  {n:>7}   {aggregate.attenuation:>12.3f}   {log_p}")
    print(
        "  (burstiness averages out with n; the shared LRD does not — "
        "the decay\n   with buffer size stays slow for every aggregate)"
    )

    # ------------------------------------------------------------------
    # 2. Forecasting the near future of one source.
    # ------------------------------------------------------------------
    history_frames = 300
    horizon = 12
    observed = trace.sizes[:history_frames]
    # Gaussianize the observed history, forecast, map bands back.
    z_history = np.asarray(model.transform_.inverse(observed))
    z_history = np.clip(z_history, -6.0, 6.0)
    forecast = conditional_forecast(
        model.background_correlation, z_history, horizon
    )
    low_z, high_z = forecast.interval()
    mean_bytes = np.asarray(model.transform_(forecast.mean))
    low_bytes = np.asarray(model.transform_(low_z))
    high_bytes = np.asarray(model.transform_(high_z))

    print(f"\nforecast of the next {horizon} frames after frame "
          f"{history_frames} (bytes):")
    print("  step   predicted   95% band")
    for j in range(horizon):
        print(
            f"  {j + 1:>4}   {mean_bytes[j]:>9.0f}   "
            f"[{low_bytes[j]:.0f}, {high_bytes[j]:.0f}]"
        )
    actual = trace.sizes[history_frames:history_frames + horizon]
    inside = np.mean((actual >= low_bytes) & (actual <= high_bytes))
    print(f"  actual values inside the band: {inside * 100:.0f}%")


if __name__ == "__main__":
    main()
