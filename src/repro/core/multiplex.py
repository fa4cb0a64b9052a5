"""Statistical multiplexing of homogeneous VBR video sources.

The paper's opening motivation is that packet networks "support
variable bit rate connections, thus allowing efficient statistical
multiplexing of bursty traffic".  This module models the *aggregate*
of ``n`` independent, statistically identical video sources within the
same unified framework:

- the aggregate's **autocorrelation** equals the per-source
  autocorrelation (covariances of iid sums scale by ``n`` in numerator
  and denominator alike), so the fitted foreground ACF carries over;
- the aggregate's **marginal** is the n-fold convolution of the
  per-source marginal.  It is computed deterministically: the
  per-source law on a uniform grid, convolved with itself by repeated
  doubling along the binary expansion of ``n`` (O(log n) real-FFT
  convolutions on at most ``GRID_BINS`` bins).  The result is a
  histogram law, inverted with the same technique as the per-source
  one (eq. 7);
- the aggregate transform is *less* nonlinear (CLT), so its
  attenuation factor rises toward 1 and the compensated background
  needs less correction — the model becomes easier, not harder, as
  sources are added.

The multiplexing-gain bench feeds aggregates of growing size into the
importance-sampling machinery and shows the overflow probability at a
fixed utilization and per-source-normalized buffer dropping as sources
are added.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .._validation import check_positive_int
from ..exceptions import NotFittedError, ValidationError
from ..marginals.empirical import EmpiricalDistribution, HistogramDistribution
from ..marginals.parametric import MarginalDistribution
from ..marginals.transform import MarginalTransform
from ..processes import registry
from ..processes.correlation import CompositeCorrelation
from ..processes.registry import BackendArg, merge_backend_args
from ..stats.random import RandomState
from .calibration import measure_attenuation_analytic
from .unified import UnifiedVBRModel

__all__ = ["AggregateVBRModel", "aggregate_marginal"]

#: Most bins a convolved law keeps; past it, adjacent bins are merged.
GRID_BINS = 4096
#: Tail mass dropped from each end of the grid after every convolution
#: (and where the per-source law is put on its grid).
TAIL_MASS = 1e-16
#: Widest per-source grid, in interquartile ranges either side of the
#: median.  It only binds for heavy tails (Pareto index near 1.5),
#: where the ``TAIL_MASS`` quantile lies ~1e10 scales out; the mass
#: beyond it is kept in the outermost bin.
SPAN_IQRS = 128.0


class _Grid(NamedTuple):
    """Bin ``k`` holds ``masses[k]`` on ``[lo + k w, lo + (k + 1) w]``."""

    lo: float
    width: float
    masses: np.ndarray


def _source_grid(marginal: MarginalDistribution) -> _Grid:
    """The per-source law on a uniform grid of at most ``GRID_BINS`` bins.

    A histogram law with equal-width bins is taken as it is, each bin
    split into the most equal parts (a power of two) that fit, or with
    bin pairs merged while it has more than ``GRID_BINS``.  Any other
    law gets ``GRID_BINS`` bins between its ``TAIL_MASS`` quantiles:
    exact bin masses from ``cdf`` (``sf`` above the median), then a
    shift of the grid by the Simpson-minus-trapezoid integral of the
    CDF, which makes the grid law's mean that of the law it discretizes
    to O(w^4) (a density jump at the support edge, as for Gamma(1),
    otherwise biases it by w^2/12 per source).
    """
    if isinstance(marginal, EmpiricalDistribution) and (
        marginal.method == "histogram"
    ):
        marginal = marginal.histogram_law
    if isinstance(marginal, HistogramDistribution):
        edges = marginal.edges
        widths = np.diff(edges)
        width = (edges[-1] - edges[0]) / widths.size
        if np.allclose(widths, width, rtol=1e-9, atol=0.0):
            # Splitting each bin into equal parts leaves the law as it
            # is and cuts the w^2/6 each convolution adds to the variance.
            split = 1 << max((GRID_BINS // widths.size).bit_length() - 1, 0)
            masses = np.repeat(marginal.masses / split, split)
            return _merge(_Grid(float(edges[0]), width / split, masses))
    median = float(marginal.ppf(0.5))
    iqr = float(marginal.ppf(0.75)) - float(marginal.ppf(0.25))
    lo = float(marginal.ppf(TAIL_MASS))
    hi = float(marginal.isf(TAIL_MASS))
    if iqr > 0:
        lo = max(lo, median - SPAN_IQRS * iqr)
        hi = min(hi, median + SPAN_IQRS * iqr)
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValidationError(
            f"cannot put {marginal!r} on a grid: its {TAIL_MASS:g} tail "
            f"quantiles are [{lo!r}, {hi!r}]"
        )
    edges = np.linspace(lo, hi, GRID_BINS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    lower = mids <= median
    cdf = np.asarray(marginal.cdf(edges), dtype=float)
    sf = np.asarray(marginal.sf(edges), dtype=float)
    cdf[0], sf[-1] = 0.0, 0.0  # the tails beyond the grid stay in its end bins
    masses = np.where(lower, np.diff(cdf), -np.diff(sf))
    masses = np.maximum(masses, 0.0)
    # Per bin, w/6 (F_a + 4 F_m + F_b) - w/2 (F_a + F_b) is the true
    # integral of F minus the grid law's; their sum is the mean the
    # grid law lacks (mean = hi - integral of F).
    curvature = np.where(
        lower,
        cdf[:-1] + cdf[1:] - 2.0 * np.asarray(marginal.cdf(mids), dtype=float),
        2.0 * np.asarray(marginal.sf(mids), dtype=float) - sf[:-1] - sf[1:],
    )
    width = (hi - lo) / GRID_BINS
    shift = width / 3.0 * float(curvature.sum())
    return _Grid(lo + shift, width, masses / masses.sum())


def _spread(grid: _Grid, factor: int) -> np.ndarray:
    """Bin masses of ``grid`` plus an independent U[0, factor x width].

    The result lies on the grid of width ``factor x width`` starting at
    ``grid.lo``: mass in fine bin ``r`` of a coarse cell goes to that
    cell and the next in the ratio ``1 - (r + 1/2)/factor`` :
    ``(r + 1/2)/factor``.
    """
    masses = grid.masses
    cells = -(-masses.size // factor)
    padded = np.zeros(cells * factor)
    padded[: masses.size] = masses
    padded = padded.reshape(cells, factor)
    upper = (np.arange(factor) + 0.5) / factor
    out = np.zeros(cells + 1)
    out[:-1] += padded @ (1.0 - upper)
    out[1:] += padded @ upper
    return out


def _add(a: _Grid, b: _Grid) -> _Grid:
    """The grid law of the sum of two independent grid laws.

    Both are piecewise-uniform; the sum's exact mass on the coarser
    grid is the coarser law's masses convolved with the finer law
    spread over one coarse bin (:func:`_spread`).  The sum is again
    represented as uniform within each bin, which keeps its mean and
    adds ``w^2 / 6`` to its variance.
    """
    if a.width < b.width:
        a, b = b, a
    spread = _spread(b, int(round(a.width / b.width)))
    n = a.masses.size + spread.size - 1
    size = 1 << (n - 1).bit_length()
    masses = np.fft.irfft(
        np.fft.rfft(a.masses, size) * np.fft.rfft(spread, size), size
    )[:n]
    # Below the FFT's round-off bound a value cannot be told from zero;
    # left in, such noise would hold the tails open past TAIL_MASS.
    noise = (
        np.finfo(float).eps * np.log2(size)
        * np.linalg.norm(a.masses) * np.linalg.norm(spread)
    )
    masses[masses < noise] = 0.0
    return _merge(_trim(_Grid(a.lo + b.lo, a.width, masses)))


def _trim(grid: _Grid) -> _Grid:
    """Drop up to ``TAIL_MASS`` of mass from each end and renormalize."""
    masses = grid.masses
    low = int(np.searchsorted(np.cumsum(masses), TAIL_MASS, side="right"))
    high = int(
        np.searchsorted(np.cumsum(masses[::-1]), TAIL_MASS, side="right")
    )
    kept = masses[low: masses.size - high]
    return _Grid(grid.lo + low * grid.width, grid.width, kept / kept.sum())


def _merge(grid: _Grid) -> _Grid:
    """Merge adjacent bin pairs until at most ``GRID_BINS`` remain."""
    lo, width, masses = grid
    while masses.size > GRID_BINS:
        if masses.size % 2:
            masses = np.append(masses, 0.0)
        masses = masses.reshape(-1, 2).sum(axis=1)
        width *= 2.0
    return _Grid(lo, width, masses)


def aggregate_marginal(
    marginal: MarginalDistribution, num_sources: int
) -> HistogramDistribution:
    """Marginal of the sum of ``num_sources`` iid draws of ``marginal``.

    Deterministic FFT convolution by repeated doubling: the per-source
    law on a uniform grid (:func:`_source_grid`), squared and
    accumulated along the binary expansion of ``num_sources`` — at most
    ``2 log2(num_sources)`` real-FFT convolutions of at most
    ``GRID_BINS`` bins each, so cost and memory do not grow with
    ``num_sources`` beyond that logarithm.  After each convolution
    ``TAIL_MASS`` is trimmed from each end and adjacent bins are merged
    while the grid exceeds ``GRID_BINS``.

    The result is a piecewise-linear-CDF :class:`HistogramDistribution`.
    Its mean is ``num_sources`` times that of the per-source grid law
    (the histogram law itself for a histogram-mode
    :class:`EmpiricalDistribution`) to round-off; its variance exceeds
    the sum's by ``w^2 / 6`` per convolution of bin width ``w``.
    """
    num_sources = check_positive_int(num_sources, "num_sources")
    power = _source_grid(marginal)
    total: Optional[_Grid] = None
    while True:
        if num_sources & 1:
            total = power if total is None else _add(total, power)
        num_sources >>= 1
        if not num_sources:
            break
        power = _add(power, power)
    edges = total.lo + total.width * np.arange(total.masses.size + 1)
    return HistogramDistribution(edges, total.masses)


class AggregateVBRModel:
    """Aggregate of ``num_sources`` homogeneous unified video sources.

    Parameters
    ----------
    base_model:
        A fitted :class:`~repro.core.unified.UnifiedVBRModel` for one
        source.
    num_sources:
        Number of multiplexed sources.
    """

    def __init__(
        self,
        base_model: UnifiedVBRModel,
        num_sources: int,
    ) -> None:
        if not isinstance(base_model, UnifiedVBRModel):
            raise ValidationError(
                "base_model must be a UnifiedVBRModel, got "
                f"{type(base_model).__name__}"
            )
        if base_model.background_ is None:
            raise NotFittedError(
                "base_model must be fitted before aggregation"
            )
        self.base_model = base_model
        self.num_sources = check_positive_int(num_sources, "num_sources")

        self.marginal_ = aggregate_marginal(
            base_model.marginal_, self.num_sources
        )
        self.transform_ = MarginalTransform(self.marginal_)
        # The foreground target ACF is the per-source fitted model; the
        # aggregate transform attenuates less (CLT), so recompute the
        # compensation for the new transform.
        self.attenuation_ = measure_attenuation_analytic(self.transform_)
        self.background_ = base_model.fitted_acf_model.compensated(
            min(self.attenuation_, 1.0)
        )

    @property
    def attenuation(self) -> float:
        """Analytic attenuation factor of the aggregate transform."""
        return float(self.attenuation_)

    @property
    def background_correlation(self) -> CompositeCorrelation:
        """Background correlation driving the aggregate generator."""
        return self.background_

    def generate(
        self,
        n: int,
        *,
        size: Optional[int] = None,
        method: Optional[str] = None,
        backend: Optional[BackendArg] = None,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate aggregate byte-per-slot sample paths.

        ``backend`` selects a registry backend (default ``"auto"``);
        ``method`` is the legacy alias.
        """
        source = registry.resolve(
            merge_backend_args(method, backend), self.background_
        )
        x = source.sample(n, size=size, random_state=random_state)
        return np.asarray(self.transform_(x), dtype=float)

    def arrival_transform(self) -> Callable[[np.ndarray], np.ndarray]:
        """Unit-mean aggregate arrivals for the queueing experiments.

        Buffer sizes are then normalized by the *aggregate* mean rate;
        to compare against a single source at the same utilization,
        also normalize the single source by its own mean (both then
        see service ``1 / utilization``).
        """
        transform = self.transform_
        mean = self.marginal_.mean

        def arrivals(x: np.ndarray) -> np.ndarray:
            return np.asarray(transform(x), dtype=float) / mean

        return arrivals

    def __repr__(self) -> str:
        return (
            f"AggregateVBRModel(num_sources={self.num_sources}, "
            f"attenuation={self.attenuation_:.3f})"
        )
