"""Empirical marginal distributions via histogram inversion.

The paper obtains ``F_Y`` "by inverting the empirical distribution
directly" (§3.1) rather than by fitting a parametric model.  Two
inversion flavours are provided:

- ``method="histogram"`` — the paper's histogram-based technique: the
  CDF is piecewise linear across histogram bins, so the inverse spreads
  samples uniformly within each bin (smooth output, no repeated
  values).
- ``method="exact"`` — straight ECDF inversion, i.e. the quantile
  function of the raw samples (output values are a resampling of the
  observed ones).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np

from .._validation import check_min_length, check_positive_int
from ..exceptions import ValidationError
from ..stats.histogram import Histogram, frequency_histogram
from .parametric import MarginalDistribution

__all__ = ["EmpiricalDistribution"]

ArrayLike = Union[float, np.ndarray]


class EmpiricalDistribution(MarginalDistribution):
    """Distribution backed by observed samples.

    Parameters
    ----------
    samples:
        Observed values (e.g. bytes per frame of an empirical trace).
    bins:
        Number of histogram bins for ``method="histogram"``.
    method:
        ``"histogram"`` (piecewise-linear CDF over bins, the paper's
        technique) or ``"exact"`` (raw ECDF inversion).
    """

    def __init__(
        self,
        samples: Sequence[float],
        *,
        bins: int = 200,
        method: str = "histogram",
    ) -> None:
        self._samples = np.sort(check_min_length(samples, "samples", 2))
        if method not in ("histogram", "exact"):
            raise ValidationError(
                f"method must be 'histogram' or 'exact', got {method!r}"
            )
        self.method = method
        self.bins = check_positive_int(bins, "bins")
        self._histogram = frequency_histogram(self._samples, bins=self.bins)
        edges = self._histogram.edges
        freq = self._histogram.frequencies
        cum = np.concatenate([[0.0], np.cumsum(freq)])
        cum[-1] = 1.0
        # Upper-tail mass summed from the top, so the survival knots
        # keep full relative precision where the CDF rounds toward 1.
        upper = np.concatenate([np.cumsum(freq[::-1])[::-1], [0.0]])
        upper[0] = 1.0
        # Piecewise-linear CDF knots: (edges, cumulative mass).
        self._cdf_x = edges
        self._cdf_y = cum
        self._sf_y = upper

    @property
    def samples(self) -> np.ndarray:
        """The sorted observed samples (a copy)."""
        return self._samples.copy()

    @property
    def histogram(self) -> Histogram:
        """The underlying frequency histogram."""
        return self._histogram

    @property
    def mean(self) -> float:
        return float(self._samples.mean())

    @property
    def variance(self) -> float:
        return float(self._samples.var(ddof=1))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Evaluate the (histogram or exact) empirical CDF."""
        x_arr = np.asarray(x, dtype=float)
        if self.method == "histogram":
            out = np.interp(
                x_arr, self._cdf_x, self._cdf_y, left=0.0, right=1.0
            )
        else:
            out = np.searchsorted(
                self._samples, x_arr, side="right"
            ) / self._samples.size
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def sf(self, x: ArrayLike) -> ArrayLike:
        """Evaluate the empirical survival function ``1 - F(x)``."""
        x_arr = np.asarray(x, dtype=float)
        if self.method == "histogram":
            out = np.interp(
                x_arr, self._cdf_x, self._sf_y, left=1.0, right=0.0
            )
        else:
            n = self._samples.size
            out = (n - np.searchsorted(self._samples, x_arr, side="right")) / n
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        """Density of the law ``ppf`` inverts (zero outside the data).

        For ``"histogram"`` it is the bin's frequency over its width;
        for ``"exact"`` it is the slope of the linear interpolation
        between order statistics that :func:`numpy.quantile` uses.
        """
        x_arr = np.asarray(x, dtype=float)
        if self.method == "histogram":
            knots = self._cdf_x
            mass = np.diff(self._cdf_y)
        else:
            knots = self._samples
            mass = np.full(knots.size - 1, 1.0 / (knots.size - 1))
        k = np.searchsorted(knots, x_arr, side="right") - 1
        inside = (k >= 0) & (k < mass.size)
        k = np.clip(k, 0, mass.size - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            density = mass[k] / (knots[k + 1] - knots[k])
        out = np.where(inside, density, 0.0)
        return float(out) if np.isscalar(x) else out

    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Invert the empirical CDF at probability levels ``q``."""
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        if self.method == "histogram":
            out = np.interp(q_arr, self._cdf_y, self._cdf_x)
        else:
            out = np.quantile(self._samples, q_arr)
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def isf(self, q: ArrayLike) -> ArrayLike:
        """Invert the empirical survival function at tail masses ``q``."""
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        if self.method == "histogram":
            out = np.interp(q_arr, self._sf_y[::-1], self._cdf_x[::-1])
        else:
            out = np.quantile(self._samples, 1.0 - q_arr)
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def breakpoints(self) -> np.ndarray:
        """The knots of the inverted CDF: interior bin edges' masses for
        ``"histogram"``, the order statistics' levels for ``"exact"``."""
        if self.method == "histogram":
            return np.unique(self._cdf_y[1:-1])
        n = self._samples.size
        return np.arange(1, n - 1) / (n - 1)

    def _table_key(self) -> tuple:
        if self.method == "histogram":
            data = (self._cdf_x, self._histogram.frequencies)
        else:
            data = (self._samples,)
        digest = hashlib.blake2b(digest_size=16)
        for array in data:
            digest.update(array.tobytes())
        return (self.method, digest.digest())

    def __repr__(self) -> str:
        return (
            f"EmpiricalDistribution(n={self._samples.size}, "
            f"bins={self.bins}, method={self.method!r})"
        )
