"""Empirical marginal distributions via histogram inversion.

The paper obtains ``F_Y`` "by inverting the empirical distribution
directly" (§3.1) rather than by fitting a parametric model.  Two
inversion flavours are provided:

- ``method="histogram"`` — the paper's histogram-based technique: the
  CDF is piecewise linear across histogram bins, so the inverse spreads
  samples uniformly within each bin (smooth output, no repeated
  values).  That law on its own is :class:`HistogramDistribution`; the
  aggregate marginal of :mod:`repro.core.multiplex` is one as well.
- ``method="exact"`` — straight ECDF inversion, i.e. the quantile
  function of the raw samples (output values are a resampling of the
  observed ones).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

import numpy as np

from .._validation import check_1d_array, check_min_length, check_positive_int
from ..exceptions import ValidationError
from ..stats.histogram import Histogram, frequency_histogram
from .parametric import MarginalDistribution

__all__ = ["EmpiricalDistribution", "HistogramDistribution"]

ArrayLike = Union[float, np.ndarray]


def _piecewise_density(
    knots: np.ndarray, mass: np.ndarray, x: ArrayLike
) -> ArrayLike:
    """Density of ``mass[k]`` spread uniformly over ``knots[k:k+2]``."""
    x_arr = np.asarray(x, dtype=float)
    k = np.searchsorted(knots, x_arr, side="right") - 1
    inside = (k >= 0) & (k < mass.size)
    k = np.clip(k, 0, mass.size - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = mass[k] / (knots[k + 1] - knots[k])
    out = np.where(inside, density, 0.0)
    return float(out) if np.isscalar(x) else out


class HistogramDistribution(MarginalDistribution):
    """Law with a piecewise-linear CDF over histogram bins.

    Mass ``masses[k]`` is spread uniformly over
    ``[edges[k], edges[k + 1]]``, so ``ppf`` is the paper's histogram
    inversion (eq. 7).  ``mean`` and ``variance`` are this law's own
    moments, not those of the samples the bins were counted from.

    Parameters
    ----------
    edges:
        Strictly increasing bin edges, one more than ``masses``.
    masses:
        Non-negative bin masses summing to 1 (within 1e-9; they are
        used as given, not renormalized).
    """

    def __init__(
        self, edges: Sequence[float], masses: Sequence[float]
    ) -> None:
        edges = check_1d_array(edges, "edges").copy()
        masses = check_1d_array(masses, "masses").copy()
        if edges.size != masses.size + 1:
            raise ValidationError(
                "edges must have exactly one more entry than masses, got "
                f"{edges.size} edges and {masses.size} masses"
            )
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("edges must be strictly increasing")
        if np.any(masses < 0):
            raise ValidationError("masses must be non-negative")
        total = float(masses.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"masses must sum to 1, got {total!r}")
        self._edges = edges
        self._masses = masses
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        cum[-1] = 1.0
        # Upper-tail mass summed from the top, so the survival knots
        # keep full relative precision where the CDF rounds toward 1.
        upper = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
        upper[0] = 1.0
        self._cdf_y = cum
        self._sf_y = upper

    @property
    def edges(self) -> np.ndarray:
        """The bin edges (a copy)."""
        return self._edges.copy()

    @property
    def masses(self) -> np.ndarray:
        """The bin masses (a copy)."""
        return self._masses.copy()

    @property
    def mean(self) -> float:
        centers = 0.5 * (self._edges[:-1] + self._edges[1:])
        return float(self._masses @ centers)

    @property
    def variance(self) -> float:
        centers = 0.5 * (self._edges[:-1] + self._edges[1:])
        widths = np.diff(self._edges)
        spread = centers - self.mean
        return float(self._masses @ (spread * spread + widths * widths / 12.0))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        out = np.interp(
            np.asarray(x, dtype=float), self._edges, self._cdf_y,
            left=0.0, right=1.0,
        )
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def sf(self, x: ArrayLike) -> ArrayLike:
        out = np.interp(
            np.asarray(x, dtype=float), self._edges, self._sf_y,
            left=1.0, right=0.0,
        )
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        """The bin's mass over its width (zero outside the bins)."""
        return _piecewise_density(self._edges, np.diff(self._cdf_y), x)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        out = np.interp(q_arr, self._cdf_y, self._edges)
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def isf(self, q: ArrayLike) -> ArrayLike:
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        out = np.interp(q_arr, self._sf_y[::-1], self._edges[::-1])
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def breakpoints(self) -> np.ndarray:
        """The cumulative masses at the interior bin edges."""
        return np.unique(self._cdf_y[1:-1])

    def _table_key(self) -> tuple:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._edges.tobytes())
        digest.update(self._masses.tobytes())
        return ("histogram", digest.digest())

    def __repr__(self) -> str:
        return (
            f"HistogramDistribution(bins={self._masses.size}, "
            f"range=[{self._edges[0]:.6g}, {self._edges[-1]:.6g}])"
        )


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
        self._law = HistogramDistribution(
            self._histogram.edges, self._histogram.frequencies
        )

    @property
    def samples(self) -> np.ndarray:
        """The sorted observed samples (a copy)."""
        return self._samples.copy()

    @property
    def histogram(self) -> Histogram:
        """The underlying frequency histogram."""
        return self._histogram

    @property
    def histogram_law(self) -> HistogramDistribution:
        """The piecewise-linear-CDF law that ``method="histogram"`` inverts."""
        return self._law

    @property
    def mean(self) -> float:
        return float(self._samples.mean())

    @property
    def variance(self) -> float:
        return float(self._samples.var(ddof=1))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Evaluate the (histogram or exact) empirical CDF."""
        if self.method == "histogram":
            return self._law.cdf(x)
        out = np.searchsorted(
            self._samples, np.asarray(x, dtype=float), side="right"
        ) / self._samples.size
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def sf(self, x: ArrayLike) -> ArrayLike:
        """Evaluate the empirical survival function ``1 - F(x)``."""
        if self.method == "histogram":
            return self._law.sf(x)
        n = self._samples.size
        out = (
            n - np.searchsorted(
                self._samples, np.asarray(x, dtype=float), side="right"
            )
        ) / n
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        """Density of the law ``ppf`` inverts (zero outside the data).

        For ``"histogram"`` it is the bin's frequency over its width;
        for ``"exact"`` it is the slope of the linear interpolation
        between order statistics that :func:`numpy.quantile` uses.
        """
        if self.method == "histogram":
            return self._law.pdf(x)
        knots = self._samples
        return _piecewise_density(
            knots, np.full(knots.size - 1, 1.0 / (knots.size - 1)), x
        )

    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Invert the empirical CDF at probability levels ``q``."""
        if self.method == "histogram":
            return self._law.ppf(q)
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        out = np.quantile(self._samples, q_arr)
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def isf(self, q: ArrayLike) -> ArrayLike:
        """Invert the empirical survival function at tail masses ``q``."""
        if self.method == "histogram":
            return self._law.isf(q)
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        out = np.quantile(self._samples, 1.0 - q_arr)
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def breakpoints(self) -> np.ndarray:
        """The knots of the inverted CDF: interior bin edges' masses for
        ``"histogram"``, the order statistics' levels for ``"exact"``."""
        if self.method == "histogram":
            return self._law.breakpoints()
        n = self._samples.size
        return np.arange(1, n - 1) / (n - 1)

    def _table_key(self) -> tuple:
        if self.method == "histogram":
            return self._law._table_key()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._samples.tobytes())
        return (self.method, digest.digest())

    def __repr__(self) -> str:
        return (
            f"EmpiricalDistribution(n={self._samples.size}, "
            f"bins={self.bins}, method={self.method!r})"
        )
