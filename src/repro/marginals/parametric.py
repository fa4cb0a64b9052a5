"""Parametric marginal distributions.

All distributions implement the small :class:`MarginalDistribution`
interface consumed by :class:`~repro.marginals.transform.MarginalTransform`:
a CDF and its survival side, an inverse CDF (``ppf``) and inverse
survival function (``isf``), a density, the quantile levels where the
inverse CDF has a kink (``breakpoints``), and first moments.  Included
are the distributions the VBR video literature actually uses:

- Gamma — body of the frame-size distribution (Garrett & Willinger '94),
- Pareto — the heavy tail responsible for the "long tail ... far from
  Gaussian" the paper observes (§3),
- GammaPareto — the combined Gamma body / Pareto tail model of
  Garrett & Willinger, the paper's reference [7],
- Lognormal and Normal — common baselines.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np
from scipy import stats

from .._validation import check_in_range, check_positive_float
from ..exceptions import ValidationError

__all__ = [
    "MarginalDistribution",
    "GammaDistribution",
    "ParetoDistribution",
    "GammaParetoDistribution",
    "LognormalDistribution",
    "NormalDistribution",
]

ArrayLike = Union[float, np.ndarray]


class MarginalDistribution(abc.ABC):
    """Minimal distribution interface for marginal modeling.

    Subclasses must provide ``cdf``, ``ppf``, ``mean`` and
    ``variance``.  ``sf`` and ``isf`` default to ``1 - cdf`` and
    ``ppf(1 - q)``; override them where the upper tail can be evaluated
    without that cancellation.  A subclass that also implements ``pdf``
    and ``_table_key`` has its eq. 7 transform served from a
    precomputed table (see :mod:`repro.marginals.transform`); otherwise
    the transform evaluates it exactly.
    """

    @abc.abstractmethod
    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Cumulative distribution function."""

    @abc.abstractmethod
    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Inverse CDF (quantile function) for ``q`` in [0, 1]."""

    def sf(self, x: ArrayLike) -> ArrayLike:
        """Survival function ``1 - F(x)``."""
        return 1.0 - np.asarray(self.cdf(x), dtype=float)

    def isf(self, q: ArrayLike) -> ArrayLike:
        """Inverse survival function: the ``x`` with ``P(X > x) = q``."""
        return self.ppf(1.0 - np.asarray(q, dtype=float))

    def pdf(self, x: ArrayLike) -> ArrayLike:
        """Probability density function."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement pdf"
        )

    def breakpoints(self) -> np.ndarray:
        """Quantile levels in (0, 1) where ``ppf`` is not smooth.

        The transform's table splits its cell at each such level (or
        evaluates ``h`` exactly there) instead of interpolating across a
        kink or a jump.  Default: none.
        """
        return np.empty(0)

    def _table_key(self) -> Optional[tuple]:
        """Hashable identity of the law, or None to skip the h table.

        Two distributions with equal keys (and equal types) must have
        the same ``ppf``, ``isf`` and ``pdf``.
        """
        return None

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Distribution mean."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Distribution variance."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` samples by inverse-CDF sampling."""
        return np.asarray(self.ppf(rng.uniform(size=n)), dtype=float)


class _ScipyBacked(MarginalDistribution):
    """Adapter for frozen scipy.stats distributions."""

    def __init__(self, frozen) -> None:
        self._dist = frozen

    def cdf(self, x: ArrayLike) -> ArrayLike:
        return self._dist.cdf(x)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        return self._dist.ppf(q)

    def sf(self, x: ArrayLike) -> ArrayLike:
        return self._dist.sf(x)

    def isf(self, q: ArrayLike) -> ArrayLike:
        return self._dist.isf(q)

    def pdf(self, x: ArrayLike) -> ArrayLike:
        return self._dist.pdf(x)

    def _table_key(self) -> tuple:
        return (self._dist.args, tuple(sorted(self._dist.kwds.items())))

    @property
    def mean(self) -> float:
        return float(self._dist.mean())

    @property
    def variance(self) -> float:
        return float(self._dist.var())


class GammaDistribution(_ScipyBacked):
    """Gamma distribution with shape ``k`` and scale ``theta``."""

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = check_positive_float(shape, "shape")
        self.scale = check_positive_float(scale, "scale")
        super().__init__(stats.gamma(self.shape, scale=self.scale))

    def __repr__(self) -> str:
        return f"GammaDistribution(shape={self.shape}, scale={self.scale})"


class ParetoDistribution(_ScipyBacked):
    """Pareto distribution: ``P(X > x) = (xm / x)^alpha`` for ``x >= xm``."""

    def __init__(self, alpha: float, xm: float) -> None:
        self.alpha = check_positive_float(alpha, "alpha")
        self.xm = check_positive_float(xm, "xm")
        super().__init__(stats.pareto(self.alpha, scale=self.xm))

    def __repr__(self) -> str:
        return f"ParetoDistribution(alpha={self.alpha}, xm={self.xm})"


class LognormalDistribution(_ScipyBacked):
    """Lognormal distribution of ``exp(N(mu, sigma^2))``."""

    def __init__(self, mu: float, sigma: float) -> None:
        self.mu = float(mu)
        self.sigma = check_positive_float(sigma, "sigma")
        super().__init__(stats.lognorm(self.sigma, scale=np.exp(self.mu)))

    def __repr__(self) -> str:
        return f"LognormalDistribution(mu={self.mu}, sigma={self.sigma})"


class NormalDistribution(_ScipyBacked):
    """Normal distribution N(mu, sigma^2)."""

    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        self.mu = float(mu)
        self.sigma = check_positive_float(sigma, "sigma")
        super().__init__(stats.norm(self.mu, self.sigma))

    def __repr__(self) -> str:
        return f"NormalDistribution(mu={self.mu}, sigma={self.sigma})"


class GammaParetoDistribution(MarginalDistribution):
    """Gamma body with a Pareto tail (Garrett & Willinger 1994).

    The distribution follows a Gamma law up to the splice point and a
    Pareto law beyond it:

    .. math::

        F(x) = \\begin{cases}
            F_\\Gamma(x) & x \\le x_c \\\\
            F_\\Gamma(x_c) + (1 - F_\\Gamma(x_c))
                \\big(1 - (x_c / x)^{\\alpha}\\big) & x > x_c
        \\end{cases}

    so the tail mass ``1 - F_Gamma(x_c)`` is redistributed as a Pareto
    with scale ``x_c``.  The CDF is continuous and strictly increasing,
    making the inverse well defined piecewise.

    Parameters
    ----------
    shape, scale:
        Gamma body parameters.
    tail_alpha:
        Pareto tail index (smaller = heavier tail; < 2 gives infinite
        variance, matching measured MPEG frame-size tails).
    splice_quantile:
        Quantile of the Gamma body where the tail takes over
        (default 0.97, in the range Garrett & Willinger report).
    """

    def __init__(
        self,
        shape: float,
        scale: float,
        tail_alpha: float,
        *,
        splice_quantile: float = 0.97,
    ) -> None:
        self.gamma = GammaDistribution(shape, scale)
        self.tail_alpha = check_positive_float(tail_alpha, "tail_alpha")
        self.splice_quantile = check_in_range(
            splice_quantile,
            "splice_quantile",
            0.0,
            1.0,
            inclusive_low=False,
            inclusive_high=False,
        )
        self.splice_point = float(self.gamma.ppf(self.splice_quantile))
        if self.splice_point <= 0:
            raise ValidationError(
                "splice point must be positive; check the Gamma parameters"
            )
        self._body_mass = self.splice_quantile
        self._tail_mass = 1.0 - self.splice_quantile
        self._pareto = ParetoDistribution(self.tail_alpha, self.splice_point)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x_arr = np.asarray(x, dtype=float)
        body = np.asarray(self.gamma.cdf(x_arr), dtype=float)
        tail = self._body_mass + self._tail_mass * np.asarray(
            self._pareto.cdf(x_arr), dtype=float
        )
        out = np.where(x_arr <= self.splice_point, body, tail)
        return float(out) if np.isscalar(x) else out

    def sf(self, x: ArrayLike) -> ArrayLike:
        x_arr = np.asarray(x, dtype=float)
        body = np.asarray(self.gamma.sf(x_arr), dtype=float)
        tail = self._tail_mass * np.asarray(
            self._pareto.sf(x_arr), dtype=float
        )
        out = np.where(x_arr <= self.splice_point, body, tail)
        return float(out) if np.isscalar(x) else out

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x_arr = np.asarray(x, dtype=float)
        body = np.asarray(self.gamma.pdf(x_arr), dtype=float)
        tail = self._tail_mass * np.asarray(
            self._pareto.pdf(x_arr), dtype=float
        )
        out = np.where(x_arr <= self.splice_point, body, tail)
        return float(out) if np.isscalar(x) else out

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q_arr = np.asarray(q, dtype=float)
        body = np.asarray(self.gamma.ppf(np.minimum(q_arr, self._body_mass)))
        tail_q = np.clip(
            (q_arr - self._body_mass) / max(self._tail_mass, 1e-300), 0.0, 1.0
        )
        tail = np.asarray(self._pareto.ppf(tail_q), dtype=float)
        out = np.where(q_arr <= self._body_mass, body, tail)
        return float(out) if np.isscalar(q) else out

    def isf(self, q: ArrayLike) -> ArrayLike:
        # Above the splice the upper tail mass is tail_mass x the
        # Pareto survival; below it, 1 - F is the Gamma survival.
        q_arr = np.asarray(q, dtype=float)
        body = np.asarray(self.gamma.isf(np.maximum(q_arr, self._tail_mass)))
        tail = np.asarray(
            self._pareto.isf(
                np.clip(q_arr / max(self._tail_mass, 1e-300), 0.0, 1.0)
            ),
            dtype=float,
        )
        out = np.where(q_arr >= self._tail_mass, body, tail)
        return float(out) if np.isscalar(q) else out

    def breakpoints(self) -> np.ndarray:
        """The splice quantile, where the Pareto tail takes over."""
        return np.array([self.splice_quantile])

    def _table_key(self) -> tuple:
        return (
            self.gamma.shape,
            self.gamma.scale,
            self.tail_alpha,
            self.splice_quantile,
        )

    @property
    def mean(self) -> float:
        # E[X] = E[X; body] + tail_mass * E[Pareto].
        body_part = self._truncated_gamma_mean()
        if self.tail_alpha <= 1.0:
            return float("inf")
        tail_mean = (
            self.tail_alpha * self.splice_point / (self.tail_alpha - 1.0)
        )
        return body_part + self._tail_mass * tail_mean

    @property
    def variance(self) -> float:
        if self.tail_alpha <= 2.0:
            return float("inf")
        # Second moment: body piece by quadrature, tail in closed form.
        qs = np.linspace(0.0, self._body_mass, 4097)[1:]
        xs = np.asarray(self.gamma.ppf(qs), dtype=float)
        body_second = float(np.trapezoid(xs**2, qs))
        tail_second = (
            self.tail_alpha
            * self.splice_point**2
            / (self.tail_alpha - 2.0)
        )
        second = body_second + self._tail_mass * tail_second
        return second - self.mean**2

    def _truncated_gamma_mean(self) -> float:
        """E[X; X <= splice] of the Gamma body (exact via Gamma identity)."""
        k, theta = self.gamma.shape, self.gamma.scale
        inner = stats.gamma(k + 1.0, scale=theta)
        return k * theta * float(inner.cdf(self.splice_point))

    def __repr__(self) -> str:
        return (
            f"GammaParetoDistribution(shape={self.gamma.shape}, "
            f"scale={self.gamma.scale}, tail_alpha={self.tail_alpha}, "
            f"splice_quantile={self.splice_quantile})"
        )
