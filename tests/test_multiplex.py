"""Tests for the aggregate (multiplexed) VBR model."""

import numpy as np
import pytest
from scipy import stats

from repro.core.multiplex import AggregateVBRModel, aggregate_marginal
from repro.core.unified import UnifiedVBRModel
from repro.exceptions import NotFittedError, ValidationError
from repro.marginals.empirical import EmpiricalDistribution
from repro.marginals.parametric import (
    GammaDistribution,
    GammaParetoDistribution,
)


class TestAggregateMarginal:
    def test_mean_scales_linearly(self, rng):
        base = EmpiricalDistribution(
            rng.gamma(2.0, 500.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 4)
        assert agg.mean == pytest.approx(4 * base.mean, rel=0.05)

    def test_variance_scales_linearly(self, rng):
        base = EmpiricalDistribution(
            rng.gamma(2.0, 500.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 9)
        assert agg.variance == pytest.approx(
            9 * base.variance, rel=0.15
        )

    def test_relative_burstiness_shrinks(self, rng):
        base = EmpiricalDistribution(
            rng.lognormal(0.0, 1.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 16)
        base_cv = np.sqrt(base.variance) / base.mean
        agg_cv = np.sqrt(agg.variance) / agg.mean
        assert agg_cv == pytest.approx(base_cv / 4.0, rel=0.2)

    def test_single_source_identity_distribution(self, rng):
        base = EmpiricalDistribution(
            rng.gamma(3.0, 100.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 1)
        for q in (0.25, 0.5, 0.9):
            assert float(agg.ppf(q)) == pytest.approx(
                float(base.ppf(q)), rel=0.05
            )


def _ks_to_sample(cdf, sorted_sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a continuous CDF to a sample."""
    n = sorted_sample.size
    values = cdf(sorted_sample)
    ranks = np.arange(1, n + 1)
    return float(max(np.max(ranks / n - values),
                     np.max(values - (ranks - 1) / n)))


def _monte_carlo_sums(draw, n: int, samples: int, seed: int) -> np.ndarray:
    """Sorted sums of ``n`` draws, ``samples`` times, in bounded chunks."""
    rng = np.random.default_rng(seed)
    rows = max(1, (1 << 20) // n)
    sums = np.empty(samples)
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        sums[start:start + count] = (
            draw(rng, count * n).reshape(count, n).sum(axis=1)
        )
    return np.sort(sums)


def _gamma_pareto_draws(law: GammaParetoDistribution):
    """Exact fast sampler: truncated-Gamma body by rejection, Pareto tail."""
    k, theta = law.gamma.shape, law.gamma.scale
    splice, alpha = law.splice_point, law.tail_alpha

    def draw(rng, size):
        out = np.empty(size)
        tail = rng.random(size) >= law.splice_quantile
        out[tail] = splice * rng.random(int(tail.sum())) ** (-1.0 / alpha)
        body = np.flatnonzero(~tail)
        while body.size:
            values = rng.gamma(k, theta, body.size)
            ok = values <= splice
            out[body[ok]] = values[ok]
            body = body[~ok]
        return out

    return draw


class TestConvolution:
    """The FFT doubling convolution against closed forms and references."""

    @pytest.mark.parametrize("shape", [1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 16, 256, 2000, 10**6])
    def test_gamma_sum_matches_closed_form(self, shape, n):
        # Sum of n iid Gamma(k, theta) is Gamma(n k, theta).
        law = aggregate_marginal(GammaDistribution(shape, 3.0), n)
        edges = law.edges
        x = np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])])
        truth = stats.gamma(n * shape, scale=3.0).cdf(x)
        assert np.max(np.abs(law.cdf(x) - truth)) <= 1e-4

    @pytest.mark.parametrize("n", [2, 3, 37, 256, 2000, 10**6])
    def test_moments_scale_with_n(self, n, rng):
        for source in (
            EmpiricalDistribution(rng.gamma(2.0, 500.0, 5000), bins=100),
            GammaDistribution(1.0, 2.0),
        ):
            one = aggregate_marginal(source, 1)
            law = aggregate_marginal(source, n)
            assert law.mean == pytest.approx(n * one.mean, rel=1e-9)
            assert law.variance == pytest.approx(n * one.variance, rel=1e-3)

    def test_histogram_source_is_its_own_grid_law(self, rng):
        base = EmpiricalDistribution(rng.gamma(2.0, 500.0, 5000), bins=100)
        one = aggregate_marginal(base, 1)
        law = base.histogram_law
        assert one.mean == pytest.approx(law.mean, rel=1e-12)
        assert one.variance == pytest.approx(law.variance, rel=1e-12)
        # Off the knot levels (multiples of 1/5000), where a run of empty
        # bins leaves ppf free anywhere in the gap.
        q = (np.arange(1000) + 0.5) / 1000
        np.testing.assert_allclose(one.ppf(q), law.ppf(q), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 16])
    def test_empirical_ks_no_worse_than_monte_carlo(
        self, n, fitted_unified
    ):
        base = fitted_unified.marginal_
        draw = lambda rng, size: base.sample(size, rng)  # noqa: E731
        self._check_against_monte_carlo(base, draw, n)

    @pytest.mark.parametrize("n", [2, 16])
    def test_gamma_pareto_ks_no_worse_than_monte_carlo(self, n):
        base = GammaParetoDistribution(2.0, 1.0, 1.5)
        self._check_against_monte_carlo(base, _gamma_pareto_draws(base), n)

    @staticmethod
    def _check_against_monte_carlo(base, draw, n):
        reference = _monte_carlo_sums(draw, n, 1 << 20, seed=2024)
        small = _monte_carlo_sums(draw, n, 1 << 17, seed=7)
        monte_carlo_ks = stats.ks_2samp(small, reference).statistic
        law_ks = _ks_to_sample(aggregate_marginal(base, n).cdf, reference)
        assert law_ks <= monte_carlo_ks, (law_ks, monte_carlo_ks)

    def test_memory_flat_at_one_million_sources(self, rng):
        import tracemalloc

        base = EmpiricalDistribution(rng.gamma(2.0, 500.0, 4000), bins=100)
        tracemalloc.start()
        law = aggregate_marginal(base, 10**6)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert law.masses.size <= 4096

    @pytest.mark.parametrize("bins", [7, 4096, 5000])
    def test_any_histogram_bin_count(self, rng, bins):
        base = EmpiricalDistribution(rng.gamma(2.0, 500.0, 20000), bins=bins)
        one, law = aggregate_marginal(base, 1), aggregate_marginal(base, 9)
        assert one.masses.size <= 4096 and law.masses.size <= 4096
        # Past 4096 bins the source law itself is merged pairwise first,
        # which moves its mean by about a bin width's worth of skew.
        exact = 1e-12 if bins <= 4096 else 1e-5
        assert one.mean == pytest.approx(base.histogram_law.mean, rel=exact)
        assert law.mean == pytest.approx(9 * one.mean, rel=1e-9)

    def test_deterministic(self, rng):
        base = EmpiricalDistribution(rng.gamma(2.0, 500.0, 4000), bins=100)
        a, b = aggregate_marginal(base, 300), aggregate_marginal(base, 300)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.masses, b.masses)

    def test_rejects_bad_num_sources(self, rng):
        base = EmpiricalDistribution(rng.gamma(2.0, 500.0, 400), bins=10)
        with pytest.raises(ValidationError):
            aggregate_marginal(base, 0)


class TestAggregateVBRModel:
    def test_requires_fitted_base(self):
        with pytest.raises(NotFittedError):
            AggregateVBRModel(UnifiedVBRModel(), 4)

    def test_requires_unified_model(self):
        with pytest.raises(ValidationError):
            AggregateVBRModel("nope", 4)

    def test_attenuation_rises_with_sources(self, fitted_unified):
        a1 = AggregateVBRModel(fitted_unified, 1).attenuation
        a16 = AggregateVBRModel(fitted_unified, 16).attenuation
        assert a16 > a1
        assert a16 > 0.9  # CLT: the aggregate transform is near-affine

    def test_generate_mean_scales(self, fitted_unified):
        agg = AggregateVBRModel(fitted_unified, 8)
        y = agg.generate(400, size=64, random_state=7)
        expected = 8 * fitted_unified.marginal_.mean
        assert float(np.mean(y)) == pytest.approx(expected, rel=0.1)

    def test_arrival_transform_unit_mean(self, fitted_unified, rng):
        agg = AggregateVBRModel(fitted_unified, 4)
        arrivals = agg.arrival_transform()
        out = arrivals(rng.standard_normal(100_000))
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_generation_method(self, fitted_unified):
        agg = AggregateVBRModel(fitted_unified, 2)
        with pytest.raises(ValidationError):
            agg.generate(10, method="nope")

    def test_multiplexing_gain_in_queueing(self, fitted_unified):
        """More sources at the same utilization -> lower overflow
        probability at the same normalized buffer (the paper's §1
        statistical-multiplexing motivation)."""
        from repro.simulation import is_overflow_probability

        results = {}
        for n in (1, 16):
            agg = AggregateVBRModel(fitted_unified, n)
            results[n] = is_overflow_probability(
                agg.background_correlation,
                agg.arrival_transform(),
                service_rate=1.0 / 0.4,
                buffer_size=25.0,
                horizon=250,
                twisted_mean=1.5,
                replications=400,
                random_state=11,
            ).probability
        assert results[16] < results[1]


class TestAggregateTail:
    """The region the importance-sampling twist samples (m* = 3-6)."""

    @pytest.fixture(scope="class")
    def aggregate(self, fitted_unified):
        return AggregateVBRModel(fitted_unified, 256)

    def test_h_strictly_increasing_on_4_to_6(self, aggregate):
        # A 2^17-sum Monte Carlo law saturates at its largest drawn sum
        # (about +4.8 sd): past it h crept through the last bin at
        # 2e-5 of its body slope.  The convolved law reaches ~8 sd,
        # and for a near-Gaussian sum h keeps about its body slope.
        x = np.linspace(4.0, 6.0, 401)
        slope = np.diff(aggregate.transform_(x)) / np.diff(x)
        body = aggregate.transform_(0.5) - aggregate.transform_(-0.5)
        assert np.all(slope > 0)
        assert slope.min() >= 0.5 * body

    def test_arrivals_divide_by_n_times_source_law_mean(
        self, aggregate, fitted_unified
    ):
        x = np.linspace(-3.0, 6.0, 37)
        divisor = aggregate.transform_(x) / aggregate.arrival_transform()(x)
        source_mean = aggregate_marginal(fitted_unified.marginal_, 1).mean
        np.testing.assert_allclose(divisor, 256 * source_mean, rtol=1e-9)
