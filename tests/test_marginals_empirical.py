"""Tests for the empirical (histogram-inversion) distribution."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.marginals.empirical import (
    EmpiricalDistribution,
    HistogramDistribution,
)


class TestEmpiricalDistribution:
    def test_moments_match_samples(self, rng):
        data = rng.gamma(2.0, 500.0, size=5000)
        d = EmpiricalDistribution(data)
        assert d.mean == pytest.approx(data.mean())
        assert d.variance == pytest.approx(data.var(ddof=1))

    def test_histogram_cdf_monotone(self, rng):
        data = rng.exponential(size=2000)
        d = EmpiricalDistribution(data, bins=50)
        x = np.linspace(data.min(), data.max(), 200)
        cdf = np.asarray(d.cdf(x))
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0 and cdf[-1] <= 1.0 + 1e-12

    def test_histogram_ppf_cdf_roundtrip(self, rng):
        data = rng.normal(size=3000)
        d = EmpiricalDistribution(data, bins=100)
        q = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-9)

    def test_ppf_range_is_data_range(self, rng):
        data = rng.uniform(10.0, 20.0, size=1000)
        d = EmpiricalDistribution(data, bins=20)
        assert d.ppf(0.0) >= 10.0 - 1e-9
        assert d.ppf(1.0) <= 20.0 + 1e-9

    def test_exact_method_returns_observed_values(self, rng):
        data = np.sort(rng.normal(size=101))
        d = EmpiricalDistribution(data, method="exact")
        assert d.ppf(0.5) == pytest.approx(np.quantile(data, 0.5))

    def test_exact_cdf_step_function(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0], method="exact")
        assert d.cdf(2.5) == pytest.approx(0.5)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(10.0) == 1.0

    def test_quantiles_of_resampled_match(self, rng):
        data = rng.gamma(3.0, 200.0, size=20_000)
        d = EmpiricalDistribution(data, bins=200)
        resampled = d.sample(20_000, np.random.default_rng(1))
        for q in (0.25, 0.5, 0.9):
            assert np.quantile(resampled, q) == pytest.approx(
                np.quantile(data, q), rel=0.05
            )

    def test_histogram_property(self, rng):
        data = rng.normal(size=500)
        d = EmpiricalDistribution(data, bins=25)
        assert d.histogram.total == 500

    def test_samples_property_sorted_copy(self):
        d = EmpiricalDistribution([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(d.samples, [1.0, 2.0, 3.0])

    def test_ppf_clips_probs(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert d.ppf(-0.5) == d.ppf(0.0)
        assert d.ppf(1.5) == d.ppf(1.0)

    def test_rejects_bad_method(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([1.0, 2.0], method="kde")

    def test_rejects_single_sample(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([1.0])


class TestHistogramDistribution:
    def test_moments_are_the_laws_own(self):
        # Uniform on [0, 1] with mass 1/4, uniform on [1, 3] with 3/4.
        law = HistogramDistribution([0.0, 1.0, 3.0], [0.25, 0.75])
        mean = 0.25 * 0.5 + 0.75 * 2.0
        second = 0.25 * (1.0 / 3.0) + 0.75 * (27.0 - 1.0) / 6.0
        assert law.mean == pytest.approx(mean, rel=1e-15)
        assert law.variance == pytest.approx(second - mean**2, rel=1e-14)

    def test_cdf_ppf_and_survival_sides(self):
        law = HistogramDistribution([0.0, 1.0, 3.0], [0.25, 0.75])
        assert law.cdf(2.0) == pytest.approx(0.625)
        assert law.sf(2.0) == pytest.approx(0.375)
        assert law.ppf(0.625) == pytest.approx(2.0)
        assert law.isf(0.375) == pytest.approx(2.0)
        assert law.pdf(0.5) == pytest.approx(0.25)
        assert law.pdf(2.0) == pytest.approx(0.375)
        assert law.pdf(4.0) == 0.0
        np.testing.assert_array_equal(law.breakpoints(), [0.25])

    @pytest.mark.parametrize(
        "edges, masses",
        [
            ([0.0, 1.0], [0.5, 0.5]),
            ([0.0, 0.0, 1.0], [0.5, 0.5]),
            ([0.0, 1.0, 2.0], [1.5, -0.5]),
            ([0.0, 1.0, 2.0], [0.5, 0.4]),
        ],
    )
    def test_rejects_bad_bins(self, edges, masses):
        with pytest.raises(ValidationError):
            HistogramDistribution(edges, masses)

    def test_empirical_histogram_mode_is_this_law(self, rng):
        # The histogram-mode EmpiricalDistribution delegates to its
        # law; these are the formulas it evaluated inline before.
        d = EmpiricalDistribution(rng.gamma(2.0, 300.0, 3000), bins=50)
        edges = d.histogram.edges
        freq = d.histogram.frequencies
        cum = np.concatenate([[0.0], np.cumsum(freq)])
        cum[-1] = 1.0
        upper = np.concatenate([np.cumsum(freq[::-1])[::-1], [0.0]])
        upper[0] = 1.0
        x = np.linspace(-50.0, 5000.0, 997)
        q = np.linspace(-0.01, 1.01, 513)
        np.testing.assert_array_equal(
            d.cdf(x), np.interp(x, edges, cum, left=0.0, right=1.0)
        )
        np.testing.assert_array_equal(
            d.sf(x), np.interp(x, edges, upper, left=1.0, right=0.0)
        )
        qc = np.clip(q, 0.0, 1.0)
        np.testing.assert_array_equal(d.ppf(q), np.interp(qc, cum, edges))
        np.testing.assert_array_equal(
            d.isf(q), np.interp(qc, upper[::-1], edges[::-1])
        )
        np.testing.assert_array_equal(d.pdf(x), d.histogram_law.pdf(x))
        assert d.mean == pytest.approx(np.mean(d.samples))
