"""Tests for the marginal inversion transform (eq. 7)."""

import numpy as np
import pytest
from scipy import special, stats

from repro.exceptions import ValidationError
from repro.marginals.empirical import EmpiricalDistribution
from repro.marginals.parametric import (
    GammaDistribution,
    GammaParetoDistribution,
    LognormalDistribution,
    NormalDistribution,
    ParetoDistribution,
)
from repro.marginals.transform import (
    MarginalTransform,
    clear_transform_tables,
    transform_table_info,
)


class TestMarginalTransform:
    def test_identity_for_standard_normal_target(self):
        tr = MarginalTransform(NormalDistribution(0.0, 1.0))
        x = np.linspace(-3, 3, 50)
        np.testing.assert_allclose(tr(x), x, atol=1e-9)

    def test_monotone(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.linspace(-4, 4, 100)
        y = tr(x)
        assert np.all(np.diff(y) >= 0)

    def test_output_has_target_marginal(self, rng):
        target = GammaDistribution(3.0, 2.0)
        tr = MarginalTransform(target)
        x = rng.standard_normal(100_000)
        y = tr(x)
        assert y.mean() == pytest.approx(target.mean, rel=0.02)
        assert np.quantile(y, 0.9) == pytest.approx(
            float(target.ppf(0.9)), rel=0.02
        )

    def test_inverse_roundtrip(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(tr.inverse(tr(x)), x, atol=1e-7)

    def test_empirical_target(self, rng):
        data = rng.gamma(2.0, 1000.0, size=5000)
        tr = MarginalTransform(EmpiricalDistribution(data, bins=100))
        y = tr(rng.standard_normal(50_000))
        assert y.mean() == pytest.approx(data.mean(), rel=0.05)
        assert y.min() >= data.min() - 1e-9
        assert y.max() <= data.max() + 1e-9

    def test_scalar_dispatch(self):
        tr = MarginalTransform(NormalDistribution(5.0, 2.0))
        assert isinstance(tr(0.0), float)
        assert tr(0.0) == pytest.approx(5.0)

    def test_shape_preserved(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.zeros((3, 4))
        assert tr(x).shape == (3, 4)

    def test_table_matches_call(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        grid = np.linspace(-6, 6, 13)
        np.testing.assert_allclose(tr.table(grid), tr(grid))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValidationError):
            MarginalTransform(lambda x: x)

    def test_hurst_preserved_by_transform(self):
        """Numerical check of the Appendix A theorem: Y = h(X) keeps H."""
        from repro.estimators.variance_time import variance_time_estimate
        from repro.processes.fgn import fgn_generate

        h_true = 0.85
        x = fgn_generate(h_true, 1 << 16, random_state=7)
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        y = tr(x)
        est = variance_time_estimate(np.asarray(y))
        assert est.hurst == pytest.approx(h_true, abs=0.1)


class TestFastPaths:
    """The affine normal form and the table's tolerance contract."""

    def test_gamma_table_matches_exact_h(self):
        # The table replaces the bitwise gammaincinv(shape, ndtr(x))
        # path; the contract is now 1e-9 relative against the exact h.
        target = GammaDistribution(4.0, 0.5)
        tr = MarginalTransform(target)
        x = np.random.default_rng(3).normal(size=(4, 257))
        np.testing.assert_allclose(tr(x), tr.exact(x), rtol=1e-9, atol=0)
        u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
        np.testing.assert_allclose(tr(x), target.ppf(u), rtol=1e-9, atol=0)

    def test_normal_fast_path_is_affine(self):
        target = NormalDistribution(10.0, 2.5)
        tr = MarginalTransform(target)
        x = np.random.default_rng(5).normal(size=1024)
        np.testing.assert_array_equal(tr(x), 10.0 + 2.5 * x)
        # The affine form is the exact h; the copula roundtrip only
        # agrees to ppf rounding.
        u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
        np.testing.assert_allclose(tr(x), target.ppf(u), rtol=1e-12)

    def test_normal_fast_path_survives_extreme_arguments(self):
        # Beyond |x| ~ 8 the copula path saturates at Phi(x) == 1 and
        # needs clipping; the affine path is exact out to any x.
        tr = MarginalTransform(NormalDistribution(0.0, 1.0))
        x = np.array([-40.0, -9.0, 9.0, 40.0])
        np.testing.assert_array_equal(tr(x), x)
        assert np.all(np.isfinite(tr(x)))

    def test_empirical_table_matches_exact_h(self):
        # The histogram inversion goes through the same table as the
        # parametric families, within 1e-9 of ppf(Phi(x)).
        values = np.random.default_rng(11).gamma(3.0, 1.0, size=500)
        target = EmpiricalDistribution(values)
        tr = MarginalTransform(target)
        x = np.linspace(-3, 3, 64)
        u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
        np.testing.assert_allclose(tr(x), target.ppf(u), rtol=1e-9, atol=0)
        np.testing.assert_allclose(tr(x), tr.exact(x), rtol=1e-9, atol=0)

    def test_scalar_inputs_keep_float_semantics(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.5))
        out = tr(0.3)
        assert isinstance(out, float)
        tr_norm = MarginalTransform(NormalDistribution(1.0, 2.0))
        assert isinstance(tr_norm(0.0), float)
        assert tr_norm(0.0) == pytest.approx(1.0)


#: Background values |x| <= 8, the range the closed forms are checked on.
X_WIDE = np.linspace(-8.0, 8.0, 4001)


def _closed_forms():
    # (target, h(x) in closed form, evaluated without cancellation).
    lower = X_WIDE <= 0
    upper_tail = special.ndtr(-X_WIDE)
    log_upper = np.where(
        lower,
        np.log1p(-special.ndtr(X_WIDE)),
        np.log(upper_tail),
    )
    return [
        pytest.param(
            LognormalDistribution(1.0, 2.0),
            np.exp(1.0 + 2.0 * X_WIDE),
            id="lognormal",
        ),
        pytest.param(
            ParetoDistribution(1.2, 2.0),
            2.0 * np.exp(-log_upper / 1.2),
            id="pareto",
        ),
        pytest.param(
            GammaDistribution(1.0, 3.0),
            -3.0 * log_upper,
            id="gamma-shape-1",
        ),
    ]


class TestClosedForms:
    """Exact h to 1e-12 and the table to 1e-9 against closed forms."""

    @pytest.mark.parametrize("target, expected", _closed_forms())
    def test_exact_path(self, target, expected):
        tr = MarginalTransform(target)
        np.testing.assert_allclose(
            tr.exact(X_WIDE), expected, rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("target, expected", _closed_forms())
    def test_table_path(self, target, expected):
        tr = MarginalTransform(target)
        np.testing.assert_allclose(tr(X_WIDE), expected, rtol=1e-9, atol=0)

    def test_right_tail_does_not_saturate(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.linspace(8.0, 30.0, 200)
        y = tr(x)
        assert np.all(np.isfinite(y))
        assert np.all(np.diff(y) > 0)

    @pytest.mark.parametrize(
        "target",
        [
            GammaDistribution(2.0, 1.0),
            LognormalDistribution(0.0, 1.5),
            GammaParetoDistribution(2.0, 1.0, 1.5),
        ],
        ids=["gamma", "lognormal", "gamma-pareto"],
    )
    def test_inverse_is_symmetric_in_both_tails(self, target):
        tr = MarginalTransform(target)
        np.testing.assert_allclose(
            tr.inverse(tr.exact(X_WIDE)), X_WIDE, rtol=0, atol=1e-8
        )


def _sample_targets():
    rng = np.random.default_rng(21)
    return [
        GammaDistribution(0.7, 2.0),
        GammaParetoDistribution(3.0, 1.0, 1.4),
        EmpiricalDistribution(rng.gamma(2.0, 100.0, size=3000)),
    ]


class TestTableIdentity:
    """The table is elementwise and a pure function of the law."""

    @pytest.mark.parametrize("target", _sample_targets())
    def test_block_equals_row_by_row(self, target):
        tr = MarginalTransform(target)
        # Longer than one evaluation chunk, with tails past the range.
        x = 2.5 * np.random.default_rng(8).normal(size=(3, 9001))
        block = tr(x)
        rows = np.stack([tr(row) for row in x])
        np.testing.assert_array_equal(block, rows)
        single = np.array([tr(float(v)) for v in x[0, :300]])
        np.testing.assert_array_equal(block[0, :300], single)

    @pytest.mark.parametrize("target", _sample_targets())
    def test_fresh_table_is_bitwise_the_same(self, target):
        x = np.random.default_rng(9).normal(size=5000)
        first = MarginalTransform(target)(x)
        clear_transform_tables()
        np.testing.assert_array_equal(MarginalTransform(target)(x), first)

    def test_nonfinite_inputs_follow_the_exact_path(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        y = tr(np.array([np.nan, -np.inf, np.inf, 0.0]))
        assert np.isnan(y[0])
        # The tail probability is floored at 1e-300, so h(-inf) is the
        # (tiny) quantile there rather than the support's edge.
        assert 0.0 <= y[1] < 1e-100
        assert np.isfinite(y[2]) and y[2] > 100.0
        assert y[3] == pytest.approx(float(tr.exact(0.0)), rel=1e-12)


class TestTableCache:
    def test_one_build_per_law(self):
        clear_transform_tables()
        target = GammaDistribution(3.0, 2.0)
        x = np.linspace(-2, 2, 9)
        MarginalTransform(target)(x)
        MarginalTransform(GammaDistribution(3.0, 2.0))(x)
        tr = MarginalTransform(target)
        for _ in range(3):
            tr(x)
        info = transform_table_info()
        assert (info.tables, info.builds, info.hits) == (1, 1, 2)

    def test_normal_target_builds_no_table(self):
        clear_transform_tables()
        MarginalTransform(NormalDistribution(1.0, 2.0))(np.zeros(4))
        assert transform_table_info().builds == 0

    def test_pickled_transform_carries_no_table(self):
        import pickle

        from repro.core.aggregate import SourceClass

        data = np.random.default_rng(4).gamma(2.0, 50.0, size=2000)
        klass = SourceClass(
            "fitted",
            correlation=0.8,
            marginal=EmpiricalDistribution(data),
            count=3,
        )
        before = len(pickle.dumps(klass))
        klass.transform(np.zeros(8))
        assert len(pickle.dumps(klass)) == before
        clone = pickle.loads(pickle.dumps(klass))
        np.testing.assert_array_equal(
            clone.transform(np.linspace(-3, 3, 50)),
            klass.transform(np.linspace(-3, 3, 50)),
        )

    def test_too_many_breakpoints_evaluates_exactly(self):
        data = np.random.default_rng(6).gamma(2.0, 50.0, size=20_000)
        target = EmpiricalDistribution(data, method="exact")
        tr = MarginalTransform(target)
        x = np.linspace(-3, 3, 101)
        np.testing.assert_array_equal(tr(x), tr.exact(x))
