import math

import numpy as np
import pytest

from densigraph import synth
from densigraph import statfit
from densigraph.errors import (
    AllFitsFailed,
    DegenerateSample,
    InvalidParams,
    NoConvergence,
    NonPositiveSample,
)
from densigraph.statfit import (
    FAMILIES,
    cdf_eval,
    digamma,
    erf,
    fit_exponential,
    fit_gamma,
    fit_loglogistic,
    fit_normal,
    fit_weibull,
    gammainc,
    ks_critical_95,
    ks_statistic,
    rank_fits,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329


class TestExponential:
    def test_closed_form(self):
        assert fit_exponential([2, 2, 2])["rate"] == pytest.approx(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveSample):
            fit_exponential([1.0, -1.0, 2.0])

    def test_recovery(self):
        sample = synth.sample_distribution("exponential", {"rate": 1.5}, 10_000, 101)
        assert 1.425 <= fit_exponential(sample)["rate"] <= 1.575


class TestNormal:
    def test_two_points(self):
        p = fit_normal([-1.0, 1.0])
        assert p["mu"] == 0.0 and p["sigma"] == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_normal([5.0, 5.0, 5.0])

    def test_recovery(self):
        sample = synth.sample_distribution("normal", {"mu": 10, "sigma": 2}, 10_000, 102)
        p = fit_normal(sample)
        assert 9.9 <= p["mu"] <= 10.1 and 1.9 <= p["sigma"] <= 2.1


class TestGamma:
    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_gamma([1.0, 1.0, 1.0, 1.0])

    def test_shape_one_is_exponential_cdf(self):
        assert cdf_eval("gamma", {"shape": 1.0, "scale": 2.0}, 2.0) == pytest.approx(
            1 - math.exp(-1), abs=1e-12
        )

    def test_recovery(self):
        sample = synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 10_000, 103)
        p = fit_gamma(sample)
        assert 1.9 <= p["shape"] <= 2.1 and 2.85 <= p["scale"] <= 3.15


class TestWeibull:
    def test_shape_one_is_exponential_cdf(self):
        assert cdf_eval("weibull", {"shape": 1.0, "scale": 2.0}, 2.0) == pytest.approx(
            1 - math.exp(-1), abs=1e-12
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_weibull([3.0, 3.0, 3.0])

    def test_recovery(self):
        sample = synth.sample_distribution("weibull", {"shape": 1.5, "scale": 2}, 10_000, 104)
        p = fit_weibull(sample)
        assert 1.425 <= p["shape"] <= 1.575 and 1.9 <= p["scale"] <= 2.1


class TestLogLogistic:
    def test_median_anchor(self):
        sample = synth.sample_distribution("loglogistic", {"scale": 5, "shape": 2}, 500, 7)
        p = fit_loglogistic(sample)
        assert cdf_eval("loglogistic", p, p["scale"]) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            fit_loglogistic([4.0, 4.0, 4.0, 4.0])

    def test_recovery(self):
        sample = synth.sample_distribution("loglogistic", {"scale": 3, "shape": 4}, 10_000, 105)
        p = fit_loglogistic(sample)
        assert 2.85 <= p["scale"] <= 3.15 and 3.8 <= p["shape"] <= 4.2


class TestCdf:
    def test_loglogistic_at_scale(self):
        assert cdf_eval("loglogistic", {"scale": 5, "shape": 2}, 5.0) == 0.5

    def test_exponential_at_zero(self):
        assert cdf_eval("exponential", {"rate": 1.0}, 0.0) == 0.0

    def test_standard_normal_table(self):
        # standard-normal table: Phi(1.96) = 0.975002
        assert cdf_eval("normal", {"mu": 0, "sigma": 1}, 1.96) == pytest.approx(
            0.975002, abs=5e-7
        )

    def test_monotone_and_limits(self):
        for family, params in [
            ("exponential", {"rate": 2.0}),
            ("gamma", {"shape": 2.0, "scale": 1.5}),
            ("weibull", {"shape": 0.8, "scale": 1.0}),
            ("loglogistic", {"scale": 1.0, "shape": 3.0}),
            ("normal", {"mu": 0.0, "sigma": 1.0}),
        ]:
            x = np.linspace(-5, 50, 400)
            f = np.asarray(cdf_eval(family, params, x))
            assert (np.diff(f) >= -1e-15).all()
            assert f[0] >= 0.0 and f[-1] <= 1.0
            assert cdf_eval(family, params, 1e9) == pytest.approx(1.0, abs=1e-6)


    @pytest.mark.parametrize(
        "family,params",
        [
            ("exponential", {"rate": -3.0}),
            ("normal", {"mu": 0.0, "sigma": 0.0}),
            ("normal", {"mu": math.nan, "sigma": 1.0}),
            ("gamma", {"shape": 2.0, "scale": math.inf}),
            ("weibull", {"shape": math.nan, "scale": 1.0}),
            ("loglogistic", {"scale": 1.0, "shape": 0.0}),
        ],
    )
    def test_params_outside_their_domain_raise(self, family, params):
        with pytest.raises(InvalidParams):
            cdf_eval(family, params, np.linspace(0.1, 2.0, 5))

    def test_normal_mu_may_be_negative(self):
        assert cdf_eval("normal", {"mu": -5.0, "sigma": 1.0}, -5.0) == 0.5

    @pytest.mark.parametrize(
        "family,params",
        [
            ("exponential", {"rate": 2.0}),
            ("gamma", {"shape": 0.5, "scale": 1.5}),
            ("weibull", {"shape": 0.3, "scale": 1e-3}),
            ("loglogistic", {"scale": 1e300, "shape": 3.0}),
        ],
    )
    def test_positive_support_is_zero_at_and_below_zero(self, family, params):
        x = np.array([0.0, -0.0, -5e-324, -1.0, -1e300, -math.inf])
        f = cdf_eval(family, params, x)
        assert f.tolist() == [0.0] * x.size
        assert cdf_eval(family, params, 0.0) == 0.0

    def test_normal_is_positive_at_zero(self):
        assert cdf_eval("normal", {"mu": 1.0, "sigma": 1.0}, 0.0) > 0.0

    def test_unknown_family_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown family 'lognormal'"):
            statfit.fit_family("lognormal", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="unknown family 'lognormal'"):
            cdf_eval("lognormal", {"mu": 0.0, "sigma": 1.0}, 1.0)


class TestKsStatistic:
    def test_single_point_median(self):
        # F(m) = 0.5 for the fitted median => D = 0.5
        assert ks_statistic([5.0], "loglogistic", {"scale": 5.0, "shape": 2.0}) == 0.5

    def test_midpoint_quantile_construction(self):
        # sample at quantiles (i - 0.5)/n gives D = 0.5/n exactly
        n = 40
        params = {"rate": 1.3}
        u = (np.arange(1, n + 1) - 0.5) / n
        sample = synth.inverse_cdf("exponential", params, u)
        assert ks_statistic(sample, "exponential", params) == pytest.approx(0.5 / n, abs=1e-12)

    def test_calibration_single_seed(self):
        sample = synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 1000, 11)
        d = ks_statistic(sample, "gamma", {"shape": 2, "scale": 3})
        assert d < ks_critical_95(1000)


class TestRankFits:
    def test_loglogistic_data_selects_loglogistic(self):
        sample = synth.sample_distribution("loglogistic", {"scale": 3, "shape": 4}, 10_000, 21)
        assert rank_fits(sample).best == "loglogistic"

    def test_gamma_data_selects_gamma(self):
        sample = synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 10_000, 22)
        assert rank_fits(sample).best == "gamma"

    def test_zero_drop_recorded(self):
        sample = np.concatenate([np.zeros(20), synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 80, 5)])
        report = rank_fits(sample)
        assert report.dropped_zero_fraction == pytest.approx(0.2)

    def test_low_confidence_flag(self):
        sample = synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 20, 5)
        assert rank_fits(sample).low_confidence

    def test_all_fits_failed(self):
        with pytest.raises(AllFitsFailed):
            rank_fits(np.zeros(50))

    def test_fit_outside_its_domain_counts_as_failed(self):
        # a subnormal mean overflows the exponential rate to inf
        report = rank_fits(np.array([1e-320, 2e-320, 3e-320]))
        assert report.failed["exponential"].startswith("InvalidParams: ")
        assert "exponential" not in [c.family for c in report.candidates]

    def test_report_json_fields(self):
        sample = synth.sample_distribution("gamma", {"shape": 2, "scale": 3}, 500, 8)
        report = rank_fits(sample, subject="camA")
        import json

        obj = json.loads(report.to_json())
        assert obj["subject"] == "camA"
        assert obj["best"] == report.candidates[0].family
        assert set(obj["deviation_buckets"]) == {"le_3pct", "le_5pct"}
        ks = [c["ks_stat"] for c in obj["candidates"]]
        assert ks == sorted(ks)

    def test_families_order_is_legend_order(self):
        assert FAMILIES == ("exponential", "gamma", "loglogistic", "normal", "weibull")


class TestSpecialFunctionsClosedForm:
    def test_digamma_at_one_and_half(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-15)

    def test_digamma_recurrence(self):
        for x in np.geomspace(1e-3, 1e4, 301):
            # the sum cancels for small x, so scale by its larger term
            want = digamma(x) + 1 / x
            assert abs(digamma(x + 1) - want) <= 1e-13 * max(1.0, abs(digamma(x))), x

    def test_trigamma_at_one_and_half(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2, rel=1e-15)

    def test_gammainc_shape_one_is_exponential(self):
        x = np.linspace(0, 40, 401)
        np.testing.assert_allclose(gammainc(1.0, x), -np.expm1(-x), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25])
    def test_gammainc_integer_shape(self, n):
        x = np.linspace(0, 4 * n + 20, 301)
        want = [
            1 - math.exp(-v) * sum(v**k / math.factorial(k) for k in range(n)) for v in x
        ]
        np.testing.assert_allclose(gammainc(float(n), x), want, rtol=0, atol=1e-13)

    def test_gammainc_half_is_erf_of_root(self):
        x = np.linspace(0, 30, 301)
        want = [math.erf(math.sqrt(v)) for v in x]
        np.testing.assert_allclose(gammainc(0.5, x), want, rtol=0, atol=1e-15)

    def test_gammainc_edges(self):
        p = gammainc(2.0, np.array([0.0, np.inf, np.nan]))
        assert p[0] == 0.0 and p[1] == 1.0 and np.isnan(p[2])

    def test_iteration_cap_raises_instead_of_returning(self):
        with pytest.raises(NoConvergence):
            statfit._gammainc_series(50.0, np.array([49.0]), 5)
        with pytest.raises(NoConvergence):
            statfit._gammaincc_fraction(50.0, np.array([52.0]), 5)

    def test_erf_keeps_scalars_scalar(self):
        for x in (0.5, np.float64(0.5), np.asarray(0.5)):
            assert isinstance(erf(x), float) and erf(x) == math.erf(0.5)
        out = erf(np.array([[-1.0, 0.0], [1.0, 2.0]]))
        assert out.dtype == np.float64 and out.shape == (2, 2)
        assert out[1, 1] == math.erf(2.0)


class TestSpecialFunctionsAgainstScipy:
    def test_digamma(self):
        special = pytest.importorskip("scipy.special")
        x = np.geomspace(1e-3, 1e4, 2001)
        ours = np.array([digamma(v) for v in x])
        ref = special.digamma(x)
        # absolute, scaled by |psi| away from its root near 1.4616
        assert (np.abs(ours - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))).all()

    def test_trigamma(self):
        special = pytest.importorskip("scipy.special")
        x = np.geomspace(1e-3, 1e4, 2001)
        ours = np.array([trigamma(v) for v in x])
        np.testing.assert_allclose(ours, special.polygamma(1, x), rtol=1e-12, atol=0)

    def test_erf(self):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(-8, 8, 20001)
        assert np.abs(erf(x) - special.erf(x)).max() <= 4.5e-16

    def test_gammainc(self):
        special = pytest.importorskip("scipy.special")
        for a in np.geomspace(0.01, 1e3, 61):
            x = np.linspace(0, a + 50 * math.sqrt(a) + 50, 501)
            err = np.abs(gammainc(a, x) - special.gammainc(a, x)).max()
            assert err <= 1e-12, a

    @pytest.mark.parametrize("a", [1e4, 1e5, 1e6])
    def test_gammainc_large_shape(self, a):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0, a + 50 * math.sqrt(a) + 50, 501)
        ours = gammainc(a, x)
        assert not np.isnan(ours).any()
        assert np.abs(ours - special.gammainc(a, x)).max() <= 1e-8

    @pytest.mark.parametrize("shape", [0.3, 2.0, 40.0])
    def test_fit_gamma_matches_scipy_newton(self, shape):
        special = pytest.importorskip("scipy.special")
        x = synth.sample_distribution("gamma", {"shape": shape, "scale": 3}, 2000, 31)
        s = math.log(x.mean()) - np.log(x).mean()
        k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
        for _ in range(100):
            step = (math.log(k) - special.digamma(k) - s) / (1.0 / k - special.polygamma(1, k))
            k -= step
            if abs(step) < 1e-10:
                break
        assert fit_gamma(x)["shape"] == pytest.approx(k, rel=1e-12)
