import warnings
from functools import reduce
from math import lgamma

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import ks_2samp, kstest

import logimix as lm
from logimix._util import log1p_sum_exp_neg
from logimix.mld import _log_pdf_parts

from oracles import (
    decimal_mld_cdf,
    decimal_mld_log_pdf,
    frailty_sample,
    mixed_central_fd,
    quad_normalization_1d,
    quad_normalization_2d,
    rosenblatt_uniforms,
)


def random_params(rng, p):
    return lm.MldParams(rng.uniform(-3, 3, p), rng.uniform(0.3, 2.5, p))


class TestParams:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            lm.MldParams([0.0, 1.0], [1.0])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            lm.MldParams([0.0], [0.0])
        with pytest.raises(ValueError):
            lm.MldParams([0.0], [-1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lm.MldParams([np.nan], [1.0])
        with pytest.raises(ValueError):
            lm.MldParams([0.0], [np.inf])

    def test_copies_its_inputs(self):
        mu, sigma = np.zeros(2), np.ones(2)
        params = lm.MldParams(mu, sigma)
        assert mu.flags.writeable and sigma.flags.writeable
        mu[0] = sigma[0] = 5.0
        assert np.array_equal(params.mu, [0.0, 0.0])
        assert np.array_equal(params.sigma, [1.0, 1.0])
        base = np.zeros((2, 2))
        row = lm.MldParams(base[0], np.ones(2))
        base[0, 0] = 5.0
        assert np.array_equal(row.mu, [0.0, 0.0])
        assert not (row.mu.flags.writeable or row.sigma.flags.writeable)


class TestStandardForms:
    def test_cdf_values(self):
        assert lm.standard_cdf(np.array([0.0])) == pytest.approx(0.5, abs=0)
        assert lm.standard_cdf(np.array([0.0, 0.0])) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert abs(lm.standard_cdf(np.array([40.0, 40.0])) - 1.0) < 1e-12

    def test_pdf_values(self):
        assert lm.standard_pdf(np.array([0.0])) == pytest.approx(0.25, rel=1e-15)
        assert lm.standard_pdf(np.array([0.0, 0.0])) == pytest.approx(2.0 / 27.0, rel=1e-14)
        assert lm.standard_pdf(np.zeros(3)) == pytest.approx(6.0 / 256.0, rel=1e-14)

    def test_dimension_mismatch_rejected(self):
        params = lm.MldParams([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            lm.mld_cdf(np.array([0.0, 0.0, 0.0]), params)

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            lm.standard_cdf(np.array([np.inf, 0.0]))


class TestLocationScale:
    def test_identity_at_center(self):
        params = lm.MldParams([1.0, -1.0], [2.0, 0.5])
        assert lm.mld_cdf(np.array([1.0, -1.0]), params) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_quarter_shift(self):
        # direct substitution: z = ln 3 gives 1/(1 + 1/3)
        params = lm.MldParams([3.0], [2.0])
        assert lm.mld_cdf(np.array([3.0 + 2.0 * np.log(3.0)]), params) == pytest.approx(0.75, rel=1e-14)

    def test_pdf_scale_factor(self):
        assert lm.mld_pdf(np.array([0.0]), lm.MldParams([0.0], [2.0])) == pytest.approx(0.125, rel=1e-14)
        assert lm.mld_pdf(np.zeros(2), lm.MldParams([0.0, 0.0], [1.0, 1.0])) == pytest.approx(2.0 / 27.0, rel=1e-14)

    def test_log_pdf_deep_tail_is_stable(self):
        # high-precision value of log pdf at z = -1000 is 1000 - 2 log(1+e^1000),
        # which rounds to -1000.0 in double precision
        val = lm.mld_log_pdf(np.array([-1000.0]), lm.MldParams([0.0], [1.0]))
        assert np.isfinite(val)
        assert val == pytest.approx(-1000.0, rel=1e-12)

    def test_log_pdf_huge_residuals_finite(self):
        params = lm.MldParams([0.0, 0.0], [1.0, 1.0])
        for x in ([700.0, -700.0], [-700.0, -700.0], [700.0, 700.0]):
            assert np.isfinite(lm.mld_log_pdf(np.array(x), params))

    def test_equivariance_against_standard_forms(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = rng.integers(1, 4)
            params = random_params(rng, p)
            x = rng.uniform(-8, 8, p)
            z = (x - params.mu) / params.sigma
            assert lm.mld_cdf(x, params) == pytest.approx(lm.standard_cdf(z), rel=1e-12)
            expected = lm.standard_pdf(z) / np.prod(params.sigma)
            assert lm.mld_pdf(x, params) == pytest.approx(expected, rel=1e-12)

    def test_exp_log_pdf_matches_pdf(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = rng.integers(1, 4)
            params = random_params(rng, p)
            x = rng.uniform(-10, 10, p)
            pdf = lm.mld_pdf(x, params)
            if pdf > 1e-300:
                assert np.exp(lm.mld_log_pdf(x, params)) == pytest.approx(pdf, rel=1e-12)

    def test_monotone_and_limits(self):
        params = lm.MldParams([0.5, -0.5], [1.0, 2.0])
        lo = params.mu - 40.0 * params.sigma
        hi = params.mu + 40.0 * params.sigma
        assert lm.mld_cdf(hi, params) == pytest.approx(1.0, abs=1e-12)
        assert lm.mld_cdf(np.array([lo[0], hi[1]]), params) < 1e-12
        # nondecreasing in each coordinate
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.uniform(-5, 5, 2)
            for k in range(2):
                bumped = x.copy()
                bumped[k] += 0.37
                assert lm.mld_cdf(bumped, params) >= lm.mld_cdf(x, params)


class TestCdfAccuracy:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_decimal_oracle(self, p):
        # Dyadic inputs make x - mu and the division by a power-of-two sigma
        # exact, so the check sees the kernel's own rounding; the cdf's
        # condition number in x is about |z|, which would otherwise amplify
        # the rounding of inexact inputs up to 700-fold.
        rng = np.random.default_rng(40 + p)
        worst = 0.0
        checked = 0
        for half_width in (700.0, 40.0):
            for _ in range(150):
                mu = np.round(rng.uniform(-5.0, 5.0, p) * 2**20) / 2**20
                sigma = 2.0 ** rng.integers(-3, 4, p)
                z = np.round(rng.uniform(-half_width, half_width, p) * 2**20) / 2**20
                x = mu + sigma * z
                assert np.array_equal((x - mu) / sigma, z)
                exact = decimal_mld_cdf(x, mu, sigma)
                if exact > 1e-300:
                    got = lm.mld_cdf(x, lm.MldParams(mu, sigma))
                    worst = max(worst, abs(got - exact) / exact)
                    checked += 1
        assert checked >= 150
        assert worst < 1e-14

    def test_far_tails_are_exact_and_silent(self):
        hi, lo = 1e300, -1e300
        pts = np.array([[hi, hi, hi], [lo, hi, hi], [hi, lo, lo], [lo, lo, lo], [0.0, hi, lo]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sigma in (1e-300, 1.0, 1e300):
                for mu in (0.0, hi, lo):
                    params = lm.MldParams(np.full(3, mu), np.full(3, sigma))
                    vals = np.asarray(lm.mld_cdf(pts, params))
                    assert not np.any(np.isnan(vals))
                    assert np.all((vals >= 0.0) & (vals <= 1.0))
            tiny = lm.MldParams(np.zeros(3), np.full(3, 1e-300))
            assert lm.mld_cdf(pts, tiny).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]


def _trailing_axis_log1p_sum_exp_neg(z):
    """log(1 + sum_k exp(-z_k)) reduced by numpy over a trailing (..., p) axis."""
    neg = -np.asarray(z, dtype=float)
    m = np.maximum(np.max(neg, axis=-1), 0.0)
    return m + np.log(np.exp(-m) + np.sum(np.exp(neg - m[..., None]), axis=-1))


class TestLog1pSumExpNeg:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_matches_trailing_axis_reduction(self, p):
        rng = np.random.default_rng(60 + p)
        n = 3000
        magnitude = np.exp(rng.uniform(np.log(1e-3), np.log(800.0), size=(n, p)))
        z = np.concatenate([
            rng.uniform(-h, h, size=(n, p)) for h in (1.0, 30.0, 800.0)
        ] + [rng.choice([-1.0, 1.0], size=(n, p)) * magnitude])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log1p_sum_exp_neg(np.ascontiguousarray(z.T))
            want = _trailing_axis_log1p_sum_exp_neg(z)
        assert got.shape == (4 * n,)
        if p <= 7:
            # Left-to-right passes are the order of numpy's short-axis sum.
            assert np.array_equal(got, want)
        else:
            # numpy sums eight or more terms pairwise; the orders differ only
            # in rounding, and where the result is small (all z_k large) the
            # rounding of 1 + sum_k exp(-z_k) is absolute, not relative.
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


@st.composite
def _log_pdf_cases(draw):
    p = draw(st.integers(1, 4))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=4))
    mu = draw(hnp.arrays(np.float64, p, elements=st.floats(-1e3, 1e3)))
    sigma = draw(hnp.arrays(np.float64, p, elements=st.floats(1e-3, 1e3)))
    z = draw(hnp.arrays(np.float64, lead + (p,), elements=st.floats(-40.0, 40.0)))
    order = draw(st.sampled_from("CF"))
    return np.asarray(mu + sigma * z, order=order), mu, sigma


class TestLogPdfAccuracy:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_log_pdf_cases())
    def test_matches_decimal_oracle(self, case):
        x, mu, sigma = case
        got = np.asarray(lm.mld_log_pdf(x, lm.MldParams(mu, sigma)))
        assert got.shape == x.shape[:-1]
        for idx in np.ndindex(got.shape):
            exact = decimal_mld_log_pdf(x[idx], mu, sigma)
            # Each float residual carries a relative rounding error, so the
            # log density's absolute error grows with sum_k |z_k|.
            bound = 1e-12 * (1.0 + np.sum(np.abs((x[idx] - mu) / sigma)))
            assert abs(got[idx] - exact) <= bound


def _direct_log_pdf(x, mu, sigma):
    """The log density as lgamma(p+1) - sum_k z_k - (p+1) log_denom - sum_k log sigma_k
    alone, for coordinate-major x (p, ...), with overflow left unchecked."""
    p = x.shape[0]
    shape = (p,) + (1,) * (x.ndim - 1)
    z = (x - mu.reshape(shape)) / sigma.reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        return lgamma(p + 1) - reduce(np.add, z) - (p + 1) * log1p_sum_exp_neg(z) - np.log(sigma).sum()


@st.composite
def _extreme_log_pdf_cases(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    big = st.one_of(
        st.floats(-1e308, 1e308),
        st.sampled_from([-1e308, -5e307, -3e307, -1e300, 1e300, 1e308]),
        st.floats(-50.0, 50.0),
    )
    x = draw(hnp.arrays(np.float64, (p, n), elements=big))
    mu = draw(hnp.arrays(np.float64, p, elements=st.floats(-10.0, 10.0)))
    sigma = draw(hnp.arrays(np.float64, p, elements=st.floats(0.5, 4.0)))
    return x, mu, sigma


class TestFarLeftLogPdf:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_extreme_log_pdf_cases())
    def test_finite_values_of_the_direct_formula_are_kept_bit_for_bit(self, case):
        x, mu, sigma = case
        with np.errstate(over="ignore"):
            z = (x - mu[:, None]) / sigma[:, None]
        assume(np.isfinite(z).all())
        # Past this spread the shift in log1p_sum_exp_neg itself overflows, a separate case.
        assume(np.all(z.max(axis=0) <= np.finfo(float).max + np.minimum(z.min(axis=0), 0.0)))
        want = _direct_log_pdf(x, mu, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_pdf_parts(x, mu, sigma)[0]
        kept = np.isfinite(want)
        assert np.array_equal(got[kept], want[kept])
        assert not np.isnan(got).any()

    @pytest.mark.parametrize("p", [1, 2])
    def test_far_left_point_is_finite_and_silent(self, p):
        params = lm.MldParams(np.zeros(p), np.ones(p))
        model = lm.MixtureModel([0.4, 0.6], (params, lm.MldParams(np.ones(p), np.full(p, 2.0))))
        x = np.full(p, -1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lm.mld_log_pdf(x, params) == pytest.approx(-1e308, rel=1e-15)
            assert np.isfinite(lm.mixture_log_pdf(x, model))


class TestMarginals:
    def test_center_is_half(self):
        params = lm.MldParams([1.3, -0.4], [0.8, 1.7])
        assert lm.marginal_cdf(1.3, params, 0) == pytest.approx(0.5, abs=0)
        assert lm.marginal_cdf(-0.4, params, 1) == pytest.approx(0.5, abs=0)

    def test_ln3_quantile(self):
        params = lm.MldParams([0.0], [1.0])
        assert lm.marginal_cdf(np.log(3.0), params, 0) == pytest.approx(0.75, rel=1e-14)

    def test_matches_joint_with_other_coordinate_large(self):
        params = lm.MldParams([0.0, 0.0], [1.0, 1.0])
        for x in (-2.0, 0.0, 2.0):
            joint = lm.mld_cdf(np.array([x, 40.0]), params)
            assert abs(lm.marginal_cdf(x, params, 0) - joint) < 1e-12

    def test_index_out_of_range(self):
        params = lm.MldParams([0.0], [1.0])
        with pytest.raises(ValueError):
            lm.marginal_cdf(0.0, params, 1)

    def test_one_dimensional_marginal_is_the_joint_cdf_bit_for_bit(self):
        params = lm.MldParams([0.3], [0.7])
        x = np.linspace(-800.0, 800.0, 20001)
        assert np.array_equal(lm.marginal_cdf(x, params, 0), lm.mld_cdf(x, params))
        assert lm.marginal_cdf(-1.9, params, 0) == lm.mld_cdf(-1.9, params)

    def test_huge_coordinate_gives_one_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lm.marginal_cdf(1e308, lm.MldParams([-1.0], [0.5]), 0) == 1.0


class TestConditionalQuantile:
    def test_logistic_inverse(self):
        b = lm.conditional_quantile(0.25, 1.0, 0)
        assert b == pytest.approx(3.0, rel=1e-14)
        # z = -ln b has logistic cdf 0.25
        assert 1.0 / (1.0 + b) == pytest.approx(0.25, rel=1e-14)

    def test_second_coordinate_arithmetic(self):
        assert lm.conditional_quantile(0.25, 2.0, 1) == pytest.approx(2.0, rel=1e-14)

    def test_u_near_one_gives_tiny_b(self):
        assert lm.conditional_quantile(1.0 - 1e-12, 1.0, 0) < 1e-11

    def test_rejects_bad_u(self):
        for u in (0.0, 1.0, -0.2, 1.3, np.nan):
            with pytest.raises(ValueError):
                lm.conditional_quantile(u, 1.0, 0)

    def test_rejects_bad_s_accum(self):
        for s_accum in (0.5, np.nan):
            with pytest.raises(ValueError, match="s_accum must be at least 1"):
                lm.conditional_quantile(0.5, s_accum, 0)


class TestNormalization:
    def test_quadrature_1d(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, 1)
        val = quad_normalization_1d(lambda t: lm.mld_pdf(t, params), params.mu, params.sigma)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_2d(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 2)
        val = quad_normalization_2d(lambda t: lm.mld_pdf(t, params), params.mu, params.sigma)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestCdfPdfConsistency:
    def test_mixed_difference_matches_density(self):
        rng = np.random.default_rng(21)
        for p in (1, 2, 3):
            params = random_params(rng, p)
            steps = 1e-3 * params.sigma
            for _ in range(20):
                x = params.mu + params.sigma * rng.uniform(-1.5, 1.5, p)
                fd = mixed_central_fd(lambda t: lm.mld_cdf(t, params), x, steps)
                assert fd == pytest.approx(lm.mld_pdf(x, params), rel=1e-3)


class TestSampler:
    def test_deterministic(self):
        params = lm.MldParams([0.0, 1.0], [1.0, 0.5])
        a = lm.sample(params, 64, seed=9)
        b = lm.sample(params, 64, seed=9)
        assert np.array_equal(a, b)
        c = lm.sample(params, 64, seed=10)
        assert not np.array_equal(a, c)

    def test_marginal_ks_standard_1d(self):
        params = lm.MldParams([0.0], [1.0])
        draws = lm.sample(params, 10**5, seed=77)[:, 0]
        stat = kstest(draws, lambda t: np.asarray(lm.marginal_cdf(t, params, 0))).statistic
        assert stat < 0.006

    def test_rosenblatt_uniform_2d(self):
        params = lm.MldParams([0.4, -1.2], [1.3, 0.6])
        draws = lm.sample(params, 10**5, seed=5)
        u = rosenblatt_uniforms(draws, params)
        for k in range(2):
            assert kstest(u[:, k], "uniform").statistic < 0.006

    def test_against_independent_frailty_construction(self):
        # ln V - ln E_k with exponential V, E is an alternative exact sampler
        params = lm.MldParams([1.0, -0.5, 2.0], [1.5, 0.7, 1.0])
        draws = lm.sample(params, 10**5, seed=99)
        other = frailty_sample(params, 10**5, np.random.default_rng(123))
        for k in range(3):
            assert ks_2samp(draws[:, k], other[:, k]).statistic < 0.01
        zs = (draws - params.mu) / params.sigma
        zo = (other - params.mu) / params.sigma
        assert ks_2samp(zs.sum(axis=1), zo.sum(axis=1)).statistic < 0.01
        assert ks_2samp(zs.max(axis=1), zo.max(axis=1)).statistic < 0.01

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lm.sample(lm.MldParams([0.0], [1.0]), 0, seed=1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            lm.sample(lm.MldParams([0.0], [1.0]), 1, seed=-3)
