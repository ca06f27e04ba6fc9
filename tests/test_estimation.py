import numpy as np
import pytest

import logimix as lm
from logimix.estimation import _ascend, _weighted_obj_derivs

from oracles import fd_log_pdf_gradients


def reference_model():
    return lm.MixtureModel(
        [0.3, 0.7], (lm.MldParams([-2.0], [1.0]), lm.MldParams([2.0], [0.5]))
    )


class TestResponsibilities:
    def test_single_component(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),))
        r = lm.responsibilities(np.array([0.3]), m)
        assert r.shape == (1,) and r[0] == 1.0

    def test_identical_components_split_evenly(self):
        comp = lm.MldParams([0.0, 0.0], [1.0, 1.0])
        m = lm.MixtureModel([0.5, 0.5], (comp, comp))
        for x in ([-3.0, 1.0], [0.0, 0.0], [5.0, 5.0]):
            r = lm.responsibilities(np.array(x), m)
            assert r == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_distant_point_goes_to_near_component(self):
        m = lm.MixtureModel(
            [0.3, 0.7], (lm.MldParams([-5.0], [1.0]), lm.MldParams([5.0], [1.0]))
        )
        r = lm.responsibilities(np.array([-5.0]), m)
        assert r[0] > 0.999

    def test_sums_to_one_batch(self):
        m = reference_model()
        rng = np.random.default_rng(2)
        batch = rng.uniform(-5, 5, size=(64, 1))
        r = lm.responsibilities(batch, m)
        assert r.shape == (64, 2)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)

    def test_total_underflow_warns_and_returns_uniform(self):
        # residuals overflow to infinity, every component log density is -inf
        m = lm.MixtureModel(
            [0.5, 0.5],
            (lm.MldParams([0.0], [1e-300]), lm.MldParams([1.0], [1e-300])),
        )
        with pytest.warns(RuntimeWarning):
            r = lm.responsibilities(np.array([1e300]), m)
        assert r == pytest.approx([0.5, 0.5], abs=0)


class TestGradients:
    def test_mode_has_zero_location_gradient(self):
        g_mu, g_ls = lm.component_log_pdf_grad(np.array([0.0]), lm.MldParams([0.0], [1.0]))
        assert g_mu[0] == pytest.approx(0.0, abs=1e-15)
        assert g_ls[0] == pytest.approx(-1.0, abs=1e-15)

    def test_log_sigma_gradient_against_finite_difference(self):
        params = lm.MldParams([0.0], [1.0])
        _, g_ls = lm.component_log_pdf_grad(np.array([0.0]), params)

        def log_pdf(x, mu, sigma):
            return lm.mld_log_pdf(x, lm.MldParams(mu, sigma))

        _, fd_ls = fd_log_pdf_gradients(log_pdf, np.array([0.0]), params.mu, params.sigma)
        assert g_ls[0] == pytest.approx(fd_ls[0], rel=1e-6)

    def test_random_cases_match_finite_differences(self):
        rng = np.random.default_rng(3)

        def log_pdf(x, mu, sigma):
            return lm.mld_log_pdf(x, lm.MldParams(mu, sigma))

        for _ in range(50):
            p = rng.integers(1, 4)
            params = lm.MldParams(rng.uniform(-2, 2, p), rng.uniform(0.5, 2.0, p))
            x = params.mu + params.sigma * rng.uniform(-2, 2, p)
            g_mu, g_ls = lm.component_log_pdf_grad(x, params)
            fd_mu, fd_ls = fd_log_pdf_gradients(log_pdf, x, params.mu, params.sigma)
            for k in range(p):
                scale = max(abs(fd_mu[k]), 1e-3)
                assert abs(g_mu[k] - fd_mu[k]) / scale < 1e-6
                scale = max(abs(fd_ls[k]), 1e-3)
                assert abs(g_ls[k] - fd_ls[k]) / scale < 1e-6


class TestInit:
    def test_single_component_quantile_is_median(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(501, 2))
        m = lm.init_params(data, 1, seed=0, strategy="quantile")
        assert m.components[0].mu == pytest.approx(np.median(data, axis=0), abs=1e-12)

    def test_scale_rule_on_logistic_data(self):
        rng = np.random.default_rng(5)
        data = rng.logistic(size=(10**5, 1))
        m = lm.init_params(data, 2, seed=0, strategy="quantile")
        for comp in m.components:
            assert abs(comp.sigma[0] - 1.0) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(100, 2))
        a = lm.init_params(data, 3, seed=11, strategy="random-rows")
        b = lm.init_params(data, 3, seed=11, strategy="random-rows")
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.mu, cb.mu)

    def test_too_few_distinct_rows(self):
        data = np.ones((10, 1))
        with pytest.raises(ValueError):
            lm.init_params(data, 2, seed=0, strategy="random-rows")

    def test_scale_rule_is_exact_moment_rule(self):
        rng = np.random.default_rng(7)
        data = rng.normal(loc=3.0, scale=[0.5, 40.0], size=(300, 2))
        m = lm.init_params(data, 2, seed=0, strategy="quantile")
        expected = data.std(axis=0) * np.sqrt(3.0) / np.pi
        assert np.array_equal(m.components[0].sigma, expected)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            lm.init_params(np.zeros((5, 1)), 1, seed=0, strategy="kmeans")


def _mean_log_pdf(data, resp, mu, log_sigma):
    """Reference M-step objective from the public density."""
    comp = lm.MldParams(mu, np.exp(log_sigma))
    return float(np.dot(resp, lm.mld_log_pdf(data, comp))) / resp.sum()


def _newton_case(p, seed):
    rng = np.random.default_rng(seed)
    data = rng.logistic(size=(400, p)) * rng.uniform(0.5, 2.0, p) + rng.uniform(-1, 1, p)
    resp = rng.uniform(size=400)
    return data, resp, rng.normal(size=p), rng.normal(scale=0.3, size=p)


class TestNewtonMStep:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, p):
        data, resp, mu, log_sigma = _newton_case(p, 40 + p)
        theta = np.concatenate([mu, log_sigma])
        obj, grad, hess = _weighted_obj_derivs(data, resp, mu, log_sigma)

        def f(t):
            return _mean_log_pdf(data, resp, t[:p], t[p:])

        assert obj == pytest.approx(f(theta), rel=1e-12)
        eps = 1e-5
        e = np.eye(2 * p) * eps
        fd_grad = np.array([(f(theta + e[i]) - f(theta - e[i])) / (2 * eps) for i in range(2 * p)])
        fd_hess = np.array([
            [(f(theta + e[i] + e[j]) - f(theta + e[i] - e[j])
              - f(theta - e[i] + e[j]) + f(theta - e[i] - e[j])) / (4 * eps**2)
             for j in range(2 * p)]
            for i in range(2 * p)
        ])
        assert np.max(np.abs(grad - fd_grad)) < 1e-8
        # A second difference carries rounding error of order eps_mach*|f|/eps**2.
        assert np.max(np.abs(hess - fd_hess)) < 5e-5
        assert np.allclose(hess, hess.T, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_ascent_never_lowers_objective(self, p):
        data, resp, mu, log_sigma = _newton_case(p, 50 + p)
        log_sigma = log_sigma + 1.5
        values = [_mean_log_pdf(data, resp, mu, log_sigma)]
        for iters in range(1, 8):
            new_mu, new_ls = _ascend(data, resp, mu, log_sigma, iters, 1e-10)
            values.append(_mean_log_pdf(data, resp, new_mu, new_ls))
        assert np.all(np.diff(values) >= 0.0)

    def test_far_too_wide_start_reaches_stationarity(self):
        data, _ = lm.sample_mixture(
            lm.MixtureModel([1.0], (lm.MldParams([0.7, -1.0], [1.4, 0.6]),)), 500, seed=41
        )
        resp = np.ones(data.shape[0])
        mu, log_sigma = _ascend(data, resp, np.zeros(2), np.log([140.0, 60.0]), 50, 1e-10)
        g_mu, g_ls = lm.component_log_pdf_grad(data, lm.MldParams(mu, np.exp(log_sigma)))
        g_mu, g_ls = g_mu.mean(axis=0), g_ls.mean(axis=0)
        assert np.sqrt(g_mu @ g_mu + g_ls @ g_ls) < 1e-6


class TestEmFit:
    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            lm.em_fit(np.zeros((1, 1)), lm.FitConfig(s=2))

    def test_single_component_reaches_stationarity(self):
        data, _ = lm.sample_mixture(
            lm.MixtureModel([1.0], (lm.MldParams([0.7], [1.4]),)), 500, seed=31
        )
        res = lm.em_fit(data, lm.FitConfig(s=1, n_restarts=1, m_step_iters=200, seed=0))
        g_mu, g_ls = lm.component_log_pdf_grad(data, res.model.components[0])
        g_mu, g_ls = g_mu.mean(axis=0), g_ls.mean(axis=0)
        assert np.sqrt(g_mu @ g_mu + g_ls @ g_ls) < 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_outlier_fits_with_finite_parameters(self):
        data = np.random.default_rng(44).logistic(size=(500, 1))
        data[123, 0] = 1e200
        res = lm.em_fit(data, lm.FitConfig(s=2, seed=0))
        assert isinstance(res, lm.FitResult)
        for comp in res.model.components:
            assert np.all(np.isfinite(comp.mu)) and np.all(np.isfinite(comp.sigma))
        assert np.all(np.isfinite(res.model.weights))

    def test_trace_monotone(self):
        rng = np.random.default_rng(32)
        model = lm.MixtureModel(
            [0.4, 0.6], (lm.MldParams([-1.0], [0.8]), lm.MldParams([1.5], [1.2]))
        )
        data, _ = lm.sample_mixture(model, 800, seed=33)
        res = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=1))
        assert np.all(np.diff(res.loglik_trace) >= -1e-9)

    def test_weights_on_simplex(self):
        data, _ = lm.sample_mixture(reference_model(), 1500, seed=34)
        res = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=2))
        assert res.model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.model.weights > 0)

    def test_scales_stay_positive(self):
        rng = np.random.default_rng(35)
        data = rng.standard_t(df=3, size=(400, 2))
        res = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, max_iter=60, seed=3))
        for comp in res.model.components:
            assert np.all(comp.sigma > 0)

    def test_nesting_two_components_at_least_one(self):
        data, _ = lm.sample_mixture(
            lm.MixtureModel([1.0], (lm.MldParams([0.5], [1.0]),)), 800, seed=36
        )
        res1 = lm.em_fit(data, lm.FitConfig(s=1, n_restarts=2, seed=4))
        res2 = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=3, seed=4))
        assert res2.loglik_trace[-1] >= res1.loglik_trace[-1] - 1e-6

    def test_recovery_moderate_sample(self):
        data, _ = lm.sample_mixture(reference_model(), 8000, seed=37)
        res = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=3, seed=5))
        gap, perm = lm.matched_param_distance(reference_model(), res.model)
        assert perm is not None
        assert gap < 0.1

    def test_relabeling_leaves_likelihood_unchanged(self):
        data, _ = lm.sample_mixture(reference_model(), 1200, seed=38)
        res = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=6))
        m = res.model
        relabeled = lm.MixtureModel(m.weights[::-1].copy(), tuple(reversed(m.components)))
        assert lm.log_likelihood(data, relabeled) == pytest.approx(
            lm.log_likelihood(data, m), rel=1e-12
        )

    def test_deterministic_given_seed(self):
        data, _ = lm.sample_mixture(reference_model(), 600, seed=39)
        r1 = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=7))
        r2 = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=7))
        assert np.array_equal(r1.loglik_trace, r2.loglik_trace)
        for a, b in zip(r1.model.components, r2.model.components):
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)


class TestFitResultInvariant:
    def test_rejects_decreasing_trace(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),))
        with pytest.raises(ValueError):
            lm.FitResult(
                model=m,
                loglik_trace=np.array([-10.0, -10.5]),
                converged=True,
                n_iter=1,
                best_of=1,
            )
