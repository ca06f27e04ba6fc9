import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

import logimix as lm
from logimix import estimation
from logimix._util import rng_from_seed
from logimix.estimation import _ascend, _component_parts, _newton_direction, _weighted_obj_derivs
from logimix.mixture import WEIGHT_FLOOR, _model
from logimix.mld import _coordinate_major

from oracles import fd_log_pdf_gradients


def scale_floor(data):
    """The scale floor ``em_fit`` puts on ``data``."""
    return estimation.SCALE_FLOOR * estimation._moment_scale(np.asarray(data, dtype=float))


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


class TestPointLayouts:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_memory_order_and_batch_shape_give_identical_results(self, p):
        rng = np.random.default_rng(70 + p)
        comps = tuple(
            lm.MldParams(rng.uniform(-2, 2, p), rng.uniform(0.5, 2.0, p)) for _ in range(3)
        )
        model = lm.MixtureModel([0.2, 0.3, 0.5], comps)
        funcs = [
            ((), lambda x: (lm.mld_log_pdf(x, comps[0]),)),
            ((), lambda x: (lm.mixture_log_pdf(x, model),)),
            ((3,), lambda x: (lm.responsibilities(x, model),)),
            ((p,), lambda x: lm.component_log_pdf_grad(x, comps[1])),
        ]
        base = rng.logistic(size=(12, p)) * 2.0
        layouts = [
            np.asfortranarray(base),
            np.repeat(base, 2, axis=0)[::2],
            np.repeat(base, 2, axis=1)[:, ::2],
        ]
        for trailing, f in funcs:
            want = f(base)
            for out in want:
                assert out.shape == (12,) + trailing
            for x in layouts:
                assert all(np.array_equal(a, b) for a, b in zip(f(x), want))
            batched = f(base.reshape(3, 4, p))
            for out, ref in zip(batched, want):
                assert out.shape == (3, 4) + trailing
                assert np.array_equal(out, ref.reshape((3, 4) + trailing))


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_rows_centres_match_unique_rows(self, p):
        rng = np.random.default_rng(40 + p)
        rows = np.round(rng.normal(size=(60, p)), 1)
        data = np.concatenate([rows, rows[rng.integers(0, 60, 90)]])
        rng.shuffle(data)
        distinct = np.unique(data, axis=0)
        assert len(distinct) < len(data)
        for seed in (0, 3, 17):
            idx = rng_from_seed(seed).choice(len(distinct), size=4, replace=False)
            model = lm.init_params(data, 4, seed, strategy="random-rows")
            assert np.array_equal(model._mu, distinct[idx])

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
    return _objective(data, resp, mu, np.exp(log_sigma))


def _objective(data, resp, mu, sigma):
    """``_mean_log_pdf`` at the scale ``sigma`` itself."""
    return float(np.dot(resp, lm.mld_log_pdf(data, lm.MldParams(mu, sigma)))) / resp.sum()


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
        obj, grad, hess = _weighted_obj_derivs(resp, _component_parts(data.T, mu, np.exp(log_sigma)))

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
        parts = _component_parts(data.T, mu, np.exp(log_sigma + 1.5))
        values = [_objective(data, resp, mu, parts.sigma)]
        for _ in range(7):
            mu, parts = _ascend(data.T, resp, mu, parts, scale_floor(data))
            values.append(_objective(data, resp, mu, parts.sigma))
        assert np.all(np.diff(values) >= 0.0)

    def test_far_too_wide_start_reaches_stationarity(self):
        data, _ = lm.sample_mixture(
            lm.MixtureModel([1.0], (lm.MldParams([0.7, -1.0], [1.4, 0.6]),)), 500, seed=41
        )
        resp = np.ones(data.shape[0])
        mu, parts = np.zeros(2), _component_parts(data.T, np.zeros(2), np.array([140.0, 60.0]))
        for _ in range(50):
            mu, parts = _ascend(data.T, resp, mu, parts, scale_floor(data))
        g_mu, g_ls = lm.component_log_pdf_grad(data, lm.MldParams(mu, parts.sigma))
        g_mu, g_ls = g_mu.mean(axis=0), g_ls.mean(axis=0)
        assert np.sqrt(g_mu @ g_mu + g_ls @ g_ls) < 1e-6

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_ascent_returns_the_parts_of_its_point(self, p):
        data, resp, mu, log_sigma = _newton_case(p, 60 + p)
        parts = _component_parts(data.T, mu, np.exp(log_sigma + 1.0))
        for _ in range(5):
            mu, parts = _ascend(data.T, resp, mu, parts, scale_floor(data))
            fresh = _component_parts(data.T, mu, parts.sigma)
            for name, got, want in zip(parts._fields, parts, fresh):
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize("p", [1, 2])
    def test_step_towards_a_scale_below_the_floor_is_projected_onto_it(self, p):
        # Rows of scale 0.01 around 0, a start off-centre with every scale on a floor of
        # 0.05: the Newton direction lowers every log sigma, so every trial point lies
        # below the floor.  The step still moves mu, with the scales on the floor.
        data = np.random.default_rng(64).logistic(scale=0.01, size=(200, p))
        resp = np.ones(200)
        mu, floor = np.full(p, 0.02), np.full(p, 0.05)
        parts = _component_parts(data.T, mu, floor.copy())
        _, grad, hess = _weighted_obj_derivs(resp, parts)
        assert (_newton_direction(grad, hess)[p:] < 0.0).all()
        new_mu, new_parts = _ascend(data.T, resp, mu, parts, floor)
        assert (new_mu != mu).all()
        assert np.array_equal(new_parts.sigma, floor)
        assert _objective(data, resp, new_mu, floor) > _objective(data, resp, mu, floor)


def _cho_levenberg_direction(grad, hess):
    """The Levenberg-shifted Newton direction through scipy.linalg's Cholesky
    wrappers, and the shift that gave it."""
    neg_h = -hess if np.all(np.isfinite(hess)) else np.zeros_like(hess)
    lam = 0.0
    while True:
        try:
            factor = cho_factor(neg_h + lam * np.eye(grad.size))
        except LinAlgError:
            lam = max(2.0 * lam, estimation.LEVENBERG_SEED)
            continue
        return cho_solve(factor, grad), lam


class TestNewtonDirection:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_positive_definite_solve_equals_cho_solve(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(25):
            a = rng.normal(size=(n, n))
            spd = a @ a.T + 0.1 * np.eye(n)
            grad = rng.normal(size=n)
            want = cho_solve(cho_factor(spd), grad)
            assert np.array_equal(_newton_direction(grad, -spd), want)

    def test_indefinite_hessian_takes_first_working_shift(self):
        rng = np.random.default_rng(86)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        neg_h = q @ np.diag([2.0, 1.0, 0.5, -1e-3]) @ q.T
        neg_h = (neg_h + neg_h.T) / 2
        grad = rng.normal(size=4)
        want, lam = _cho_levenberg_direction(grad, -neg_h)
        assert lam >= 1e-3
        assert np.array_equal(_newton_direction(grad, -neg_h), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_hessian_gives_scaled_gradient(self, bad):
        grad = np.array([0.3, -1.2, 2.0])
        hess = -np.eye(3)
        hess[1, 2] = hess[2, 1] = bad
        d = _newton_direction(grad, hess)
        assert np.array_equal(d, _cho_levenberg_direction(grad, hess)[0])
        np.testing.assert_allclose(d, grad / estimation.LEVENBERG_SEED, rtol=1e-15, atol=0)


class TestEmFit:
    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            lm.em_fit(np.zeros((1, 1)), lm.FitConfig(s=2))

    @pytest.mark.parametrize("n_restarts", [1, 2])
    def test_needs_s_distinct_rows(self, n_restarts):
        data = np.concatenate([np.full((50, 2), 1.5), np.full((50, 2), -0.5)])
        with pytest.raises(ValueError, match="data has 2 distinct rows, fewer than s=3"):
            lm.em_fit(data, lm.FitConfig(s=3, n_restarts=n_restarts))
        with pytest.raises(ValueError, match="data has 1 distinct rows, fewer than s=2"):
            lm.em_fit(data[:50], lm.FitConfig(s=2, n_restarts=n_restarts))

    def test_single_component_reaches_stationarity(self):
        data, _ = lm.sample_mixture(
            lm.MixtureModel([1.0], (lm.MldParams([0.7], [1.4]),)), 500, seed=31
        )
        res = lm.em_fit(data, lm.FitConfig(s=1, n_restarts=1, seed=0))
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

    @pytest.mark.parametrize("p, s", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
    def test_final_trace_entry_is_the_fresh_log_likelihood(self, p, s):
        # The E-step reads log densities kept from the M-step; the last trace
        # entry must still be exactly the log-likelihood evaluated afresh.
        rng = np.random.default_rng(90 + 10 * p + s)
        comps = tuple(lm.MldParams(rng.uniform(-3, 3, p), rng.uniform(0.5, 2.0, p)) for _ in range(s))
        truth = lm.MixtureModel(rng.dirichlet(np.full(s, 4.0)), comps)
        data, _ = lm.sample_mixture(truth, 500, seed=91)
        fit = lm.em_fit(data, lm.FitConfig(s=s, n_restarts=2, max_iter=60, seed=p * 10 + s))
        assert fit.loglik_trace[-1] == lm.log_likelihood(data, fit.model)

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

    def test_trace_ends_at_public_log_likelihood(self):
        data, _ = lm.sample_mixture(reference_model(), 2000, seed=40)
        res = lm.em_fit(data, lm.FitConfig(s=2, seed=1, n_restarts=1))
        assert res.loglik_trace[-1] == lm.log_likelihood(data, res.model)

    def test_frozen_component_keeps_a_floored_weight_that_round_trips(self, tmp_path):
        # Component 1's responsibility total is 6.6e-34, so its weight is floored; a
        # division after the floor used to push it under WEIGHT_FLOOR again.
        data = np.random.default_rng(62).logistic(size=(300, 1))
        coords = _coordinate_major(data)
        model = _model([0.999, 0.001], [[0.0], [80.0]], 1.0)
        parts, resp, _ = estimation._parts_e_step(coords, model)
        assert 0.0 < resp[1].sum() < 1e-33
        stepped = estimation._em_step(coords, model, parts, resp, scale_floor(data))[0]
        assert stepped.weights[1] == WEIGHT_FLOOR
        lm.save_model(stepped, tmp_path / "model.json")
        loaded = lm.load_model(tmp_path / "model.json")
        assert (loaded.weights >= WEIGHT_FLOOR).all()
        np.testing.assert_allclose(loaded.weights, stepped.weights, rtol=1e-15, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_component_with_zero_responsibility_keeps_its_values(self):
        # Component 1 is so far from every row that each of its responsibilities is
        # exactly 0: its objective is 0/0 and its Newton step is not taken.
        data = np.random.default_rng(63).logistic(size=(300, 1))
        coords = _coordinate_major(data)
        model = _model([0.5, 0.5], [[0.0], [1e4]], [[1.0], [0.5]])
        parts, resp, _ = estimation._parts_e_step(coords, model)
        assert (resp[1] == 0.0).all()
        stepped = estimation._em_step(coords, model, parts, resp, scale_floor(data))[0]
        assert stepped._mu[1, 0] == 1e4 and stepped._sigma[1, 0] == 0.5
        assert stepped.weights[1] == WEIGHT_FLOOR
        assert stepped._mu[0, 0] != 0.0

    def test_extrapolated_weight_below_the_floor_is_floored(self):
        cand = estimation._theta_model(np.array([0.0, -80.0, 0.0, 5.0, 0.0, 0.0]), 2, 1)
        assert cand.weights[1] == WEIGHT_FLOOR

    def test_step_at_the_cap_is_tested_for_convergence(self):
        # This fit converges at its 18th step; a cap of 18 steps must report the same.
        data, _ = lm.sample_mixture(reference_model(), 500, seed=91)
        free = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=1, seed=3, max_iter=500))
        capped = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=1, seed=3, max_iter=18))
        assert free.converged and free.n_iter == 18
        assert capped.converged and capped.n_iter == 18
        assert np.array_equal(capped.loglik_trace, free.loglik_trace)
        assert np.array_equal(capped.model._mu, free.model._mu)
        assert np.array_equal(capped.model._sigma, free.model._sigma)
        assert not lm.em_fit(data, lm.FitConfig(s=2, n_restarts=1, seed=3, max_iter=17)).converged

    # Data on which the likelihood is unbounded, each with FitConfig(s=s, n_restarts=2, seed=0):
    # the final log-likelihood and step count, pinned.  A component that sits on too few
    # distinct rows ends at the scale floor, not near the float limit.
    DEGENERATE = {
        "n-equals-s": (np.random.default_rng(0).normal(size=(3, 2)), 3, 82.3593095149064, 52),
        "two-valued": (np.repeat([[0.0], [1.0]], 50, axis=0), 2, 1302.4639937471065, 29),
        "identical-rows": (np.full((50, 1), 2.5), 1, 1312.2363377404329, 2),
        "seven-rows-five-components": (
            np.random.default_rng(1).normal(size=(7, 1)), 5, 47.50739757775504, 40),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", DEGENERATE)
    def test_degenerate_data_converge_at_the_scale_floor(self, case):
        data, s, loglik, n_iter = self.DEGENERATE[case]
        res = lm.em_fit(data, lm.FitConfig(s=s, n_restarts=2, seed=0))
        floor = scale_floor(data)
        assert res.converged and res.n_iter == n_iter
        assert res.loglik_trace[-1] == pytest.approx(loglik, rel=1e-12)
        assert np.isfinite(res.model._mu).all()
        assert (res.model._sigma >= floor).all()
        # Some scale ends within 1e-9 of the floor instead of near the float limit.
        assert (res.model._sigma <= floor * (1 + 1e-9)).any()

    def test_deterministic_given_seed(self):
        data, _ = lm.sample_mixture(reference_model(), 600, seed=39)
        r1 = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=7))
        r2 = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=2, seed=7))
        assert np.array_equal(r1.loglik_trace, r2.loglik_trace)
        for a, b in zip(r1.model.components, r2.model.components):
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)


def plain_em(data, config, seed, strategy):
    """``estimation._em_single`` without extrapolation: the start's E-step, then
    ``estimation._em_step`` until the stopping rule or the cap."""
    model = lm.init_params(data, config.s, seed, strategy)
    coords = _coordinate_major(data)
    parts, resp, loglik = estimation._parts_e_step(coords, model)
    trace = [loglik]
    for _ in range(config.max_iter):
        model, parts, resp, loglik = estimation._em_step(coords, model, parts, resp, scale_floor(data))
        trace.append(loglik)
        if loglik - trace[-2] < estimation.REL_TOL * max(1.0, abs(loglik)):
            return model, np.asarray(trace), True
    return model, np.asarray(trace), False


def squarem_inputs(p, s):
    rng = np.random.default_rng(60 + 10 * p + s)
    comps = tuple(lm.MldParams(rng.uniform(-2, 2, p), rng.uniform(0.5, 1.5, p)) for _ in range(s))
    truth = lm.MixtureModel(rng.dirichlet(np.full(s, 4.0)), comps)
    return lm.sample_mixture(truth, 400, seed=61)[0]


SQUAREM_SHAPES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]


class TestSquarem:
    @pytest.mark.parametrize("p, s", SQUAREM_SHAPES)
    @pytest.mark.parametrize("steplength", [-1e300, -1e3], ids=["non-finite", "far"])
    def test_overshooting_steplength_falls_back_to_plain_em(self, monkeypatch, p, s, steplength):
        # Every extrapolated point is non-finite, or so far out that its log-likelihood is
        # below the second step's, so each cycle ends at that step and the run is plain EM.
        data = squarem_inputs(p, s)
        config = lm.FitConfig(s=s, max_iter=60)
        extrapolate = estimation._extrapolate
        calls = []

        def spy(coords, theta0, theta1, state, floor):
            out = extrapolate(coords, theta0, theta1, state, floor)
            calls.append(out is state)
            return out

        monkeypatch.setattr(estimation, "_steplength", lambda r, v: steplength)
        monkeypatch.setattr(estimation, "_extrapolate", spy)
        model, trace, converged = estimation._em_single(data, config, 0, "quantile", scale_floor(data))
        want_model, want_trace, want_converged = plain_em(data, config, 0, "quantile")
        assert calls and all(calls)
        assert np.array_equal(trace, want_trace) and converged == want_converged
        assert np.array_equal(model.weights, want_model.weights)
        assert np.array_equal(model._mu, want_model._mu)
        assert np.array_equal(model._sigma, want_model._sigma)

    @pytest.mark.parametrize("p, s", SQUAREM_SHAPES)
    @pytest.mark.parametrize("max_iter", [1, 2, 7, 60, 500])
    def test_trace_holds_the_start_and_one_entry_per_step(self, p, s, max_iter):
        data = squarem_inputs(p, s)
        fit = lm.em_fit(data, lm.FitConfig(s=s, n_restarts=2, max_iter=max_iter, seed=p))
        trace = fit.loglik_trace
        assert len(trace) == fit.n_iter + 1 <= max_iter + 1
        assert np.all(np.diff(trace) >= -1e-9)
        # The stopping rule reads the trace: only a converged fit's last rise is below it.
        small = np.diff(trace) < estimation.REL_TOL * np.maximum(1.0, np.abs(trace[1:]))
        assert not small[:-1].any()
        assert fit.converged == bool(small[-1])
        assert fit.converged or fit.n_iter == max_iter
        # No extrapolation follows the last step, so the last entry is the model's own.
        assert trace[-1] == lm.log_likelihood(data, fit.model)

    def test_extrapolation_below_the_scale_floor_is_not_kept(self):
        # The scale falls along the cycle towards the data's 0.01 and the extrapolated point
        # raises the log-likelihood; it is kept under a floor below its scale, not above.
        data = 0.01 * np.random.default_rng(62).logistic(size=(300, 1))
        coords = _coordinate_major(data)
        model0, model1, model2 = (lm.MixtureModel([1.0], (lm.MldParams([0.0], [sg]),))
                                  for sg in (1.0, 0.5, 0.3))
        theta0, theta1 = estimation._theta(model0), estimation._theta(model1)
        state = (model2,) + estimation._parts_e_step(coords, model2)
        kept = estimation._extrapolate(coords, theta0, theta1, state, np.array([0.05]))
        assert kept[3] > state[3] and 0.05 < kept[0]._sigma[0, 0] < 0.1
        assert estimation._extrapolate(coords, theta0, theta1, state, np.array([0.1])) is state

    @pytest.mark.parametrize("p, s", SQUAREM_SHAPES)
    @pytest.mark.parametrize("max_iter", [20, 60])
    def test_ends_no_lower_than_plain_em(self, p, s, max_iter):
        data = squarem_inputs(p, s)
        config = lm.FitConfig(s=s, max_iter=max_iter)
        _, trace, _ = estimation._em_single(data, config, 0, "quantile", scale_floor(data))
        _, plain_trace, _ = plain_em(data, config, 0, "quantile")
        assert trace[-1] >= plain_trace[-1]

    @pytest.mark.parametrize("p, s", SQUAREM_SHAPES)
    def test_deterministic_given_seed(self, p, s):
        data = squarem_inputs(p, s)
        config = lm.FitConfig(s=s, n_restarts=3, max_iter=60, seed=11)
        r1, r2 = lm.em_fit(data, config), lm.em_fit(data, config)
        assert np.array_equal(r1.loglik_trace, r2.loglik_trace) and r1.converged == r2.converged
        assert np.array_equal(r1.model.weights, r2.model.weights)
        assert np.array_equal(r1.model._mu, r2.model._mu)
        assert np.array_equal(r1.model._sigma, r2.model._sigma)


class TestFitResultInvariant:
    def test_rejects_decreasing_trace(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),))
        with pytest.raises(ValueError):
            lm.FitResult(
                model=m,
                loglik_trace=np.array([-10.0, -10.5]),
                converged=True,
                n_iter=1,
            )


_ONE_COMPONENT = lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),))


@pytest.mark.parametrize("call, name", [
    (lambda: lm.FitConfig(s=1.5), "s"),
    (lambda: lm.FitConfig(s=2, max_iter=2.5), "max_iter"),
    (lambda: lm.FitConfig(s=2, n_restarts=0), "n_restarts"),
    (lambda: lm.sample_mixture(_ONE_COMPONENT, 2.5, 0), "n"),
    (lambda: lm.sample(_ONE_COMPONENT.components[0], 0, 0), "n"),
    (lambda: lm.gram_min_eigenvalue(_ONE_COMPONENT.components, nodes_per_axis=0), "nodes_per_axis"),
    (lambda: lm.FitConfig(s=True), "s"),
    (lambda: lm.sample_mixture(_ONE_COMPONENT, True, 0), "n"),
    (lambda: lm.sample(_ONE_COMPONENT.components[0], True, 0), "n"),
])
def test_bad_count_raises_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match="^%s must be an integer >= 1, got " % name):
        call()


def test_bool_seed_raises_value_error():
    with pytest.raises(ValueError, match="^seed must be an integer, got True$"):
        lm.sample(_ONE_COMPONENT.components[0], 3, True)
