import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit, roots_legendre

import logimix as lm
from logimix import identifiability
from logimix._util import rng_from_seed, spawn_seed_chunks, spawn_seeds
from logimix.identifiability import _param_distance_matrix
from logimix.mixture import _to_theta, model_from_dict, model_to_dict
from logimix.mld import _cdf, _stack_components


def mld1(mu, sigma):
    return lm.MldParams([mu], [sigma])


def random_components(rng, p, s):
    return tuple(lm.MldParams(rng.uniform(-2.0, 2.0, p), rng.uniform(0.05, 3.0, p)) for _ in range(s))


def dense_grid(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([a.ravel() for a in mesh])


def one_shot_gram(mu, sigma, nodes):
    """The Gram quadrature of ``identifiability._gram_matrix`` over the whole grid in one pass."""
    t, w = identifiability._unit_gl_nodes(nodes)
    x = np.clip(np.log(t) - np.log1p(-t), -40.0, 40.0)
    grid = np.ix_(*([x] * mu.shape[1]))
    wts = w
    for _ in range(mu.shape[1] - 1):
        wts = np.multiply.outer(wts, w)
    wts = wts.ravel()
    vals = np.stack([_cdf(grid, m, sg).ravel() for m, sg in zip(mu, sigma)])
    gram = (vals * wts) @ vals.T
    return 0.5 * (gram + gram.T)


def random_mixture(rng, p, s):
    return lm.MixtureModel(rng.dirichlet(np.ones(s)), random_components(rng, p, s))


def dense_gap(m1, m2):
    """max |F1 - F2| over the pooled 41-point-per-axis grid, built from scalar linspaces and
    evaluated by the public mixture_cdf one first-axis point at a time (a maximum of maxima)."""
    comps = m1.components + m2.components
    lo = np.min([c.mu - identifiability.GRID_SPAN * c.sigma for c in comps], axis=0)
    hi = np.max([c.mu + identifiability.GRID_SPAN * c.sigma for c in comps], axis=0)
    axes = [np.linspace(lo[k], hi[k], identifiability.GRID_POINTS) for k in range(len(lo))]
    gap = 0.0
    for x0 in axes[0]:
        pts = dense_grid([[x0]] + axes[1:])
        gap = max(gap, np.max(np.abs(lm.mixture_cdf(pts, m1) - lm.mixture_cdf(pts, m2))))
    return gap


def reference_trial(p, s, shared_scale, seed, n_trials):
    """The trial harness as a loop of per-pair mixture_equality_test calls."""
    distinct = permuted_ok = 0
    gaps, permuted_gaps = [], []
    for trial_seed in spawn_seeds(seed, n_trials):
        m1, m2 = identifiability._random_model_pair(p, s, rng_from_seed(trial_seed), shared_scale)
        rep = lm.mixture_equality_test(m1, m2)
        gaps.append(rep.sup_norm_cdf_gap)
        distinct += not rep.equal_distribution and rep.sup_norm_cdf_gap > identifiability.DISTINCT_GAP
        perm = np.roll(np.arange(s), 1)
        permuted = lm.MixtureModel(m1.weights[perm], tuple(m1.components[i] for i in perm))
        prep = lm.mixture_equality_test(m1, permuted)
        permuted_gaps.append(prep.sup_norm_cdf_gap)
        permuted_ok += prep.equal_distribution and prep.equal_parameters
    return {
        "mode": "trial", "p": p, "s": s, "shared_scale": shared_scale, "seed": seed,
        "n_trials": n_trials, "distinct_passes": distinct, "distinct_failures": n_trials - distinct,
        "permuted_passes": permuted_ok, "permuted_failures": n_trials - permuted_ok,
        "min_distinct_gap": min(gaps), "max_permuted_gap": max(permuted_gaps),
        "distinct_threshold": identifiability.DISTINCT_GAP,
    }


def reference_probe_start(p, s, n_trials, seed):
    """(gap, parameter distance, m1, m2) of the first random probe pair with the smallest
    mixture_equality_test gap, pairs drawn and filtered as probe_open_problem draws them."""
    best = None
    for t, trial_seed in enumerate(spawn_seeds(seed, n_trials)):
        rng = rng_from_seed(trial_seed)
        m1 = identifiability._random_model(p, s, rng, shared_scale=False)
        if t % 2 == 0:
            m2 = identifiability._random_model(p, s, rng, shared_scale=False)
        else:
            m2 = identifiability._perturb_model(m1, rng)
        dist, _ = lm.matched_param_distance(m1, m2)
        if dist < identifiability.MIN_PARAM_GAP:
            continue
        gap = lm.mixture_equality_test(m1, m2).sup_norm_cdf_gap
        if best is None or gap < best[0]:
            best = (gap, dist, m1, m2)
    return best


def shared_sigma_model(rng, p, s):
    sigma = rng.uniform(0.5, 2.0, p)
    comps = tuple(lm.MldParams(rng.uniform(-2.5, 2.5, p), sigma) for _ in range(s))
    return lm.MixtureModel(rng.dirichlet(np.full(s, 5.0)), comps)


class TestGram:
    def test_single_component_positive(self):
        rep = lm.gram_min_eigenvalue((mld1(0.3, 1.2),))
        assert rep.min_eigenvalue > 0
        assert rep.numerical_rank == 1

    def test_duplicate_component_singular(self):
        comp = mld1(-0.5, 0.9)
        rep = lm.gram_min_eigenvalue((comp, comp))
        assert rep.min_eigenvalue < 1e-10
        assert rep.numerical_rank == 1

    def test_three_distinct_vs_monte_carlo(self):
        comps = (mld1(-1.0, 1.0), mld1(0.0, 1.0), mld1(1.0, 2.0))
        rep = lm.gram_min_eigenvalue(comps)
        assert rep.min_eigenvalue > 0
        assert rep.quadrature_converged
        rng = np.random.default_rng(5)
        x = rng.logistic(size=(10**6, 1))
        vals = np.stack([np.asarray(lm.mld_cdf(x, c)) for c in comps])
        mc_min = np.linalg.eigvalsh(vals @ vals.T / x.shape[0])[0]
        assert rep.min_eigenvalue == pytest.approx(mc_min, rel=0.01)

    def test_separated_components_well_conditioned(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            comps = []
            while len(comps) < 3:
                cand = mld1(rng.uniform(-3, 3), rng.uniform(0.5, 2.0))
                if all(
                    max(abs(cand.mu[0] - c.mu[0]), abs(np.log(cand.sigma[0]) - np.log(c.sigma[0]))) >= 0.1
                    for c in comps
                ):
                    comps.append(cand)
            rep = lm.gram_min_eigenvalue(tuple(comps))
            eigs = np.linalg.eigvalsh(rep.gram)
            assert rep.min_eigenvalue > 1e-8 * eigs[-1]

    def test_gram_symmetric(self):
        rep = lm.gram_min_eigenvalue((mld1(0.0, 1.0), mld1(1.0, 0.7)))
        assert np.max(np.abs(rep.gram - rep.gram.T)) < 1e-12
        assert rep.min_eigenvalue > -1e-10

    def test_two_dimensional_components(self):
        comps = (
            lm.MldParams([-1.0, 0.0], [1.0, 1.0]),
            lm.MldParams([1.0, 0.5], [1.0, 1.0]),
        )
        rep = lm.gram_min_eigenvalue(comps)
        assert rep.min_eigenvalue > 0
        assert rep.quadrature_converged

    @pytest.mark.parametrize("nodes", [8, 64, 128, 256])
    def test_unit_nodes_integrate_polynomials(self, nodes):
        # An n-node Gauss-Legendre rule is exact for every degree up to 2n - 1.
        t, w = identifiability._unit_gl_nodes(nodes)
        assert np.all((t > 0.0) & (t < 1.0))
        np.testing.assert_allclose(t + t[::-1], 1.0, rtol=0.0, atol=1e-15)
        assert w.sum() == pytest.approx(1.0, rel=0.0, abs=1e-14)
        k = np.arange(2 * nodes)
        moments = (w * t ** k[:, None]).sum(axis=1) * (k + 1)
        np.testing.assert_allclose(moments, 1.0, rtol=0.0, atol=2e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_dense_formulation(self, p):
        comps = random_components(np.random.default_rng(20 + p), p, 3)
        rep = lm.gram_min_eigenvalue(comps)
        t, w = roots_legendre(rep.nodes_per_axis)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        x = dense_grid([np.clip(np.log(t) - np.log1p(-t), -40.0, 40.0)] * p)
        wts = np.prod(dense_grid([w] * p), axis=1)
        vals = np.stack([lm.mld_cdf(x, c) for c in comps])
        gram = (vals * wts) @ vals.T
        np.testing.assert_allclose(rep.gram, 0.5 * (gram + gram.T), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("nodes", [64, 128])
    def test_memory_is_bounded_by_the_slabs(self, nodes):
        # A single pass over each grid would trace 112 MiB at 64 nodes and 896 MiB at 128.
        comps = random_components(np.random.default_rng(30), 3, 3)
        tracemalloc.start()
        try:
            rep = lm.gram_min_eigenvalue(comps, nodes_per_axis=nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.numerical_rank == 3
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("nodes", [16, 64])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_single_slab_is_bit_identical_to_one_pass(self, p, nodes):
        _, mu, sigma = _stack_components(random_components(np.random.default_rng(40 + p), p, 3))
        gram = identifiability._gram_matrix(mu, sigma, nodes)
        assert gram.tobytes() == one_shot_gram(mu, sigma, nodes).tobytes()

    def test_split_grid_matches_one_pass(self, monkeypatch):
        # The 128-node grid at p = 3 is 8 slabs; the 64-node report uses it as its refinement.
        comps = random_components(np.random.default_rng(43), 3, 3)
        _, mu, sigma = _stack_components(comps)
        gram = identifiability._gram_matrix(mu, sigma, 128)
        reference = one_shot_gram(mu, sigma, 128)
        np.testing.assert_array_less(np.abs(gram - reference), 1e-13 * np.abs(reference))
        rep = lm.gram_min_eigenvalue(comps)
        monkeypatch.setattr(identifiability, "_gram_matrix", one_shot_gram)
        assert rep.to_dict() == lm.gram_min_eigenvalue(comps).to_dict()

    @pytest.mark.parametrize("p, block_points", [(1, 5), (2, 50), (3, 40), (3, 700)])
    def test_uneven_slabs_match_one_pass(self, monkeypatch, p, block_points):
        # Blocks of 5, 3, 1 and 2 of the 16 first-axis nodes; the first two leave a short last slab.
        _, mu, sigma = _stack_components(random_components(np.random.default_rng(50 + p), p, 3))
        monkeypatch.setattr(identifiability, "GRAM_BLOCK_POINTS", block_points)
        gram = identifiability._gram_matrix(mu, sigma, 16)
        np.testing.assert_allclose(gram, one_shot_gram(mu, sigma, 16), rtol=1e-13, atol=0.0)

    def test_rejects_high_dimension(self):
        comp = lm.MldParams(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            lm.gram_min_eigenvalue((comp,))

    def test_weight_spec_keyword_is_gone(self):
        # The product-logistic weight is the only one; it is not an option.
        with pytest.raises(TypeError, match="weightfn_spec"):
            lm.gram_min_eigenvalue((mld1(0, 1),), weightfn_spec="product-logistic")

    def test_report_dict_fields(self):
        rep = lm.gram_min_eigenvalue((mld1(0.0, 1.0),))
        d = rep.to_dict()
        assert set(d) >= {"min_eigenvalue", "numerical_rank", "nodes_per_axis"}
        assert d["nodes_per_axis"] == 64


class TestTailAndReflection:
    def test_combination_copies_its_coefficients(self):
        base = np.array([[1.0, -1.0], [0.0, 0.0]])
        lc = lm.LinearCombination(base[0], (mld1(0.0, 1.0), mld1(1.0, 1.0)))
        assert base.flags.writeable
        base[0, 0] = 5.0
        assert np.array_equal(lc.coeffs, [1.0, -1.0])
        assert not lc.coeffs.flags.writeable

    def test_cancelling_identical_components(self):
        comp = mld1(0.4, 1.1)
        lc = lm.LinearCombination([1.0, -1.0], (comp, comp))
        assert lm.tail_coefficient_sum(lc, 1e4) == 0.0

    def test_recovers_positive_sum(self):
        lc = lm.LinearCombination([0.3, 0.7], (mld1(-1.0, 0.6), mld1(2.0, 1.4)))
        assert abs(lm.tail_coefficient_sum(lc, 1e4) - 1.0) < 1e-12

    def test_zero_sum_triple(self):
        lc = lm.LinearCombination(
            [2.0, -1.0, -1.0], (mld1(0.0, 1.0), mld1(1.0, 1.0), mld1(-1.0, 2.0))
        )
        assert abs(lm.tail_coefficient_sum(lc, 1e4)) < 1e-12

    def test_reflection_negates_zero_sum_combination(self):
        lc = lm.LinearCombination([1.0, -1.0], (mld1(-0.7, 0.9), mld1(1.3, 1.8)))
        reflected = lm.reflect_combination(lc)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-6, 6, 20):
            assert reflected(x) == pytest.approx(-lm.evaluate_combination(lc, x), abs=1e-12)

    def test_reflection_identical_components_vanishes(self):
        comp = mld1(0.2, 1.0)
        lc = lm.LinearCombination([1.0, -1.0], (comp, comp))
        reflected = lm.reflect_combination(lc)
        for x in (-3.0, 0.0, 2.5):
            assert reflected(x) == 0.0

    def test_reflection_triple_at_point(self):
        lc = lm.LinearCombination(
            [2.0, -1.0, -1.0], (mld1(0.0, 1.0), mld1(1.0, 1.0), mld1(-1.0, 2.0))
        )
        reflected = lm.reflect_combination(lc)
        direct = 2 * expit(-0.7) - expit(-(0.7 - 1.0)) - expit(-(0.7 + 1.0) / 2.0)
        assert reflected(0.7) == pytest.approx(direct, rel=1e-14)
        assert reflected(0.7) == pytest.approx(-lm.evaluate_combination(lc, 0.7), abs=1e-12)

    def test_reflection_is_exactly_the_reflected_expit_sum(self):
        comps = (mld1(0.3, 0.7), mld1(-1.1, 2.5), mld1(4.0, 1e-3))
        lc = lm.LinearCombination([1.5, -0.25, -1.25], comps)
        reflected = lm.reflect_combination(lc)
        for x in (-7.0, -0.4, 0.0, 0.3, 4.0005, 1e3):
            direct = 0.0
            for d, c in zip(lc.coeffs, comps):
                direct = direct + d * expit(-(x - c.mu[0]) / c.sigma[0])
            assert reflected(x) == direct

    def test_huge_probes_give_the_exact_tails_without_overflow_warning(self):
        lc = lm.LinearCombination([1.5, -0.25], (mld1(0.3, 0.5), mld1(-1.1, 2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lm.tail_coefficient_sum(lc, 1e308) == 1.25
            assert lm.tail_coefficient_sum(lc, -1e308) == 0.0

    def test_infinite_probes_are_the_tail_limits(self):
        lc = lm.LinearCombination([1.5, -0.25], (mld1(0.3, 0.5), mld1(-1.1, 2.0)))
        assert lm.tail_coefficient_sum(lc, np.inf) == 1.25
        assert lm.evaluate_combination(lc, -np.inf) == 0.0
        assert np.array_equal(lm.evaluate_combination(lc, [-np.inf, np.inf]), [0.0, 1.25])
        zero_sum = lm.LinearCombination([1.0, -1.0], (mld1(0.3, 0.5), mld1(-1.1, 2.0)))
        reflected = lm.reflect_combination(zero_sum)
        assert reflected(np.inf) == 0.0
        assert reflected(-np.inf) == 0.0

    def test_nan_probes_raise(self):
        lc = lm.LinearCombination([1.0, -1.0], (mld1(0.3, 0.5), mld1(-1.1, 2.0)))
        reflected = lm.reflect_combination(lc)
        for probe in (
            lambda: lm.evaluate_combination(lc, np.nan),
            lambda: lm.evaluate_combination(lc, [0.0, np.nan]),
            lambda: lm.tail_coefficient_sum(lc, float("nan")),
            lambda: reflected(np.nan),
        ):
            with pytest.raises(ValueError, match="x must not be NaN"):
                probe()

    def test_reflection_requires_zero_sum(self):
        lc = lm.LinearCombination([1.0, -0.5], (mld1(0.0, 1.0), mld1(1.0, 1.0)))
        with pytest.raises(ValueError):
            lm.reflect_combination(lc)


class TestVandermonde:
    def test_two_by_two_example(self):
        rep = lm.vandermonde_check([0.0, np.log(2.0)], [1.0, 1.0])
        assert np.allclose(rep.matrix, [[1.0, 2.0], [1.0, 4.0]])
        assert rep.null_vector is None
        assert rep.determinant_sign_ok
        assert rep.min_singular_value > 0.1

    def test_duplicated_nodes_null_vector(self):
        rep = lm.vandermonde_check([1.0, 1.0], [1.0, 1.0])
        assert rep.null_vector is not None
        v = np.abs(rep.null_vector)
        assert v == pytest.approx([1.0 / np.sqrt(2.0)] * 2, rel=1e-10)

    def test_single_node_invertible(self):
        rep = lm.vandermonde_check([3.0], [2.0])
        assert rep.null_vector is None
        assert rep.min_singular_value > 0

    def test_random_distinct_nodes_invertible(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            while True:
                nodes = rng.uniform(0.5, 3.0, k)
                gaps = np.abs(np.subtract.outer(nodes, nodes))
                np.fill_diagonal(gaps, np.inf)
                if gaps.min() > 0.05:
                    break
            sigmas = rng.uniform(0.5, 2.0, k)
            mus = sigmas * np.log(nodes)
            rep = lm.vandermonde_check(mus, sigmas)
            assert rep.null_vector is None
            assert rep.min_singular_value > 0
            assert rep.determinant_sign_ok

    def test_tightly_separated_nodes_resolved_at_small_k(self):
        # 1e-6 relative separation is resolvable in double precision for k <= 3
        for nodes in ([1.0, 1.0 + 1e-6], [1.0, 1.0 + 1e-6, 2.0]):
            mus = np.log(nodes)
            rep = lm.vandermonde_check(mus, np.ones(len(nodes)))
            assert rep.null_vector is None
            assert rep.min_singular_value > 0

    def test_huge_dynamic_range_flagged_not_crashed(self):
        rep = lm.vandermonde_check([400.0, -400.0, 0.0], [1.0, 1.0, 1.0])
        assert rep.dynamic_range_flagged
        assert rep.column_scaled
        assert np.all(np.isfinite(rep.matrix))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            lm.vandermonde_check([0.0], [0.0])

    def test_scaled_duplicated_nodes_give_finite_null_vector(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = lm.vandermonde_check([-800.0, -800.0], [1.0, 1.0])
        assert rep.column_scaled
        v = rep.null_vector
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.abs(v) == pytest.approx([1.0 / np.sqrt(2.0)] * 2, rel=1e-10)
        assert v[0] == -v[1]

    @pytest.mark.parametrize("mus, sigmas", [
        ([1e308, 1.0], [1e-308, 1.0]), ([1e308, 1.0], [1.0, 1.0]),
    ])
    def test_rejects_exponents_beyond_the_float_range(self, mus, sigmas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^mus/sigmas: "):
                lm.vandermonde_check(mus, sigmas)


class TestSeparatingOffsets:
    def test_single_coordinate_difference_needs_no_offset(self):
        comps = (
            lm.MldParams([0.0, 0.0], [1.0, 1.0]),
            lm.MldParams([1.0, 0.0], [1.0, 1.0]),
        )
        assert lm.find_separating_offsets(comps, (0, 1), seed=0) == (0.0, 0.0)

    def test_identical_components_exempt(self):
        comp = lm.MldParams([0.0, 1.0], [1.0, 1.0])
        assert lm.find_separating_offsets((comp, comp), (0, 1), seed=0) == (0.0, 0.0)

    def test_documented_collision_is_resolved(self):
        comps = (
            lm.MldParams([0.0, 1.0], [1.0, 1.0]),
            lm.MldParams([1.0, 0.0], [1.0, 1.0]),
        )
        ya, yb = lm.find_separating_offsets(comps, (0, 1), seed=3)
        m0 = np.exp(ya + 0.0) + np.exp(yb + 1.0)
        m1 = np.exp(ya + 1.0) + np.exp(yb + 0.0)
        assert abs(m0 - m1) > 1e-9 * max(m0, m1)
        # any offsets with equal entries collide for this construction
        assert not np.isclose(ya, yb)

    def test_rejects_distinct_scales(self):
        comps = (
            lm.MldParams([0.0, 0.0], [1.0, 1.0]),
            lm.MldParams([1.0, 0.0], [1.0, 2.0]),
        )
        with pytest.raises(ValueError):
            lm.find_separating_offsets(comps, (0, 1), seed=0)

    def test_rejects_bad_coordinate_pairs(self):
        comps = (lm.MldParams([0.0, 0.0], [1.0, 1.0]),)
        with pytest.raises(ValueError, match="need at least two coordinates$"):
            lm.find_separating_offsets((mld1(0.0, 1.0),), (0, 1), seed=0)
        for pair in ((0, 0), (0, 2)):
            with pytest.raises(ValueError, match=r"coordinate pair \(%d, %d\) invalid for p=2" % pair):
                lm.find_separating_offsets(comps, pair, seed=0)
        with pytest.raises(ValueError, match="^each coord_pair entry must be an integer >= 0, got -1$"):
            lm.find_separating_offsets(comps, (-1, 1), seed=0)

    @pytest.mark.parametrize("pair, bad", [
        ((0.2, 1.9), "0.2"), ((0, 1.0), "1.0"), (("0", 1), "'0'"), ((True, 0), "True"),
        ((0, np.nan), "nan"),
    ])
    def test_rejects_coordinates_that_are_not_integers(self, pair, bad):
        comps = (lm.MldParams([0.0, 0.0], [1.0, 1.0]), lm.MldParams([1.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match="^each coord_pair entry must be an integer >= 0, got %s$" % re.escape(bad)):
            lm.find_separating_offsets(comps, pair, seed=0)


class TestCollapse:
    def test_standard_pair_merges_to_log2(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0, 0.0], [1.0, 1.0]),))
        collapsed = lm.collapse_pair(m, (0, 1), 0.0, 0.0)
        assert collapsed.p == 1
        assert collapsed.components[0].mu[0] == pytest.approx(np.log(2.0), rel=1e-15)
        assert collapsed.components[0].sigma[0] == 1.0

    def test_defining_property_random_models(self):
        rng = np.random.default_rng(9)
        for p in (2, 3):
            for _ in range(5):
                model = shared_sigma_model(rng, p, 3)
                sigma = model.components[0].sigma
                a, b = (0, p - 1)
                ya, yb = rng.uniform(-2, 2, 2)
                collapsed = lm.collapse_pair(model, (a, b), ya, yb)
                for _ in range(50):
                    xv = rng.uniform(-4, 4)
                    rest = rng.uniform(-5, 5, p - 2)
                    orig_pt = np.empty(p)
                    orig_pt[a] = sigma[a] * xv - ya
                    orig_pt[b] = sigma[b] * xv - yb
                    keep = [k for k in range(p) if k not in (a, b)]
                    orig_pt[keep] = rest
                    coll_pt = np.concatenate(([xv], rest))
                    assert lm.mixture_cdf(orig_pt, model) == pytest.approx(
                        lm.mixture_cdf(coll_pt, collapsed), abs=1e-12
                    )

    def test_collapsed_cdf_tends_to_one(self):
        rng = np.random.default_rng(10)
        model = shared_sigma_model(rng, 2, 2)
        collapsed = lm.collapse_pair(model, (0, 1), 0.3, -0.4)
        assert lm.mixture_cdf(np.array([60.0]), collapsed) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_shared_scale(self):
        m = lm.MixtureModel(
            [0.5, 0.5],
            (lm.MldParams([0.0, 0.0], [1.0, 1.0]), lm.MldParams([1.0, 0.0], [2.0, 1.0])),
        )
        with pytest.raises(ValueError):
            lm.collapse_pair(m, (0, 1), 0.0, 0.0)

    @pytest.mark.parametrize("y_a, y_b, name", [
        (np.nan, 0.0, "y_a"), (0.0, np.nan, "y_b"), (np.inf, 0.0, "y_a"), (0.0, -np.inf, "y_b"),
    ])
    def test_rejects_non_finite_offsets(self, y_a, y_b, name):
        model = shared_sigma_model(np.random.default_rng(11), 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^offset %s must be finite, got " % name):
                lm.collapse_pair(model, (0, 1), y_a, y_b)

    @pytest.mark.parametrize("y_a, y_b", [(1e308, 0.0), (0.0, 1e308), (-1e308, -1e308)])
    def test_rejects_offsets_that_overflow_the_merged_location(self, y_a, y_b):
        comps = (lm.MldParams([0.0, 1.0], [0.5, 0.5]), lm.MldParams([1.0, 0.0], [0.5, 0.5]))
        model = lm.MixtureModel([0.5, 0.5], comps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("offsets y_a=%r, y_b=%r overflow " % (y_a, y_b))):
                lm.collapse_pair(model, (0, 1), y_a, y_b)

    def test_rejects_bad_coordinate_pairs(self):
        with pytest.raises(ValueError, match="need at least two coordinates to collapse"):
            lm.collapse_pair(lm.MixtureModel([1.0], (mld1(0.0, 1.0),)), (0, 1), 0.0, 0.0)
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0, 0.0], [1.0, 1.0]),))
        for pair in ((1, 1), (2, 0)):
            with pytest.raises(ValueError, match=r"coordinate pair \(%d, %d\) invalid for p=2" % pair):
                lm.collapse_pair(m, pair, 0.0, 0.0)

    def test_rejects_coordinates_that_are_not_an_integer_pair(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),))
        for pair in ((0.7, 1.2), (0, True), (0, "2")):
            with pytest.raises(ValueError, match="^each coord_pair entry must be an integer >= 0, got "):
                lm.collapse_pair(m, pair, 0.0, 0.0)
        with pytest.raises(ValueError, match=re.escape("coord_pair must hold two coordinates, got (0, 1, 2)")):
            lm.collapse_pair(m, (0, 1, 2), 0.0, 0.0)
        assert lm.collapse_pair(m, np.array([2, 0], dtype=np.uint8), 0.0, 0.0).p == 2


class TestEqualityTest:
    def test_permuted_copy_tests_equal(self):
        rng = np.random.default_rng(11)
        m = shared_sigma_model(rng, 2, 3)
        perm = [2, 0, 1]
        permuted = lm.MixtureModel(
            m.weights[perm], tuple(m.components[i] for i in perm)
        )
        rep = lm.mixture_equality_test(m, permuted)
        assert rep.equal_distribution
        assert rep.equal_parameters
        assert rep.sup_norm_cdf_gap < 1e-15
        assert rep.max_param_gap == 0.0

    def test_two_bumps_differ_from_single(self):
        m1 = lm.MixtureModel([0.5, 0.5], (mld1(-1.0, 1.0), mld1(1.0, 1.0)))
        m2 = lm.MixtureModel([1.0], (mld1(0.0, 1.0),))
        rep = lm.mixture_equality_test(m1, m2)
        assert not rep.equal_distribution
        assert rep.sup_norm_cdf_gap > 1e-3
        assert not rep.equal_parameters
        assert rep.matched_permutation is None

    def test_small_shift_breaks_parameter_equality(self):
        m1 = lm.MixtureModel([0.4, 0.6], (mld1(-1.0, 1.0), mld1(1.0, 1.0)))
        shifted = lm.MixtureModel(
            [0.4, 0.6], (mld1(-1.0 + 1e-5, 1.0), mld1(1.0, 1.0))
        )
        rep = lm.mixture_equality_test(m1, shifted)
        assert not rep.equal_parameters
        assert rep.max_param_gap == pytest.approx(1e-5, rel=1e-6)
        assert rep.equal_distribution is False or rep.sup_norm_cdf_gap >= 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_grid_gap_matches_dense_mixture_cdf(self, p):
        rng = np.random.default_rng(30 + p)
        m1, m2 = (lm.MixtureModel(rng.dirichlet(np.ones(2)), random_components(rng, p, 2)) for _ in range(2))
        comps = m1.components + m2.components
        lo = np.min([c.mu - 10.0 * c.sigma for c in comps], axis=0)
        hi = np.max([c.mu + 10.0 * c.sigma for c in comps], axis=0)
        pts = dense_grid([np.linspace(lo[k], hi[k], 41) for k in range(p)])
        dense_gap = np.max(np.abs(lm.mixture_cdf(pts, m1) - lm.mixture_cdf(pts, m2)))
        rep = lm.mixture_equality_test(m1, m2)
        assert rep.sup_norm_cdf_gap > 1e-3
        assert rep.sup_norm_cdf_gap == pytest.approx(dense_gap, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu, sigma, coord", [
        ([0.0], [1e308], 0),
        ([0.0, 0.0], [1.0, 1e308], 1),
        ([1.7e308, 0.0], [1.0, 1.0], 0),
    ])
    def test_overflowing_grid_span_raises_clear_error(self, mu, sigma, coord):
        p = len(mu)
        m1 = lm.MixtureModel([0.5, 0.5], (lm.MldParams(mu, sigma), lm.MldParams(-np.abs(mu), np.ones(p))))
        m2 = lm.MixtureModel([1.0], (lm.MldParams(np.zeros(p), np.ones(p)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="span .* overflows the float range on coordinate %d" % coord):
                lm.mixture_equality_test(m1, m2)

    def test_grid_rejects_more_than_four_dimensions(self):
        m = lm.MixtureModel([1.0], (lm.MldParams(np.zeros(5), np.ones(5)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"supports p <= 4 .*, got p=5$"):
                lm.mixture_equality_test(m, m)

    def test_param_distance_matrix_matches_pairwise_loop(self):
        rng = np.random.default_rng(12)
        for p, s1, s2 in ((1, 2, 3), (2, 3, 3), (3, 4, 2)):
            m1, m2 = (
                lm.MixtureModel(rng.dirichlet(np.ones(s)), random_components(rng, p, s))
                for s in (s1, s2)
            )
            ref = np.array([
                [max(np.max(np.abs(ci.mu - cj.mu)),
                     np.max(np.abs(np.log(ci.sigma) - np.log(cj.sigma))),
                     abs(wi - wj))
                 for wj, cj in zip(m2.weights, m2.components)]
                for wi, ci in zip(m1.weights, m1.components)
            ])
            assert np.array_equal(_param_distance_matrix(m1, m2), ref)

    def test_dimension_mismatch(self):
        m1 = lm.MixtureModel([1.0], (mld1(0.0, 1.0),))
        m2 = lm.MixtureModel([1.0], (lm.MldParams([0.0, 0.0], [1.0, 1.0]),))
        with pytest.raises(ValueError):
            lm.mixture_equality_test(m1, m2)


def stacked_pairs(rng, p, s1, s2, n_pairs):
    pairs = [(random_mixture(rng, p, s1), random_mixture(rng, p, s2)) for _ in range(n_pairs)]
    return pairs, identifiability._stacked([a for a, _ in pairs]), identifiability._stacked([b for _, b in pairs])


class TestCdfGaps:
    @pytest.mark.parametrize("p, s1, s2", [
        (p, s1, s2) for p in (1, 2, 3) for s1 in (1, 2, 3) for s2 in (1, 2, 3)
    ] + [(4, 2, 3), (4, 3, 1)])
    def test_batch_equals_dense_mixture_cdf_exactly(self, p, s1, s2):
        rng = np.random.default_rng(100 * p + 10 * s1 + s2)
        pairs, first, second = stacked_pairs(rng, p, s1, s2, 2 if p == 4 else 4)
        gaps = identifiability._cdf_gaps(first, second)
        assert gaps.shape == (len(pairs),)
        assert gaps.tolist() == [dense_gap(m1, m2) for m1, m2 in pairs]
        assert [lm.mixture_equality_test(m1, m2).sup_norm_cdf_gap for m1, m2 in pairs] == gaps.tolist()

    @pytest.mark.parametrize("p, s1, s2, n_pairs, block_points", [
        (2, 2, 3, 5, 2 * 3 * 41**2),  # two pairs to a block: blocks of 2, 2 and 1
        (2, 2, 3, 5, 3 * 41 * 7),     # one pair to a block, its grid in slabs of 7, ..., 7 and 6 rows
        (1, 3, 1, 4, 1),              # one grid point to a slab
        (3, 1, 2, 3, 2 * 41**2 * 10),  # slabs of 10, 10, 10, 10 and 1 rows
    ])
    def test_blocks_and_slabs_equal_dense_mixture_cdf_exactly(self, monkeypatch, p, s1, s2, n_pairs,
                                                             block_points):
        monkeypatch.setattr(identifiability, "GRAM_BLOCK_POINTS", block_points)
        rng = np.random.default_rng(7 * p + n_pairs)
        pairs, first, second = stacked_pairs(rng, p, s1, s2, n_pairs)
        assert identifiability._cdf_gaps(first, second).tolist() == [dense_gap(m1, m2) for m1, m2 in pairs]

    def test_four_dimensional_equality_test_memory_is_bounded_by_the_slabs(self):
        # One slab holds 2 * 41**3 values per temporary; one pass over the grid traced 86.2 MiB.
        rng = np.random.default_rng(9)
        m1, m2 = random_mixture(rng, 4, 2), random_mixture(rng, 4, 2)
        lm.mixture_equality_test(m1, m2)
        tracemalloc.start()
        try:
            lm.mixture_equality_test(m1, m2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("p, s, shared_scale, n_trials", [
        (1, 2, False, 12), (1, 3, False, 5), (2, 2, True, 100), (3, 2, True, 4),
    ])
    def test_trial_report_equals_per_pair_equality_tests(self, p, s, shared_scale, n_trials):
        for seed in (4, 9):
            assert lm.identifiability_trial(p, s, shared_scale, seed, n_trials) == \
                reference_trial(p, s, shared_scale, seed, n_trials)

    @pytest.mark.parametrize("p, s, n_trials", [(2, 2, 30), (2, 1, 7), (3, 2, 5)])
    def test_probe_starts_from_the_per_pair_best(self, monkeypatch, p, s, n_trials):
        """The probe refines the first pair with the smallest per-pair gap, and reports it unless
        the refinement finds a smaller gap at a separated pair."""
        import scipy.optimize

        started = []

        def no_refinement(fun, x0, **kwargs):
            started.append(x0)
            return scipy.optimize.OptimizeResult(x=np.full_like(x0, 50.0))

        monkeypatch.setattr(scipy.optimize, "minimize", no_refinement)
        for seed in (2, 31):
            gap, dist, m1, m2 = reference_probe_start(p, s, n_trials, seed)
            report = lm.probe_open_problem(p, s, n_trials, seed)
            assert np.array_equal(started.pop(), _to_theta(m2.weights, m2._mu, m2._sigma))
            assert (report["smallest_gap"], report["param_distance"]) == (gap, dist)
            assert report["witness_pair"] == [model_to_dict(m1), model_to_dict(m2)]

    @pytest.mark.parametrize("p, s, shared_scale", [(1, 2, False), (2, 2, True)])
    def test_trial_chunks_leave_the_report_unchanged(self, monkeypatch, p, s, shared_scale):
        whole = lm.identifiability_trial(p, s, shared_scale, 5, 10)
        # Chunks of 3, 3, 3 and 1 trials.
        monkeypatch.setattr(identifiability, "GRAM_BLOCK_POINTS", 3 * s * 41**p)
        assert lm.identifiability_trial(p, s, shared_scale, 5, 10) == whole

    @pytest.mark.parametrize("seed", [2, 6])
    def test_probe_chunks_leave_the_report_unchanged(self, monkeypatch, seed):
        # With chunks of 3, 3, 3 and 1 trials, seed 2's best pair is trial 9, alone in the last
        # chunk, and seed 6's is trial 3, in the second chunk, which one separation failure shortens.
        whole = lm.probe_open_problem(2, 2, 10, seed)
        monkeypatch.setattr(identifiability, "GRAM_BLOCK_POINTS", 3 * 2 * 41**2)
        assert lm.probe_open_problem(2, 2, 10, seed) == whole

    @pytest.mark.parametrize("harness, p, bound", [
        (lambda: lm.identifiability_trial(1, 2, False, 5, 1000), 1, 1.0),
        (lambda: lm.probe_open_problem(2, 2, 1000, 5), 2, 1.5),
    ], ids=["trial", "probe"])
    def test_harness_memory_is_bounded_by_the_chunks(self, monkeypatch, harness, p, bound):
        # Chunks of 10 trials; holding all 1000 pairs traced 2.4 MiB (trial) and 2.3 MiB (probe).
        monkeypatch.setattr(identifiability, "GRAM_BLOCK_POINTS", 10 * 2 * 41**p)
        tracemalloc.start()
        try:
            harness()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20

    @pytest.mark.parametrize("n, size", [(1, 1), (1, 5), (10, 3), (12, 4), (77, 10), (5, 77)])
    def test_seed_chunks_are_the_spawned_seeds(self, n, size):
        chunks = list(spawn_seed_chunks(5, n, size))
        assert [len(c) for c in chunks] == [min(size, n - lo) for lo in range(0, n, size)]
        assert [t for c in chunks for t in c] == spawn_seeds(5, n)

    @pytest.mark.parametrize("harness, p", [
        (lambda n: lm.identifiability_trial(1, 2, False, 5, n), 1),
        (lambda n: lm.probe_open_problem(2, 2, n, 5), 2),
    ], ids=["trial", "probe"])
    def test_harness_memory_does_not_grow_with_the_trials(self, monkeypatch, harness, p):
        # Chunks of 10 trials.  The traced peak up to the first chunk's kernel call is the same
        # for 10 and 5 000 trials; spawning every trial's seed before the first chunk raised it
        # by 1.9 MiB (trial) and 1.8 MiB (probe).  Later chunks repeat the first, and the test
        # above bounds a whole run by the chunks.
        class FirstChunk(Exception):
            pass

        def first_chunk(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise FirstChunk

        monkeypatch.setattr(identifiability, "GRAM_BLOCK_POINTS", 10 * 2 * 41**p)
        monkeypatch.setattr(identifiability, "_cdf_gaps", first_chunk)
        peaks = []
        for n, traced in ((10, False), (10, True), (5000, True)):
            if traced:
                tracemalloc.start()
            try:
                with pytest.raises(FirstChunk):
                    harness(n)
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 2**10

    @pytest.mark.parametrize("entry", [
        lambda: lm.probe_open_problem(p=5, s=2, n_trials=3, seed=0),
        lambda: lm.identifiability_trial(p=5, s=2, shared_scale=False, seed=0, n_trials=3),
        lambda: lm.identifiability_trial(p=5, s=2, shared_scale=True, seed=0, n_trials=3),
    ], ids=["probe", "trial", "shared-scale-trial"])
    def test_dimension_is_checked_before_any_draw(self, monkeypatch, entry):
        def fail(*args, **kwargs):
            raise AssertionError("a model was drawn before the dimension check")

        monkeypatch.setattr(identifiability, "_random_model", fail)
        with pytest.raises(ValueError, match=r"supports p <= 4 .*, got p=5$"):
            entry()


@pytest.mark.parametrize("components", [
    (),
    (lm.MldParams([0.0, 0.0], [1.0, 1.0]), "x"),
    (lm.MldParams([0.0, 0.0], [1.0, 1.0]), lm.MldParams([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])),
], ids=["empty", "not-mld-params", "mixed-dimensions"])
@pytest.mark.parametrize("entry_point", [
    lambda comps: lm.MixtureModel(np.ones(len(comps)) / max(len(comps), 1), comps),
    lambda comps: lm.LinearCombination(np.ones(len(comps)), comps),
    lm.gram_min_eigenvalue,
    lambda comps: lm.find_separating_offsets(comps, (0, 1), 0),
], ids=["MixtureModel", "LinearCombination", "gram_min_eigenvalue", "find_separating_offsets"])
def test_bad_component_sets_raise_clear_error(entry_point, components):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^components must"):
            entry_point(components)


class TestTrials:
    def test_one_dimensional_trials_pass(self):
        summary = lm.identifiability_trial(p=1, s=2, shared_scale=False, seed=100, n_trials=10)
        assert summary["mode"] == "trial"
        assert summary["distinct_passes"] == 10
        assert summary["permuted_passes"] == 10
        assert summary["min_distinct_gap"] > 1e-3
        assert summary["max_permuted_gap"] < 1e-12

    def test_shared_scale_two_dimensional_trials_pass(self):
        summary = lm.identifiability_trial(p=2, s=2, shared_scale=True, seed=200, n_trials=5)
        assert summary["distinct_passes"] == 5
        assert summary["permuted_passes"] == 5

    def test_uncovered_scenario_routes_to_probe(self):
        report = lm.identifiability_trial(p=2, s=2, shared_scale=False, seed=5, n_trials=6)
        assert report["mode"] == "probe"
        assert "smallest_gap" in report

    @pytest.mark.parametrize("n_trials", [0, -1, 2.5, "3", None])
    @pytest.mark.parametrize("shared_scale", [True, False])
    def test_bad_trial_count_raises_clear_error(self, n_trials, shared_scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_trials"):
                lm.identifiability_trial(
                    p=2, s=2, shared_scale=shared_scale, seed=0, n_trials=n_trials
                )

    def test_unseparable_models_raise_clear_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="s=60 separated components in p=1 dimensions"):
                lm.identifiability_trial(p=1, s=60, shared_scale=False, seed=0, n_trials=1)

    @pytest.mark.parametrize("p, s, bad", [
        (0, 2, "p"), (-1, 2, "p"), (1.5, 2, "p"), (1, 0, "s"), (2, -1, "s"), (1, "2", "s"),
    ])
    @pytest.mark.parametrize("shared_scale", [True, False])
    def test_bad_dimension_or_component_count_raises_clear_error(self, p, s, bad, shared_scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="%s must be an integer >= 1" % bad):
                lm.identifiability_trial(p=p, s=s, shared_scale=shared_scale, seed=0, n_trials=3)


class TestOpenProblemProbe:
    def test_single_component_gap_bounded_below(self):
        report = lm.probe_open_problem(p=2, s=1, n_trials=20, seed=42)
        assert report["smallest_gap"] > 1e-6
        assert report["param_distance"] > 0.1

    def test_report_structure_and_witnesses(self):
        report = lm.probe_open_problem(p=2, s=2, n_trials=10, seed=7)
        assert set(report) >= {"smallest_gap", "witness_pair", "counterexample_candidate"}
        w1 = model_from_dict(report["witness_pair"][0])
        w2 = model_from_dict(report["witness_pair"][1])
        assert w1.p == 2 and w2.p == 2
        assert report["smallest_gap"] >= 0.0

    def test_reported_gaps_belong_to_the_witness_pair(self):
        for seed in (3, 11):
            report = lm.probe_open_problem(p=2, s=2, n_trials=20, seed=seed)
            w1, w2 = (model_from_dict(d) for d in report["witness_pair"])
            rep = lm.mixture_equality_test(w1, w2)
            assert report["param_distance"] == lm.matched_param_distance(w1, w2)[0]
            assert report["smallest_gap"] == rep.sup_norm_cdf_gap

    def test_rejects_one_dimension(self):
        with pytest.raises(ValueError):
            lm.probe_open_problem(p=1, s=2, n_trials=5, seed=0)

    @pytest.mark.parametrize("n_trials", [0, -1, 2.5, "3", None])
    def test_bad_trial_count_raises_clear_error(self, n_trials):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_trials"):
                lm.probe_open_problem(p=2, s=2, n_trials=n_trials, seed=0)

    @pytest.mark.parametrize("p, s, bad", [(0, 2, "p"), (2, 0, "s"), (2, -1, "s"), (2, 1.5, "s")])
    def test_bad_dimension_or_component_count_raises_clear_error(self, p, s, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="%s must be an integer >= 1" % bad):
                lm.probe_open_problem(p=p, s=s, n_trials=3, seed=0)
