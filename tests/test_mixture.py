import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import logimix as lm
from logimix import mixture
from logimix._util import log_sum_exp, write_texts_atomic
from logimix.estimation import _e_step
from logimix.mld import _coordinate_major
from logimix.mixture import _model

from oracles import quad_normalization_1d, quad_normalization_2d


def two_component_1d():
    return lm.MixtureModel(
        [0.3, 0.7], (lm.MldParams([-2.0], [1.0]), lm.MldParams([2.0], [0.5]))
    )


def random_model(rng, p, s):
    comps = tuple(
        lm.MldParams(rng.uniform(-3, 3, p), rng.uniform(0.4, 2.0, p)) for _ in range(s)
    )
    w = rng.dirichlet(np.full(s, 4.0))
    return lm.MixtureModel(w, comps)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            lm.MixtureModel([0.5, 0.6], (lm.MldParams([0.0], [1.0]),) * 2)

    def test_component_count_must_match(self):
        with pytest.raises(ValueError):
            lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),) * 2)

    def test_dimensions_must_agree(self):
        with pytest.raises(ValueError):
            lm.MixtureModel(
                [0.5, 0.5],
                (lm.MldParams([0.0], [1.0]), lm.MldParams([0.0, 0.0], [1.0, 1.0])),
            )

    def test_single_component_weight_one(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),))
        assert m.s == 1 and m.p == 1

    def test_stacked_arrays_are_the_component_rows(self):
        m = random_model(np.random.default_rng(3), 3, 4)
        rebuilt = _model(m.weights, m._mu, m._sigma)
        for name in ("mu", "sigma"):
            stacked = getattr(m, "_" + name)
            assert stacked.shape == (4, 3) and not stacked.flags.writeable
            assert np.array_equal(stacked, [getattr(c, name) for c in m.components])
            assert np.array_equal(getattr(rebuilt, "_" + name), stacked)
        assert np.array_equal(rebuilt.weights, m.weights)
        shared = _model([0.5, 0.5], np.zeros((2, 3)), np.ones(3))
        assert np.array_equal(shared._sigma, np.ones((2, 3)))

    @pytest.mark.parametrize("weights, mu, sigma", [
        ([0.5, 0.5], [[0.0, 1.0], [np.nan, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
        ([0.5, 0.5], [[0.0, 1.0], [-np.inf, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
        ([0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]]),
        ([0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]], [[1.0, 1.0], [-1.0, 1.0]]),
        ([0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]], [[1.0, np.inf], [1.0, 1.0]]),
        ([0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]], [[1.0, 1.0], [np.nan, 1.0]]),
        ([1.0], [[0.0, 1.0], [2.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
        ([0.2, 0.3, 0.5], [[0.0, 1.0], [2.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
    ])
    def test_array_constructor_raises_the_component_constructors_error(self, weights, mu, sigma):
        with pytest.raises(ValueError) as from_components:
            lm.MixtureModel(weights, tuple(map(lm.MldParams, mu, sigma)))
        with pytest.raises(ValueError) as from_arrays:
            _model(weights, np.array(mu), np.array(sigma))
        assert str(from_arrays.value) == str(from_components.value)

    def test_array_constructor_builds_read_only_components_on_first_read(self):
        mu = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        sigma = np.array([[1.0, 0.5], [2.0, 1.5], [0.7, 0.9]])
        m = _model([0.2, 0.3, 0.5], mu, sigma)
        mu[0, 0] = sigma[0, 0] = 99.0  # the model holds copies
        assert "components" not in vars(m)
        comps = m.components
        assert m.components is comps and len(comps) == 3
        for c, row_mu, row_sigma in zip(comps, m._mu, m._sigma):
            assert isinstance(c, lm.MldParams)
            assert np.array_equal(c.mu, row_mu) and np.array_equal(c.sigma, row_sigma)
            assert not c.mu.flags.writeable and not c.sigma.flags.writeable
        assert m._mu[0, 0] == 0.0 and m._sigma[0, 0] == 1.0
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            m.missing

    @pytest.mark.parametrize("read_components", [False, True])
    def test_array_built_model_stays_frozen(self, read_components):
        m = _model([0.5, 0.5], np.zeros((2, 2)), np.ones((2, 2)))
        if read_components:
            m.components
        for name in ("weights", "components", "_mu", "_sigma"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)
        for arr in (m.weights, m._mu, m._sigma):
            assert not arr.flags.writeable


class TestThetaCodec:
    def test_round_trip(self):
        # Over 20 000 such draws the weights came back within 8 ulps and sigma within 1 ulp;
        # the bounds below leave room for another libm's exp and log.  mu is copied as is.
        rng = np.random.default_rng(17)
        for _ in range(500):
            s, p = (int(v) for v in rng.integers(1, [7, 5]))
            w = rng.dirichlet(np.full(s, 0.5)) + 1e-3
            m = _model(w / w.sum(), rng.normal(0.0, 10.0, (s, p)), np.exp(rng.uniform(-20.0, 20.0, (s, p))))
            weights, mu, sigma = mixture._from_theta(mixture._to_theta(m.weights, m._mu, m._sigma), s, p)
            assert np.array_equal(mu, m._mu)
            assert (np.abs(sigma - m._sigma) <= 2 * np.spacing(m._sigma)).all()
            assert (np.abs(weights - m.weights) <= 16 * np.spacing(m.weights)).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("log_sigma", [800.0, -800.0])
    def test_scale_beyond_the_float_range_raises(self, log_sigma):
        theta = mixture._to_theta(np.array([0.25, 0.75]), np.zeros((2, 2)), np.ones((2, 2)))
        theta[-2] = log_sigma
        with pytest.raises(ValueError, match="^sigma must be finite and strictly positive$"):
            mixture._from_theta(theta, 2, 2)


class TestEvaluation:
    def test_single_component_equals_component(self):
        comp = lm.MldParams([0.7, -0.1], [1.1, 0.9])
        m = lm.MixtureModel([1.0], (comp,))
        x = np.array([0.2, 0.4])
        assert lm.mixture_cdf(x, m) == lm.mld_cdf(x, comp)
        assert lm.mixture_pdf(x, m) == pytest.approx(lm.mld_pdf(x, comp), rel=1e-15)

    def test_duplicated_component_collapses(self):
        comp = lm.MldParams([0.3], [0.8])
        m = lm.MixtureModel([0.5, 0.5], (comp, comp))
        x = np.array([0.9])
        assert lm.mixture_cdf(x, m) == pytest.approx(lm.mld_cdf(x, comp), rel=1e-15)

    def test_cdf_value_direct_substitution(self):
        # 0.3/(1+e^-2) + 0.7/(1+e^4), frozen from 50-digit arithmetic
        assert lm.mixture_cdf(np.array([0.0]), two_component_1d()) == pytest.approx(
            0.27682947036682882, rel=1e-14
        )

    def test_pdf_value_term_by_term(self):
        # frozen from 50-digit term-by-term evaluation
        assert lm.mixture_pdf(np.array([0.0]), two_component_1d()) == pytest.approx(
            0.056225864319659518, rel=1e-13
        )

    def test_symmetric_mixture_even_pdf(self):
        m = lm.MixtureModel(
            [0.5, 0.5], (lm.MldParams([-1.5], [1.0]), lm.MldParams([1.5], [1.0]))
        )
        for x in (0.5, 1.0, 2.0):
            left = lm.mixture_pdf(np.array([-x]), m)
            right = lm.mixture_pdf(np.array([x]), m)
            assert left == pytest.approx(right, abs=1e-12)

    def test_dimension_mismatch(self):
        m2 = lm.MixtureModel(
            [0.5, 0.5],
            (lm.MldParams([0.0, 0.0], [1.0, 1.0]), lm.MldParams([1.0, 1.0], [1.0, 1.0])),
        )
        with pytest.raises(ValueError):
            lm.mixture_cdf(np.array([0.0, 0.0, 0.0]), m2)

    def test_cdf_between_component_cdfs(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, 2, 3)
        for _ in range(50):
            x = rng.uniform(-6, 6, 2)
            comp_vals = [lm.mld_cdf(x, c) for c in m.components]
            val = lm.mixture_cdf(x, m)
            assert min(comp_vals) - 1e-12 <= val <= max(comp_vals) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, 2, 3)
        perm = np.array([2, 0, 1])
        mp_ = lm.MixtureModel(m.weights[perm], tuple(m.components[i] for i in perm))
        for _ in range(25):
            x = rng.uniform(-6, 6, 2)
            assert lm.mixture_cdf(x, m) == pytest.approx(lm.mixture_cdf(x, mp_), abs=1e-12)
            assert lm.mixture_pdf(x, m) == pytest.approx(lm.mixture_pdf(x, mp_), rel=1e-12)

    def test_exp_log_pdf_consistency(self):
        rng = np.random.default_rng(13)
        m = random_model(rng, 3, 2)
        for _ in range(25):
            x = rng.uniform(-8, 8, 3)
            pdf = lm.mixture_pdf(x, m)
            if pdf > 1e-300:
                assert np.exp(lm.mixture_log_pdf(x, m)) == pytest.approx(pdf, rel=1e-12)

    @pytest.mark.parametrize(
        "model, x",
        [
            (two_component_1d(), np.array([[-1e4], [1e4]])),
            (random_model(np.random.default_rng(15), 3, 2), np.array([[1e4, -1e4, 5e3]])),
        ],
    )
    def test_far_tail_log_pdf_is_finite_logaddexp(self, model, x):
        assert np.all(lm.mixture_pdf(x, model) == 0.0)
        log_pdf = lm.mixture_log_pdf(x, model)
        assert np.all(np.isfinite(log_pdf))
        a, b = (np.log(w) + lm.mld_log_pdf(x, c) for w, c in zip(model.weights, model.components))
        np.testing.assert_allclose(log_pdf, np.logaddexp(a, b), rtol=1e-14, atol=0.0)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(14)
        m1 = random_model(rng, 1, 3)
        pooled_mu = np.array([np.mean([c.mu[0] for c in m1.components])])
        pooled_sigma = np.array([max(c.sigma[0] for c in m1.components) + np.ptp([c.mu[0] for c in m1.components])])
        val = quad_normalization_1d(lambda t: lm.mixture_pdf(t, m1), pooled_mu, pooled_sigma)
        assert val == pytest.approx(1.0, abs=1e-6)
        m2 = random_model(rng, 2, 2)
        mu2 = np.mean([c.mu for c in m2.components], axis=0)
        sig2 = np.max([c.sigma for c in m2.components], axis=0) + np.ptp([c.mu for c in m2.components], axis=0)
        val2 = quad_normalization_2d(lambda t: lm.mixture_pdf(t, m2), mu2, sig2)
        assert val2 == pytest.approx(1.0, abs=1e-6)


def _log_sum_exp_cases(s, rng):
    """(s, n) columns: moderate values, values at +-1e300 and columns holding -inf."""
    moderate = rng.normal(size=(s, 400)) * rng.choice([1e-3, 1.0, 30.0, 800.0], size=400)
    huge = rng.choice([-1.0, 1.0], size=(s, 1)) * 1e300 + rng.normal(size=(s, 50))
    mixed = rng.normal(size=(s, 50)) * 10.0
    minus_inf = rng.random((s, 50)) < 0.5
    minus_inf[rng.integers(s, size=50), np.arange(50)] = False  # one finite entry per column
    mixed[minus_inf] = -np.inf
    return np.concatenate([moderate, huge, mixed], axis=1)


class TestLogSumExp:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_matches_logaddexp_reduce(self, s):
        a = _log_sum_exp_cases(s, np.random.default_rng(80 + s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, terms, total = log_sum_exp(a)
        want = np.logaddexp.reduce(a, axis=0)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        assert np.array_equal(total, terms.sum(axis=0)) and terms.shape == a.shape
        if s == 1:
            assert np.array_equal(got, a[0])

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_all_minus_inf_columns_give_minus_inf(self, s):
        a = np.full((s, 3), -np.inf)
        a[:, 1] = 0.5
        with np.errstate(divide="ignore"):  # the log of a zero total; callers silence it
            got, terms, total = log_sum_exp(a)
        assert got[0] == got[2] == -np.inf and np.isfinite(got[1])
        assert total[0] == total[2] == 0.0 and not terms[:, [0, 2]].any()

    def test_all_underflow_points_add_no_warning(self):
        # The residuals overflow, with numpy's own warning, and every component log density is -inf.
        tiny = lm.MixtureModel([0.5, 0.5], (lm.MldParams([0.0], [1e-300]), lm.MldParams([1.0], [1e-300])))
        for func, want in [(lm.mixture_log_pdf, -np.inf), (lm.responsibilities, [0.5, 0.5])]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert np.array_equal(func(np.array([1e300]), tiny), want)
            assert all("divide by zero" not in str(w.message) for w in caught)

    @pytest.mark.parametrize("p, s", [(1, 1), (1, 2), (2, 3), (3, 4)])
    def test_e_step_responsibilities_sum_to_one(self, p, s):
        rng = np.random.default_rng(90 + 10 * p + s)
        model = random_model(rng, p, s)
        data, _ = lm.sample_mixture(model, 2000, seed=5)
        data = np.concatenate([data, rng.uniform(-60.0, 60.0, size=(200, p))])
        log_pdfs = mixture._component_log_pdfs(_coordinate_major(data), model)
        resp, _, n_underflow = _e_step(model.weights, log_pdfs)
        assert n_underflow == 0
        assert np.all(np.abs(resp.sum(axis=0) - 1.0) <= s * np.finfo(float).eps)

    def test_responsibilities_sum_to_one_where_log_weights_are_below_rounding(self):
        # Both weighted log densities round to -5e299, where log 0.5 is far below one ulp.
        tiny = lm.MixtureModel([0.5, 0.5], (lm.MldParams([0.0], [1e-300]), lm.MldParams([1.0], [1e-300])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lm.responsibilities(np.array([0.5]), tiny).tolist() == [0.5, 0.5]


class TestLogLikelihood:
    def test_single_row_single_component(self):
        comp = lm.MldParams([1.0, 2.0], [1.0, 1.0])
        m = lm.MixtureModel([1.0], (comp,))
        row = np.array([[1.0, 2.0]])
        assert lm.log_likelihood(row, m) == pytest.approx(
            lm.mld_log_pdf(row[0], comp), rel=1e-15
        )

    def test_duplicating_rows_doubles_value(self):
        rng = np.random.default_rng(15)
        m = random_model(rng, 2, 2)
        data, _ = lm.sample_mixture(m, 200, seed=3)
        single = lm.log_likelihood(data, m)
        doubled = lm.log_likelihood(np.vstack([data, data]), m)
        assert doubled == pytest.approx(2.0 * single, rel=1e-9)

    def test_mean_log_likelihood_matches_entropy_estimate(self):
        m = two_component_1d()
        data, _ = lm.sample_mixture(m, 1000, seed=21)
        per_row = lm.log_likelihood(data, m) / 1000.0
        big, _ = lm.sample_mixture(m, 200000, seed=22)
        vals = np.atleast_1d(lm.mixture_log_pdf(big, m))
        ref = vals.mean()
        se = np.sqrt(
            np.var(np.atleast_1d(lm.mixture_log_pdf(data, m))) / 1000.0
            + vals.var() / vals.size
        )
        assert abs(per_row - ref) < 3.0 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lm.log_likelihood(np.zeros((4, 2)), two_component_1d())


class TestSampling:
    def test_all_labels_zero_for_single_component(self):
        m = lm.MixtureModel([1.0], (lm.MldParams([0.0], [1.0]),))
        _, labels = lm.sample_mixture(m, 500, seed=1)
        assert np.all(labels == 0)

    def test_label_frequency(self):
        _, labels = lm.sample_mixture(two_component_1d(), 10**5, seed=42)
        freq = np.mean(labels == 0)
        assert abs(freq - 0.3) < 0.005

    def test_deterministic(self):
        m = two_component_1d()
        d1, l1 = lm.sample_mixture(m, 256, seed=5)
        d2, l2 = lm.sample_mixture(m, 256, seed=5)
        assert np.array_equal(d1, d2) and np.array_equal(l1, l2)

    def test_labelled_rows_follow_components(self):
        m = two_component_1d()
        data, labels = lm.sample_mixture(m, 20000, seed=8)
        # component 1 has mu=2, sigma=0.5: its rows should center near 2
        assert abs(np.median(data[labels == 1, 0]) - 2.0) < 0.05
        assert abs(np.median(data[labels == 0, 0]) + 2.0) < 0.1


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        m = random_model(rng, 3, 3)
        path = tmp_path / "model.json"
        lm.save_model(m, path)
        loaded = lm.load_model(path)
        assert np.array_equal(loaded.weights, m.weights)
        for a, b in zip(loaded.components, m.components):
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.sigma, b.sigma)

    def test_rejects_bad_weight_sum(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format": "logimix-model-v1",
            "p": 1,
            "s": 2,
            "weights": [0.5, 0.6],
            "components": [
                {"mu": [0.0], "sigma": [1.0]},
                {"mu": [1.0], "sigma": [1.0]},
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="weights"):
            lm.load_model(path)

    def test_rejects_zero_sigma(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format": "logimix-model-v1",
            "p": 1,
            "s": 1,
            "weights": [1.0],
            "components": [{"mu": [0.0], "sigma": [0.0]}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="sigma"):
            lm.load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("weights", {"a": 1}), ("components", 5), ("p", "1"), ("s", None),
    ])
    def test_rejects_malformed_field(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        doc = lm.model_to_dict(two_component_1d())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape("%s: field '%s'" % (path, field))):
            lm.load_model(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            lm.load_model(path)

    def test_renormalizes_tiny_drift(self, tmp_path):
        path = tmp_path / "drift.json"
        doc = {
            "format": "logimix-model-v1",
            "p": 1,
            "s": 2,
            "weights": [0.3, 0.7 + 5e-10],
            "components": [
                {"mu": [0.0], "sigma": [1.0]},
                {"mu": [1.0], "sigma": [1.0]},
            ],
        }
        path.write_text(json.dumps(doc))
        loaded = lm.load_model(path)
        assert loaded.weights.sum() == pytest.approx(1.0, abs=1e-15)


# Finite floats, with every edge of the window where repr writes fixed notation, 1e-4 <= |x|
# < 1e16, and the extremes: subnormals, +-0, the smallest normal and the largest float.
_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308] + [
    np.nextafter(edge, toward) for edge in (1e-4, 1e16) for toward in (0.0, edge, np.inf)]
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGES + [-v for v in _EDGES]),
)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        data = rng.normal(size=(40, 3))
        path = tmp_path / "data.csv"
        lm.save_dataset(data, path, header="three columns")
        loaded = lm.load_dataset(path)
        assert np.array_equal(loaded, data)

    @pytest.mark.parametrize("header", [None, "three columns"])
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 11])
    def test_blocks_match_one_pass(self, monkeypatch, tmp_path, n, header):
        # Blocks of 4 rows: n is 1, one short of a block, one block, one over, 2 blocks + 3.
        monkeypatch.setattr(mixture, "ROW_BLOCK", 4)
        data = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-5, 10, 5)
        path = tmp_path / "data.csv"
        lm.save_dataset(data, path, header=header)
        lines = [",".join(map(repr, row)) for row in data.tolist()]
        if header is not None:
            lines.insert(0, "# " + header)
        assert path.read_text() == "\n".join(lines) + "\n"

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 4)),
                      elements=FINITE_FLOATS),
           st.integers(1, 4))
    def test_text_is_repr_of_every_float(self, data, block):
        # Blocks of 1 to 4 rows, so a spliced value falls at block and row edges.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mixture, "ROW_BLOCK", block)
            text = "".join(mixture._dataset_chunks(data))
            assert "".join(mixture._dataset_chunks(np.asfortranarray(data))) == text
        row_format = ",".join(["%r"] * data.shape[1]) + "\n"
        assert text == "".join(row_format % tuple(row) for row in data.tolist())

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# header\n1.0,2.0\n# middle comment\n3.0,4.0\n")
        loaded = lm.load_dataset(path)
        assert loaded.shape == (2, 2)
        assert loaded[1, 1] == 4.0

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            lm.load_dataset(path)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lm.as_dataset(np.array([[np.nan, 1.0]]))


class TestAtomicWrites:
    def test_raising_chunks_leave_nothing(self, tmp_path):
        def chunks():
            yield "1.0\n"
            raise ValueError("bad row")

        (tmp_path / "a.txt").write_text("old\n")
        with pytest.raises(ValueError, match="bad row"):
            write_texts_atomic([(tmp_path / "a.txt", ["new\n"]), (tmp_path / "b.txt", chunks())])
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "old\n"

    def test_invalid_dataset_leaves_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            lm.save_dataset([[1.0], [np.nan]], tmp_path / "data.csv")
        assert list(tmp_path.iterdir()) == []

    def test_error_on_second_output_names_it(self, tmp_path):
        (tmp_path / "a.txt").write_text("old\n")
        second = tmp_path / "nodir" / "b.txt"
        with pytest.raises(OSError) as info:
            write_texts_atomic([(tmp_path / "a.txt", ["new\n"]), (second, ["b\n"])])
        assert info.value.filename == str(second)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "old\n"

    def test_chunks_are_written_in_order(self, tmp_path):
        write_texts_atomic([(tmp_path / "a.txt", map(str, range(5))), (tmp_path / "b.txt", [])])
        assert (tmp_path / "a.txt").read_text() == "01234"
        assert (tmp_path / "b.txt").read_text() == ""
