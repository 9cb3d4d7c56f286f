"""Tests for the AFT and logistic trainers and their objectives."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendwhen import ConvergenceError, DataError
from sendwhen.features import FeatureSchema
from sendwhen.io import read_model_json, write_model_json
from sendwhen.optimize import OptConfig
from sendwhen.pipeline import ObservationColumns
from sendwhen.scoring import score_columns
from sendwhen.training import (
    DesignMatrix,
    LogisticModel,
    WeibullAftModel,
    aft_negloglik_and_gradient,
    expit,
    fit_aft,
    fit_logistic,
    logistic_negloglik_and_gradient,
)

import oracle_fit


def make_obs(X, t, delta):
    """Observations of one user, all sent at time 0."""
    n = len(t)
    return ObservationColumns(
        user_ids=["u"],
        user=np.zeros(n, dtype=np.int64),
        x=np.asarray(X, dtype=float),
        t_hours=np.asarray(t, dtype=float),
        uncensored=np.asarray(delta, dtype=bool),
        origin_ts_hours=np.zeros(n),
    )


def sample_aft(rng, n, b_true, sigma_true, censor_at=None):
    k = len(b_true)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    eps = np.log(-np.log(1.0 - rng.uniform(size=n)))
    t = np.exp(X @ np.asarray(b_true) + sigma_true * eps)
    if censor_at is None:
        delta = np.ones(n, dtype=bool)
        t_obs = t
    else:
        delta = t <= censor_at
        t_obs = np.minimum(t, censor_at)
    return X, t_obs, delta


class TestAftObjective:
    def test_hand_value_uncensored(self):
        # T=1 (log T = 0), x=[1], b=[0], sigma=1: z=0, nll = e^0 - 0 + 0 + 0
        obs = make_obs([[1.0]], [1.0], [True])
        nll, _ = aft_negloglik_and_gradient(np.zeros(1), 0.0, obs)
        assert nll == pytest.approx(1.0, abs=1e-15)

    def test_hand_value_censored(self):
        obs = make_obs([[1.0]], [1.0], [False])
        nll, _ = aft_negloglik_and_gradient(np.zeros(1), 0.0, obs)
        assert nll == pytest.approx(1.0, abs=1e-15)

    def test_sum_over_observations(self):
        obs = make_obs([[1.0], [1.0]], [1.0, 1.0], [True, False])
        nll, _ = aft_negloglik_and_gradient(np.zeros(1), 0.0, obs)
        assert nll == pytest.approx(2.0, abs=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2001)
        n, k = 50, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        t = rng.uniform(0.1, 30.0, size=n)
        delta = rng.uniform(size=n) < 0.5
        dm = DesignMatrix.from_observations(make_obs(X, t, delta))
        h = 1e-5
        for _ in range(20):
            theta = np.concatenate(
                [rng.normal(scale=0.5, size=k), [rng.normal(scale=0.5)]]
            )
            _, grad = aft_negloglik_and_gradient(theta[:k], theta[k], dm)
            for j in range(k + 1):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fp, _ = aft_negloglik_and_gradient(tp[:k], tp[k], dm)
                fm, _ = aft_negloglik_and_gradient(tm[:k], tm[k], dm)
                fd = (fp - fm) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(abs(fd), 1e-8)

    def test_overflow_raises_with_index(self):
        # z = (log T - b.x): 300 for the first observation (finite e^z),
        # 800 for the second (e^z overflows float64, limit ~709)
        obs = make_obs([[1.0], [1.0]], [1.0, math.exp(500)], [True, True])
        with pytest.raises(Exception, match="index 1"):
            aft_negloglik_and_gradient(np.array([-300.0]), 0.0, obs)


class TestLogisticObjective:
    def test_hand_value(self):
        # w=0: nll = n * log 2 regardless of labels
        X = np.ones((4, 1))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        nll, grad = logistic_negloglik_and_gradient(np.zeros(1), X, y)
        assert nll == pytest.approx(4 * math.log(2), rel=1e-14)
        # grad = sum(sigmoid(0) - y) = 4*0.5 - 2 = 0
        assert grad[0] == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2002)
        n, k = 50, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = (rng.uniform(size=n) < 0.4).astype(float)
        h = 1e-5
        for _ in range(20):
            w = rng.normal(scale=0.5, size=k)
            _, grad = logistic_negloglik_and_gradient(w, X, y)
            for j in range(k):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd = (
                    logistic_negloglik_and_gradient(wp, X, y)[0]
                    - logistic_negloglik_and_gradient(wm, X, y)[0]
                ) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(abs(fd), 1e-8)


class TestExpit:
    """expit against scipy.special.expit, compared bit for bit (sign and NaN included)."""

    @staticmethod
    def assert_bits_equal(m):
        from scipy.special import expit as scipy_expit

        got, want = expit(m), scipy_expit(m)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_normals_at_real_size(self):
        rng = np.random.default_rng(16)
        m = rng.normal(size=10**6) * rng.uniform(1.0, 300.0, size=10**6)
        assert (np.abs(m) > 709.78).any()  # the overflow edge is inside the sample
        self.assert_bits_equal(m)

    def test_edges(self):
        edge = 709.782712893384  # log of the largest float: e^-m overflows just past -edge
        m = np.array([
            np.inf, -np.inf, np.nan, -np.nan, 709.78, -709.78, edge, -edge,
            np.nextafter(-edge, -np.inf), -745.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, 36.8, 37.5,
        ])
        self.assert_bits_equal(m)
        got = expit(m)
        assert got[1] == got[8] == got[9] == got[10] == 0.0 and not np.signbit(got[1])
        assert np.all(got[11:15] == 0.5) and not np.signbit(got[11:15]).any()
        assert np.isnan(got[2:4]).all()
        # libm's cexp scales its argument above 709, so e^-m near there is exp's own
        self.assert_bits_equal(np.linspace(-709.8, -708.9, 200_001))

    def test_shapes(self):
        self.assert_bits_equal(np.linspace(-40.0, 40.0, 12).reshape(3, 4))
        self.assert_bits_equal(np.array(3.0))
        self.assert_bits_equal(np.array([]))


class TestFitAft:
    def test_exponential_closed_form(self):
        # Uncensored exponential data (sigma*=1): the closed-form MLE
        # rate n/sum(T) must match exp(-intercept) within 1%.
        rng = np.random.default_rng(2003)
        t = rng.exponential(1.0 / 0.4, size=20000)
        obs = make_obs(np.ones((len(t), 1)), t, np.ones(len(t), dtype=bool))
        m = fit_aft(obs)
        lam_closed = len(t) / t.sum()
        lam_fit = math.exp(-m.coefficients[0])
        assert abs(lam_fit - lam_closed) / lam_closed < 0.01
        assert abs(m.sigma - 1.0) < 0.05

    def test_parameter_recovery_censored(self):
        rng = np.random.default_rng(2004)
        b_true = np.array([2.0, 0.5, -0.3])
        X, t, delta = sample_aft(rng, 30000, b_true, 1.5, censor_at=20.0)
        m = fit_aft(make_obs(X, t, delta))
        assert np.max(np.abs(m.coefficients - b_true)) < 0.03
        assert abs(m.sigma - 1.5) / 1.5 < 0.02
        assert m.sigma > 1.0  # alpha in (0,1) when sigma* > 1
        assert 0.0 < m.alpha < 1.0

    def test_duplication_invariance(self):
        rng = np.random.default_rng(2005)
        X, t, delta = sample_aft(rng, 500, [1.0, 0.4], 1.2, censor_at=15.0)
        m1 = fit_aft(make_obs(X, t, delta))
        m2 = fit_aft(make_obs(np.vstack([X, X]), np.tile(t, 2), np.tile(delta, 2)))
        assert_allclose(m2.coefficients, m1.coefficients, atol=1e-6)
        assert m2.sigma == pytest.approx(m1.sigma, abs=1e-6)

    def test_rescaling_equivariance(self):
        rng = np.random.default_rng(2006)
        X, t, delta = sample_aft(rng, 3000, [1.5, 0.3, -0.2], 1.5, censor_at=12.0)
        m1, m2 = fit_aft(make_obs(X, t, delta)), fit_aft(make_obs(X, t * 24.0, delta))
        assert m2.coefficients[0] - m1.coefficients[0] == pytest.approx(
            math.log(24.0), abs=1e-3
        )
        assert m2.sigma == pytest.approx(m1.sigma, abs=1e-3)
        assert_allclose(m2.coefficients[1:], m1.coefficients[1:], atol=1e-3)

    def test_standardization_folds_back_to_raw_space(self):
        # Features on wildly different scales: reported coefficients must
        # apply to the raw features directly.
        rng = np.random.default_rng(2008)
        n = 20000
        raw = rng.normal(size=(n, 2)) * np.array([1000.0, 0.001])
        X = np.column_stack([np.ones(n), raw])
        b_true = np.array([1.0, 0.002, 300.0])  # O(1) contributions
        eps = np.log(-np.log(1.0 - rng.uniform(size=n)))
        t = np.exp(X @ b_true + 1.2 * eps)
        m = fit_aft(make_obs(X, t, np.ones(n, dtype=bool)))
        assert abs(m.coefficients[1] - 0.002) < 0.002 * 0.05
        assert abs(m.coefficients[2] - 300.0) < 300.0 * 0.05

    def test_determinism(self):
        rng = np.random.default_rng(2009)
        X, t, delta = sample_aft(rng, 800, [1.0, 0.2], 1.4, censor_at=8.0)
        obs = make_obs(X, t, delta)
        m1, m2 = fit_aft(obs), fit_aft(obs)
        assert np.array_equal(m1.coefficients, m2.coefficients)
        assert m1.log_sigma == m2.log_sigma

    def test_gd_fallback_agrees_with_lbfgs(self):
        rng = np.random.default_rng(2010)
        X, t, delta = sample_aft(rng, 1000, [1.0, 0.4], 1.2, censor_at=10.0)
        obs = make_obs(X, t, delta)
        m1 = fit_aft(obs, OptConfig(method="lbfgs"))
        m2 = fit_aft(obs, OptConfig(method="gd", max_iters=20000))
        assert_allclose(m2.coefficients, m1.coefficients, atol=1e-5)
        assert m2.sigma == pytest.approx(m1.sigma, abs=1e-5)

    def test_all_censored_rejected(self):
        obs = make_obs(np.ones((5, 1)), np.arange(1.0, 6.0), np.zeros(5, dtype=bool))
        with pytest.raises(DataError, match="censored"):
            fit_aft(obs)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no observations"):
            fit_aft(make_obs(np.ones((0, 1)), [], []))

    def test_max_iters_exhausted_raises(self):
        rng = np.random.default_rng(2011)
        X, t, delta = sample_aft(rng, 200, [1.0, 0.3], 1.2, censor_at=10.0)
        with pytest.raises(ConvergenceError, match="gradient max-norm"):
            fit_aft(make_obs(X, t, delta), OptConfig(max_iters=1))

    def test_weibull_mapping(self):
        rng = np.random.default_rng(2012)
        X, t, delta = sample_aft(rng, 500, [1.0, 0.3], 1.5, censor_at=10.0)
        schema = FeatureSchema.build(base=["f"], badge=None)
        m = fit_aft(make_obs(X, t, delta), schema=schema)
        x = np.array([1.0, 0.7])
        mu = float(x @ m.coefficients)
        scores = score_columns(m, x[None, :], [0.0], 24.0)
        assert scores["lambda0"][0] == pytest.approx(math.exp(-mu / m.sigma), rel=1e-12)
        assert scores["alpha"] == pytest.approx(1.0 / m.sigma, rel=1e-15)


class TestFitLogistic:
    def test_noise_labels_give_intercept_only(self):
        rng = np.random.default_rng(2013)
        n = 5000
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = (rng.uniform(size=n) < 0.3).astype(float)
        m = fit_logistic(X, y, horizon_t_hours=4.0)
        base = float(y.mean())
        se = 1.0 / math.sqrt(n * base * (1 - base))
        assert abs(m.weights[0] - math.log(base / (1 - base))) < 4 * se
        assert np.all(np.abs(m.weights[1:]) < 4 * se)

    def test_separated_data_bounded_by_ridge(self):
        # Perfect separation: unpenalized MLE diverges; the ridge keeps the
        # weights finite and the ordering correct.
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = (np.arange(10) >= 5).astype(float)
        m = fit_logistic(X, y, 4.0, OptConfig(ridge=1e-3, max_iters=2000))
        assert np.all(np.isfinite(m.weights))
        p = m.predict_proba(X)
        assert np.all(np.diff(p) > 0)

    def test_recovers_known_weights(self):
        rng = np.random.default_rng(2014)
        n = 40000
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        w_true = np.array([-0.5, 1.0, -0.7])
        p = 1.0 / (1.0 + np.exp(-(X @ w_true)))
        y = (rng.uniform(size=n) < p).astype(float)
        m = fit_logistic(X, y, 8.0)
        assert_allclose(m.weights, w_true, atol=0.06)

    def test_determinism(self):
        rng = np.random.default_rng(2015)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = (rng.uniform(size=200) < 0.5).astype(float)
        m1 = fit_logistic(X, y, 4.0)
        m2 = fit_logistic(X, y, 4.0)
        assert np.array_equal(m1.weights, m2.weights)

    def test_single_class_rejected(self):
        X = np.ones((5, 1))
        with pytest.raises(DataError, match="single-class"):
            fit_logistic(X, np.zeros(5), 4.0)

    def test_bad_labels_rejected(self):
        X = np.ones((3, 1))
        with pytest.raises(DataError, match="0/1"):
            fit_logistic(X, np.array([0.0, 0.5, 1.0]), 4.0)

    @pytest.mark.parametrize("y", [[0.0, 0.5, 1.0], [1.0, np.nan, 1.0], [0.0, np.inf],
                                   [2.0, 2.0], [1.0, 1.0], [-0.0, 0.0, -0.0]])
    def test_label_errors_word_the_distinct_labels(self, y):
        # the messages of the check np.unique and np.isin once made
        y = np.array(y)
        classes = np.unique(y)
        if np.isin(classes, (0.0, 1.0)).all():
            want = f"single-class labels (all {int(classes[0])}); cannot fit logistic model"
        else:
            want = f"labels must be 0/1, got values {classes}"
        with pytest.raises(DataError) as info:
            fit_logistic(np.ones((len(y), 1)), y, 4.0)
        assert str(info.value) == want

    def test_bad_horizon_rejected(self):
        X = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
        with pytest.raises(DataError, match="horizon"):
            fit_logistic(X, np.array([0.0, 1.0, 0.0, 1.0]), 0.0)


class TestOneFitDriver:
    """Both fits equal their separate copies in oracle_fit, bit for bit."""

    @pytest.mark.parametrize("with_schema", [False, True])
    @pytest.mark.parametrize("ridge", [0.0, 1e-2])
    def test_aft_equals_the_oracle(self, with_schema, ridge):
        rng = np.random.default_rng(2017)
        n = 600
        badge = rng.integers(1, 6, size=n).astype(float)
        X = np.column_stack([np.ones(n), 3.0 * rng.normal(size=n) + 2.0, rng.uniform(size=n),
                             badge])
        eps = np.log(-np.log(1.0 - rng.uniform(size=n)))
        t = np.exp(X @ [2.0, 0.3, -0.5, -0.2] + 1.3 * eps)
        obs = make_obs(X, np.minimum(t, 40.0), t <= 40.0)
        schema = FeatureSchema.build(base=["a", "b"], badge="badge_count") if with_schema else None
        cfg = OptConfig(ridge=ridge)
        m = fit_aft(obs, cfg, schema=schema)
        b, log_sigma, diagnostics = oracle_fit.fit_aft(DesignMatrix.from_observations(obs), cfg,
                                                       schema)
        assert m.coefficients.tobytes() == b.tobytes()
        assert m.log_sigma == log_sigma
        assert m.diagnostics == diagnostics

    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("ridge", [1e-6, 1e-2])
    def test_logistic_equals_the_oracle(self, intercept, ridge):
        rng = np.random.default_rng(2018)
        n = 800
        Z = np.column_stack([rng.normal(size=n) - 0.4, 2.0 * rng.uniform(size=n)])
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(Z @ [0.8, -0.6])))).astype(float)
        X = np.column_stack([np.ones(n), Z]) if intercept else Z
        cfg = OptConfig(ridge=ridge)
        m = fit_logistic(X, y, 24.0, cfg)
        w, diagnostics = oracle_fit.fit_logistic(X, y, cfg)
        assert m.weights.tobytes() == w.tobytes()
        assert m.diagnostics == diagnostics


class TestPersistence:
    def fit_pair(self):
        rng = np.random.default_rng(2016)
        schema = FeatureSchema.build(base=["p0", "p1"], badge="badge_count")
        X, t, delta = sample_aft(rng, 400, [1.0, 0.3, -0.2, 0.1], 1.4, censor_at=10.0)
        aft = fit_aft(make_obs(X, t, delta), schema=schema)
        y = (rng.uniform(size=400) < 0.4).astype(float)
        logit = fit_logistic(X, y, 12.0, schema=schema)
        return aft, logit

    def round_trip(self, tmp_path, model, edit=None):
        path = tmp_path / "model.json"
        write_model_json(path, model)
        if edit is not None:
            doc = json.loads(path.read_text())
            path.write_text(json.dumps(edit(doc)))
        return read_model_json(path)

    def test_aft_round_trip(self, tmp_path):
        aft, _ = self.fit_pair()
        back = self.round_trip(tmp_path, aft)
        assert isinstance(back, WeibullAftModel)
        assert back.feature_names == aft.feature_names
        assert np.array_equal(back.coefficients, aft.coefficients)
        assert back.log_sigma == aft.log_sigma
        assert back.schema == aft.schema

    def test_logistic_round_trip(self, tmp_path):
        _, logit = self.fit_pair()
        back = self.round_trip(tmp_path, logit)
        assert isinstance(back, LogisticModel)
        assert back.feature_names == logit.feature_names
        assert np.array_equal(back.weights, logit.weights)
        assert back.horizon_t_hours == logit.horizon_t_hours
        assert back.schema == logit.schema

    def test_version_check(self, tmp_path):
        aft, _ = self.fit_pair()
        with pytest.raises(DataError, match="format_version"):
            self.round_trip(tmp_path, aft, lambda doc: {**doc, "format_version": 999})

    def test_unknown_type(self, tmp_path):
        aft, _ = self.fit_pair()
        with pytest.raises(DataError, match="unknown model kind 'cox'"):
            self.round_trip(tmp_path, aft, lambda doc: {**doc, "kind": "cox"})

    def test_non_object_document(self, tmp_path):
        aft, _ = self.fit_pair()
        with pytest.raises(DataError, match="JSON object"):
            self.round_trip(tmp_path, aft, lambda doc: [doc])

    def test_missing_coefficients(self, tmp_path):
        aft, _ = self.fit_pair()
        with pytest.raises(DataError, match="malformed model file.*coefficients"):
            self.round_trip(
                tmp_path, aft,
                lambda doc: {k: v for k, v in doc.items() if k != "coefficients"},
            )
