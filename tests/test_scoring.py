"""Tests for delta-effect scoring."""

import math

import numpy as np
import pytest

from sendwhen.errors import DomainError, NumericalError, SchemaError
from sendwhen.features import FeatureSchema
from sendwhen.scoring import (
    DeltaEffectResult,
    ScoringContext,
    model_digest,
    score_batch,
    score_delta_effect,
)
from sendwhen.training import WeibullAftModel

# survival-layer hand value: rate 1, shape 1/2, w0 = 1, T = 1
DELTA_INTERCEPT_ONLY = 0.292980360235385608


def badge_schema():
    return FeatureSchema.build(
        base=["p0", "p1"], badge="badge_count", interactions=[("badge_count", "p0")]
    )


def model_for(schema, coefficients, log_sigma):
    return WeibullAftModel(
        feature_names=schema.names,
        coefficients=np.asarray(coefficients, dtype=float),
        log_sigma=float(log_sigma),
        schema=schema,
    )


class TestTransitionFeatures:
    def test_badge_increments_and_interaction_recomputes(self):
        schema = badge_schema()
        x0 = np.array([1.0, 2.0, -1.0, 0.0, 0.0])
        x1 = schema.transition(x0)
        assert list(x1) == [1.0, 2.0, -1.0, 1.0, 2.0]

    def test_badge_five_to_six_interaction_is_six_p(self):
        schema = badge_schema()
        x0 = np.array([1.0, 3.0, 0.5, 5.0, 15.0])
        x1 = schema.transition(x0)
        assert list(x1) == [1.0, 3.0, 0.5, 6.0, 18.0]

    def test_without_interactions_only_state_changes(self):
        schema = FeatureSchema.build(base=["p0"], badge="badge_count")
        x1 = schema.transition(np.array([1.0, 4.0, 2.0]))
        assert list(x1) == [1.0, 4.0, 3.0]

    def test_w0_slot_resets(self):
        schema = FeatureSchema.build(
            base=["p0"], badge="badge_count", w0="hours_in_state"
        )
        x1 = schema.transition(np.array([1.0, 4.0, 2.0, 7.5]))
        assert list(x1) == [1.0, 4.0, 3.0, 0.0]

    def test_stateless_schema_is_identity(self):
        schema = FeatureSchema.build(base=["p0"], badge=None)
        x0 = np.array([1.0, 2.5])
        assert list(schema.transition(x0)) == [1.0, 2.5]


class TestScoreDeltaEffect:
    def test_intercept_only_hand_value(self):
        schema = FeatureSchema.build(badge=None)
        model = model_for(schema, [0.0], math.log(2.0))
        ctx = ScoringContext(features_now=(1.0,), w0_hours=1.0, horizon_T=1.0)
        res = score_delta_effect(ctx, model)
        assert res.lambda0 == 1.0
        assert res.lambda1 == 1.0
        assert res.alpha == pytest.approx(0.5, rel=1e-15)
        assert res.delta == pytest.approx(DELTA_INTERCEPT_ONLY, rel=1e-12)

    def test_zero_coefficients_zero_w0_gives_zero_delta(self):
        schema = badge_schema()
        model = model_for(schema, np.zeros(5), math.log(1.5))
        ctx = ScoringContext(
            features_now=(1.0, 0.3, -0.7, 2.0, 0.6), w0_hours=0.0, horizon_T=24.0
        )
        res = score_delta_effect(ctx, model)
        assert res.delta == 0.0
        assert res.lambda0 == res.lambda1 == 1.0

    def test_delta_is_p_send_minus_p_wait(self):
        # grid over random models and contexts
        schema = badge_schema()
        rng = np.random.default_rng(123)
        for _ in range(200):
            b = rng.normal(scale=0.5, size=5)
            b[0] = rng.uniform(1.0, 3.5)
            sigma = float(np.exp(rng.uniform(-0.5, 0.7)))
            model = model_for(schema, b, math.log(sigma))
            badge = float(rng.integers(0, 6))
            p0, p1 = rng.normal(size=2)
            x0 = (1.0, p0, p1, badge, badge * p0)
            ctx = ScoringContext(
                features_now=x0,
                w0_hours=float(rng.uniform(0.0, 48.0)),
                horizon_T=float(rng.uniform(0.5, 72.0)),
            )
            res = score_delta_effect(ctx, model)
            assert res.delta == pytest.approx(
                res.p_send - res.p_wait, abs=1e-12
            )

    def test_delta_increases_with_w0_for_alpha_below_one(self):
        schema = badge_schema()
        model = model_for(schema, [2.5, 0.4, -0.3, -0.25, 0.05], math.log(1.5))
        x0 = (1.0, 0.5, -0.2, 1.0, 0.5)
        last = -np.inf
        for w0 in np.linspace(0.0, 30.0, 11):
            res = score_delta_effect(
                ScoringContext(features_now=x0, w0_hours=float(w0), horizon_T=24.0),
                model,
            )
            assert res.delta > last
            last = res.delta

    def test_pure_function(self):
        schema = badge_schema()
        model = model_for(schema, [2.0, 0.1, 0.2, -0.3, 0.05], math.log(1.2))
        ctx = ScoringContext(
            features_now=(1.0, 1.0, -1.0, 2.0, 2.0), w0_hours=3.0, horizon_T=12.0
        )
        assert score_delta_effect(ctx, model) == score_delta_effect(ctx, model)

    def test_batch_equals_per_row(self):
        schema = badge_schema()
        model = model_for(schema, [2.0, 0.1, 0.2, -0.3, 0.05], math.log(1.2))
        rng = np.random.default_rng(5)
        ctxs = []
        for _ in range(20):
            badge = float(rng.integers(0, 4))
            p0, p1 = rng.normal(size=2)
            ctxs.append(
                ScoringContext(
                    features_now=(1.0, p0, p1, badge, badge * p0),
                    w0_hours=float(rng.uniform(0, 24)),
                    horizon_T=12.0,
                )
            )
        batch = score_batch(ctxs, model)
        assert batch == [score_delta_effect(c, model) for c in ctxs]

    def test_length_mismatch_raises(self):
        schema = badge_schema()
        model = model_for(schema, [2.0, 0.1, 0.2, -0.3, 0.05], 0.0)
        ctx = ScoringContext(features_now=(1.0, 2.0), w0_hours=0.0, horizon_T=1.0)
        with pytest.raises(SchemaError, match="expects"):
            score_delta_effect(ctx, model)

    def test_model_without_schema_raises(self):
        model = WeibullAftModel(
            feature_names=("intercept",),
            coefficients=np.array([1.0]),
            log_sigma=0.0,
        )
        ctx = ScoringContext(features_now=(1.0,), w0_hours=0.0, horizon_T=1.0)
        with pytest.raises(SchemaError, match="schema"):
            score_delta_effect(ctx, model)

    def test_overflowing_rate_raises(self):
        schema = FeatureSchema.build(badge=None)
        model = model_for(schema, [-3000.0], 0.0)
        ctx = ScoringContext(features_now=(1.0,), w0_hours=0.0, horizon_T=1.0)
        with pytest.raises(NumericalError, match="non-finite"):
            score_delta_effect(ctx, model)

    def test_context_validation(self):
        with pytest.raises(DomainError):
            ScoringContext(features_now=(), w0_hours=0.0, horizon_T=1.0)
        with pytest.raises(DomainError):
            ScoringContext(features_now=(1.0,), w0_hours=-1.0, horizon_T=1.0)
        with pytest.raises(DomainError):
            ScoringContext(features_now=(1.0,), w0_hours=0.0, horizon_T=0.0)
        with pytest.raises(DomainError):
            ScoringContext(features_now=(np.inf,), w0_hours=0.0, horizon_T=1.0)

    def test_result_dict_round_trip_fields(self):
        res = DeltaEffectResult(0.1, 0.5, 0.4, 1.0, 2.0, 0.5)
        assert res.to_dict() == {
            "delta": 0.1,
            "p_send": 0.5,
            "p_wait": 0.4,
            "lambda0": 1.0,
            "lambda1": 2.0,
            "alpha": 0.5,
        }


class TestModelDigest:
    def test_digest_stable_and_sensitive(self):
        schema = badge_schema()
        m1 = model_for(schema, [1.0, 0.5, -0.5, 0.25, 0.1], 0.0)
        m2 = model_for(schema, [1.0, 0.5, -0.5, 0.25, 0.1], 0.0)
        m3 = model_for(schema, [1.0, 0.5, -0.5, 0.25, 0.1], 0.1)
        assert model_digest(m1) == model_digest(m2)
        assert model_digest(m1) != model_digest(m3)
