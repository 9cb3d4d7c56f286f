"""Tests for delta-effect scoring."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sendwhen.scoring
from sendwhen.errors import DomainError, NumericalError, SchemaError
from sendwhen.features import FeatureSchema, SlotSpec
from sendwhen.scoring import ScoringContext, model_digest, score_batch, score_columns
from sendwhen.training import WeibullAftModel

from oracle_score import score_row

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

    def test_matrix_maps_row_by_row_and_keeps_its_input(self):
        schema = FeatureSchema.build(
            base=["p0"], badge="badge_count", w0="hours_in_state",
            interactions=[("badge_count", "p0")],
        )
        X0 = np.array([[1.0, 2.0, 3.0, 4.5, 6.0], [1.0, -1.0, 0.0, 0.0, -0.0]])
        kept = X0.copy()
        X1 = schema.transition(X0)
        assert np.array_equal(X0, kept)
        assert np.array_equal(X1, np.stack([schema.transition(x) for x in X0]))
        assert X1.tolist() == [[1.0, 2.0, 4.0, 0.0, 8.0], [1.0, -1.0, 1.0, 0.0, -1.0]]


def score_one(model, x0, w0, horizon):
    """score_columns on a single row, as plain floats."""
    res = score_columns(model, np.asarray(x0, dtype=float)[None, :], [w0], horizon)
    return {k: v if k == "alpha" else float(v[0]) for k, v in res.items()}


class TestScoreDeltaEffect:
    def test_intercept_only_hand_value(self):
        schema = FeatureSchema.build(badge=None)
        model = model_for(schema, [0.0], math.log(2.0))
        res = score_one(model, (1.0,), 1.0, 1.0)
        assert res["lambda0"] == 1.0
        assert res["lambda1"] == 1.0
        assert res["alpha"] == pytest.approx(0.5, rel=1e-15)
        assert res["delta"] == pytest.approx(DELTA_INTERCEPT_ONLY, rel=1e-12)

    def test_zero_coefficients_zero_w0_gives_zero_delta(self):
        schema = badge_schema()
        model = model_for(schema, np.zeros(5), math.log(1.5))
        res = score_one(model, (1.0, 0.3, -0.7, 2.0, 0.6), 0.0, 24.0)
        assert res["delta"] == 0.0
        assert res["lambda0"] == res["lambda1"] == 1.0

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
            res = score_one(
                model, x0, float(rng.uniform(0.0, 48.0)), float(rng.uniform(0.5, 72.0))
            )
            assert res["delta"] == pytest.approx(res["p_send"] - res["p_wait"], abs=1e-12)

    def test_delta_increases_with_w0_for_alpha_below_one(self):
        schema = badge_schema()
        model = model_for(schema, [2.5, 0.4, -0.3, -0.25, 0.05], math.log(1.5))
        x0 = (1.0, 0.5, -0.2, 1.0, 0.5)
        w0 = np.linspace(0.0, 30.0, 11)
        res = score_columns(model, np.tile(x0, (11, 1)), w0, 24.0)
        assert np.all(np.diff(res["delta"]) > 0)

    def test_pure_function(self):
        schema = badge_schema()
        model = model_for(schema, [2.0, 0.1, 0.2, -0.3, 0.05], math.log(1.2))
        X0 = np.array([[1.0, 1.0, -1.0, 2.0, 2.0]])
        a, b = (score_columns(model, X0, [3.0], 12.0) for _ in range(2))
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

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
                    horizon_T=float(rng.uniform(1, 48)),
                )
            )
        batch = score_batch(ctxs, model)
        for i, c in enumerate(ctxs):
            row = score_one(model, c.features_now, c.w0_hours, c.horizon_T)
            assert {k: v if k == "alpha" else batch[k][i] for k, v in batch.items()} == row

    def test_length_mismatch_raises(self):
        schema = badge_schema()
        model = model_for(schema, [2.0, 0.1, 0.2, -0.3, 0.05], 0.0)
        with pytest.raises(SchemaError, match=r"vector length \(2,\) does not match schema"):
            score_columns(model, np.array([[1.0, 2.0]]), [0.0], 1.0)

    def test_model_without_schema_raises(self):
        model = WeibullAftModel(
            feature_names=("intercept",),
            coefficients=np.array([1.0]),
            log_sigma=0.0,
        )
        with pytest.raises(SchemaError, match="schema"):
            score_columns(model, np.array([[1.0]]), [0.0], 1.0)

    def test_overflowing_rate_raises(self):
        schema = FeatureSchema.build(base=["p"], badge=None)
        model = model_for(schema, [0.0, -3.0], 0.0)
        X0 = np.array([[1.0, 1.0], [1.0, 1000.0], [1.0, -1000.0]])
        with pytest.raises(NumericalError, match="non-finite") as info:
            score_columns(model, X0, [0.0] * 3, 1.0)
        assert info.value.row == 1

    def test_every_rate_is_checked_before_any_score(self, monkeypatch):
        monkeypatch.setattr(sendwhen.scoring, "_CHUNK_ROWS", 2)
        schema = FeatureSchema.build(base=["p"], badge=None)
        model = model_for(schema, [0.0, -3.0], -1.0)  # shape e, so w0 = 1e200 overflows
        X0 = np.array([[1.0, 0.0]] * 5 + [[1.0, 1000.0]])
        w0 = [0.0, 1e200, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(NumericalError, match="non-finite rate") as info:
            score_columns(model, X0, w0, 1.0)
        assert info.value.row == 5
        X0[5, 1] = 0.0
        with pytest.raises(NumericalError, match="hazard overflows") as info:
            score_columns(model, X0, w0, 1.0)
        assert info.value.row == 1

    def test_underflowing_rate_is_a_domain_error_on_its_row(self):
        schema = FeatureSchema.build(base=["p"], badge=None)
        model = model_for(schema, [0.0, 3.0], 0.0)
        X0 = np.array([[1.0, 1.0], [1.0, 1000.0]])
        with pytest.raises(DomainError, match=r"^rate must be finite and > 0, got 0\.0$") as info:
            score_columns(model, X0, [0.0, 0.0], 1.0)
        assert info.value.row == 1

    def test_context_validation(self):
        model = model_for(FeatureSchema.build(base=["p"], badge=None), [1.0, 0.5], 0.0)
        X0 = np.ones((3, 2))
        cases = [
            (np.array([[1.0, 0.0], [1.0, 0.0], [1.0, np.inf]]), [0.0] * 3, 1.0,
             SchemaError, "non-finite value in slot 'p'", 2),
            (np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]), [0.0] * 3, 1.0,
             SchemaError, "intercept slot 'intercept' must be 1.0, got 2.0", 1),
            (X0, [0.0, -1.0, math.nan], 1.0, DomainError, "w0_hours must be >= 0, got -1.0", 1),
            (X0, [0.0, 0.0, math.nan], 1.0, DomainError, "w0_hours must be >= 0, got nan", 2),
            (X0, [0.0] * 3, [1.0, 0.0, 1.0], DomainError, "horizon_T must be > 0, got 0.0", 1),
            (X0, [0.0] * 3, math.inf, DomainError, "horizon_T must be > 0, got inf", 0),
        ]
        for X, w0, horizon, error, message, row in cases:
            with pytest.raises(error) as info:
                score_columns(model, X, w0, horizon)
            assert (str(info.value), info.value.row) == (message, row)

    def test_result_dict_round_trip_fields(self):
        model = model_for(badge_schema(), [2.0, 0.1, 0.2, -0.3, 0.05], 0.0)
        res = score_columns(model, np.array([[1.0, 0.5, 0.5, 1.0, 0.5]] * 3), [1.0] * 3, 2.0)
        assert list(res) == ["delta", "p_send", "p_wait", "lambda0", "lambda1", "alpha"]
        assert all(res[k].shape == (3,) for k in list(res)[:-1])
        assert res["alpha"] == model.alpha

    def test_no_rows_give_empty_columns(self):
        model = model_for(badge_schema(), [2.0, 0.1, 0.2, -0.3, 0.05], 0.0)
        res = score_columns(model, np.empty((0, 5)), [], 24.0)
        assert all(res[k].shape == (0,) for k in list(res)[:-1])
        assert score_batch([], model)["delta"].shape == (0,)


@st.composite
def scoring_cases(draw):
    """A model over a schema with optional badge, w0 and interaction slots, and rows."""
    base = [f"p{i}" for i in range(draw(st.integers(0, 3)))]
    plain = ["intercept", *base]
    badge = draw(st.booleans())
    w0_slot = draw(st.booleans())
    plain += ["badge_count"] * badge + ["hours"] * w0_slot
    pairs = draw(st.lists(st.tuples(st.sampled_from(plain), st.sampled_from(plain)),
                          max_size=3, unique=True))
    slots = [SlotSpec("intercept", "intercept"), *(SlotSpec(n) for n in base)]
    slots += [SlotSpec("badge_count", "badge")] * badge + [SlotSpec("hours", "w0")] * w0_slot
    slots += [SlotSpec(f"{a}*{b}", "interaction", parents=(a, b)) for a, b in pairs]
    schema = FeatureSchema(tuple(slots))
    k = len(schema)
    coef = st.floats(-1.0, 1.0)  # small enough that no rate over- or underflows
    model = model_for(schema, draw(st.lists(coef, min_size=k, max_size=k)),
                      draw(st.floats(-0.5, 1.0)))
    n = draw(st.integers(0, 6))
    X0 = np.ones((n, k))
    for i, s in enumerate(schema.slots):
        if s.kind == "base":
            X0[:, i] = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        elif s.kind == "badge":
            X0[:, i] = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        elif s.kind == "w0":
            X0[:, i] = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        elif s.kind == "interaction":
            a, b = (schema.names.index(p) for p in s.parents)
            X0[:, i] = X0[:, a] * X0[:, b]
    w0 = draw(st.lists(st.just(0.0) | st.floats(0.0, 1e4), min_size=n, max_size=n))
    horizon = draw(st.floats(0.1, 200.0) | st.lists(st.floats(0.1, 200.0), min_size=n, max_size=n))
    return model, X0, w0, horizon


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_columns_equal_the_per_row_oracle(case):
    model, X0, w0, horizon = case
    res = score_columns(model, X0, w0, horizon)
    with mock.patch.object(sendwhen.scoring, "_CHUNK_ROWS", 2):  # rows converted 2 at a time
        in_parts = score_columns(model, X0, w0, horizon)
    horizons = horizon if isinstance(horizon, list) else [horizon] * len(w0)
    for i, (x0, w, t) in enumerate(zip(X0, w0, horizons)):
        row = score_row(model, x0, w, t)
        assert {k: v if k == "alpha" else v[i] for k, v in res.items()} == row
        assert {k: v if k == "alpha" else v[i] for k, v in in_parts.items()} == row


class TestModelDigest:
    def test_digest_stable_and_sensitive(self):
        schema = badge_schema()
        m1 = model_for(schema, [1.0, 0.5, -0.5, 0.25, 0.1], 0.0)
        m2 = model_for(schema, [1.0, 0.5, -0.5, 0.25, 0.1], 0.0)
        m3 = model_for(schema, [1.0, 0.5, -0.5, 0.25, 0.1], 0.1)
        assert model_digest(m1) == model_digest(m2)
        assert model_digest(m1) != model_digest(m3)
