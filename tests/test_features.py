"""Tests for the feature schema, interactions, and the send transition."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendwhen import SchemaError
from sendwhen.features import FeatureSchema, SlotSpec


def demo_schema() -> FeatureSchema:
    return FeatureSchema.build(
        base=["profile_0", "profile_1", "recent_visits"],
        badge="badge_count",
        interactions=[("badge_count", "profile_0")],
        online=["badge_count", "recent_visits"],
    )


class TestConstruction:
    def test_slot_order_and_names(self):
        s = demo_schema()
        assert s.names == (
            "intercept",
            "profile_0",
            "profile_1",
            "recent_visits",
            "badge_count",
            "badge_count*profile_0",
        )
        assert len(s) == 6

    def test_exactly_one_intercept(self):
        with pytest.raises(SchemaError):
            FeatureSchema((SlotSpec("a", "base"),))
        with pytest.raises(SchemaError):
            FeatureSchema(
                (SlotSpec("i1", "intercept"), SlotSpec("i2", "intercept"))
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            FeatureSchema(
                (SlotSpec("intercept", "intercept"), SlotSpec("intercept", "base"))
            )

    def test_interaction_parent_validation(self):
        with pytest.raises(SchemaError, match="unknown parent"):
            FeatureSchema(
                (
                    SlotSpec("intercept", "intercept"),
                    SlotSpec("x", "interaction", parents=("a", "b")),
                )
            )
        with pytest.raises(SchemaError, match="exactly 2 parents"):
            SlotSpec("x", "interaction", parents=("a",))
        with pytest.raises(SchemaError, match="cannot have parents"):
            SlotSpec("x", "base", parents=("a", "b"))

    def test_nested_interaction_rejected(self):
        with pytest.raises(SchemaError, match="itself an interaction"):
            FeatureSchema(
                (
                    SlotSpec("intercept", "intercept"),
                    SlotSpec("a", "base"),
                    SlotSpec("b", "base"),
                    SlotSpec("ab", "interaction", parents=("a", "b")),
                    SlotSpec("aab", "interaction", parents=("a", "ab")),
                )
            )

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            SlotSpec("x", "quadratic")

    def test_at_most_one_badge(self):
        with pytest.raises(SchemaError, match="at most one badge"):
            FeatureSchema(
                (
                    SlotSpec("intercept", "intercept"),
                    SlotSpec("b1", "badge"),
                    SlotSpec("b2", "badge"),
                )
            )


class TestMaterialize:
    def test_values_and_interaction(self):
        s = demo_schema()
        x = s.materialize(
            {"profile_0": 2.0, "profile_1": -1.5, "recent_visits": 3.0},
            badge_count=4,
        )
        assert_allclose(
            x, [1.0, 2.0, -1.5, 3.0, 4.0, 8.0]
        )  # interaction = 4 * 2

    def test_missing_base_feature(self):
        s = demo_schema()
        with pytest.raises(SchemaError, match="missing base feature"):
            s.materialize({"profile_0": 1.0}, badge_count=0)

    def test_non_finite_rejected(self):
        s = demo_schema()
        with pytest.raises(SchemaError, match="non-finite"):
            s.materialize(
                {"profile_0": float("nan"), "profile_1": 0.0, "recent_visits": 0.0},
                badge_count=0,
            )

    def test_rows_report_the_first_bad_row_as_materialize_does(self):
        s = demo_schema()
        good = {"profile_0": 1.0, "profile_1": 0.5, "recent_visits": 2.0}
        missing = {"profile_0": 1.0, "recent_visits": 2.0}
        nan = dict(good, profile_1=float("nan"))
        for bad in (missing, nan):
            with pytest.raises(SchemaError) as one:
                s.materialize(bad, badge_count=1)
            rows = [good, good, bad, missing]
            columns = {name: ([r.get(name, np.nan) for r in rows], [name in r for r in rows])
                       for name in good}
            with pytest.raises(SchemaError) as cols:
                s.materialize_columns(columns, [0, 1, 1, 1], [0.0] * 4)
            assert str(cols.value) == str(one.value) and cols.value.row == 2

    def test_w0_slot_materialization(self):
        s = FeatureSchema.build(
            base=["p"], badge="badge_count", w0="hours_in_state"
        )
        x = s.materialize({"p": 7.0}, badge_count=2, w0_hours=13.5)
        assert x[s.names.index("hours_in_state")] == 13.5

    def test_check_rows_shape_and_intercept(self):
        s = demo_schema()
        with pytest.raises(SchemaError, match="length") as info:
            s.check_rows(np.array([[1.0, 2.0]]))
        assert info.value.row == 0
        s.check_rows(np.empty((0, 2)))  # no row, nothing to refuse
        good = s.materialize(
            {"profile_0": 1.0, "profile_1": 1.0, "recent_visits": 1.0},
            badge_count=0,
        )
        bad = np.stack([good, good, good])
        bad[1, 0] = 0.0
        bad[2, 1] = np.nan
        with pytest.raises(SchemaError, match="intercept") as info:
            s.check_rows(bad)
        assert info.value.row == 1
        with pytest.raises(SchemaError, match="non-finite value in slot 'profile_0'") as info:
            s.check_rows(bad[[0, 2]])
        assert info.value.row == 1
        s.check_rows(bad[:1])


class TestTransition:
    def test_badge_increment_and_interaction_recompute(self):
        s = demo_schema()
        x0 = s.materialize(
            {"profile_0": 3.0, "profile_1": 0.5, "recent_visits": 2.0},
            badge_count=5,
        )
        x1 = s.transition(x0)
        assert x1[s.names.index("badge_count")] == 6.0
        assert x1[s.names.index("badge_count*profile_0")] == 18.0
        # untouched slots carried over
        for name in ("intercept", "profile_0", "profile_1", "recent_visits"):
            assert x1[s.names.index(name)] == x0[s.names.index(name)]
        # input not mutated
        assert x0[s.names.index("badge_count")] == 5.0

    def test_w0_reset(self):
        s = FeatureSchema.build(
            base=["p"],
            badge="badge_count",
            w0="hours_in_state",
            interactions=[("hours_in_state", "p")],
        )
        x0 = s.materialize({"p": 4.0}, badge_count=1, w0_hours=10.0)
        x1 = s.transition(x0)
        assert x1[s.names.index("hours_in_state")] == 0.0
        assert x1[s.names.index("hours_in_state*p")] == 0.0
        assert x1[s.names.index("badge_count")] == 2.0

    def test_no_interactions_only_state_changes(self):
        s = FeatureSchema.build(base=["a", "b"], badge="badge_count")
        x0 = s.materialize({"a": 1.0, "b": 2.0}, badge_count=0)
        x1 = s.transition(x0)
        changed = np.flatnonzero(x1 != x0)
        assert list(changed) == [s.names.index("badge_count")]
        assert x1[s.names.index("badge_count")] == 1.0


class TestPersistence:
    def test_round_trip(self):
        s = demo_schema()
        s2 = FeatureSchema.from_dict(s.to_dict())
        assert s2 == s
        assert s2.schema_id == s.schema_id

    def test_schema_id_stable_and_sensitive(self):
        s = demo_schema()
        assert s.schema_id == demo_schema().schema_id
        other = FeatureSchema.build(base=["profile_0"], badge="badge_count")
        assert other.schema_id != s.schema_id

    def test_declared_id_mismatch(self):
        d = demo_schema().to_dict()
        d["schema_id"] = "0" * 16
        with pytest.raises(SchemaError, match="schema_id mismatch"):
            FeatureSchema.from_dict(d)

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            FeatureSchema.from_dict({"nope": []})
        with pytest.raises(SchemaError):
            FeatureSchema.from_dict({"slots": [{"kind": "base"}]})
