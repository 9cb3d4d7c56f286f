"""Tests for event ingestion: observation building and IO."""

from __future__ import annotations

import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendwhen import DataError
from sendwhen.features import FeatureSchema
from sendwhen.io import (
    read_events,
    read_observations_jsonl,
    write_events_jsonl,
    write_observations_jsonl,
)
from sendwhen.pipeline import (
    Event,
    PipelineConfig,
    build_observations,
    build_send_instances,
)

from event_rows import as_columns

SCHEMA = FeatureSchema.build(base=["p"], badge="badge_count")
CFG = PipelineConfig()


def send(uid, ts, badge=1, p=0.5):
    return Event(uid, ts, "send", badge_count=badge, features={"p": p})


def visit(uid, ts):
    return Event(uid, ts, "visit")


def outcomes(obs):
    """(t_hours, uncensored) of each observation."""
    return list(zip(obs.t_hours.tolist(), obs.uncensored.tolist()))


def rows(obs):
    """(user_id, origin, t_hours, uncensored, x) of each observation."""
    return list(zip(
        [obs.user_ids[u] for u in obs.user.tolist()], obs.origin_ts_hours.tolist(),
        obs.t_hours.tolist(), obs.uncensored.tolist(), obs.x.tolist(),
    ))


class TestBuildObservations:
    def test_hand_trace(self):
        # M1@0, V@5, M2@8, M3@20, M4@30, V@33
        events = [
            send("u", 0.0),
            visit("u", 5.0),
            send("u", 8.0),
            send("u", 20.0),
            send("u", 30.0),
            visit("u", 33.0),
        ]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        assert outcomes(obs) == [(5.0, True), (12.0, False), (10.0, False), (3.0, True)]
        assert obs.origin_ts_hours.tolist() == [0.0, 8.0, 20.0, 30.0]

    def test_single_send_dropped(self):
        assert len(build_observations(as_columns([send("u", 0.0)]), SCHEMA, CFG)) == 0

    def test_simultaneous_send_visit_clamped(self):
        # A send and a visit at the same instant yield one floor-duration
        # uncensored observation.
        obs = build_observations(as_columns([send("u", 0.0), visit("u", 0.0)]), SCHEMA, CFG)
        assert outcomes(obs) == [
            (CFG.duration_floor_hours, True)
        ]

    def test_zero_gap_clamps_to_floor(self):
        obs = build_observations(
            as_columns([send("u", 3.0), visit("u", 3.0 + 1e-9)]), SCHEMA, CFG
        )
        assert outcomes(obs) == [(CFG.duration_floor_hours, True)]

    def test_tie_visit_attributed_to_prior_send(self):
        # send@0 then visit and send both at t=5: the visit terminates the
        # first observation uncensored at 5 (not censored by the second
        # send), and also resolves the simultaneous send at the floor.
        events = [send("u", 0.0), send("u", 5.0), visit("u", 5.0)]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        assert outcomes(obs) == [
            (5.0, True),
            (CFG.duration_floor_hours, True),
        ]

    def test_input_order_irrelevant(self):
        events = [
            send("u", 0.0),
            visit("u", 5.0),
            send("u", 8.0),
            send("u", 20.0),
            visit("u", 33.0),
            send("u", 30.0),
        ]
        rng = random.Random(7)
        base = build_observations(as_columns(events), SCHEMA, CFG)
        for _ in range(5):
            shuffled = events[:]
            rng.shuffle(shuffled)
            assert rows(build_observations(as_columns(shuffled), SCHEMA, CFG)) == rows(base)

    def test_feature_snapshot(self):
        events = [send("u", 0.0, badge=3, p=2.0), visit("u", 4.0)]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        assert_allclose(obs.x[0], [1.0, 2.0, 3.0])  # intercept, p, badge

    def test_w0_snapshot(self):
        schema = FeatureSchema.build(base=["p"], badge="badge_count", w0="w0")
        events = [
            send("u", 0.0),
            visit("u", 5.0),
            send("u", 8.0),
            send("u", 20.0),
            send("u", 30.0),
            visit("u", 33.0),
        ]
        obs = build_observations(as_columns(events), schema, CFG)
        w0s = obs.x[:, schema.names.index("w0")].tolist()
        # first send: no prior event; then sends at 8 (state start 5),
        # 20 (state start 8), 30 (state start 20)
        assert w0s == [0.0, 3.0, 12.0, 10.0]

    def test_window_excludes_outside_events(self):
        cfg = PipelineConfig(window_start=0.0, window_end=25.0)
        events = [send("u", 0.0), visit("u", 5.0), send("u", 8.0), send("u", 26.0)]
        obs = build_observations(as_columns(events), SCHEMA, cfg)
        # send@8 has no successor inside the window -> dropped
        assert outcomes(obs) == [(5.0, True)]

    def test_multiple_users_sorted_output(self):
        events = [
            send("b", 0.0),
            visit("b", 1.0),
            send("a", 0.0),
            visit("a", 2.0),
        ]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        assert [row[0] for row in rows(obs)] == ["a", "b"]

    def test_missing_badge_on_send_rejected(self):
        with pytest.raises(DataError, match="badge_count"):
            Event("u", 0.0, "send", badge_count=None)

    def test_nonfinite_timestamp_rejected(self):
        with pytest.raises(DataError, match="timestamp"):
            Event("u", float("nan"), "visit")


class TestSendInstances:
    def test_includes_trailing_send(self):
        events = [send("u", 0.0), visit("u", 5.0), send("u", 8.0)]
        inst = build_send_instances(as_columns(events), SCHEMA, CFG)
        assert [i.ts_hours for i in inst] == [0.0, 8.0]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        assert len(obs) == 1  # trailing send has no observation

    def test_same_snapshots_as_observations(self):
        events = [
            send("u", 0.0, badge=1, p=0.3),
            visit("u", 5.0),
            send("u", 8.0, badge=2, p=0.3),
            visit("u", 9.0),
        ]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        inst = build_send_instances(as_columns(events), SCHEMA, CFG)
        assert obs.origin_ts_hours.tolist() == [i.ts_hours for i in inst]
        assert_allclose(obs.x, [i.x for i in inst])


class TestIO:
    def test_events_jsonl_round_trip(self, tmp_path):
        events = [
            send("u1", 0.0, badge=2, p=-0.75),
            visit("u1", 3.5),
            send("u2", 1.25, badge=0, p=1.5),
        ]
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path, as_columns(events))
        assert list(read_events(path)) == events

    def test_events_jsonl_deterministic_bytes(self, tmp_path):
        events = [send("u1", 0.1, badge=1, p=1 / 3), visit("u1", 0.7)]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_events_jsonl(p1, as_columns(events))
        write_events_jsonl(p2, as_columns(events))
        assert p1.read_bytes() == p2.read_bytes()

    def test_events_csv(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "user_id,ts_hours,kind,badge_count,p\n"
            "u1,0.0,send,2,0.5\n"
            "u1,3.5,visit,,\n"
        )
        events = list(read_events(path))
        assert events == [send("u1", 0.0, badge=2, p=0.5), visit("u1", 3.5)]

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user_id,ts_hours\nu1,0.0\n")
        with pytest.raises(DataError, match="missing columns"):
            read_events(path)

    def test_malformed_jsonl_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"user_id":"u","ts_hours":0.0,"kind":"send","badge_count":1}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            read_events(path)

    @pytest.mark.parametrize("name,text,message", [
        ("ev.jsonl", '{"user_id":"u","kind":"visit"}\n',
         "ev.jsonl:2: malformed event record: 'ts_hours'"),
        ("ev.jsonl", "[1,2]\n", "ev.jsonl:2: expected a JSON object"),
        ("ev.csv", "u,1.0,send,\n",
         "ev.csv:3: send event at t=1.0 for user 'u' is missing badge_count"),
    ])
    def test_bad_event_names_its_line_once(self, tmp_path, name, text, message):
        first = ('{"user_id":"u","ts_hours":0.0,"kind":"send","badge_count":1}\n'
                 if name.endswith(".jsonl") else
                 "user_id,ts_hours,kind,badge_count\nu,0.0,send,1\n")
        path = tmp_path / name
        path.write_text(first + text)
        with pytest.raises(DataError) as exc:
            read_events(path)
        assert str(exc.value) == f"{tmp_path}/{message}"

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"user_id":"u","ts_hours":0.0,"kind":"push"}\n')
        with pytest.raises(DataError):
            read_events(path)

    def test_observations_round_trip(self, tmp_path):
        events = [send("u", 0.0, badge=1, p=2.0), visit("u", 4.0), send("u", 6.0)]
        obs = build_observations(as_columns(events), SCHEMA, CFG)
        path = tmp_path / "obs.jsonl"
        write_observations_jsonl(path, obs)
        back = read_observations_jsonl(path, SCHEMA)
        assert rows(back) == rows(obs)

    @pytest.mark.parametrize("second,message", [
        ('"censored":"false","x":[1.0]', "censored must be true or false, got 'false'"),
        ('"censored":0,"x":[1.0]', "censored must be true or false, got 0"),
        ('"censored":false,"x":[1.0,2.0]', "x has 2 values, the first row 1"),
        ('"censored":false,"x":1.0', "x must be a list of numbers"),
        ('"censored":false,"x":["1.0"]', "x must be a list of numbers"),
        ('"censored":false,"x":[[1.0]]', "x must be a list of numbers"),
    ])
    def test_observation_bad_censored_or_x_names_its_line(self, tmp_path, second, message):
        path = tmp_path / "obs.jsonl"
        path.write_text(
            '{"user_id":"u","t_hours":1.0,"censored":true,"x":[1.0]}\n'
            '{"user_id":"u","t_hours":2.0,' + second + '}\n'
        )
        with pytest.raises(DataError) as exc:
            read_observations_jsonl(path)
        assert str(exc.value) == f"{path}:2: malformed observation: {message}"

    def test_observation_bad_duration(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"user_id":"u","t_hours":0.0,"censored":false,"x":[1.0]}\n')
        with pytest.raises(DataError, match="duration"):
            read_observations_jsonl(path)
