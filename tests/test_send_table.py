"""The one-sort state walk against the per-user reference walk.

tests/oracle_walk.py walks each user's sorted stream event by event;
pipeline.send_table sorts all events once.  build_observations,
build_send_instances and label_naive must give exactly the same results
from both, on tie-heavy timelines and awkward user ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_walk
import sendwhen.pipeline
from event_rows import as_columns
from sendwhen.errors import SchemaError
from sendwhen.evaluation import label_naive
from sendwhen.features import FeatureSchema
from sendwhen.pipeline import (
    Event,
    PipelineConfig,
    build_observations,
    build_send_instances,
)
from sendwhen.simulate import SendProcess, SimConfig, generate_event_log

SCHEMA = FeatureSchema.build(
    base=["p"], badge="badge_count", w0="w0", interactions=[("p", "w0")]
)
HORIZONS = (0.5, 2.0, 6.0)
# "a" and "a\x00" differ only by a trailing NUL, which a numpy "<U" array drops
USER_IDS = ("a", "a\x00", "é", "u9", "u10")


def observation_rows(obs):
    return list(zip(
        [obs.user_ids[u] for u in obs.user.tolist()], obs.x.tolist(), obs.t_hours.tolist(),
        obs.uncensored.tolist(), obs.origin_ts_hours.tolist(),
    ))


def instance_rows(inst):
    return [(i.user_id, i.ts_hours, i.x.tolist()) for i in inst]


def assert_same_walk(events, cfg):
    log = as_columns(events)
    assert observation_rows(build_observations(log, SCHEMA, cfg)) == observation_rows(
        oracle_walk.build_observations(events, SCHEMA, cfg)
    )
    assert instance_rows(build_send_instances(log, SCHEMA, cfg)) == instance_rows(
        oracle_walk.build_send_instances(events, SCHEMA, cfg)
    )
    for horizon in HORIZONS:
        got = label_naive(log, horizon, cfg)
        want = oracle_walk.label_naive(events, horizon, cfg)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@st.composite
def event(draw):
    user = draw(st.sampled_from(USER_IDS))
    ts = draw(st.integers(0, 16)) * 0.5  # a coarse grid, so ties are common
    if draw(st.booleans()):
        return Event(user, ts, "visit")
    badge = draw(st.integers(0, 3))
    return Event(user, ts, "send", badge_count=badge, features={"p": draw(st.integers(-2, 2)) / 4})


@st.composite
def window(draw):
    start = draw(st.none() | st.integers(0, 16).map(lambda k: k * 0.5))
    end = draw(st.none() | st.integers(0, 16).map(lambda k: k * 0.5))
    if start is not None and end is not None and end <= start:
        end = None
    return PipelineConfig(window_start=start, window_end=end)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(event(), max_size=30), window())
def test_send_table_matches_the_reference_walk(events, cfg):
    assert_same_walk(events, cfg)


WINDOWS = [
    PipelineConfig(),
    PipelineConfig(window_start=24.0),
    PipelineConfig(window_end=96.0),
    PipelineConfig(window_start=24.0, window_end=120.0),
]


def simulated_events():
    sim = generate_event_log(
        SimConfig(
            n_users=150,
            n_profile_features=1,
            true_coefficients=(2.6, 0.4, -0.15),
            true_sigma=1.5,
            send_process=SendProcess(kind="poisson", rate_per_hour=1.0 / 8.0),
            window_hours=168.0,
            seed=5,
            include_interaction=False,
        )
    )
    return [
        Event(e.user_id, e.ts_hours, e.kind, e.badge_count, {"p": e.features.get("profile_0", 0.0)})
        for e in sim.events
    ]


@pytest.mark.parametrize("cfg", WINDOWS)
def test_simulated_log_matches_the_reference_walk(cfg):
    assert_same_walk(simulated_events(), cfg)


@pytest.mark.parametrize("cfg", WINDOWS)
def test_a_walk_in_chunks_matches_the_reference_walk(cfg, monkeypatch):
    # 5 rows at a time puts a chunk boundary between most of a user's events
    monkeypatch.setattr(sendwhen.pipeline, "_CHUNK_ROWS", 5)
    assert_same_walk(simulated_events(), cfg)


@pytest.mark.parametrize(
    "events, cfg",
    [
        ([], PipelineConfig()),
        (
            [Event("u", 1.0, "send", badge_count=1, features={"p": 0.5}), Event("u", 2.0, "visit")],
            PipelineConfig(window_start=10.0),
        ),
        ([Event("u", 1.0, "visit"), Event("u", 3.0, "visit")], PipelineConfig()),
    ],
    ids=["no-events", "window-excludes-all", "only-visits"],
)
def test_no_sends_gives_empty_results(events, cfg):
    events = as_columns(events)
    assert len(build_observations(events, SCHEMA, cfg)) == 0
    assert build_send_instances(events, SCHEMA, cfg) == []
    labels = label_naive(events, 4.0, cfg)
    assert labels.shape == (0,) and labels.dtype == bool
    assert SCHEMA.materialize_columns({}, [], []).shape == (0, len(SCHEMA))


@pytest.mark.parametrize("chunk_rows", [sendwhen.pipeline._CHUNK_ROWS, 2])
def test_a_missing_feature_is_reported_on_its_event_row(chunk_rows, monkeypatch):
    monkeypatch.setattr(sendwhen.pipeline, "_CHUNK_ROWS", chunk_rows)
    events = [Event("u", float(t), "send", badge_count=1, features={"p": 0.5}) for t in range(6)]
    events.insert(4, Event("u", 4.5, "send", badge_count=1))  # the sixth send in time, at row 4
    events.append(Event("u", 3.5, "visit"))
    with pytest.raises(SchemaError, match="missing base feature 'p'") as info:
        build_observations(as_columns(events), SCHEMA, PipelineConfig())
    assert info.value.row == 4
