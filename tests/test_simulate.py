"""Tests for the synthetic ground-truth generator."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle_sim
import sendwhen
from sendwhen.cli import main
from sendwhen.errors import ConfigError
from sendwhen.io import write_contexts_jsonl, write_events_jsonl
from sendwhen.pipeline import SEND, VISIT, EventColumns, PipelineConfig, build_observations
from sendwhen.simulate import (
    _MAX_SENDS,
    _MAX_USERS,
    SendProcess,
    SimConfig,
    _extreme_value,
    default_sim_schema,
    generate_event_log,
)
from sendwhen.survival import WeibullParams
from sendwhen.training import fit_aft

from oracle_survival import weibull_cdf

B_TRUE = (2.6, 0.4, -0.3, -0.15, 0.05)


def small_config(**overrides) -> SimConfig:
    kwargs = dict(
        n_users=60,
        n_profile_features=2,
        true_coefficients=B_TRUE,
        true_sigma=1.5,
        send_process=SendProcess("fixed", interval_hours=8.0),
        window_hours=168.0,
        seed=4,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def visit_times(x, b, sigma, u):
    """The simulator's visit-time draw from uniforms u: exp(b.x + sigma*eps)."""
    return np.exp(float(x @ b) + sigma * _extreme_value(u))


class TestSampleTimeToVisit:
    def test_inverse_cdf_zero_noise_point(self):
        # U = 1 - e^{-1} maps to eps = 0, so T = exp(b.x) exactly
        x = np.array([1.0, 0.5])
        b = np.array([1.2, -0.4])
        t = visit_times(x, b, 1.5, 1.0 - np.exp(-1.0))
        assert t == pytest.approx(np.exp(1.2 - 0.2), rel=1e-12)

    def test_draws_match_weibull_cdf(self):
        # KS on 2e5 draws; the full 1e6-draw check lives in acceptance
        rng = np.random.default_rng(77)
        x = np.array([1.0, 0.5, -1.2])
        b = np.array([2.0, 0.3, 0.4])
        sigma = 1.5
        draws = np.sort(visit_times(x, b, sigma, rng.uniform(size=200_000)))
        mu = float(x @ b)
        params = WeibullParams(rate=np.exp(-mu / sigma), shape=1.0 / sigma)
        cdf = np.array([weibull_cdf(t, params) for t in draws])
        n = len(draws)
        ks = max(
            float(np.max(cdf - np.arange(n) / n)),
            float(np.max((np.arange(n) + 1) / n - cdf)),
        )
        assert ks < 0.004

    def test_small_sigma_concentrates_at_exp_mu(self):
        rng = np.random.default_rng(8)
        x = np.array([1.0, -0.5])
        b = np.array([2.0, 0.6])
        draws = visit_times(x, b, 1e-12, rng.uniform(size=1000))
        mu = float(x @ b)
        assert np.max(np.abs(draws / np.exp(mu) - 1.0)) < 1e-6

    def test_draws_strictly_positive(self):
        rng = np.random.default_rng(9)
        draws = visit_times(np.array([1.0]), np.array([-5.0]), 2.0, rng.uniform(size=5000))
        assert np.all(draws > 0)


def event_bytes(events, tmp_path, name="events.jsonl") -> bytes:
    path = tmp_path / name
    write_events_jsonl(path, events)
    return path.read_bytes()


class TestEventLog:
    def test_deterministic_given_seed(self, tmp_path):
        cfg = small_config()
        a = generate_event_log(cfg)
        b = generate_event_log(cfg)
        assert event_bytes(a.events, tmp_path, "a") == event_bytes(b.events, tmp_path, "b")
        assert a.truth == b.truth

    def test_seed_changes_stream(self, tmp_path):
        a = generate_event_log(small_config(seed=1))
        b = generate_event_log(small_config(seed=2))
        assert event_bytes(a.events, tmp_path, "a") != event_bytes(b.events, tmp_path, "b")

    def test_events_within_window_and_sorted_per_user(self):
        cfg = small_config()
        sim = generate_event_log(cfg)
        last_ts: dict[str, float] = {}
        for e in sim.events:
            assert 0.0 <= e.ts_hours <= cfg.window_hours
            assert e.ts_hours >= last_ts.get(e.user_id, 0.0)
            last_ts[e.user_id] = e.ts_hours

    def test_badge_increments_on_send_resets_on_visit(self):
        sim = generate_event_log(small_config())
        badge: dict[str, int] = {}
        saw_reset = False
        for e in sim.events:
            if e.kind == SEND:
                expected = badge.get(e.user_id, 0) + 1
                assert e.badge_count == expected
                badge[e.user_id] = expected
                if expected == 1 and e.user_id in badge:
                    saw_reset = True
            else:
                assert e.kind == VISIT
                badge[e.user_id] = 0
        assert saw_reset

    def test_visit_never_after_next_send(self):
        sim = generate_event_log(small_config())
        per_user: dict[str, list] = {}
        for e in sim.events:
            per_user.setdefault(e.user_id, []).append(e)
        for stream in per_user.values():
            for prev, nxt in zip(stream, stream[1:]):
                if prev.kind == VISIT:
                    assert nxt.kind == SEND

    def test_boundary_phase_drops_exactly_final_send(self):
        # phase = interval and window a multiple of it puts the last send
        # at the window edge, so every user yields sends-1 observations
        cfg = small_config(
            send_process=SendProcess("fixed", interval_hours=8.0, phase_hours=8.0)
        )
        sim = generate_event_log(cfg)
        schema = default_sim_schema(cfg)
        obs = build_observations(sim.events, schema, PipelineConfig())
        sends_per_user = int(cfg.window_hours / 8.0)
        assert len(obs) == cfg.n_users * (sends_per_user - 1)

    def test_contexts_one_per_user(self):
        cfg = small_config()
        user_ids, features, badge_count, w0_hours = generate_event_log(cfg).contexts
        assert len(set(user_ids)) == len(user_ids) == cfg.n_users
        assert list(features) == ["profile_0", "profile_1"]
        for column in (*features.values(), badge_count, w0_hours):
            assert column.shape == (cfg.n_users,)
        assert badge_count.dtype == np.int64 and (badge_count >= 0).all()
        assert ((0.0 <= w0_hours) & (w0_hours <= cfg.window_hours)).all()

    def test_truth_sidecar_contents(self):
        cfg = small_config()
        sim = generate_event_log(cfg)
        truth = sim.truth
        schema = default_sim_schema(cfg)
        assert list(truth["true_coefficients"]) == list(schema.names)
        assert truth["true_sigma"] == cfg.true_sigma
        assert truth["n_users"] == cfg.n_users
        stats = truth["stats"]
        assert stats["n_sends"] == sum(1 for e in sim.events if e.kind == SEND)
        assert stats["n_visits"] == sum(1 for e in sim.events if e.kind == VISIT)
        assert stats["censored_fraction"] == pytest.approx(
            stats["n_censored"] / stats["n_resolved"]
        )


def oracle_config(n_profiles, process, window_hours, seed, include_interaction=True):
    coefficients = [2.6] + [(0.4, -0.3, 0.2)[j % 3] for j in range(n_profiles)] + [-0.15]
    if include_interaction and n_profiles:
        coefficients.append(0.05)
    return SimConfig(
        n_users=40, n_profile_features=n_profiles, true_coefficients=tuple(coefficients),
        true_sigma=1.5, send_process=process, window_hours=window_hours, seed=seed,
        include_interaction=include_interaction,
    )


POISSON = SendProcess("poisson", rate_per_hour=1 / 12)
ORACLE_CASES = {
    "poisson": (2, POISSON, 168.0, 0),
    "fixed-random-phase": (2, SendProcess("fixed", interval_hours=8.0), 168.0, 1),
    "fixed-edge-phase": (2, SendProcess("fixed", interval_hours=8.0, phase_hours=8.0), 168.0, 2),
    "no-profiles": (0, POISSON, 24.0, 3),
    "twelve-profiles": (12, POISSON, 168.0, 4),
    "twelve-profiles-edge": (
        12, SendProcess("fixed", interval_hours=6.0, phase_hours=6.0), 24.0, 1),
    "no-interaction": (2, SendProcess("fixed", interval_hours=6.0), 24.0, 0, False),
    "dense-poisson": (1, SendProcess("poisson", rate_per_hour=0.5), 24.0, 2),
    "no-profiles-edge": (0, SendProcess("fixed", interval_hours=8.0, phase_hours=8.0), 168.0, 4),
    "one-profile-no-interaction": (1, POISSON, 168.0, 3, False),
}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_simulator_equals_per_send_oracle(tmp_path, case):
    cfg = oracle_config(*case)
    sim = generate_event_log(cfg)
    events, contexts, truth = oracle_sim.generate_event_log(cfg)
    assert isinstance(sim.events, EventColumns)
    oracle_sim.write_events(tmp_path / "oracle.jsonl", events)
    written = event_bytes(sim.events, tmp_path)
    assert written == (tmp_path / "oracle.jsonl").read_bytes()
    write_contexts_jsonl(tmp_path / "contexts.jsonl", *sim.contexts)
    oracle_sim.write_contexts(tmp_path / "oracle_contexts.jsonl", contexts)
    written_contexts = (tmp_path / "contexts.jsonl").read_bytes()
    assert written_contexts == (tmp_path / "oracle_contexts.jsonl").read_bytes()
    assert written_contexts.count(b"\n") == cfg.n_users
    assert sim.truth == truth
    first_send, first_context = written.split(b"\n", 1)[0], written_contexts.split(b"\n", 1)[0]
    if cfg.n_profile_features == 0:
        assert b'"features"' not in written
        assert written_contexts.count(b'"features":{},') == cfg.n_users
    elif cfg.n_profile_features == 12:  # names sort as strings
        for line in (first_send, first_context):
            assert line.index(b'"profile_10"') < line.index(b'"profile_2"')


class TestCensoring:
    def test_rapid_sends_censor_nearly_everything(self):
        cfg = small_config(
            n_users=300,
            send_process=SendProcess("fixed", interval_hours=0.2),
            window_hours=24.0,
            seed=3,
        )
        stats = generate_event_log(cfg).truth["stats"]
        assert stats["censored_fraction"] > 0.85

    def test_sparse_sends_censor_nearly_nothing(self):
        cfg = small_config(
            n_users=300,
            send_process=SendProcess("fixed", interval_hours=400.0),
            window_hours=1000.0,
            seed=3,
        )
        stats = generate_event_log(cfg).truth["stats"]
        assert stats["censored_fraction"] < 0.05

    def test_empirical_rate_matches_survival_at_interval(self):
        # fixed gaps make the censoring probability of each resolved send
        # the Weibull survival at the interval under that send's state
        cfg = small_config(
            n_users=1500,
            send_process=SendProcess("fixed", interval_hours=8.0, phase_hours=8.0),
            seed=11,
        )
        stats = generate_event_log(cfg).truth["stats"]
        assert stats["n_resolved"] == 30000
        rel = abs(
            stats["censored_fraction"] - stats["expected_censored_fraction"]
        ) / stats["expected_censored_fraction"]
        assert rel < 0.02


class TestPoissonProcess:
    def test_mean_gap_matches_rate(self):
        cfg = small_config(
            n_users=400,
            n_profile_features=1,
            true_coefficients=(2.6, 0.4, -0.25, -0.1),
            send_process=SendProcess("poisson", rate_per_hour=1.0 / 12.0),
            window_hours=336.0,
            seed=9,
        )
        sim = generate_event_log(cfg)
        by_user: dict[str, list[float]] = {}
        for e in sim.events:
            if e.kind == SEND:
                by_user.setdefault(e.user_id, []).append(e.ts_hours)
        gaps = np.concatenate(
            [np.diff(v) for v in by_user.values() if len(v) > 1]
        )
        assert len(gaps) > 5000
        assert abs(float(gaps.mean()) - 12.0) < 1.2


class TestRoundTrip:
    def test_fit_recovers_truth_through_pipeline(self):
        # 24k observations; the 100k-observation version is in acceptance
        cfg = small_config(
            n_users=1200,
            send_process=SendProcess("fixed", interval_hours=8.0, phase_hours=8.0),
            seed=5,
        )
        sim = generate_event_log(cfg)
        schema = default_sim_schema(cfg)
        obs = build_observations(sim.events, schema, PipelineConfig())
        assert len(obs) == 24000
        model = fit_aft(obs, schema=schema)
        err = np.abs(model.coefficients - np.array(B_TRUE))
        assert err.max() < 0.04
        assert abs(model.sigma - 1.5) / 1.5 < 0.02
        assert model.sigma > 1.0  # alpha in (0,1)


class TestConfigValidation:
    def test_bad_sigma(self):
        with pytest.raises(ConfigError):
            small_config(true_sigma=0.0)

    def test_bad_n_users(self):
        with pytest.raises(ConfigError):
            small_config(n_users=0)

    def test_coefficient_length_mismatch(self):
        with pytest.raises(ConfigError, match="schema needs"):
            small_config(true_coefficients=(1.0, 2.0))

    def test_bad_process_kind(self):
        with pytest.raises(ConfigError):
            SendProcess("weekly", interval_hours=168.0)

    def test_fixed_needs_interval(self):
        with pytest.raises(ConfigError):
            SendProcess("fixed")

    def test_poisson_needs_rate(self):
        with pytest.raises(ConfigError):
            SendProcess("poisson")

    def test_poisson_rejects_phase(self):
        with pytest.raises(ConfigError, match="phase"):
            SendProcess("poisson", rate_per_hour=0.1, phase_hours=1.0)

    def test_negative_phase_rejected(self):
        with pytest.raises(ConfigError, match="phase"):
            SendProcess("fixed", interval_hours=8.0, phase_hours=-1.0)

    # small_config() as the JSON object a simulator config file holds
    SMALL_CONFIG = {
        "n_users": 60, "n_profile_features": 2, "true_coefficients": list(B_TRUE),
        "true_sigma": 1.5, "send_process": {"kind": "fixed", "interval_hours": 8.0},
        "window_hours": 168.0, "seed": 4, "include_interaction": True,
    }

    def test_config_dict_round_trip(self):
        assert SimConfig.from_dict(self.SMALL_CONFIG) == small_config()

    def test_config_dict_round_trip_with_phase(self):
        d = {**self.SMALL_CONFIG,
             "send_process": {"kind": "fixed", "interval_hours": 6.0, "phase_hours": 6.0}}
        assert SimConfig.from_dict(d) == small_config(
            send_process=SendProcess("fixed", interval_hours=6.0, phase_hours=6.0)
        )

    def test_poisson_dict_round_trip(self):
        proc = SendProcess("poisson", rate_per_hour=1.0 / 12.0)
        assert SendProcess.from_dict(proc.to_dict()) == proc

    def test_malformed_config_dict(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"n_users": 5})

    def test_the_largest_run_is_taken_and_a_larger_one_refused(self):
        # both limits reached at once: 10 million users, 2 expected sends each
        small_config(n_users=_MAX_USERS, window_hours=_MAX_SENDS / _MAX_USERS,
                     send_process=SendProcess("poisson", rate_per_hour=1.0))
        small_config(n_users=_MAX_USERS, send_process=SendProcess("fixed", interval_hours=168.0))
        with pytest.raises(ConfigError, match="^n_users must be at most 10,000,000$"):
            small_config(n_users=_MAX_USERS + 1, window_hours=1.0)
        with pytest.raises(ConfigError, match=r"expects 2\.2e\+07 sends, more than the 20,000,000"):
            small_config(n_users=_MAX_USERS, window_hours=2.2,
                         send_process=SendProcess("poisson", rate_per_hour=1.0))

    def test_the_100k_user_week_is_far_inside_the_limit(self):
        rate = 1 / 12  # the default send process
        small_config(n_users=100_000, send_process=SendProcess("poisson", rate_per_hour=rate))
        assert 100_000 * 168.0 * rate * 10 < _MAX_SENDS

    def test_schema_without_interaction(self):
        cfg = small_config(
            true_coefficients=(2.6, 0.4, -0.3, -0.15), include_interaction=False
        )
        schema = default_sim_schema(cfg)
        assert list(schema.names) == [
            "intercept",
            "profile_0",
            "profile_1",
            "badge_count",
        ]


# -- configs refused through the CLI -------------------------------------------------

REFUSED_CONFIGS = {
    "infinite-window": (["--window-hours", "inf"], None,
                        "window_hours must be finite and > 0, got inf"),
    "nan-window": (["--window-hours", "nan"], None,
                   "window_hours must be finite and > 0, got nan"),
    "infinite-rate": ([], {"send_process": {"kind": "poisson", "rate_per_hour": math.inf}},
                      "rate_per_hour must be finite and > 0, got inf"),
    "infinite-interval": ([], {"send_process": {"kind": "fixed", "interval_hours": math.inf}},
                          "interval_hours must be finite and > 0, got inf"),
    "nan-coefficient": ([], {"true_coefficients": [3.2, math.nan, -0.3, -0.2, 0.05]},
                        "true_coefficients must be finite, got [3.2, nan, -0.3, -0.2, 0.05]"),
    "fractional-users": ([], {"n_users": 2.5},
                         "malformed simulator config: n_users must be an integer, got 2.5"),
    "bool-users": ([], {"n_users": True},
                   "malformed simulator config: n_users must be an integer, got True"),
    "bool-profiles": ([], {"n_profile_features": False, "true_coefficients": [1.0, 0.1]},
                      "malformed simulator config: n_profile_features must be an integer, "
                      "got False"),
    "fractional-seed": ([], {"seed": 1.9},
                        "malformed simulator config: seed must be an integer, got 1.9"),
    "bool-interval": ([], {"send_process": {"kind": "fixed", "interval_hours": True}},
                      "malformed send_process {'kind': 'fixed', 'interval_hours': True}: "
                      "interval_hours must be a number, got True"),
    "zero-sigma": ([], {"true_sigma": 0}, "true_sigma must be finite and > 0, got 0.0"),
    "negative-phase": ([], {"send_process": {"kind": "fixed", "interval_hours": 4,
                                             "phase_hours": -1}},
                       "phase_hours must be finite and >= 0, got -1.0"),
    "string-interaction": ([], {"include_interaction": "no"},
                           "malformed simulator config: include_interaction must be true or "
                           "false, got 'no'"),
}


@pytest.mark.parametrize("flags, config, message", REFUSED_CONFIGS.values(),
                         ids=REFUSED_CONFIGS.keys())
def test_simulate_refuses_config(tmp_path, capsys, flags, config, message):
    argv = ["simulate", *flags, "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"n_users": 3, **config}), encoding="utf-8")
        argv += ["--config", str(path)]
    else:
        argv += ["--n-users", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


# configs whose run would not end in time or memory; a 401-digit n_users is
# refused before anything is multiplied by it
OVERSIZED_CONFIGS = {
    "huge-window": ({"window_hours": 1e300},
                    "n_users * window_hours * rate_per_hour expects 2.5e+299 sends, more than "
                    "the 20,000,000 a run may draw"),
    "huge-window-fixed": ({"window_hours": 1e300,
                           "send_process": {"kind": "fixed", "interval_hours": 8.0}},
                          "n_users * (window_hours / interval_hours + 1) expects 3.75e+299 "
                          "sends, more than the 20,000,000 a run may draw"),
    "fine-interval": ({"send_process": {"kind": "fixed", "interval_hours": 1e-300}},
                      "n_users * (window_hours / interval_hours + 1) expects 5.04e+302 sends, "
                      "more than the 20,000,000 a run may draw"),
    "count-past-the-float-range": ({"window_hours": 1e300, "send_process": {
        "kind": "poisson", "rate_per_hour": 1e100}},
        "n_users * window_hours * rate_per_hour expects inf sends, more than the 20,000,000 a "
        "run may draw"),
    "many-users": ({"n_users": 10**7, "send_process": {"kind": "poisson", "rate_per_hour": 1.0}},
                   "n_users * window_hours * rate_per_hour expects 1.68e+09 sends, more than "
                   "the 20,000,000 a run may draw"),
    "401-digit-users": ({"n_users": 10**400}, "n_users must be at most 10,000,000"),
}


@pytest.mark.parametrize("config, message", OVERSIZED_CONFIGS.values(),
                         ids=OVERSIZED_CONFIGS.keys())
def test_simulate_refuses_an_oversized_run_before_any_draw(tmp_path, capsys, monkeypatch, config,
                                                            message):
    def refuse(cfg):
        raise AssertionError("drew a run the config should refuse")

    monkeypatch.setattr("sendwhen.simulate.generate_event_log", refuse)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"n_users": 3, **config}), encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("intercept, rate", [(2000.0, "0.0"), (-2000.0, "inf")])
def test_simulate_refuses_a_weibull_rate_out_of_range(tmp_path, capsys, intercept, rate):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"true_coefficients": [intercept, 0.4, -0.3, -0.2, 0.05]}),
                    encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(over="ignore"):  # the huge intercept's visit times overflow to inf
        code = main(["simulate", "--n-users", "3", "--config", str(path), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: rate must be finite and > 0, got {rate}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("intercept, rate", [(2000.0, "0.0"), (-2000.0, "inf")])
def test_simulate_out_of_range_writes_only_its_error_line(tmp_path, intercept, rate):
    # in a new interpreter, where a numpy warning would reach stderr
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"true_coefficients": [intercept, 0.4, -0.3, -0.2, 0.05]}),
                    encoding="utf-8")
    argv = ["simulate", "--n-users", "3", "--config", str(path), "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(sendwhen.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-c",
         "import sys; from sendwhen.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"error: rate must be finite and > 0, got {rate}"]
