"""Command-line surface: config merging, file plumbing, exit codes, manifests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sendwhen
from sendwhen.cli import main
from sendwhen.io import (
    file_sha256,
    read_events,
    read_model_json,
    read_observations_jsonl,
    read_schema_json,
)
from sendwhen.training import WeibullAftModel

from oracle_lp import lp_oracle
from oracle_score import score_row


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sim"
    code = run("simulate", "--n-users", 40, "--seed", 11, "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ingest_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("cli") / "ing"
    code = run(
        "ingest",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json",
        "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def aft_dir(tmp_path_factory, ingest_dir):
    out = tmp_path_factory.mktemp("cli") / "aft"
    code = run(
        "train", "--model", "aft",
        "--observations", ingest_dir / "observations.jsonl",
        "--schema", ingest_dir / "schema.json",
        "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def score_dir(tmp_path_factory, sim_dir, aft_dir):
    out = tmp_path_factory.mktemp("cli") / "score"
    code = run(
        "score",
        "--model", aft_dir / "model.json",
        "--contexts", sim_dir / "contexts.jsonl",
        "--horizon-T", 24, "--out", out,
    )
    assert code == 0
    return out


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# -- simulate ---------------------------------------------------------------------


def test_simulate_outputs_are_ingestible(sim_dir):
    events = read_events(sim_dir / "events.jsonl")
    schema = read_schema_json(sim_dir / "schema.json")
    assert len(events) > 0
    assert len(schema) == 5  # intercept, 2 profiles, badge, interaction
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert truth["stats"]["n_sends"] > 0


def test_simulate_same_seed_identical_digests(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    env = {"SOURCE_DATE_EPOCH": "1700000000"}
    old = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        assert run("simulate", "--n-users", 12, "--seed", 4, "--out", a) == 0
        assert run("simulate", "--n-users", 12, "--seed", 4, "--out", b) == 0
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    for name in ("events.jsonl", "contexts.jsonl", "truth.json", "schema.json", "manifest.json"):
        assert file_sha256(a / name) == file_sha256(b / name), name


def test_simulate_malformed_config_no_partial_output(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"n_users": "many"}')
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", out) == 2
    assert not (out / "events.jsonl").exists()


def test_simulate_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"user_count": 10}')
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2


def test_print_config_shows_defaults_and_overrides(tmp_path, capsys):
    assert run("simulate", "--print-config") == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["n_users"] == 100
    assert run("simulate", "--n-users", 7, "--print-config") == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["n_users"] == 7


def test_config_file_flag_override_order(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n_users": 55, "seed": 2}')
    assert run("simulate", "--config", cfg, "--n-users", 66, "--print-config") == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["n_users"] == 66  # flag beats file
    assert merged["seed"] == 2  # file beats default


# -- ingest -----------------------------------------------------------------------


def test_ingest_report_counts(sim_dir, ingest_dir):
    report = json.loads((ingest_dir / "report.json").read_text())
    obs = read_observations_jsonl(ingest_dir / "observations.jsonl")
    assert report["n_observations"] == len(obs)
    assert report["n_censored"] + report["n_uncensored"] == len(obs)
    assert report["n_sends"] == report["n_observations"] + report["n_dropped_sends"]
    assert report["n_dropped_sends"] > 0  # trailing sends have no follow-up


def test_ingest_counts_only_sends_inside_the_window(tmp_path, sim_dir):
    # sends past --window-end are neither observations nor dropped sends
    out = tmp_path / "win"
    assert run("ingest", "--events", sim_dir / "events.jsonl", "--schema",
               sim_dir / "schema.json", "--window-end", 84, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    events = read_events(sim_dir / "events.jsonl")
    in_window = events.is_send & (events.ts_hours <= 84)
    assert report["n_sends"] == np.count_nonzero(in_window)
    assert report["n_sends"] < np.count_nonzero(events.is_send)
    assert report["n_sends"] == report["n_observations"] + report["n_dropped_sends"]


def test_ingest_empty_input_exit_zero_with_warning(tmp_path, sim_dir, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out"
    assert run("ingest", "--events", empty, "--schema", sim_dir / "schema.json", "--out", out) == 0
    assert "warning" in capsys.readouterr().err
    assert (out / "observations.jsonl").read_text() == ""


def test_ingest_window_past_every_event_writes_nothing(tmp_path, sim_dir):
    out = tmp_path / "out"
    assert run("ingest", "--events", sim_dir / "events.jsonl", "--schema",
               sim_dir / "schema.json", "--window-start", 1e6, "--out", out) == 0
    assert (out / "observations.jsonl").read_text() == ""
    report = json.loads((out / "report.json").read_text())
    assert report["n_events"] > 0
    assert {k: v for k, v in report.items() if k != "n_events"} == {
        "n_sends": 0, "n_observations": 0, "n_dropped_sends": 0,
        "n_censored": 0, "n_uncensored": 0,
    }


def test_ingest_unsorted_input_equals_sorted(tmp_path, sim_dir):
    events = (sim_dir / "events.jsonl").read_text().splitlines()
    rng = np.random.default_rng(3)
    shuffled = [events[i] for i in rng.permutation(len(events))]
    shuf_path = tmp_path / "shuffled.jsonl"
    shuf_path.write_text("\n".join(shuffled) + "\n")
    out = tmp_path / "out"
    assert run("ingest", "--events", shuf_path, "--schema", sim_dir / "schema.json", "--out", out) == 0
    a = read_observations_jsonl(out / "observations.jsonl")
    b_dir = tmp_path / "sorted"
    assert run("ingest", "--events", sim_dir / "events.jsonl", "--schema", sim_dir / "schema.json", "--out", b_dir) == 0
    b = read_observations_jsonl(b_dir / "observations.jsonl")

    def rows(obs):
        ids = [obs.user_ids[u] for u in obs.user.tolist()]
        return list(zip(ids, obs.t_hours.tolist(), obs.uncensored.tolist()))

    assert rows(a) == rows(b)


# -- train ------------------------------------------------------------------------


def test_train_retrain_determinism(tmp_path, ingest_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            "train", "--model", "aft",
            "--observations", ingest_dir / "observations.jsonl",
            "--schema", ingest_dir / "schema.json", "--out", out,
        ) == 0
    assert file_sha256(a / "model.json") == file_sha256(b / "model.json")


def test_train_model_roundtrips_through_file(aft_dir):
    model = read_model_json(aft_dir / "model.json")
    assert isinstance(model, WeibullAftModel)
    assert model.schema is not None
    assert np.all(np.isfinite(model.coefficients))


def test_train_all_censored_clear_error(tmp_path, sim_dir, capsys):
    rows = [
        {"user_id": f"u{i}", "t_hours": 5.0, "censored": True,
         "x": [1.0, 0.1, -0.2, 1.0, 0.1], "origin_ts_hours": 0.0}
        for i in range(20)
    ]
    obs_path = tmp_path / "obs.jsonl"
    obs_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "out"
    assert run("train", "--model", "aft", "--observations", obs_path, "--out", out) == 3
    assert "censored" in capsys.readouterr().err


def test_train_logistic_needs_events(tmp_path, ingest_dir):
    assert run(
        "train", "--model", "logistic:24",
        "--observations", ingest_dir / "observations.jsonl",
        "--out", tmp_path / "o",
    ) == 2


def test_train_bad_model_kind(tmp_path, ingest_dir):
    code = run(
        "train", "--model", "cox",
        "--observations", ingest_dir / "observations.jsonl",
        "--out", tmp_path / "o",
    )
    assert code == 2


def test_train_logistic_roundtrip(tmp_path, sim_dir):
    out = tmp_path / "log"
    assert run(
        "train", "--model", "logistic:24",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json", "--out", out,
    ) == 0
    model = read_model_json(out / "model.json")
    assert model.horizon_t_hours == 24.0


CENSORED_ROW = '{"user_id":"u","t_hours":5.0,"censored":true,"x":[1.0,0.1,-0.2,1.0,0.1]}\n'
EMPTY_TRAIN_INPUTS = [
    ("aft", "obs.jsonl", "", "no observations to train on"),
    ("logistic:24", "events.csv", "user_id,ts_hours,kind,badge_count\n",
     "no send instances to train on"),
    ("aft", "obs.jsonl", CENSORED_ROW * 3,
     "all observations are censored; sigma is unidentifiable"),
]


@pytest.mark.parametrize("model,name,text,message", EMPTY_TRAIN_INPUTS,
                         ids=["aft-empty", "logistic-header-only", "aft-all-censored"])
def test_train_on_empty_or_censored_input_creates_no_out_dir(
    tmp_path, capsys, sim_dir, model, name, text, message
):
    path = tmp_path / name
    path.write_text(text)
    flag = "--observations" if model == "aft" else "--events"
    out = tmp_path / "out"
    assert run("train", "--model", model, flag, path, "--schema", sim_dir / "schema.json",
               "--out", out) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


def test_evaluate_on_header_only_csv_flags_one_empty_row(tmp_path, sim_dir, aft_dir):
    log_dir = tmp_path / "log"
    assert run("train", "--model", "logistic:24", "--events", sim_dir / "events.jsonl",
               "--schema", sim_dir / "schema.json", "--out", log_dir) == 0
    events = tmp_path / "events.csv"
    events.write_text("user_id,ts_hours,kind,badge_count\n")
    out = tmp_path / "eval"
    assert run("evaluate", "--aft-model", aft_dir / "model.json",
               "--logistic-model", log_dir / "model.json", "--events", events,
               "--schema", sim_dir / "schema.json", "--horizons", 24, "--out", out) == 0
    rows = json.loads((out / "auc_report.json").read_text())["rows"]
    assert rows == [{"t_hours": 24.0, "auc_aft": None, "auc_logistic": None, "n": 0,
                     "n_ambiguous": 0, "labeler": "naive", "flag": "insufficient-data"}]


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_single_horizon_one_row_csv(tmp_path, sim_dir, aft_dir):
    log_dir = tmp_path / "log"
    assert run(
        "train", "--model", "logistic:12",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json", "--out", log_dir,
    ) == 0
    out = tmp_path / "eval"
    assert run(
        "evaluate",
        "--aft-model", aft_dir / "model.json",
        "--logistic-model", log_dir / "model.json",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json",
        "--horizons", 12, "--out", out,
    ) == 0
    lines = (out / "auc_report.csv").read_text().strip().splitlines()
    assert lines[0] == "t_hours,auc_aft,auc_logistic,n,n_ambiguous,labeler"
    assert len(lines) == 2
    assert lines[1].startswith("12.0,")


def test_evaluate_missing_logistic_model_names_horizon(tmp_path, sim_dir, aft_dir, capsys):
    log_dir = tmp_path / "log"
    assert run(
        "train", "--model", "logistic:12",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json", "--out", log_dir,
    ) == 0
    code = run(
        "evaluate",
        "--aft-model", aft_dir / "model.json",
        "--logistic-model", log_dir / "model.json",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json",
        "--horizons", 12, 36, "--out", tmp_path / "e",
    )
    assert code == 3
    assert "T=36" in capsys.readouterr().err


def test_evaluate_rejects_swapped_model_files(tmp_path, sim_dir, aft_dir):
    log_dir = tmp_path / "log"
    assert run(
        "train", "--model", "logistic:12",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json", "--out", log_dir,
    ) == 0
    code = run(
        "evaluate",
        "--aft-model", log_dir / "model.json",
        "--logistic-model", aft_dir / "model.json",
        "--events", sim_dir / "events.jsonl",
        "--schema", sim_dir / "schema.json",
        "--horizons", 12, "--out", tmp_path / "e",
    )
    assert code == 3


# -- score ------------------------------------------------------------------------


def test_score_audit_columns_present(score_dir):
    rows = read_jsonl(score_dir / "deltas.jsonl")
    assert rows
    expected = {
        "user_id", "w0_hours", "horizon_T", "delta", "p_send", "p_wait",
        "lambda0", "lambda1", "alpha", "model_version",
    }
    assert expected.issubset(rows[0].keys())


def test_score_batch_equals_per_row(sim_dir, aft_dir, score_dir):
    model = read_model_json(aft_dir / "model.json")
    contexts = read_jsonl(sim_dir / "contexts.jsonl")
    rows = {r["user_id"]: r for r in read_jsonl(score_dir / "deltas.jsonl")}
    for rec in contexts[:10]:
        x0 = model.schema.materialize(rec["features"], badge_count=rec["badge_count"])
        row = rows[rec["user_id"]]
        assert {k: row[k] for k in ("delta", "p_send", "p_wait", "lambda0", "lambda1", "alpha")} \
            == score_row(model, x0, rec["w0_hours"], 24.0)


def test_score_zero_coefficients_zero_delta_at_w0_zero(tmp_path, sim_dir, aft_dir):
    model_rec = json.loads((aft_dir / "model.json").read_text())
    model_rec["coefficients"] = [0.0] * len(model_rec["coefficients"])
    model_path = tmp_path / "zero.json"
    model_path.write_text(json.dumps(model_rec))
    ctx_path = tmp_path / "ctx.jsonl"
    ctx_path.write_text(json.dumps(
        {"user_id": "z", "features": {"profile_0": 0.3, "profile_1": -0.1},
         "badge_count": 2, "w0_hours": 0.0}
    ) + "\n")
    out = tmp_path / "out"
    assert run("score", "--model", model_path, "--contexts", ctx_path,
               "--horizon-T", 24, "--out", out) == 0
    rows = read_jsonl(out / "deltas.jsonl")
    assert rows[0]["delta"] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("context,model,code,message", [
    ({"features": {"profile_0": 1e4, "profile_1": 1e4}}, {"coefficients": 0.5}, 3,
     "rate must be finite and > 0, got 0.0"),
    ({"features": {"profile_0": -1e4, "profile_1": -1e4}}, {"coefficients": 0.5}, 4,
     "non-finite rate from linear predictors ("),
    ({"w0_hours": 1e300}, {"log_sigma": -0.5}, 4, "hazard overflows at w0_hours 1e+300"),
], ids=["rate-underflow", "rate-overflow", "hazard-overflow"])
def test_score_extremes_name_their_line(tmp_path, capsys, aft_dir, context, model, code, message):
    model_rec = json.loads((aft_dir / "model.json").read_text())
    if "coefficients" in model:
        model_rec["coefficients"] = [model["coefficients"]] * len(model_rec["coefficients"])
    else:
        model_rec.update(model)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_rec))
    contexts = tmp_path / "c.jsonl"
    contexts.write_text(json.dumps(CONTEXT) + "\n\n" + json.dumps({**CONTEXT, **context}) + "\n")
    out = tmp_path / "o"
    assert run("score", "--model", model_path, "--contexts", contexts, "--out", out) == code
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {contexts}:3: {message}")
    assert not out.exists()


def test_score_empty_contexts_warns_and_writes_empty_deltas(tmp_path, capsys, aft_dir):
    contexts = tmp_path / "c.jsonl"
    contexts.write_text("")
    out = tmp_path / "o"
    assert run("score", "--model", aft_dir / "model.json", "--contexts", contexts,
               "--out", out) == 0
    assert (out / "deltas.jsonl").read_text() == ""
    assert capsys.readouterr().err == "score: warning: empty context input, wrote empty deltas\n"


def test_score_numerical_failure_exit_code(tmp_path, aft_dir):
    model_rec = json.loads((aft_dir / "model.json").read_text())
    model_rec["coefficients"] = [-5000.0] * len(model_rec["coefficients"])
    model_path = tmp_path / "hot.json"
    model_path.write_text(json.dumps(model_rec))
    ctx_path = tmp_path / "ctx.jsonl"
    ctx_path.write_text(json.dumps(
        {"user_id": "z", "features": {"profile_0": 1.0, "profile_1": 1.0},
         "badge_count": 1, "w0_hours": 0.0}
    ) + "\n")
    assert run("score", "--model", model_path, "--contexts", ctx_path,
               "--horizon-T", 24, "--out", tmp_path / "out") == 4


# -- decide -----------------------------------------------------------------------


def test_decide_threshold_kappa_sweep_nested(tmp_path, score_dir):
    send_sets = []
    for i, kappa in enumerate((-1.0, 0.01, 0.05, 0.2)):
        out = tmp_path / f"k{i}"
        assert run("decide", "--scores", score_dir / "deltas.jsonl",
                   "--rule", "threshold", "--kappa", kappa, "--out", out) == 0
        rows = read_jsonl(out / "decisions.jsonl")
        send_sets.append({r["user_id"] for r in rows if r["send"]})
    for bigger, smaller in zip(send_sets, send_sets[1:]):
        assert smaller.issubset(bigger)


def test_decide_moo_matches_vertex_oracle(tmp_path):
    scores = tmp_path / "scores.jsonl"
    rows = [
        {"user_id": "u1", "delta": 0.3, "p_wait": 0.5, "p_click": 0.1},
        {"user_id": "u2", "delta": 0.2, "p_wait": 0.5, "p_click": 0.3},
        {"user_id": "u3", "delta": 0.1, "p_wait": 0.5, "p_click": 0.2},
    ]
    scores.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "out"
    assert run("decide", "--scores", scores, "--rule", "moo",
               "--c-click", 0.5, "--c-send", 2, "--out", out) == 0
    got = {r["user_id"]: r for r in read_jsonl(out / "decisions.jsonl")}
    status, y_star, obj = lp_oracle(
        np.array([0.3, 0.2, 0.1]), np.array([0.1, 0.3, 0.2]), 0.5, 2.0
    )
    assert status == "optimal"
    for uid, yi in zip(("u1", "u2", "u3"), y_star):
        assert got[uid]["y"] == pytest.approx(yi, abs=1e-9)
    report = json.loads((out / "report.json").read_text())
    assert report["objective"] == pytest.approx(obj, abs=1e-9)
    assert [got[u]["send"] for u in ("u1", "u2", "u3")] == [False, True, True]


def test_decide_moo_fractional_rounded_and_flagged(tmp_path):
    scores = tmp_path / "scores.jsonl"
    rows = [
        {"user_id": "a", "delta": 0.5, "p_wait": 0.5, "p_click": 0.2},
        {"user_id": "b", "delta": 0.4, "p_wait": 0.5, "p_click": 0.2},
    ]
    scores.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "out"
    assert run("decide", "--scores", scores, "--rule", "moo",
               "--c-click", 0.0, "--c-send", 1.5, "--out", out) == 0
    got = {r["user_id"]: r for r in read_jsonl(out / "decisions.jsonl")}
    # volume cap 1.5: top delta fills whole, second gets y=0.5 and rounds down
    assert got["a"]["y"] == pytest.approx(1.0)
    assert got["a"]["send"] is True
    assert got["b"]["y"] == pytest.approx(0.5)
    assert got["b"]["send"] is False
    assert got["b"]["flagged"] is True
    assert "rounded down" in got["b"]["note"]


@pytest.mark.parametrize("seed", range(5))
def test_decide_moo_report_states_click_total_of_whole_sends(tmp_path, seed):
    # 2,000 random candidates with a binding floor: the LP's fractional
    # click_total sits on the floor. Rounding its two fractional users in
    # delta order leaves the whole sends short of it; rounding by p_click
    # within the same cap keeps it, and the report says what they reach.
    rng = np.random.default_rng(seed)
    delta, p_wait, p_click = rng.uniform(size=(3, 2000))
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(
        json.dumps({"user_id": f"u{i}", "delta": delta[i], "p_wait": p_wait[i],
                    "p_click": p_click[i]}) + "\n"
        for i in range(2000)
    ))
    out = tmp_path / "out"
    assert run("decide", "--scores", scores, "--rule", "moo",
               "--c-click", 320, "--c-send", 400, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["click_total"] == pytest.approx(320.0, abs=1e-9)
    sent = [int(r["user_id"][1:]) for r in read_jsonl(out / "decisions.jsonl") if r["send"]]
    assert report["sent_click_total"] == pytest.approx(math.fsum(p_click[sent]), abs=1e-12)
    assert report["floor_met"] is (report["sent_click_total"] >= 320.0 - 1e-9 * 320.0)
    assert report["floor_met"]
    assert report["n_send"] == len(sent) <= 400


def test_decide_empty_scores_empty_decisions(tmp_path):
    scores = tmp_path / "scores.jsonl"
    scores.write_text("")
    out = tmp_path / "out"
    assert run("decide", "--scores", scores, "--rule", "moo",
               "--c-click", 0, "--c-send", 5, "--out", out) == 0
    assert read_jsonl(out / "decisions.jsonl") == []


def test_decide_infeasible_exit_and_report(tmp_path):
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps(
        {"user_id": "a", "delta": 0.1, "p_wait": 0.5, "p_click": 0.05}
    ) + "\n")
    out = tmp_path / "out"
    assert run("decide", "--scores", scores, "--rule", "moo",
               "--c-click", 3.0, "--c-send", 1, "--out", out) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "infeasible"
    assert report["max_click_reachable"] == pytest.approx(0.05)


def test_decide_moo_missing_p_click_needs_seed(tmp_path, score_dir):
    out = tmp_path / "out"
    assert run("decide", "--scores", score_dir / "deltas.jsonl",
               "--rule", "moo", "--c-click", 0.5, "--c-send", 5, "--out", out) == 2


def test_decide_synth_p_click_deterministic(tmp_path, score_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("decide", "--scores", score_dir / "deltas.jsonl",
                   "--rule", "moo", "--c-click", 0.5, "--c-send", 5,
                   "--synth-p-click-seed", 7, "--out", out) == 0
        outs.append(read_jsonl(out / "decisions.jsonl"))
    assert outs[0] == outs[1]


def test_decide_ratio_rule_runs(tmp_path, score_dir):
    out = tmp_path / "out"
    assert run("decide", "--scores", score_dir / "deltas.jsonl",
               "--rule", "ratio", "--kappa", 0.1, "--out", out) == 0
    rows = read_jsonl(out / "decisions.jsonl")
    assert all(r["rule"] == "ratio" for r in rows)


def test_decide_policy_config_file(tmp_path, score_dir):
    cfg = tmp_path / "policy.json"
    cfg.write_text(json.dumps({
        "rule": "threshold", "kappa": 0.05, "evaluation_cadence_hours": 4.0,
    }))
    out = tmp_path / "out"
    assert run("decide", "--scores", score_dir / "deltas.jsonl",
               "--config", cfg, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rule"] == "threshold"
    assert report["evaluation_cadence_hours"] == 4.0


# -- cross-cutting ------------------------------------------------------------------

_EVAL = ("evaluate", "--aft-model", "a.json", "--events", "e.jsonl", "--schema", "s.json")
_LABEL_ERR = "unknown labeler 'x'; expected one of ['censoring_clean', 'naive']"
_P_CLICK_ERR = ("1 score rows lack p_click; supply p_click in the scores file "
                "or pass --synth-p-click-seed for placeholder draws")

# argv ({t} is a scratch directory), exit code, last stderr line without "error: "
REFUSALS = [
    (("simulate",), 2, "simulate needs --out DIR (or --print-config)"),
    (("ingest", "--out", "{t}/o"), 2, "ingest needs --events (or --print-config)"),
    (("ingest", "--events", "e.jsonl"), 2, "ingest needs --schema (or --print-config)"),
    (("ingest", "--events", "e.jsonl", "--schema", "s.json"), 2, "ingest needs --out DIR"),
    (("train",), 2, "train needs --out DIR (or --print-config)"),
    (("train", "--out", "{t}/o"), 2, "train --model aft needs --observations FILE"),
    (("train", "--model", "logistic:24", "--events", "e.jsonl", "--out", "{t}/o"), 2,
     "train --model logistic:T needs --events and --schema"),
    (("evaluate", "--out", "{t}/o"), 2, "evaluate needs --aft-model (or --print-config)"),
    (("evaluate", "--aft-model", "a.json"), 2, "evaluate needs --events (or --print-config)"),
    (("evaluate", "--aft-model", "a.json", "--events", "e.jsonl"), 2,
     "evaluate needs --schema (or --print-config)"),
    (_EVAL, 2, "evaluate needs at least one --logistic-model FILE"),
    (_EVAL + ("--out", "{t}/o"), 2, "evaluate needs at least one --logistic-model FILE"),
    (_EVAL + ("--logistic-model", "l.json"), 2, "evaluate needs --out DIR"),
    (("score", "--out", "{t}/o"), 2, "score needs --model (or --print-config)"),
    (("score", "--model", "m.json"), 2, "score needs --contexts (or --print-config)"),
    (("score", "--model", "m.json", "--contexts", "c.jsonl"), 2, "score needs --out DIR"),
    (("decide", "--out", "{t}/o"), 2, "decide needs --scores FILE (or --print-config)"),
    (("decide", "--scores", "s.jsonl"), 2, "decide needs --out DIR"),
    (("train", "--model", "cox", "--out", "{t}/o"), 2,
     "unknown model kind 'cox'; expected 'aft' or 'logistic:T'"),
    (("train", "--model", "logistic:-1", "--out", "{t}/o"), 2,
     "model horizon must be > 0, got -1.0"),
    (("decide", "--scores", "s.jsonl", "--config", "{t}/rule.json", "--out", "{t}/o"), 2,
     "unknown rule 'x'; expected threshold, ratio, or moo"),
    (_EVAL + ("--logistic-model", "l.json", "--config", "{t}/labeler.json", "--out", "{t}/o"),
     2, _LABEL_ERR),
    (("score", "--model", "m.json", "--contexts", "c.jsonl", "--horizon-T", "-1",
      "--out", "{t}/o"), 2, "horizon_T must be finite and > 0, got -1.0"),
    (("decide", "--scores", "{t}/scores.jsonl", "--out", "{t}/full"), 2,
     "refusing to overwrite ['manifest.json'] in {t}/full; pass --force to allow"),
    (("decide", "--scores", "{t}/scores.jsonl", "--rule", "moo", "--c-send", "1",
      "--out", "{t}/o"), 2, _P_CLICK_ERR),
    (("score", "--model", "m.json", "--contexts", "c.jsonl", "--horizon-T", "inf",
      "--out", "{t}/o"), 2, "horizon_T must be finite and > 0, got inf"),
]


@pytest.mark.parametrize("argv,code,message", REFUSALS)
def test_refusal_message_and_exit_code(tmp_path, capsys, argv, code, message):
    (tmp_path / "rule.json").write_text('{"rule": "x"}')
    (tmp_path / "labeler.json").write_text('{"labeler": "x"}')
    (tmp_path / "scores.jsonl").write_text('{"user_id": "u", "delta": 0.1, "p_wait": 0.5}\n')
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "manifest.json").write_text("{}")
    assert run(*(a.format(t=tmp_path) for a in argv)) == code
    assert capsys.readouterr().err.splitlines()[-1] == "error: " + message.format(t=tmp_path)


PRINT_CONFIG_KEYS = {
    "simulate": {"n_users", "n_profile_features", "true_coefficients", "true_sigma",
                 "send_process", "window_hours", "seed", "include_interaction"},
    "ingest": {"duration_floor_hours", "window_start", "window_end"},
    "train": {"model", "tol", "max_iters", "ridge", "method", "seed",
              "duration_floor_hours", "window_start", "window_end"},
    "evaluate": {"horizons", "labeler", "duration_floor_hours", "window_start", "window_end"},
    "score": {"horizon_T"},
    "decide": {"rule", "kappa", "c_click", "c_send", "evaluation_cadence_hours",
               "synth_p_click_seed"},
}


@pytest.mark.parametrize("command", sorted(PRINT_CONFIG_KEYS))
def test_print_config_touches_no_files(tmp_path, capsys, command):
    assert run(command, "--print-config", "--out", tmp_path / "o") == 0
    assert set(json.loads(capsys.readouterr().out)) == PRINT_CONFIG_KEYS[command]
    assert not (tmp_path / "o").exists()


# each command's defaults as --print-config prints them, keys sorted, compacted here
PRINTED_DEFAULTS = {
    "ingest": '{"duration_floor_hours":0.0002777777777777778,"window_end":null,'
              '"window_start":null}',
    "train": '{"duration_floor_hours":0.0002777777777777778,"max_iters":500,"method":"lbfgs",'
             '"model":"aft","ridge":1e-06,"seed":0,"tol":1e-07,"window_end":null,'
             '"window_start":null}',
    "evaluate": '{"duration_floor_hours":0.0002777777777777778,'
                '"horizons":[2.0,4.0,8.0,12.0,24.0,36.0,48.0],"labeler":"naive",'
                '"window_end":null,"window_start":null}',
    "score": '{"horizon_T":24.0}',
    "decide": '{"c_click":0.0,"c_send":0.0,"evaluation_cadence_hours":4.0,"kappa":0.0,'
              '"rule":"threshold","synth_p_click_seed":null}',
}


@pytest.mark.parametrize("command", sorted(PRINTED_DEFAULTS))
def test_print_config_prints_the_pinned_defaults(capsys, command):
    assert run(command, "--print-config") == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) == (
        PRINTED_DEFAULTS[command])


# argv of each command with valid inputs and no --out; settings are typed before any input is read
_TYPED_ARGV = {
    "ingest": ("ingest", "--events", "{sim}/events.jsonl", "--schema", "{sim}/schema.json"),
    "train": ("train", "--observations", "{ing}/observations.jsonl"),
    "evaluate": ("evaluate", "--aft-model", "{aft}/model.json",
                 "--logistic-model", "{aft}/model.json",
                 "--events", "{sim}/events.jsonl", "--schema", "{sim}/schema.json"),
    "score": ("score", "--model", "{aft}/model.json", "--contexts", "{sim}/contexts.jsonl"),
    "decide": ("decide", "--scores", "{score}/deltas.jsonl"),
}


@pytest.mark.parametrize("command,config,message", [
    ("ingest", {"window_start": True}, "window_start must be a number, got True"),
    ("ingest", {"duration_floor_hours": None}, "duration_floor_hours must be a number, got None"),
    ("train", {"max_iters": 500.9}, "max_iters must be an integer, got 500.9"),
    ("train", {"seed": True}, "seed must be an integer, got True"),
    ("train", {"tol": "1e-7"}, "tol must be a number, got '1e-7'"),
    ("train", {"method": 1}, "method must be a string, got 1"),
    ("train", {"model": ["aft"]}, "model must be a string, got ['aft']"),
    ("train", {"window_end": True}, "window_end must be a number, got True"),
    ("evaluate", {"horizons": [True, 24]}, "horizons must be a number, got True"),
    ("evaluate", {"labeler": 5}, "labeler must be a string, got 5"),
    ("score", {"horizon_T": "24"}, "horizon_T must be a number, got '24'"),
    ("decide", {"synth_p_click_seed": 3.7}, "synth_p_click_seed must be an integer, got 3.7"),
    ("decide", {"rule": 5}, "rule must be a string, got 5"),
    ("decide", {"kappa": None}, "kappa must be a number, got None"),
])
def test_config_values_are_typed_by_one_rule(
    tmp_path, capsys, sim_dir, ingest_dir, aft_dir, score_dir, command, config, message
):
    dirs = {"sim": sim_dir, "ing": ingest_dir, "aft": aft_dir, "score": score_dir}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [a.format(**dirs) for a in _TYPED_ARGV[command]]
    assert run(*argv, "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: invalid {command} config: {message}"
    assert not (tmp_path / "o").exists()


def test_null_config_values_keep_their_defaults(tmp_path, sim_dir, score_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window_start": None, "window_end": None}))
    assert run("ingest", "--events", sim_dir / "events.jsonl", "--schema", sim_dir / "schema.json",
               "--config", cfg, "--out", tmp_path / "i") == 0
    cfg.write_text(json.dumps({"synth_p_click_seed": None}))
    assert run("decide", "--scores", score_dir / "deltas.jsonl", "--config", cfg,
               "--out", tmp_path / "d") == 0


@pytest.mark.parametrize("argv,config", [
    (("score", "--model", "{aft}/model.json", "--contexts", "{sim}/contexts.jsonl"),
     {"horizon_T": "abc"}),
    (("decide", "--scores", "{score}/deltas.jsonl"), {"kappa": "x"}),
    (("decide", "--scores", "{score}/deltas.jsonl", "--rule", "moo", "--c-send", "5"),
     {"synth_p_click_seed": "s"}),
    (("train", "--observations", "{ing}/observations.jsonl"), {"tol": "x"}),
    (("evaluate", "--aft-model", "{aft}/model.json", "--logistic-model", "{aft}/model.json",
      "--events", "{sim}/events.jsonl", "--schema", "{sim}/schema.json"), {"horizons": 5}),
    (("evaluate", "--aft-model", "{aft}/model.json", "--logistic-model", "{aft}/model.json",
      "--events", "{sim}/events.jsonl", "--schema", "{sim}/schema.json"), {"horizons": ["a"]}),
    (("ingest", "--events", "{sim}/events.jsonl", "--schema", "{sim}/schema.json"),
     {"window_start": "x"}),
    (("train", "--model", "logistic:24", "--events", "{sim}/events.jsonl",
      "--schema", "{sim}/schema.json"), {"window_end": "x"}),
])
def test_wrong_typed_config_value_is_a_config_error(
    tmp_path, capsys, sim_dir, ingest_dir, aft_dir, score_dir, argv, config
):
    dirs = {"sim": sim_dir, "ing": ingest_dir, "aft": aft_dir, "score": score_dir}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [a.format(**dirs) for a in argv]
    assert run(*argv, "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: invalid ")


# Python's JSON reader takes NaN and Infinity, and a NaN passes a plain `x <= 0` check
@pytest.mark.parametrize("command,config,message", [
    ("ingest", {"duration_floor_hours": math.nan},
     "pipeline config: duration_floor_hours must be finite and > 0, got nan"),
    ("ingest", {"duration_floor_hours": math.inf},
     "pipeline config: duration_floor_hours must be finite and > 0, got inf"),
    ("ingest", {"window_start": math.nan}, "pipeline config: window_start must be a number or null, got nan"),
    ("evaluate", {"window_end": math.nan}, "pipeline config: window_end must be a number or null, got nan"),
    ("train", {"tol": math.nan}, "optimizer config: tol must be finite and > 0, got nan"),
    ("train", {"ridge": math.nan}, "optimizer config: ridge must be finite and >= 0, got nan"),
    ("train", {"ridge": math.inf}, "optimizer config: ridge must be finite and >= 0, got inf"),
    ("train", {"max_iters": 0}, "optimizer config: max_iters must be >= 1, got 0"),
])
def test_non_finite_config_number_is_a_config_error(
    tmp_path, capsys, sim_dir, ingest_dir, aft_dir, score_dir, command, config, message
):
    dirs = {"sim": sim_dir, "ing": ingest_dir, "aft": aft_dir, "score": score_dir}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [a.format(**dirs) for a in _TYPED_ARGV[command]]
    assert run(*argv, "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: invalid {message}"
    assert not (tmp_path / "o").exists()


def test_unreadable_inputs_and_outputs_get_exit_codes(tmp_path, capsys, sim_dir):
    events, schema = sim_dir / "events.jsonl", sim_dir / "schema.json"
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text("{bad")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cases = [
        (("ingest", "--events", tmp_path / "no.jsonl", "--schema", schema), 3,
         f"input file not found: {tmp_path / 'no.jsonl'}"),
        (("ingest", "--events", events, "--schema", tmp_path / "no.json"), 3,
         f"input file not found: {tmp_path / 'no.json'}"),
        (("train", "--observations", tmp_path / "no.jsonl"), 3,
         f"input file not found: {tmp_path / 'no.jsonl'}"),
        (("ingest", "--events", events, "--schema", bad_schema), 3,
         f"{bad_schema}: invalid JSON:"),
        (("ingest", "--events", sim_dir, "--schema", schema), 3,
         f"cannot read input file {sim_dir}:"),
    ]
    for k, (argv, code, message) in enumerate(cases):
        assert run(*argv, "--out", tmp_path / f"o{k}") == code, argv
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {message}")
    for out in (a_file, a_file / "sub"):
        assert run("ingest", "--events", events, "--schema", schema, "--out", out) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: --out {out} is not a directory"


@pytest.mark.parametrize("which", ["events", "events_csv", "schema", "observations", "model"])
def test_non_utf8_input_is_a_data_error(tmp_path, capsys, sim_dir, ingest_dir, which):
    bad = tmp_path / ("bad.csv" if which == "events_csv" else "bad.json")
    if which.startswith("events"):
        bad.write_bytes(np.random.default_rng(5).bytes(200) + b"\xff")
    else:
        bad.write_bytes(b"\xff\xfe{}")
    events, schema = sim_dir / "events.jsonl", sim_dir / "schema.json"
    argv = {
        "events": ("ingest", "--events", bad, "--schema", schema),
        "events_csv": ("ingest", "--events", bad, "--schema", schema),
        "schema": ("ingest", "--events", events, "--schema", bad),
        "observations": ("train", "--observations", bad),
        "model": ("score", "--model", bad, "--contexts", sim_dir / "contexts.jsonl"),
    }[which]
    assert run(*argv, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: cannot read ") and f"{bad}: not UTF-8 (" in err


CONFIG_FILE_ERRORS = {
    "directory": "cannot read config file {cfg}: ",
    "not_utf8": "cannot read config file {cfg}: ",
    "missing": "config file not found: {cfg}",
    "invalid_json": "{cfg}: invalid JSON: ",
}


@pytest.mark.parametrize("kind", CONFIG_FILE_ERRORS)
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, sim_dir, kind):
    cfg = tmp_path / "cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not_utf8":
        cfg.write_bytes(b'\xff\xfe{"seed": 1}')
    elif kind == "invalid_json":
        cfg.write_text('{"seed": 1,}')
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: " + CONFIG_FILE_ERRORS[kind].format(cfg=cfg)
    )


@pytest.mark.parametrize("row,message", [
    ({"user_id": "b", "delta": 0.1, "p_wait": 1.5}, "p_wait must be in [0, 1], got 1.5"),
    ({"user_id": "", "delta": 0.1, "p_wait": 0.5}, "candidate needs a user_id"),
    ({"user_id": "b", "delta": 10**400, "p_wait": 0.5},
     "malformed score row: int too large to convert to float"),
    ({"user_id": "b", "delta": True, "p_wait": 0.5},
     "malformed score row: delta must be a number, got True"),
    ({"user_id": "b", "delta": 0.1, "p_wait": "0.5"},
     "malformed score row: p_wait must be a number, got '0.5'"),
    ({"user_id": "b", "delta": 0.1, "p_wait": 0.5, "p_click": False},
     "malformed score row: p_click must be a number, got False"),
    ({"user_id": None, "delta": 0.2, "p_wait": 0.5},
     "malformed score row: user_id must be a string, got None"),
    ({"user_id": 5, "delta": 0.2, "p_wait": 0.5},
     "malformed score row: user_id must be a string, got 5"),
])
def test_decide_bad_candidate_names_its_line(tmp_path, capsys, row, message):
    scores = tmp_path / "s.jsonl"
    good = {"user_id": "a", "delta": 0.2, "p_wait": 0.5}
    scores.write_text(json.dumps(good) + "\n\n" + json.dumps(row) + "\n")
    assert run("decide", "--scores", scores, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {scores}:3: {message}"
    assert not (tmp_path / "o").exists()


CONTEXT = {"user_id": "a", "features": {"profile_0": 0.1, "profile_1": -0.2},
           "badge_count": 1, "w0_hours": 2.0}


@pytest.mark.parametrize("key,value,message", [
    ("badge_count", 2.7, "malformed context: badge_count must be an integer, got 2.7"),
    ("badge_count", True, "malformed context: badge_count must be an integer, got True"),
    ("badge_count", math.inf, "malformed context: badge_count must be an integer, got inf"),
    ("badge_count", "2", "malformed context: badge_count must be an integer, got '2'"),
    ("w0_hours", -1, "w0_hours must be >= 0, got -1.0"),
    ("w0_hours", True, "malformed context: w0_hours must be a number, got True"),
    ("features", {"profile_0": True, "profile_1": 0.0},
     "malformed context: profile_0 must be a number, got True"),
    ("features", {"profile_0": 1e400, "profile_1": 0.0}, "non-finite value in slot 'profile_0'"),
    ("features", {"profile_1": 0.0}, "missing base feature 'profile_0'"),
    ("features", [["profile_0", 0.1], ["profile_1", 0.2]],
     "malformed context: features must be a JSON object, got [['profile_0', 0.1], "
     "['profile_1', 0.2]]"),
    ("user_id", None, "malformed context: user_id must be a string, got None"),
    ("user_id", 5, "malformed context: user_id must be a string, got 5"),
], ids=["float-badge", "bool-badge", "infinite-badge", "string-badge", "negative-w0",
        "bool-w0", "bool-feature", "infinite-feature", "missing-feature", "list-features",
        "null-id", "numeric-id"])
def test_score_bad_context_names_its_line(tmp_path, capsys, aft_dir, key, value, message):
    contexts = tmp_path / "c.jsonl"
    contexts.write_text(json.dumps(CONTEXT) + "\n\n" + json.dumps({**CONTEXT, key: value}) + "\n")
    out = tmp_path / "o"
    assert run("score", "--model", aft_dir / "model.json", "--contexts", contexts,
               "--out", out) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {contexts}:3: {message}"]
    assert not out.exists()


def test_score_badge_past_the_float_range_names_its_line(tmp_path, capsys, aft_dir):
    contexts = tmp_path / "c.jsonl"
    contexts.write_text(json.dumps(CONTEXT) + "\n" + json.dumps({**CONTEXT, "badge_count": 10**400})
                        + "\n")
    out = tmp_path / "o"
    assert run("score", "--model", aft_dir / "model.json", "--contexts", contexts,
               "--out", out) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {contexts}:2: malformed context: int too large to convert to float"]
    assert not out.exists()


def _failing_run(case, tmp_path, sim_dir, aft_dir):
    """argv of a command that reads valid inputs and then fails, and its message."""
    if case == "decide-moo-duplicate-user":
        scores = tmp_path / "s.jsonl"
        row = json.dumps({"user_id": "a", "delta": 0.2, "p_wait": 0.5, "p_click": 0.5})
        scores.write_text(row + "\n" + row + "\n")
        return (["decide", "--scores", scores, "--rule", "moo", "--c-send", 1],
                "duplicate user_id among candidates")
    if case == "evaluate-horizon-without-model":
        assert run("train", "--model", "logistic:24", "--events", sim_dir / "events.jsonl",
                   "--schema", sim_dir / "schema.json", "--out", tmp_path / "l24") == 0
        return (["evaluate", "--aft-model", aft_dir / "model.json",
                 "--logistic-model", tmp_path / "l24" / "model.json",
                 "--events", sim_dir / "events.jsonl", "--schema", sim_dir / "schema.json",
                 "--horizons", 4, 24], "no logistic model provided for horizon T=4.0h")
    events = tmp_path / "events.csv"
    events.write_text("user_id,ts_hours,kind,badge_count,profile_0,profile_1\n"
                      "u,0.0,send,1,0.5,\nu,1.0,visit,,,\n")
    return (["ingest", "--events", events, "--schema", sim_dir / "schema.json"],
            f"{events}:2: missing base feature 'profile_1'")


@pytest.mark.parametrize("case", ["decide-moo-duplicate-user", "evaluate-horizon-without-model",
                                  "ingest-send-without-feature"])
def test_failed_command_leaves_no_out_dir(tmp_path, capsys, sim_dir, aft_dir, case):
    argv, message = _failing_run(case, tmp_path, sim_dir, aft_dir)
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


def test_no_overwrite_without_force(tmp_path, sim_dir):
    out = tmp_path / "out"
    args = ("ingest", "--events", sim_dir / "events.jsonl",
            "--schema", sim_dir / "schema.json", "--out", out)
    assert run(*args) == 0
    assert run(*args) == 2
    assert run(*args, "--force") == 0


def test_manifest_in_every_out_dir(sim_dir, ingest_dir, aft_dir, score_dir):
    for d in (sim_dir, ingest_dir, aft_dir, score_dir):
        manifest = json.loads((d / "manifest.json").read_text())
        for key in ("command", "config", "config_digest", "input_digests",
                    "tool_version", "created_utc"):
            assert key in manifest, (d, key)


def test_manifest_input_digests_match_files(ingest_dir, sim_dir):
    manifest = json.loads((ingest_dir / "manifest.json").read_text())
    assert manifest["input_digests"]["events"] == file_sha256(sim_dir / "events.jsonl")
    assert manifest["input_digests"]["schema"] == file_sha256(sim_dir / "schema.json")


def test_removed_flags_are_unknown_arguments(tmp_path, capsys):
    for argv in (("train", "--threads", 1), ("decide", "--horizon-T", 24)):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_console_entry_point_runs():
    # the child finds src through PYTHONPATH, as in a checkout that is not installed
    src = str(Path(sendwhen.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sendwhen.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "sendwhen" in proc.stdout
