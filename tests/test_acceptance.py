"""End-to-end acceptance gate: ten numbered checks, one line each.

Each test prints a single PASS line with the measured quantities when it
succeeds; a failure reads as the usual assertion with the measured value.
Run with `pytest tests/test_acceptance.py -v` for the checklist view.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from sendwhen.cli import main
from sendwhen.evaluation import auc_vs_horizon, fit_logistic_baselines
from sendwhen.io import file_sha256
from sendwhen.pipeline import PipelineConfig, build_observations
from sendwhen.policies import Candidate, MooConfig, moo_solve
from sendwhen.simulate import (
    SendProcess,
    SimConfig,
    _extreme_value,
    default_sim_schema,
    generate_event_log,
)
from sendwhen.survival import WeibullParams, send_vs_wait
from sendwhen.training import (
    DesignMatrix,
    aft_negloglik_and_gradient,
    fit_aft,
    logistic_negloglik_and_gradient,
)

from oracle_lp import lp_oracle
from oracle_survival import prob_visit_if_not_send, prob_visit_if_send, weibull_cdf

PIPE_CFG = PipelineConfig()

# ground truth for the recovery corpus: intercept, four profile slots,
# badge count, and one badge*profile interaction (seven coefficients)
RECOVERY_TRUTH = (2.6, 0.4, -0.3, 0.2, -0.25, -0.15, 0.05)
RECOVERY_SIGMA = 1.5
RECOVERY_CONFIG = SimConfig(
    n_users=5000,
    n_profile_features=4,
    true_coefficients=RECOVERY_TRUTH,
    true_sigma=RECOVERY_SIGMA,
    send_process=SendProcess("fixed", interval_hours=8.0, phase_hours=8.0),
    window_hours=168.0,
    seed=7,
)


@pytest.fixture(scope="module")
def recovery_sim():
    return generate_event_log(RECOVERY_CONFIG)


def test_criterion_01_parameter_recovery(recovery_sim):
    schema = default_sim_schema(RECOVERY_CONFIG)
    observations = build_observations(recovery_sim.events, schema, PIPE_CFG)
    assert len(observations) == 100_000

    start = time.monotonic()
    model = fit_aft(observations, schema=schema)
    elapsed = time.monotonic() - start

    b_err = float(np.max(np.abs(model.coefficients - np.asarray(RECOVERY_TRUTH))))
    s_err = abs(model.sigma - RECOVERY_SIGMA) / RECOVERY_SIGMA
    assert b_err < 0.02, f"max coefficient error {b_err:.5f}"
    assert s_err < 0.02, f"relative sigma error {s_err:.5f}"
    assert elapsed < 60.0, f"fit took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 1: recovery on 100000 obs "
        f"(max|b_hat-b*|={b_err:.4f} < 0.02, sigma rel err={s_err:.4f} < 0.02, "
        f"fit {elapsed:.1f}s < 60s)"
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(20260819)
    n, k = 50, 4
    X = rng.normal(size=(n, k))
    X[:, 0] = 1.0
    t = np.exp(rng.normal(loc=1.0, scale=0.8, size=n))
    delta = rng.uniform(size=n) < 0.6
    obs = DesignMatrix.from_columns(X, t, delta)
    y = (rng.uniform(size=n) < 0.5).astype(float)

    worst = 0.0
    for _ in range(20):
        theta = rng.normal(scale=0.5, size=k + 1)

        def aft_f(v):
            return aft_negloglik_and_gradient(v[:k], float(v[k]), obs)[0]

        _, g = aft_negloglik_and_gradient(theta[:k], float(theta[k]), obs)
        for j in range(k + 1):
            h = 1e-6 * max(1.0, abs(theta[j]))
            e = np.zeros(k + 1)
            e[j] = h
            fd = (aft_f(theta + e) - aft_f(theta - e)) / (2.0 * h)
            rel = abs(fd - g[j]) / max(1.0, abs(g[j]))
            worst = max(worst, rel)

        w = rng.normal(scale=0.5, size=k)
        _, gl = logistic_negloglik_and_gradient(w, X, y)
        for j in range(k):
            h = 1e-6 * max(1.0, abs(w[j]))
            e = np.zeros(k)
            e[j] = h
            fd = (
                logistic_negloglik_and_gradient(w + e, X, y)[0]
                - logistic_negloglik_and_gradient(w - e, X, y)[0]
            ) / (2.0 * h)
            rel = abs(fd - gl[j]) / max(1.0, abs(gl[j]))
            worst = max(worst, rel)
        assert worst < 1e-6, f"finite-difference mismatch {worst:.2e}"
    print(
        f"\nPASS criterion 2: analytic gradients match central differences "
        f"(worst rel err {worst:.2e} < 1e-6, 20 points, 50-obs datasets)"
    )


def test_criterion_03_idle_time_monotonicity_suite():
    rng = np.random.default_rng(31003)
    w0_grid = np.linspace(0.0, 72.0, 10)
    for trial in range(1000):
        pre = WeibullParams(
            math.exp(rng.uniform(-4.0, 0.0)), rng.uniform(0.05, 0.95)
        )
        post = WeibullParams(
            math.exp(rng.uniform(-4.0, 0.0)), rng.uniform(0.1, 3.0)
        )
        t = rng.uniform(0.1, 48.0)
        deltas = [send_vs_wait(t, w0, pre.rate, pre.shape, post.rate, post.shape)[0]
                  for w0 in w0_grid]
        diffs = np.diff(deltas)
        assert np.all(diffs > 0.0), (trial, pre, post, t)

        # shape exactly one: the wait probability forgets the idle time
        base = send_vs_wait(t, 0.0, pre.rate, 1.0, post.rate, post.shape)[2]
        for w0 in w0_grid[1:]:
            assert abs(send_vs_wait(t, w0, pre.rate, 1.0, post.rate, post.shape)[2] - base) < 1e-12
    print(
        "\nPASS criterion 3: delta strictly increases over 10-point idle-time "
        "grids for 1000 random parameter tuples; shape=1 wait probability "
        "idle-time-invariant within 1e-12"
    )


def test_criterion_04_delta_closed_form_equals_direct_difference():
    rng = np.random.default_rng(41004)
    worst = 0.0
    for _ in range(10_000):
        shape = rng.uniform(0.1, 2.5)
        pre = WeibullParams(math.exp(rng.uniform(-4.0, 1.0)), shape)
        post = WeibullParams(math.exp(rng.uniform(-4.0, 1.0)), shape)
        w0 = rng.uniform(0.0, 72.0)
        t = rng.uniform(0.01, 72.0)
        direct = prob_visit_if_send(t, post) - prob_visit_if_not_send(t, pre, w0)
        closed = send_vs_wait(t, w0, pre.rate, shape, post.rate, shape)[0]
        worst = max(worst, abs(direct - closed))
        assert worst < 1e-12, (pre, post, w0, t)
    print(
        f"\nPASS criterion 4: delta closed form equals direct probability "
        f"difference (worst abs diff {worst:.2e} < 1e-12, 10000 inputs)"
    )


def test_criterion_05_auc_gap_shape():
    horizons = (4.0, 8.0, 12.0, 24.0, 36.0, 48.0)
    b0 = math.log(24.0) - 1.5 * math.log(math.log(2.0)) + 0.9
    truth = (b0, 1.2, -1.0, -0.6, -1.2)

    def corpus(seed, n_users, window):
        return SimConfig(
            n_users=n_users,
            n_profile_features=2,
            true_coefficients=truth,
            true_sigma=1.5,
            send_process=SendProcess("poisson", rate_per_hour=1.0 / 12.0),
            window_hours=window,
            seed=seed,
        )

    start = time.monotonic()
    test_cfg = corpus(999, 2000, 360.0)
    schema = default_sim_schema(test_cfg)
    test_sim = generate_event_log(test_cfg)

    # corpus descriptors: mean send gap ~=12h, median time-to-visit ~=24h
    sends_by_user: dict = {}
    for ev in test_sim.events:
        if ev.kind == "send":
            sends_by_user.setdefault(ev.user_id, []).append(ev.ts_hours)
    gaps = np.concatenate([np.diff(ts) for ts in sends_by_user.values() if len(ts) > 1])
    mean_gap = float(np.mean(gaps))
    assert 11.0 < mean_gap < 13.0, f"mean send interval {mean_gap:.2f}h"

    obs = build_observations(test_sim.events, schema, PIPE_CFG)
    t_arr, d_arr = obs.t_hours, obs.uncensored
    order = np.argsort(t_arr, kind="stable")
    survival, km_median = 1.0, math.inf
    at_risk = len(t_arr)
    for ti, di in zip(t_arr[order], d_arr[order]):
        if di:
            survival *= 1.0 - 1.0 / at_risk
            if survival <= 0.5:
                km_median = float(ti)
                break
        at_risk -= 1
    assert 20.0 < km_median < 28.0, f"median time-to-visit {km_median:.2f}h"

    gap_rows = []
    for seed in (21, 31, 41):
        train_sim = generate_event_log(corpus(seed, 200, 120.0))
        aft = fit_aft(build_observations(train_sim.events, schema, PIPE_CFG), schema=schema)
        logistic = fit_logistic_baselines(train_sim.events, schema, horizons=horizons)
        report = auc_vs_horizon(
            aft, logistic, test_sim.events, schema,
            horizons=horizons, labeler="censoring_clean",
        )
        gap_rows.append([r.auc_aft - r.auc_logistic for r in report.rows])
    elapsed = time.monotonic() - start

    gaps_flat = [g for row in gap_rows for g in row]
    inversions = sum(1 for g in gaps_flat if g <= 0.0)
    assert inversions <= 1, f"{inversions} horizon cells with AFT <= logistic"
    mean_gap_4 = float(np.mean([row[0] for row in gap_rows]))
    mean_gap_48 = float(np.mean([row[-1] for row in gap_rows]))
    assert mean_gap_48 > mean_gap_4, (mean_gap_4, mean_gap_48)
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    print(
        f"\nPASS criterion 5: survival model beats logistic at "
        f"{{4,8,12,24,36,48}}h ({inversions} inversions over 3 seeds x 6 "
        f"horizons; mean gap {mean_gap_4:+.4f} at 4h -> {mean_gap_48:+.4f} at "
        f"48h; send gap {mean_gap:.1f}h, median TTV {km_median:.1f}h; "
        f"{elapsed:.0f}s < 300s)"
    )


def test_criterion_06_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(20260819)
    n_checked = n_infeasible = 0
    worst_obj = 0.0
    for trial in range(500):
        n = int(rng.integers(1, 9))
        d = rng.uniform(-1.0, 1.0, size=n)
        p = rng.uniform(0.0, 1.0, size=n)
        if rng.uniform() < 0.15:
            p[rng.integers(0, n)] = 0.0
        c_send = float(rng.uniform(0.0, n + 1.0))
        if rng.uniform() < 0.5:
            c_send = float(rng.integers(0, n + 2))
        cap = min(c_send, float(n))
        top = np.sort(p)[::-1]
        frac = cap - math.floor(cap)
        reachable = float(np.sum(top[: int(cap)]) + frac * (top[int(cap)] if int(cap) < n else 0.0))
        c_click = float(rng.uniform(0.0, max(reachable, 0.05) * 1.3))

        status, y_star, obj_star = lp_oracle(d, p, c_click, c_send)
        cands = [
            Candidate(f"u{i:02d}", float(d[i]), 0.5, float(p[i])) for i in range(n)
        ]
        result = moo_solve(cands, MooConfig(c_click=c_click, c_send=c_send))
        if status == "infeasible":
            assert result.status == "infeasible", trial
            n_infeasible += 1
            continue
        assert result.status == "ok", trial
        y = result.y
        obj = float(d @ y)
        worst_obj = max(worst_obj, abs(obj - obj_star))
        assert abs(obj - obj_star) < 1e-9, (trial, obj, obj_star)
        assert float(p @ y) >= c_click - 1e-9, trial
        assert float(np.sum(y)) <= c_send + 1e-9, trial
        n_fractional = int(np.sum((y > 1e-12) & (y < 1.0 - 1e-12)))
        assert n_fractional <= 2, trial
        n_checked += 1
    assert n_checked + n_infeasible == 500
    assert n_checked >= 300

    worked = moo_solve(
        [
            Candidate("u1", 0.3, 0.5, 0.1),
            Candidate("u2", 0.2, 0.5, 0.3),
            Candidate("u3", 0.1, 0.5, 0.2),
        ],
        MooConfig(c_click=0.5, c_send=2.0),
    )
    y = worked.y.tolist()
    assert y == pytest.approx([0.0, 1.0, 1.0], abs=1e-9)
    assert worked.objective == pytest.approx(0.3, abs=1e-9)
    print(
        f"\nPASS criterion 6: LP equals vertex-enumeration oracle on "
        f"{n_checked} feasible + {n_infeasible} infeasible instances "
        f"(worst objective diff {worst_obj:.1e} < 1e-9); worked instance "
        f"y=(0,1,1), objective 0.3"
    )


def test_criterion_07_pipeline_determinism(tmp_path):
    old = os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = "1755561600"
    try:
        digests = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            sim = run_dir / "sim"
            ing = run_dir / "ing"
            aft = run_dir / "aft"
            log = run_dir / "log"
            ev = run_dir / "eval"
            assert main(["simulate", "--n-users", "60", "--seed", "13",
                         "--out", str(sim)]) == 0
            assert main(["ingest", "--events", str(sim / "events.jsonl"),
                         "--schema", str(sim / "schema.json"), "--out", str(ing)]) == 0
            assert main(["train", "--model", "aft",
                         "--observations", str(ing / "observations.jsonl"),
                         "--schema", str(ing / "schema.json"), "--out", str(aft)]) == 0
            assert main(["train", "--model", "logistic:24",
                         "--events", str(sim / "events.jsonl"),
                         "--schema", str(sim / "schema.json"), "--out", str(log)]) == 0
            assert main(["evaluate", "--aft-model", str(aft / "model.json"),
                         "--logistic-model", str(log / "model.json"),
                         "--events", str(sim / "events.jsonl"),
                         "--schema", str(sim / "schema.json"),
                         "--horizons", "24", "--out", str(ev)]) == 0
            tree = {}
            for path in sorted(run_dir.rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(run_dir))] = file_sha256(path)
            digests.append(tree)
    finally:
        if old is None:
            os.environ.pop("SOURCE_DATE_EPOCH", None)
        else:
            os.environ["SOURCE_DATE_EPOCH"] = old
    assert digests[0].keys() == digests[1].keys()
    diff = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    assert not diff, f"files differ between runs: {diff}"
    print(
        f"\nPASS criterion 7: simulate->ingest->train->evaluate byte-identical "
        f"across two runs ({len(digests[0])} files compared)"
    )


def test_criterion_08_censoring_rate_closed_form(recovery_sim):
    stats = recovery_sim.truth["stats"]
    n_intervals = stats["n_resolved"]
    assert n_intervals >= 100_000
    empirical = stats["censored_fraction"]
    analytic = stats["expected_censored_fraction"]
    rel = abs(empirical - analytic) / analytic
    assert rel < 0.02, f"empirical {empirical:.5f} vs analytic {analytic:.5f}"
    print(
        f"\nPASS criterion 8: fixed-interval censoring rate {empirical:.5f} "
        f"matches closed-form survival {analytic:.5f} within "
        f"{rel * 100:.2f}% (< 2%) on {n_intervals} draws"
    )


def test_criterion_09_sampler_distribution_ks():
    rng = np.random.default_rng(91009)
    x = np.array([1.0, 0.4, -0.7, 2.0, 0.8])
    b = np.array([2.2, 0.5, -0.3, -0.2, 0.1])
    sigma = 1.5
    n = 1_000_000
    mu = float(x @ b)
    draws = np.sort(np.exp(mu + sigma * _extreme_value(rng.uniform(size=n))))  # as the simulator
    rate = math.exp(-mu / sigma)
    shape = 1.0 / sigma
    # same law written out independently of the scalar cdf helper
    cdf = -np.expm1(-rate * draws**shape)
    assert abs(cdf[0] - weibull_cdf(float(draws[0]), WeibullParams(rate, shape))) < 1e-15
    i = np.arange(1, n + 1)
    ks = float(np.max(np.maximum(i / n - cdf, cdf - (i - 1) / n)))
    assert ks < 0.002, f"KS statistic {ks:.5f}"
    print(
        f"\nPASS criterion 9: sampler KS statistic {ks:.5f} < 0.002 "
        f"against the closed-form law on 1e6 draws"
    )


def test_criterion_10_time_rescaling_equivariance():
    cfg = SimConfig(
        n_users=400,
        n_profile_features=2,
        true_coefficients=(3.0, 0.4, -0.3, -0.2, 0.05),
        true_sigma=1.5,
        send_process=SendProcess("fixed", interval_hours=10.0, phase_hours=10.0),
        window_hours=168.0,
        seed=17,
    )
    schema = default_sim_schema(cfg)
    sim = generate_event_log(cfg)
    obs = build_observations(sim.events, schema, PIPE_CFG)
    c = 24.0
    scaled = dataclasses.replace(obs, t_hours=obs.t_hours * c)
    base = fit_aft(obs, schema=schema)
    rescaled = fit_aft(scaled, schema=schema)

    i = schema.names.index("intercept")
    d_intercept = rescaled.coefficients[i] - base.coefficients[i]
    assert abs(d_intercept - math.log(c)) < 1e-3, d_intercept
    assert abs(rescaled.sigma - base.sigma) < 1e-3
    others = [abs(r - b) for j, (r, b) in enumerate(zip(rescaled.coefficients, base.coefficients))
              if j != i]
    assert max(others) < 1e-3, others
    print(
        f"\nPASS criterion 10: scaling durations by 24 moves the intercept by "
        f"log(24) within {abs(d_intercept - math.log(c)):.1e} and leaves sigma "
        f"and slopes within {max(max(others), abs(rescaled.sigma - base.sigma)):.1e} (< 1e-3)"
    )
