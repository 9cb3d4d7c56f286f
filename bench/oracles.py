"""Correctness references for the benchmark, independent of the code under test.

Nothing here imports ``sendwhen``.  Each check reads the files a command
wrote and compares them with a value computed from the generated inputs:
ground truth from the simulator's ``truth.json``, event counts taken from
the event file itself, the Weibull closed form in plain numpy, and scipy's
HiGHS solver for the send/click linear program.  Each check returns a list
of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def count_events(path: Path) -> tuple[int, int]:
    """(sends, visits) in a JSONL or CSV event log."""
    counts = {"send": 0, "visit": 0}
    with open(path, encoding="utf-8", newline="") as f:
        rows = csv.DictReader(f) if path.suffix == ".csv" else map(json.loads, f)
        for row in rows:
            counts[row["kind"]] += 1
    return counts["send"], counts["visit"]


def jsonl_to_csv(src: Path, dst: Path) -> None:
    """Rewrite a JSONL event log as CSV with one column per feature.

    Floats are written with ``repr``, which round-trips exactly, so both
    files describe the same events bit for bit.
    """
    records = read_jsonl(src)
    names = sorted({k for rec in records for k in rec.get("features") or {}})
    with open(dst, "w", encoding="utf-8", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["user_id", "ts_hours", "kind", "badge_count", *names])
        for rec in records:
            feats = rec.get("features") or {}
            badge = rec.get("badge_count")
            out.writerow(
                [rec["user_id"], repr(float(rec["ts_hours"])), rec["kind"],
                 "" if badge is None else int(badge)]
                + [repr(float(feats[n])) if n in feats else "" for n in names]
            )


# -- ingest -------------------------------------------------------------------


def check_ingest(out_dir: Path, sends: int, visits: int) -> list[str]:
    """The ingest report agrees with counts taken from the files themselves."""
    rep = read_json(out_dir / "report.json")
    obs = read_jsonl(out_dir / "observations.jsonl")
    n_cens = sum(1 for o in obs if o["censored"])
    want = {
        "n_events": sends + visits,
        "n_sends": sends,
        "n_observations": len(obs),
        "n_dropped_sends": sends - len(obs),
        "n_censored": n_cens,
        "n_uncensored": len(obs) - n_cens,
    }
    errors = [f"ingest report {k}={rep.get(k)} but counted {v}"
              for k, v in want.items() if rep.get(k) != v]
    if any(not (o["t_hours"] > 0 and math.isfinite(o["t_hours"])) for o in obs):
        errors.append("ingest wrote a non-positive or non-finite duration")
    return errors


# -- the survival model ----------------------------------------------------------

# Largest accepted |fitted - true| per coefficient, and on sigma as a share
# of the true sigma.  On seeds 1-12 with one-week logs of 1k to 8k users
# the widest gaps were -0.14 on the intercept, 0.065 on any other
# coefficient and -2.6% on sigma.  The intercept sits about 0.07 low
# because Poisson send schedules leave trailing sends without a successor,
# and ingest drops those.
COEF_TOL = 0.25
SIGMA_REL_TOL = 0.05


def check_aft_vs_truth(model_path: Path, truth_path: Path) -> list[str]:
    model = read_json(model_path)
    truth = read_json(truth_path)
    errors = []
    if model.get("kind") != "weibull_aft":
        return [f"{model_path.name} is not a survival model"]
    fitted = dict(zip(model["feature_names"], model["coefficients"]))
    for name, true in truth["true_coefficients"].items():
        got = fitted.get(name)
        if got is None or not abs(got - true) <= COEF_TOL:
            errors.append(f"coefficient {name}: fitted {got}, true {true}")
    sigma = math.exp(model["log_sigma"])
    if not abs(sigma / truth["true_sigma"] - 1.0) <= SIGMA_REL_TOL:
        errors.append(f"sigma: fitted {sigma}, true {truth['true_sigma']}")
    if not model.get("diagnostics", {}).get("converged"):
        errors.append("the survival fit did not report convergence")
    return errors


def _materialize(slots: list[dict], features: dict, badge: float, w0: float) -> np.ndarray:
    """Dense vector for one state, following the slot kinds of schema.json."""
    index = {s["name"]: i for i, s in enumerate(slots)}
    x = np.zeros(len(slots))
    for i, s in enumerate(slots):
        kind = s["kind"]
        if kind == "intercept":
            x[i] = 1.0
        elif kind == "badge":
            x[i] = badge
        elif kind == "w0":
            x[i] = w0
        elif kind == "base":
            x[i] = float(features[s["name"]])
    for i, s in enumerate(slots):
        if s["kind"] == "interaction":
            a, b = (index[p] for p in s["parents"])
            x[i] = x[a] * x[b]
    return x


def reference_scores(model_path: Path, contexts_path: Path, horizon: float) -> dict:
    """Send-now versus wait probabilities from the Weibull closed form.

    With mu = b.x, sigma = exp(log_sigma), rate = exp(-mu/sigma) and shape
    alpha = 1/sigma: p_send = 1 - exp(-rate1 T^alpha) on the post-send
    state (badge + 1, idle time 0) and p_wait = 1 - exp(-rate0 ((T + w0)^alpha
    - w0^alpha)) on the current state.
    """
    model = read_json(model_path)
    slots = model["schema"]["slots"]
    b = np.asarray(model["coefficients"], dtype=float)
    sigma = math.exp(model["log_sigma"])
    alpha = 1.0 / sigma
    ctx = read_jsonl(contexts_path)
    w0 = np.array([c["w0_hours"] for c in ctx], dtype=float)
    x0 = np.stack([_materialize(slots, c["features"], c["badge_count"], c["w0_hours"])
                   for c in ctx])
    x1 = np.stack([_materialize(slots, c["features"], c["badge_count"] + 1, 0.0)
                   for c in ctx])
    lam0 = np.exp(-(x0 @ b) / sigma)
    lam1 = np.exp(-(x1 @ b) / sigma)
    p_send = -np.expm1(-lam1 * horizon**alpha)
    p_wait = -np.expm1(-lam0 * ((horizon + w0) ** alpha - w0**alpha))
    return {
        "user_id": [c["user_id"] for c in ctx],
        "p_send": p_send,
        "p_wait": p_wait,
        "delta": p_send - p_wait,
    }


def check_scores(deltas_path: Path, ref: dict, rtol: float = 1e-9) -> list[str]:
    rows = read_jsonl(deltas_path)
    if [r["user_id"] for r in rows] != ref["user_id"]:
        return ["score rows do not follow the contexts' user order"]
    errors = []
    for key in ("delta", "p_send", "p_wait"):
        got = np.array([r[key] for r in rows], dtype=float)
        bad = ~np.isclose(got, ref[key], rtol=rtol, atol=1e-12)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            errors.append(f"{int(bad.sum())} {key} values differ from the closed "
                          f"form; first {ref['user_id'][i]}: {got[i]} vs {ref[key][i]}")
    return errors


# -- the send/click linear program ------------------------------------------------


def synth_p_click(n: int, seed: int) -> np.ndarray:
    """Placeholder click rates as ``decide --synth-p-click-seed`` documents
    them: uniform draws keyed by the seed, in score-row order."""
    return np.random.default_rng([int(seed)]).uniform(0.0, 1.0, size=n)


def highs_objective(delta: np.ndarray, p: np.ndarray, c_send: float, c_click: float) -> float:
    """max delta.y  s.t.  sum(y) <= c_send,  p.y >= c_click,  0 <= y <= 1."""
    res = linprog(
        -delta,
        A_ub=np.vstack([np.ones_like(p), -p]),
        b_ub=[c_send, -c_click],
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def check_decide(out_dir: Path, delta: np.ndarray, p: np.ndarray,
                 c_send: float, c_click: float, ref_objective: float,
                 rel_tol: float = 1e-6) -> list[str]:
    """LP decisions: objective matches HiGHS, fractional totals meet the cap
    and the floor, and whole sends stay under the cap."""
    rep = read_json(out_dir / "report.json")
    rows = read_jsonl(out_dir / "decisions.jsonl")
    if rep.get("status") != "ok" or len(rows) != len(delta):
        return [f"decide status {rep.get('status')} with {len(rows)} rows"]
    y = np.array([r["y"] for r in rows], dtype=float)
    errors = []
    objective = float(delta @ y)
    scale = max(1.0, abs(ref_objective))
    for name, value in (("report objective", rep["objective"]), ("decisions' objective", objective)):
        if not abs(value - ref_objective) <= rel_tol * scale:
            errors.append(f"{name} {value} differs from HiGHS {ref_objective}")
    if not y.sum() <= c_send + 1e-6:
        errors.append(f"send total {y.sum()} exceeds the cap {c_send}")
    if not p @ y >= c_click - 1e-6 * max(1.0, c_click):
        errors.append(f"click total {p @ y} misses the floor {c_click}")
    n_send = sum(1 for r in rows if r["send"])
    if n_send > c_send or n_send != rep.get("n_send"):
        errors.append(f"{n_send} whole sends against cap {c_send} (report {rep.get('n_send')})")
    return errors


# -- evaluation --------------------------------------------------------------------


def check_auc_report(out_dir: Path, sends: int, horizons: list[float]) -> list[str]:
    rows = read_json(out_dir / "auc_report.json")["rows"]
    errors = []
    if sorted(r["t_hours"] for r in rows) != sorted(horizons):
        errors.append(f"AUC rows at {[r['t_hours'] for r in rows]}, expected {horizons}")
    for r in rows:
        if r["n"] != sends:
            errors.append(f"T={r['t_hours']}: n={r['n']} but the log holds {sends} sends")
        for key in ("auc_aft", "auc_logistic"):
            v = r[key]
            if v is None or not 0.0 <= v <= 1.0:
                errors.append(f"T={r['t_hours']}: {key}={v} is not in [0, 1]")
    return errors


def check_same_weights(a: Path, b: Path) -> list[str]:
    wa, wb = read_json(a)["weights"], read_json(b)["weights"]
    return [] if wa == wb else [f"logistic weights differ between inputs: {wa} vs {wb}"]
