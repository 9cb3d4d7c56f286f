"""Reference simulator: one send at a time, one Event per row.

The per-send loop the simulator ran before it became a per-user one,
kept as an oracle for simulate.generate_event_log.  For every send it
builds the feature vector with the one-row schema.materialize, draws one
visit time with a scalar inverse-CDF draw, adds the Weibull survival at
the gap to the next send through a WeibullParams, and emits an Event for
the send and for each visit that lands.  write_events writes each Event
as its own line, the bytes json.dumps gives its record.  An array
simulator must give the same lines, contexts and truth, bit for bit.
"""

import json
import math

import numpy as np

from sendwhen.pipeline import SEND, VISIT, Event
from sendwhen.simulate import default_sim_schema
from sendwhen.survival import WeibullParams

from oracle_survival import weibull_sf

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _time_to_visit(x, b, sigma, rng):
    mu = float(np.asarray(x, dtype=float) @ np.asarray(b, dtype=float))
    u = np.clip(rng.uniform(), 1e-300, None)
    eps = np.log(-np.log1p(-u))
    return float(np.exp(mu + sigma * eps))


def _send_times(proc, window_hours, rng):
    times = []
    if proc.kind == "fixed":
        if proc.phase_hours is not None:
            t = proc.phase_hours
        else:
            t = float(rng.uniform(0.0, proc.interval_hours))
        while t <= window_hours:
            times.append(t)
            t += proc.interval_hours
    else:
        t = float(rng.exponential(1.0 / proc.rate_per_hour))
        while t <= window_hours:
            times.append(t)
            t += float(rng.exponential(1.0 / proc.rate_per_hour))
    return times


def generate_event_log(cfg):
    """(events, contexts, truth); a context is (user_id, features, badge_count, w0_hours)."""
    schema = default_sim_schema(cfg)
    b = np.asarray(cfg.true_coefficients, dtype=float)
    uid_width = max(6, len(str(cfg.n_users - 1)))

    events, contexts = [], []
    n_sends = n_visits = n_resolved = n_censored = 0
    expected_censored = 0.0

    for uid in range(cfg.n_users):
        rng = np.random.default_rng([cfg.seed, uid])
        user_id = f"u{uid:0{uid_width}d}"
        profile = {
            f"profile_{j}": float(v)
            for j, v in enumerate(rng.normal(size=cfg.n_profile_features))
        }
        sends = _send_times(cfg.send_process, cfg.window_hours, rng)

        badge = 0
        last_state_change = 0.0
        for k, t_send in enumerate(sends):
            badge += 1
            events.append(Event(user_id, t_send, SEND, badge_count=badge, features=profile))
            n_sends += 1
            last_state_change = t_send
            x = schema.materialize(profile, badge_count=badge)
            visit_at = t_send + _time_to_visit(x, b, cfg.true_sigma, rng)
            t_next = sends[k + 1] if k + 1 < len(sends) else None

            if t_next is not None:
                n_resolved += 1
                params = WeibullParams(
                    rate=math.exp(-float(x @ b) / cfg.true_sigma),
                    shape=1.0 / cfg.true_sigma,
                )
                expected_censored += weibull_sf(t_next - t_send, params)
                if visit_at >= t_next:
                    n_censored += 1

            if visit_at <= cfg.window_hours and (t_next is None or visit_at < t_next):
                events.append(Event(user_id, visit_at, VISIT))
                n_visits += 1
                badge = 0
                last_state_change = visit_at

        contexts.append((user_id, profile, badge, cfg.window_hours - last_state_change))

    truth = {
        "true_coefficients": dict(zip(schema.names, (float(v) for v in b))),
        "true_sigma": cfg.true_sigma,
        "seed": cfg.seed,
        "schema": schema.to_dict(),
        "n_users": cfg.n_users,
        "window_hours": cfg.window_hours,
        "send_process": cfg.send_process.to_dict(),
        "stats": {
            "n_sends": n_sends,
            "n_visits": n_visits,
            "n_resolved": n_resolved,
            "n_censored": n_censored,
            "censored_fraction": (n_censored / n_resolved) if n_resolved else None,
            "expected_censored_fraction": (
                expected_censored / n_resolved if n_resolved else None
            ),
        },
    }
    return events, contexts, truth


def _event_line(ev):
    features = f'"features":{_dumps(dict(ev.features))},' if ev.features else ""
    return (
        f'{{"badge_count":{_dumps(ev.badge_count)},{features}'
        f'"kind":{_dumps(ev.kind)},"ts_hours":{_dumps(ev.ts_hours)},'
        f'"user_id":{_dumps(ev.user_id)}}}\n'
    )


def write_events(path, events):
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(map(_event_line, events))
