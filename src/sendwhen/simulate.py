"""Synthetic ground-truth generator: users, send schedules, visit draws.

Every user owns an independent random substream keyed by (seed, user
index), so output does not depend on generation order and parallel
implementations would produce identical logs.  Visits are drawn from the
censored Weibull AFT law implied by the true coefficients; a drawn visit
materializes only when it lands before the user's next notification,
which is exactly how right-censoring arises in the real pipeline.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, DomainError, check_positive
from .features import FeatureSchema
from .io import json_int, json_number
from .pipeline import EventColumns
from .survival import WeibullParams, aft_rate, cum_hazard

__all__ = [
    "SendProcess",
    "SimConfig",
    "default_sim_schema",
    "generate_event_log",
]


@dataclass(frozen=True)
class SendProcess:
    """Notification arrival schedule: fixed cadence or Poisson.

    For the fixed cadence, phase_hours places the first send; None draws
    it uniformly in [0, interval) per user.  A deterministic phase equal
    to the interval, with the window a multiple of the interval, puts the
    final send exactly at the window edge where it can never resolve, so
    ingestion keeps only fully observed send gaps (no partially resolved
    tail that would bias parameter recovery short).
    """

    kind: str  # "fixed" | "poisson"
    interval_hours: float | None = None  # fixed
    rate_per_hour: float | None = None  # poisson
    phase_hours: float | None = None  # fixed only; None -> random phase

    def __post_init__(self) -> None:
        if self.kind == "fixed":
            check_positive(self.interval_hours, "interval_hours")
            if self.phase_hours is not None:
                check_positive(self.phase_hours, "phase_hours", or_zero=True)
        elif self.kind == "poisson":
            check_positive(self.rate_per_hour, "rate_per_hour")
            if self.phase_hours is not None:
                raise ConfigError("phase_hours only applies to the fixed process")
        else:
            raise ConfigError(f"unknown send process kind {self.kind!r}")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "fixed":
            d["interval_hours"] = self.interval_hours
            if self.phase_hours is not None:
                d["phase_hours"] = self.phase_hours
        else:
            d["rate_per_hour"] = self.rate_per_hour
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "SendProcess":
        try:
            return cls(
                kind=d["kind"],
                **{
                    name: None if d.get(name) is None else json_number(d[name], name)
                    for name in ("interval_hours", "rate_per_hour", "phase_hours")
                },
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed send_process {d!r}: {exc}") from exc


# The largest run SimConfig takes, refused before any draw.  Simulating in
# process, peak memory grew by about 240 bytes a send from 5k to 20k users
# (70k to 280k sends) and by about 360 bytes a user without sends, so a run
# stays below about 5 GB; the 100k-user week draws about 1.4 million sends.
_MAX_USERS = 10_000_000
_MAX_SENDS = 20_000_000


@dataclass(frozen=True)
class SimConfig:
    n_users: int
    n_profile_features: int
    true_coefficients: tuple[float, ...]  # aligned with default_sim_schema order
    true_sigma: float
    send_process: SendProcess
    window_hours: float
    seed: int = 0
    include_interaction: bool = True

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ConfigError("n_users must be >= 1")
        if self.n_profile_features < 0:
            raise ConfigError("n_profile_features must be >= 0")
        if self.seed < 0:  # numpy seeds only with non-negative integers
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_positive(self.true_sigma, "true_sigma")
        check_positive(self.window_hours, "window_hours")
        if self.n_users > _MAX_USERS:
            raise ConfigError(f"n_users must be at most {_MAX_USERS:,}")
        proc = self.send_process
        if proc.kind == "fixed":
            keys = "n_users * (window_hours / interval_hours + 1)"
            sends = self.n_users * (self.window_hours / proc.interval_hours + 1)
        else:
            keys = "n_users * window_hours * rate_per_hour"
            sends = self.n_users * self.window_hours * proc.rate_per_hour
        if not sends <= _MAX_SENDS:
            raise ConfigError(f"{keys} expects {sends:.3g} sends, more than the "
                              f"{_MAX_SENDS:,} a run may draw")
        if not all(map(math.isfinite, self.true_coefficients)):
            raise ConfigError(
                f"true_coefficients must be finite, got {list(self.true_coefficients)}"
            )
        expected = len(default_sim_schema(self))
        if len(self.true_coefficients) != expected:
            raise ConfigError(
                f"true_coefficients has {len(self.true_coefficients)} entries; the schema "
                f"needs {expected} (intercept, n_profile_features {self.n_profile_features} "
                "profiles, badge_count, interaction)"
            )

    @classmethod
    def from_dict(cls, d: Mapping) -> "SimConfig":
        try:
            include_interaction = d.get("include_interaction", True)
            if type(include_interaction) is not bool:
                raise TypeError(
                    f"include_interaction must be true or false, got {include_interaction!r}"
                )
            return cls(
                n_users=json_int(d["n_users"], "n_users"),
                n_profile_features=json_int(d["n_profile_features"], "n_profile_features"),
                true_coefficients=tuple(
                    json_number(v, "true_coefficients") for v in d["true_coefficients"]
                ),
                true_sigma=json_number(d["true_sigma"], "true_sigma"),
                send_process=SendProcess.from_dict(d["send_process"]),
                window_hours=json_number(d["window_hours"], "window_hours"),
                seed=json_int(d.get("seed", 0), "seed"),
                include_interaction=include_interaction,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed simulator config: {exc}") from exc


def default_sim_schema(cfg: SimConfig) -> FeatureSchema:
    """intercept, profile_0..k-1, badge_count, badge_count*profile_0."""
    base = [f"profile_{j}" for j in range(cfg.n_profile_features)]
    interactions = []
    if cfg.include_interaction and cfg.n_profile_features > 0:
        interactions.append(("badge_count", "profile_0"))
    return FeatureSchema.build(
        base=base, badge="badge_count", interactions=interactions
    )


def _extreme_value(u: np.ndarray | float) -> np.ndarray:
    """Standard extreme-value draws from uniforms by the inverse CDF.

    eps = log(-log(1-U)), with U nudged off exact 0 so exp(mu + sigma*eps)
    is always strictly positive.
    """
    return np.log(-np.log1p(-np.clip(u, 1e-300, None)))


def _send_times(
    proc: SendProcess, window_hours: float, rng: np.random.Generator
) -> list[float]:
    times: list[float] = []
    if proc.kind == "fixed":
        if proc.phase_hours is not None:
            t = proc.phase_hours
        else:
            t = float(rng.uniform(0.0, proc.interval_hours))  # per-user phase
        while t <= window_hours:
            times.append(t)
            t += proc.interval_hours
    else:
        t = float(rng.exponential(1.0 / proc.rate_per_hour))
        while t <= window_hours:
            times.append(t)
            t += float(rng.exponential(1.0 / proc.rate_per_hour))
    return times


@dataclass(frozen=True, eq=False)
class SimResult:
    events: EventColumns
    contexts: tuple  # user ids, profile columns, badge counts, w0_hours at the window's end
    truth: dict = field(default_factory=dict)


def generate_event_log(cfg: SimConfig) -> SimResult:
    """Simulate all users and return events, end-of-window contexts, truth.

    Per user: profile features are standard normal; sends follow the
    configured process; after each send the badge goes up by one and a
    visit time is drawn from the post-send law.  The visit is emitted only
    if it precedes both the next send and the window end; a visit resets
    the badge to zero.  Draw order per user is fixed (profile, schedule,
    then one visit draw per send, in send order) so streams are
    reproducible.  All draws come first; then one feature matrix holds a
    row for every badge 1..k of every user with k sends.  A badge's linear
    predictor is its row's 1-d dot product, computed once per user; X @ b
    would round some rows differently.
    """
    schema = default_sim_schema(cfg)
    b = np.asarray(cfg.true_coefficients, dtype=float)
    sigma, shape, window = cfg.true_sigma, 1.0 / cfg.true_sigma, cfg.window_hours
    names = [f"profile_{j}" for j in range(cfg.n_profile_features)]
    uid_width = max(6, len(str(cfg.n_users - 1)))
    # zero-padded ids sort in generation order, so a user's code is its index
    user_ids = [f"u{uid:0{uid_width}d}" for uid in range(cfg.n_users)]

    profiles = np.empty((cfg.n_users, cfg.n_profile_features))
    schedules: list[list[float]] = []
    uniforms = []
    for uid in range(cfg.n_users):
        rng = np.random.default_rng([cfg.seed, uid])
        profiles[uid] = rng.normal(size=cfg.n_profile_features)
        schedules.append(_send_times(cfg.send_process, window, rng))
        uniforms.append(rng.uniform(size=len(schedules[-1])))
    sigma_eps = (sigma * _extreme_value(np.concatenate(uniforms))).tolist()
    counts = np.fromiter(map(len, schedules), np.int64, cfg.n_users)
    first_row = np.cumsum(counts) - counts  # of each user's send slots
    owner = np.repeat(np.arange(cfg.n_users), counts)
    X = schema.materialize_columns(  # slot j of a user has badge j + 1
        {name: (profiles[owner, j], np.ones(owner.size, bool)) for j, name in enumerate(names)},
        np.arange(owner.size) - first_row[owner] + 1, np.zeros(owner.size),
    )

    user, ts, badges = array("q"), array("d"), array("q")  # a visit's badge is 0
    end_badge, w0 = array("q"), array("d")  # each user's state at the window's end
    n_visits = n_resolved = n_censored = 0
    expected_censored = 0.0

    with np.errstate(over="ignore"):  # a visit time past the float range is inf
        for uid, row0 in enumerate(first_row.tolist()):
            sends = schedules[uid]
            k = len(sends)
            mu_of: dict[int, float] = {}  # badge -> linear predictor
            law_of: dict[int, WeibullParams] = {}  # badge -> post-send visit-time law
            badge = 0
            last_state_change = 0.0
            for i, t_send in enumerate(sends):
                badge += 1
                user.append(uid)
                ts.append(t_send)
                badges.append(badge)
                last_state_change = t_send
                mu = mu_of.get(badge)
                if mu is None:
                    mu = mu_of[badge] = float(X[row0 + badge - 1] @ b)
                visit_at = t_send + float(np.exp(mu + sigma_eps[row0 + i]))

                if i + 1 < k:
                    t_next = sends[i + 1]
                    n_resolved += 1
                    law = law_of.get(badge)
                    if law is None:  # WeibullParams refuses a rate or shape past the floats
                        try:
                            law = law_of[badge] = WeibullParams(aft_rate(mu, sigma), shape)
                        except DomainError as exc:  # the config's law, not the data's
                            raise ConfigError(
                                f"true_coefficients and true_sigma give mu/sigma = "
                                f"{mu / sigma!r} at badge {badge}, a Weibull law outside the "
                                f"float range: {exc}") from None
                    expected_censored += math.exp(-cum_hazard(t_next - t_send, law.rate, law.shape))
                    if visit_at >= t_next:
                        n_censored += 1
                        continue
                if visit_at <= window:
                    user.append(uid)
                    ts.append(visit_at)
                    badges.append(0)
                    n_visits += 1
                    badge = 0
                    last_state_change = visit_at

            end_badge.append(badge)
            w0.append(window - last_state_change)

    codes, badge_count = np.frombuffer(user, np.int64), np.frombuffer(badges, np.int64)
    send_rows = badge_count > 0
    events = EventColumns(
        user_ids=user_ids,
        user=codes,
        ts_hours=np.frombuffer(ts, float),
        is_send=send_rows,
        badge_count=badge_count,
        has_badge=send_rows,
        features={  # sends carry the profile, visits nothing
            name: (np.where(send_rows, profiles[codes, j], np.nan), send_rows)
            for j, name in enumerate(names)
        },
    )
    truth = {
        "true_coefficients": dict(zip(schema.names, (float(v) for v in b))),
        "true_sigma": cfg.true_sigma,
        "seed": cfg.seed,
        "schema": schema.to_dict(),
        "n_users": cfg.n_users,
        "window_hours": cfg.window_hours,
        "send_process": cfg.send_process.to_dict(),
        "stats": {
            "n_sends": owner.size,
            "n_visits": n_visits,
            "n_resolved": n_resolved,
            "n_censored": n_censored,
            "censored_fraction": (n_censored / n_resolved) if n_resolved else None,
            "expected_censored_fraction": (
                expected_censored / n_resolved if n_resolved else None
            ),
        },
    }
    contexts = (user_ids, dict(zip(names, profiles.T)), np.frombuffer(end_badge, np.int64),
                np.frombuffer(w0, float))
    return SimResult(events=events, contexts=contexts, truth=truth)
