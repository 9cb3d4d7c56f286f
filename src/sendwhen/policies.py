"""Send/hold decision policies over scored candidates.

Three rules: a global threshold on the delta effect, a personalized
ratio that normalizes the delta by the no-send visit probability, and
a linear program that maximizes total delta subject to a minimum
expected click total and a maximum send volume.

The LP is solved through its dual structure: for a fixed click price
kappa1, the best volume-feasible choice is the top of the ranking by
delta + kappa1 * p_click, with the volume threshold kappa2 at the
cutoff score.  kappa1 = 0 is tried first; otherwise kappa1 rises until
the click constraint binds.  Candidates tied at the cutoff all have
equal adjusted score, so their total contribution is fixed by the
constraint totals and any feasible completion among them is optimal;
a basic completion needs at most two fractional entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError

__all__ = [
    "Candidate",
    "MooConfig",
    "Decision",
    "PolicyResult",
    "threshold_rule",
    "ratio_rule",
    "moo_solve",
]

# relative guard for "at the cutoff score" membership and constraint checks
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One user's scores at decision time."""

    user_id: str
    delta: float
    p_wait: float
    p_click: float

    def __post_init__(self) -> None:
        if not self.user_id:
            raise DataError("candidate needs a user_id")
        if not math.isfinite(self.delta):
            raise DataError(f"delta must be finite, got {self.delta}")
        for name, v in (("p_wait", self.p_wait), ("p_click", self.p_click)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise DataError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class MooConfig:
    """Click floor and send-volume cap for the LP policy."""

    c_click: float
    c_send: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_click) and self.c_click >= 0):
            raise ConfigError(f"c_click must be >= 0, got {self.c_click}")
        if not (math.isfinite(self.c_send) and self.c_send >= 0):
            raise ConfigError(f"c_send must be >= 0, got {self.c_send}")


@dataclass(frozen=True)
class Decision:
    """Per-candidate outcome; y is the fractional LP value."""

    user_id: str
    y: float
    send: bool
    flagged: bool = False
    note: str = ""


@dataclass(frozen=True)
class PolicyResult:
    """Decisions plus the rule's own parameters and diagnostics."""

    rule: str
    decisions: tuple[Decision, ...]
    status: str = "ok"
    kappa: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    objective: float | None = None
    report: Mapping[str, float] = field(default_factory=dict)

    def send_ids(self) -> tuple[str, ...]:
        return tuple(d.user_id for d in self.decisions if d.send)


def _check_kappa(kappa: float) -> None:
    if isinstance(kappa, bool) or not isinstance(kappa, (int, float)):
        raise ConfigError(f"kappa must be a real number, got {kappa!r}")
    if math.isnan(kappa):
        raise ConfigError("kappa must not be NaN")


def threshold_rule(candidates: Sequence[Candidate], kappa: float) -> PolicyResult:
    """Send exactly when delta exceeds the global threshold (strictly)."""
    _check_kappa(kappa)
    decisions = tuple(
        Decision(c.user_id, 1.0 if c.delta > kappa else 0.0, c.delta > kappa)
        for c in candidates
    )
    return PolicyResult(rule="threshold", decisions=decisions, kappa=kappa)


def ratio_rule(candidates: Sequence[Candidate], kappa: float) -> PolicyResult:
    """Send when delta / p_wait exceeds kappa.

    p_wait = 0 makes the ratio +inf for positive delta and meaningless
    otherwise; those candidates are decided by the sign of delta and
    flagged so downstream consumers can see the division never happened.
    """
    _check_kappa(kappa)
    decisions = []
    for c in candidates:
        if c.p_wait == 0.0:
            send = c.delta > 0.0
            decisions.append(
                Decision(
                    c.user_id,
                    1.0 if send else 0.0,
                    send,
                    flagged=True,
                    note="p_wait=0; decided by sign of delta",
                )
            )
        else:
            send = c.delta / c.p_wait > kappa
            decisions.append(Decision(c.user_id, 1.0 if send else 0.0, send))
    return PolicyResult(rule="ratio", decisions=tuple(decisions), kappa=kappa)


# -- MOO linear program ------------------------------------------------------


def _greedy_fill(
    order: np.ndarray, scores: np.ndarray, c_send: float
) -> tuple[np.ndarray, bool]:
    """Volume-capped prefix of positive-score candidates, in ranking order.

    Returns (y, volume_tight).  At most one fractional entry, at the
    volume cap.
    """
    y = np.zeros(len(scores))
    mass = 0.0
    for i in order:
        if scores[i] <= 0.0:
            break
        room = c_send - mass
        if room <= 0.0:
            return y, True
        take = min(1.0, room)
        y[i] = take
        mass += take
        if take < 1.0:
            return y, True
    return y, bool(mass >= c_send - 1e-15 and mass > 0.0)


def _rank(scores: np.ndarray, user_ids: Sequence[str]) -> np.ndarray:
    # descending score, ties by user_id for determinism
    return np.array(
        sorted(range(len(scores)), key=lambda i: (-scores[i], user_ids[i])),
        dtype=int,
    )


def _max_click_under_volume(p: np.ndarray, c_send: float) -> float:
    order = np.argsort(-p, kind="stable")
    mass = 0.0
    click = 0.0
    for i in order:
        if p[i] <= 0.0 or mass >= c_send:
            break
        take = min(1.0, c_send - mass)
        click += take * p[i]
        mass += take
    return click


def _two_sided_fill(
    p_sorted: np.ndarray, v: float, t: float
) -> np.ndarray:
    """Mass t front-filled plus mass v - t back-filled onto capacity 1 each."""
    m = len(p_sorted)
    y = np.zeros(m)
    rem = t
    for i in range(m):
        take = min(1.0, rem)
        y[i] = take
        rem -= take
        if rem <= 0.0:
            break
    rem = v - t
    for i in range(m - 1, -1, -1):
        room = 1.0 - y[i]
        take = min(room, rem)
        y[i] += take
        rem -= take
        if rem <= 0.0:
            break
    return y


def _complete_boundary(
    p_b: np.ndarray, v: float, c: float, volume_tight: bool
) -> np.ndarray:
    """Distribute boundary mass to hit the remaining constraint totals.

    All boundary candidates share the same adjusted score, so any
    feasible completion is optimal; this picks a basic one.
    """
    m = len(p_b)
    order = np.argsort(-p_b, kind="stable")
    ps = p_b[order]
    if not volume_tight:
        # volume slack: meet the click shortfall with the least mass
        y_s = np.zeros(m)
        rem = c
        for i in range(m):
            if ps[i] <= 0.0:
                break
            take = min(1.0, rem / ps[i], v - float(np.sum(y_s)))
            if take <= 0.0:
                break
            y_s[i] = take
            rem -= take * ps[i]
            if rem <= 1e-15:
                break
        if rem > _EDGE_TOL * max(1.0, c):
            raise NumericalError("boundary completion cannot meet click floor")
    else:
        v = min(max(v, 0.0), float(m))
        lo, hi = 0.0, v
        click_lo = float(ps @ _two_sided_fill(ps, v, lo))
        click_hi = float(ps @ _two_sided_fill(ps, v, hi))
        target = min(max(c, click_lo), click_hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(ps @ _two_sided_fill(ps, v, mid)) < target:
                lo = mid
            else:
                hi = mid
        y_s = _two_sided_fill(ps, v, hi)
    out = np.zeros(m)
    out[order] = y_s
    return out


def moo_solve(candidates: Sequence[Candidate], cfg: MooConfig) -> PolicyResult:
    """Maximize total delta under a click floor and a send-volume cap.

    Returns the fractional optimum with its duals: kappa1 prices the
    click floor, kappa2 is the volume threshold on the adjusted score
    delta + kappa1 * p_click.  Infeasible instances come back with
    status "infeasible" and a report instead of decisions.
    """
    if len(candidates) == 0:
        raise DataError("moo_solve needs at least one candidate")
    ids = [c.user_id for c in candidates]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate user_id among candidates")
    delta = np.array([c.delta for c in candidates])
    p = np.array([c.p_click for c in candidates])
    n = len(candidates)

    reachable = _max_click_under_volume(p, cfg.c_send)
    if reachable < cfg.c_click - _EDGE_TOL * max(1.0, cfg.c_click):
        return PolicyResult(
            rule="moo",
            decisions=(),
            status="infeasible",
            report={
                "c_click": cfg.c_click,
                "c_send": cfg.c_send,
                "max_click_reachable": reachable,
            },
        )

    def greedy(kappa1: float) -> tuple[np.ndarray, np.ndarray, bool]:
        s = delta + kappa1 * p
        order = _rank(s, ids)
        y, tight = _greedy_fill(order, s, cfg.c_send)
        return s, y, tight

    def state_of(
        s: np.ndarray, y: np.ndarray, tight: bool, scale: float
    ) -> tuple[float, bool]:
        # cut = adjusted score of the marginal (last-filled) candidate;
        # the volume cap carries a positive price only when the set was
        # cut off while that score was still positive
        touched = y > 1e-12
        cut = float(np.min(s[touched])) if np.any(touched) else 0.0
        return cut, bool(tight and cut > _EDGE_TOL * scale)

    # click price 0: pure volume-capped selection by delta
    s, y, volume_tight = greedy(0.0)
    kappa1 = 0.0
    if float(p @ y) < cfg.c_click - _EDGE_TOL * max(1.0, cfg.c_click):
        # raise the click price until the greedy set can cover the floor
        hi = 1.0
        for _ in range(200):
            _, y_hi, _ = greedy(hi)
            if float(p @ y_hi) >= cfg.c_click:
                break
            hi *= 2.0
        else:
            raise NumericalError("click price search failed to bracket")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            _, y_mid, _ = greedy(mid)
            if float(p @ y_mid) >= cfg.c_click:
                hi = mid
            else:
                lo = mid
        kappa1 = hi
        s, y_g, tight = greedy(kappa1)
        scale = max(1.0, float(np.max(np.abs(s))), kappa1)
        cut, volume_priced = state_of(s, y_g, tight, scale)

        # the price sits at a crossing: candidates tied at the cutoff
        # score there determine both the price and the cutoff exactly
        loose = np.flatnonzero(np.abs(s - cut) <= 1e-7 * scale)
        refined: tuple[float, float] | None = None
        if volume_priced:
            # a swap at the cap: two tied candidates with distinct slopes
            for ii in range(len(loose)):
                for jj in range(ii + 1, len(loose)):
                    a, b = loose[ii], loose[jj]
                    if abs(p[a] - p[b]) > 1e-12:
                        k = (delta[b] - delta[a]) / (p[a] - p[b]) + 0.0
                        if k >= 0 and abs(k - kappa1) <= 1e-6 * max(1.0, kappa1):
                            refined = (float(k), float(delta[a] + k * p[a]))
                            break
                if refined is not None:
                    break
        else:
            # an entrant at score zero: its own zero crossing
            for a in loose:
                if p[a] > 1e-12:
                    k = -delta[a] / p[a] + 0.0
                    if k >= 0 and abs(k - kappa1) <= 1e-6 * max(1.0, kappa1):
                        if refined is None or abs(k - kappa1) < abs(
                            refined[0] - kappa1
                        ):
                            refined = (float(k), 0.0)
        if refined is not None:
            kappa1, cut = refined
            s = delta + kappa1 * p
            tol_b = 1e-11 * scale
        else:
            tol_b = _EDGE_TOL * scale

        boundary = np.abs(s - cut) <= tol_b
        sure = s > cut + tol_b
        if float(np.sum(sure)) > cfg.c_send + 1e-9:
            raise NumericalError("cutoff detection lost the volume cap")

        y = np.zeros(n)
        y[sure] = 1.0
        n_b = int(np.count_nonzero(boundary))
        v = min(max(cfg.c_send - float(np.sum(y)), 0.0), float(n_b))
        c_rem = max(cfg.c_click - float(p @ y), 0.0)
        if n_b:
            y[boundary] = _complete_boundary(p[boundary], v, c_rem, volume_priced)

    # volume threshold: marginal adjusted score when the cap is consumed
    touched = y > 1e-12
    if (
        np.any(touched)
        and cfg.c_send > 0
        and float(np.sum(y)) >= cfg.c_send - _EDGE_TOL
    ):
        kappa2 = max(float(np.min(s[touched])), 0.0)
    else:
        kappa2 = 0.0

    objective = float(delta @ y)
    decisions = tuple(
        Decision(
            ids[i],
            float(np.clip(y[i], 0.0, 1.0)),
            bool(y[i] >= 1.0 - 1e-12),
            flagged=bool(1e-12 < y[i] < 1.0 - 1e-12),
            note="fractional" if 1e-12 < y[i] < 1.0 - 1e-12 else "",
        )
        for i in range(n)
    )
    return PolicyResult(
        rule="moo",
        decisions=decisions,
        kappa1=kappa1,
        kappa2=kappa2,
        objective=objective,
        report={
            "click_total": float(p @ y),
            "send_total": float(np.sum(y)),
            "n_fractional": int(np.sum((y > 1e-12) & (y < 1.0 - 1e-12))),
        },
    )
