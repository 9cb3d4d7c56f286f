"""Send/hold decision policies over scored candidates.

Three rules: a global threshold on the delta effect, a personalized
ratio that normalizes the delta by the no-send visit probability, and
a linear program that maximizes total delta subject to a minimum
expected click total and a maximum send volume.  Each takes its
candidates as a CandidateColumns record; a sequence of Candidate rows
goes in through CandidateColumns.from_candidates.

The LP is solved through its dual.  For a click price kappa1 the best
volume-feasible choice is greedy: rank by delta + kappa1 * p_click, ties
by user_id, and fill the positive scores up to the volume cap.  Only the
ranks inside the cap matter, so a fill partitions the scores at the cap
and orders only the candidates tied at its edge.  kappa1 = 0
is tried first; otherwise kappa1 is bracketed and bisected down to two
adjacent floats whose greedy fills miss and meet the click floor.  The
two fills differ only in candidates tied at the crossing price; a
leaving and an entering one, or an entrant alone at score zero, give
kappa1 in closed form.  Those candidates are refilled so the clicks meet the floor exactly: mass t
on the highest p_click and, when the volume cap carries a price, the
rest of their volume on the lowest.  So at most two entries are
fractional.  When the volume cap is consumed, kappa2 is the lowest
adjusted score filled, or the highest score if the cap is zero.

moo_solve also rounds them to whole sends while the volume cap allows, in
the LP's (delta, user_id) order, or by p_click if that misses the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError, at_row

__all__ = [
    "Candidate",
    "CandidateColumns",
    "MooConfig",
    "PolicyResult",
    "threshold_rule",
    "ratio_rule",
    "moo_solve",
]

# guard for the click floor (relative) and the volume cap (absolute) checks
_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class Candidate:
    """One user's scores at decision time."""

    user_id: str
    delta: float
    p_wait: float
    p_click: float

    def __post_init__(self) -> None:
        fault = _fault(self.user_id, self.delta, self.p_wait, self.p_click)
        if fault is not None:
            raise DataError(fault)


def _fault(user_id: str, delta: float, p_wait: float, p_click: float) -> str | None:
    """Why a candidate row is refused, or None."""
    if not user_id:
        return "candidate needs a user_id"
    if not math.isfinite(delta):
        return f"delta must be finite, got {delta}"
    for name, v in (("p_wait", p_wait), ("p_click", p_click)):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            return f"{name} must be in [0, 1], got {v}"
    return None


@dataclass(frozen=True, eq=False)
class CandidateColumns:
    """Candidates as columns, in one order: user ids and delta, p_wait, p_click.

    Every row is checked as Candidate checks it, with Candidate's messages;
    the error's row is the first bad row.
    """

    user_ids: Sequence[str]
    delta: np.ndarray
    p_wait: np.ndarray
    p_click: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        columns = ("delta", "p_wait", "p_click")
        for name in columns:
            col = np.ascontiguousarray(getattr(self, name), dtype=float)
            if col.shape != (n,):
                raise DataError(f"{name} has shape {col.shape}, {n} user ids")
            object.__setattr__(self, name, col)
        ok = np.fromiter(map(bool, self.user_ids), bool, n) & np.isfinite(self.delta)
        for p in (self.p_wait, self.p_click):
            ok &= (p >= 0.0) & (p <= 1.0)
        if not ok.all():
            row = int(np.argmin(ok))
            values = (float(getattr(self, name)[row]) for name in columns)
            raise at_row(DataError(_fault(self.user_ids[row], *values)), row)

    def __len__(self) -> int:
        return len(self.user_ids)

    @classmethod
    def from_candidates(cls, candidates: Iterable[Candidate]) -> "CandidateColumns":
        """The columns of Candidate rows, in their order."""
        rows = list(candidates)
        values = np.array([(c.delta, c.p_wait, c.p_click) for c in rows], dtype=float)
        return cls([c.user_id for c in rows], *values.reshape(len(rows), 3).T)


def _as_columns(candidates: CandidateColumns | Iterable[Candidate]) -> CandidateColumns:
    if isinstance(candidates, CandidateColumns):
        return candidates
    return CandidateColumns.from_candidates(candidates)


@dataclass(frozen=True)
class MooConfig:
    """Click floor and send-volume cap for the LP policy."""

    c_click: float
    c_send: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_click) and self.c_click >= 0):
            raise ConfigError(f"c_click must be finite and >= 0, got {self.c_click}")
        if not (math.isfinite(self.c_send) and self.c_send >= 0):
            raise ConfigError(f"c_send must be finite and >= 0, got {self.c_send}")


@dataclass(frozen=True, eq=False)
class PolicyResult:
    """Columns y, send and flagged in candidate order, plus the rule's parameters."""

    rule: str
    y: np.ndarray
    send: np.ndarray
    flagged: np.ndarray
    status: str = "ok"
    kappa: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    objective: float | None = None
    report: Mapping[str, float] = field(default_factory=dict)

    @property
    def params(self) -> dict[str, float]:
        """The rule's own parameters that are set: kappa, or kappa1 and kappa2."""
        names = ("kappa", "kappa1", "kappa2")
        return {k: v for k in names if (v := getattr(self, k)) is not None}

    def note(self, i: int) -> str:
        """Why row i is flagged."""
        if self.rule == "moo":
            return f"fractional y={self.y[i]:.6f} rounded {'up' if self.send[i] else 'down'}"
        return "p_wait=0; decided by sign of delta"


def _check_kappa(kappa: float) -> None:
    if isinstance(kappa, bool) or not isinstance(kappa, (int, float)):
        raise ConfigError(f"kappa must be a real number, got {kappa!r}")
    if math.isnan(kappa):
        raise ConfigError("kappa must not be NaN")


def threshold_rule(
    candidates: CandidateColumns | Sequence[Candidate], kappa: float
) -> PolicyResult:
    """Send exactly when delta exceeds the global threshold (strictly)."""
    _check_kappa(kappa)
    send = _as_columns(candidates).delta > kappa
    return PolicyResult("threshold", send.astype(float), send, np.zeros_like(send), kappa=kappa)


def ratio_rule(candidates: CandidateColumns | Sequence[Candidate], kappa: float) -> PolicyResult:
    """Send when delta / p_wait exceeds kappa.

    p_wait = 0 makes the ratio +inf for positive delta and meaningless
    otherwise; those candidates are decided by the sign of delta and
    flagged so downstream consumers can see the division never happened.
    """
    _check_kappa(kappa)
    c = _as_columns(candidates)
    delta, p_wait = c.delta, c.p_wait
    flagged = p_wait == 0.0
    with np.errstate(all="ignore"):  # a tiny p_wait overflows the ratio to inf
        send = np.where(flagged, delta > 0.0, delta / p_wait > kappa)
    return PolicyResult("ratio", send.astype(float), send, flagged, kappa=kappa)


# -- MOO linear program ------------------------------------------------------


def moo_solve(candidates: CandidateColumns | Sequence[Candidate], cfg: MooConfig) -> PolicyResult:
    """Maximize total delta under a click floor and a send-volume cap.

    Returns the fractional optimum y with its duals: kappa1 prices the
    click floor, kappa2 is the volume threshold on the adjusted score
    delta + kappa1 * p_click.  send rounds y to whole sends and flags the
    fractional entries; the report gives the clicks those sends reach
    (sent_click_total) and whether they meet the floor (floor_met).
    Infeasible instances come back with status "infeasible", empty
    columns and a report.
    """
    c = _as_columns(candidates)
    n, ids, delta, p = len(c), c.user_ids, c.delta, c.p_click
    if n == 0:
        raise DataError("moo_solve needs at least one candidate")
    if len(set(ids)) != n:
        raise DataError("duplicate user_id among candidates")
    k_cap = min(n, math.ceil(cfg.c_send))  # ranks with volume left

    def greedy(s: np.ndarray) -> np.ndarray:
        # Positive scores by descending s, ties by user_id, up to the cap.
        # Every rank before the last one inside the cap has a whole volume
        # unit, so only the candidates tied at the k_cap-th highest score
        # (the edge) need an order, and none do if the edge is not positive.
        if k_cap == 0:
            return np.zeros(n)
        edge = np.partition(s, n - k_cap)[n - k_cap]
        if edge <= 0.0:
            return (s > 0.0).astype(float)
        above = s > edge
        y = above.astype(float)
        a = int(np.count_nonzero(above))
        tied = sorted(np.flatnonzero(s == edge).tolist(), key=ids.__getitem__)
        y[tied[:k_cap - a]] = np.clip(cfg.c_send - np.arange(a, k_cap), 0.0, 1.0)
        return y

    def meets_floor(clicks: float) -> bool:
        return clicks >= cfg.c_click - _EDGE_TOL * max(1.0, cfg.c_click)

    y = greedy(p)  # the most clicks the volume cap allows
    if not meets_floor(float(p @ y)):
        report = {"c_click": cfg.c_click, "c_send": cfg.c_send}
        report["max_click_reachable"] = float(p @ y)
        empty = np.zeros(0, dtype=bool)
        return PolicyResult("moo", np.zeros(0), empty, empty, "infeasible", report=report)

    # click price 0: pure volume-capped selection by delta
    kappa1, y = 0.0, greedy(delta)
    if not meets_floor(float(p @ y)):
        # bracket the click price, then bisect down to adjacent floats
        lo, y_lo, hi = 0.0, y, 1.0
        for _ in range(200):
            y_hi = greedy(delta + hi * p)
            if meets_floor(float(p @ y_hi)):
                break
            hi *= 2.0
        else:
            raise NumericalError("click price search failed to bracket")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            y_mid = greedy(delta + mid * p)
            if meets_floor(float(p @ y_mid)):
                hi, y_hi = mid, y_mid
            else:
                lo, y_lo = mid, y_mid

        # Only candidates tied at the crossing price differ between the two
        # fills.  One that leaves means a swap at the priced volume cap; else
        # entrants cross score zero: a swap with holding, the candidate
        # delta = p_click = 0 at index n.
        priced = bool(np.any(y_hi < y_lo))
        entrant = int(np.argmax(y_hi > y_lo))
        a, b = sorted((int(np.argmax(y_hi < y_lo)) if priced else n, entrant))
        dz, pz = np.append(delta, 0.0), np.append(p, 0.0)
        kappa1 = hi
        if pz[a] != pz[b]:
            k = float((dz[b] - dz[a]) / (pz[a] - pz[b])) + 0.0
            if k >= 0.0 and abs(k - hi) <= 1e-6 * max(1.0, hi):
                kappa1 = k

        # Refill them and the fractional one at the cap with the volume and
        # clicks the rest leave: mass t on the highest p_click and, when the
        # cap is priced, the rest on the lowest; the least t meeting the floor.
        tied = (y_lo != y_hi) | ((y_hi > 0.0) & (y_hi < 1.0))
        y = np.where(tied, 0.0, y_hi)
        order = np.flatnonzero(tied)[np.argsort(-p[tied], kind="stable")]
        m = len(order)
        v = min(max(cfg.c_send - float(np.sum(y)), 0.0), float(m))
        c_rem = max(cfg.c_click - float(p @ y), 0.0)
        x = np.arange(m + 1.0)
        clicks = np.concatenate(([0.0], np.cumsum(p[order])))  # of slots [0, x)
        t_br = np.sort(np.clip(np.concatenate((x, x - (m - v))), 0.0, v))
        t_br = t_br[np.append(True, t_br[1:] != t_br[:-1])]  # np.unique loads numpy.ma
        c_br = np.interp(t_br, x, clicks)
        if priced:
            c_br += clicks[-1] - np.interp(t_br + (m - v), x, clicks)
        c_br = np.maximum.accumulate(c_br)
        j = min(int(np.searchsorted(c_br, c_rem)), len(c_br) - 1)  # least t
        seg = slice(max(j - 1, 0), j + 1)
        t = float(np.interp(c_rem, c_br[seg], t_br[seg]))
        back = v - t if priced else 0.0
        y[order] = np.clip(t - x[:-1], 0.0, 1.0) + np.clip(x[1:] - (m - back), 0.0, 1.0)

    # volume threshold: marginal adjusted score when the cap is consumed
    s = delta + kappa1 * p
    consumed = float(np.sum(y)) >= cfg.c_send - _EDGE_TOL
    kappa2 = max(float(np.min(s[y > 1e-12], initial=np.max(s))), 0.0) if consumed else 0.0

    # Round fractional entries up while the cap allows, in the LP's fill
    # order; if the whole sends then miss the floor, by descending p_click,
    # which keeps the floor whenever any rounding within the cap can.
    y_out = np.clip(y, 0.0, 1.0)
    whole = y_out >= 1.0 - 1e-12
    flagged = (y_out > 1e-12) & ~whole
    frac = np.flatnonzero(flagged)
    budget, n_up = cfg.c_send - int(np.count_nonzero(whole)), 0
    while n_up < len(frac) and budget >= 1.0 - _EDGE_TOL:
        budget -= 1.0
        n_up += 1

    def round_up(key: np.ndarray) -> tuple[np.ndarray, float]:
        send = whole.copy()
        send[sorted(frac.tolist(), key=lambda i: (key[i], ids[i]))[:n_up]] = True
        return send, math.fsum(p[send].tolist())

    send, sent_clicks = round_up(-delta)
    if not meets_floor(sent_clicks):
        send, sent_clicks = round_up(-p)
    return PolicyResult(
        "moo", y_out, send, flagged,
        kappa1=kappa1,
        kappa2=kappa2,
        objective=float(delta @ y),
        report={
            "click_total": float(p @ y),
            "send_total": float(np.sum(y)),
            "n_fractional": len(frac),
            "sent_click_total": sent_clicks,
            "floor_met": meets_floor(sent_clicks),
        },
    )
