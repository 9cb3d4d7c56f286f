"""Turn interleaved send/visit event logs into censored survival observations.

send_table walks every user's timeline once, with one sort over all
events, and returns one row per notification send: the send, how long the
user had already been in the pre-send state (w0), the successor event and
the first later visit.  Observations (sends with a successor), send
instances (every send) and the evaluation layer's naive labels are all
views of that one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .features import FeatureSchema

__all__ = [
    "Event",
    "Observation",
    "SendInstance",
    "PipelineConfig",
    "SendTable",
    "send_table",
    "build_observations",
    "build_send_instances",
]

SEND = "send"
VISIT = "visit"
_KINDS = (SEND, VISIT)


@dataclass(frozen=True)
class Event:
    """One row of the raw log.

    badge_count is the state after the event and is required on sends;
    visits carry None.  features holds the raw profile/activity values
    snapshotted when the event was logged.
    """

    user_id: str
    ts_hours: float
    kind: str
    badge_count: int | None = None
    features: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DataError(f"unknown event kind {self.kind!r}")
        if not (isinstance(self.ts_hours, (int, float)) and math.isfinite(self.ts_hours)):
            raise DataError(
                f"non-finite timestamp {self.ts_hours!r} for user {self.user_id!r}"
            )
        if self.kind == SEND:
            if self.badge_count is None:
                raise DataError(
                    f"send event at t={self.ts_hours} for user {self.user_id!r} "
                    "is missing badge_count"
                )
            if self.badge_count < 0:
                raise DataError(
                    f"negative badge_count {self.badge_count} for user {self.user_id!r}"
                )


@dataclass(frozen=True, eq=False)
class Observation:
    """Censored survival triplet plus bookkeeping.

    uncensored is True iff the event following the origin send was a visit;
    otherwise the duration is the gap to the next notification.
    """

    user_id: str
    x: np.ndarray
    t_hours: float
    uncensored: bool
    origin_ts_hours: float


@dataclass(frozen=True, eq=False)
class SendInstance:
    """Feature snapshot for one send, successor or not (evaluation input)."""

    user_id: str
    ts_hours: float
    x: np.ndarray


@dataclass(frozen=True)
class PipelineConfig:
    duration_floor_hours: float = 1.0 / 3600.0
    window_start: float | None = None
    window_end: float | None = None

    def __post_init__(self) -> None:
        if self.duration_floor_hours <= 0:
            raise DataError("duration_floor_hours must be > 0")
        if self.window_start is not None and self.window_end is not None:
            if self.window_end <= self.window_start:
                raise DataError("window_end must be greater than window_start")

    def in_window(self, ev: Event) -> bool:
        """True when ev lies inside the window; both bounds are inclusive."""
        if self.window_start is not None and ev.ts_hours < self.window_start:
            return False
        if self.window_end is not None and ev.ts_hours > self.window_end:
            return False
        return True


@dataclass(frozen=True, eq=False)
class SendTable:
    """One row per send inside the window, ordered by (user_id, time).

    w0_hours is the time the user had already spent in the pre-send state:
    hours since the latest preceding send or visit, zero when the send is
    the user's first event.  next_ts_hours is the time of the successor
    event (nan when nothing follows inside the window) and uncensored says
    whether that successor is a visit.  next_visit_hours is the first visit
    strictly after the send (inf when there is none); later sends do not
    stop it.
    """

    sends: list[Event]
    ts_hours: np.ndarray
    w0_hours: np.ndarray
    next_ts_hours: np.ndarray
    uncensored: np.ndarray
    next_visit_hours: np.ndarray

    def matrix(self, schema: FeatureSchema, rows: np.ndarray | None = None) -> np.ndarray:
        """Feature snapshots of the given rows (all rows by default)."""
        rows = np.arange(len(self.sends)) if rows is None else rows
        sends = [self.sends[i] for i in rows.tolist()]
        return schema.materialize_rows(
            [e.features for e in sends], [e.badge_count for e in sends], self.w0_hours[rows]
        )

    def observations(self, schema: FeatureSchema, duration_floor_hours: float) -> list[Observation]:
        """The censored triplets: one per send that has a successor."""
        rows = np.flatnonzero(~np.isnan(self.next_ts_hours))
        ts = self.ts_hours[rows]
        t = np.maximum(self.next_ts_hours[rows] - ts, duration_floor_hours)
        return [
            Observation(self.sends[i].user_id, x, ti, u, si)
            for i, x, ti, u, si in zip(
                rows.tolist(), self.matrix(schema, rows), t.tolist(),
                self.uncensored[rows].tolist(), ts.tolist(),
            )
        ]

    def visited_within(self, horizon_t_hours: float) -> np.ndarray:
        """Per-send naive labels: did any visit land in (send, send + T]?"""
        return self.next_visit_hours <= self.ts_hours + horizon_t_hours


def send_table(events: Iterable[Event], cfg: PipelineConfig) -> SendTable:
    """Walk every user's timeline once and return the send table.

    Events are sorted by (user_id, time), with a visit before a send at the
    same timestamp (it is attributed to the prior state) and input order
    kept beyond that.  The successor of a send is the next event in that
    order, except that a visit at the very same timestamp counts as the
    successor (a floor-duration uncensored observation) even though it
    sorts before the send; that visit also ends any earlier pending
    observation, so a simultaneous pair is never silently dropped.
    """
    evs = [e for e in events if cfg.in_window(e)]
    n = len(evs)
    code = {u: i for i, u in enumerate(sorted({e.user_id for e in evs}))}
    user = np.fromiter((code[e.user_id] for e in evs), np.intp, n)
    ts = np.fromiter((e.ts_hours for e in evs), float, n)
    is_send = np.fromiter((e.kind == SEND for e in evs), bool, n)
    order = np.lexsort((is_send, ts, user))
    # a sentinel at position n (reached as -1 too) belongs to no user
    user = np.append(user[order], -1)
    ts = np.append(ts[order], np.inf)
    is_send = np.append(is_send[order], True)

    s = np.flatnonzero(is_send[:n])
    visits = np.append(np.flatnonzero(~is_send), n)
    k = np.searchsorted(visits, s)
    after, before = visits[k], visits[k - 1]  # nearest visits on either side

    def same_user(pos: np.ndarray) -> np.ndarray:
        return user[pos] == user[s]

    tie = same_user(before) & (ts[before] == ts[s])
    has_next = same_user(s + 1)
    return SendTable(
        sends=[evs[i] for i in order[s].tolist()],
        ts_hours=ts[s],
        w0_hours=np.where(same_user(s - 1), ts[s] - ts[s - 1], 0.0),
        next_ts_hours=np.where(tie, ts[s], np.where(has_next, ts[s + 1], np.nan)),
        uncensored=tie | (has_next & ~is_send[s + 1]),
        next_visit_hours=np.where(same_user(after), ts[after], np.inf),
    )


def build_observations(
    events: Iterable[Event], schema: FeatureSchema, cfg: PipelineConfig
) -> list[Observation]:
    """One observation per send that has a successor event.

    Duration is the gap to the next event, clamped to the duration floor;
    it is uncensored iff that next event is a visit.  Trailing sends with
    nothing after them inside the window are dropped.  Output is ordered
    by (user_id, origin timestamp) so the result does not depend on input
    order.
    """
    return send_table(events, cfg).observations(schema, cfg.duration_floor_hours)


def build_send_instances(
    events: Iterable[Event], schema: FeatureSchema, cfg: PipelineConfig
) -> list[SendInstance]:
    """Feature snapshot for every send, including trailing ones.

    This is the instance set for per-send labeling in evaluation, in the
    same order as SendTable.visited_within.
    """
    table = send_table(events, cfg)
    return [
        SendInstance(e.user_id, ts, x)
        for e, ts, x in zip(table.sends, table.ts_hours.tolist(), table.matrix(schema))
    ]
