"""Turn interleaved send/visit event logs into censored survival observations.

The walk over a user's timeline produces one record per notification send:
the feature snapshot at the send, how long the user had already been in the
pre-send state (w0), and what event came next.  Observations keep only
sends that have a successor event; the evaluation layer reuses the same
walk to get an instance for every send.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .features import FeatureSchema

__all__ = [
    "Event",
    "Observation",
    "SendInstance",
    "PipelineConfig",
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


def _group_sorted(events: Iterable[Event], cfg: PipelineConfig) -> dict[str, list[Event]]:
    """Group by user and sort each stream by time.

    Ties at equal timestamps put the visit first (it is attributed to the
    prior state); Python's stable sort preserves input order beyond that.
    """
    by_user: dict[str, list[Event]] = {}
    for ev in events:
        if cfg.in_window(ev):
            by_user.setdefault(ev.user_id, []).append(ev)
    for stream in by_user.values():
        stream.sort(key=lambda e: (e.ts_hours, 0 if e.kind == VISIT else 1))
    return by_user


def _walk_user(stream: Sequence[Event]):
    """Yield (send, w0_hours, next_event_or_None) for each send in order.

    w0 is the time the user had already spent in the pre-send state: hours
    since the latest preceding send or visit (whichever came later), zero
    when the send is the user's first event.

    The successor of a send is the next event in sorted order, except that
    a visit at the very same timestamp counts as the successor (yielding a
    floor-duration uncensored observation) even though the tie rule sorts
    it before the send; that visit also terminates any earlier pending
    observation, so a simultaneous pair is never silently dropped.
    """
    visit_ts = {e.ts_hours for e in stream if e.kind == VISIT}
    state_start: float | None = None
    for i, ev in enumerate(stream):
        if ev.kind == SEND:
            w0 = 0.0 if state_start is None else ev.ts_hours - state_start
            if ev.ts_hours in visit_ts:
                nxt: Event | None = Event(ev.user_id, ev.ts_hours, VISIT)
            else:
                nxt = stream[i + 1] if i + 1 < len(stream) else None
            yield ev, max(w0, 0.0), nxt
        state_start = ev.ts_hours  # both kinds start a new state


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
    by_user = _group_sorted(events, cfg)
    out: list[Observation] = []
    for user_id in sorted(by_user):
        for send, w0, nxt in _walk_user(by_user[user_id]):
            if nxt is None:
                continue
            duration = max(nxt.ts_hours - send.ts_hours, cfg.duration_floor_hours)
            x = schema.materialize(
                send.features, badge_count=send.badge_count, w0_hours=w0
            )
            out.append(
                Observation(
                    user_id=user_id,
                    x=x,
                    t_hours=duration,
                    uncensored=nxt.kind == VISIT,
                    origin_ts_hours=send.ts_hours,
                )
            )
    return out


def build_send_instances(
    events: Iterable[Event], schema: FeatureSchema, cfg: PipelineConfig
) -> list[SendInstance]:
    """Feature snapshot for every send, including trailing ones.

    This is the instance set for per-send labeling in evaluation, built
    with exactly the same state walk as build_observations.
    """
    by_user = _group_sorted(events, cfg)
    out: list[SendInstance] = []
    for user_id in sorted(by_user):
        for send, w0, _ in _walk_user(by_user[user_id]):
            x = schema.materialize(
                send.features, badge_count=send.badge_count, w0_hours=w0
            )
            out.append(SendInstance(user_id=user_id, ts_hours=send.ts_hours, x=x))
    return out

