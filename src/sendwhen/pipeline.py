"""Turn interleaved send/visit event logs into censored survival observations.

An event log is held as columns (EventColumns): one user code, timestamp,
kind and badge per event, and one (values, present) pair per feature, in
input order.  send_table walks every user's timeline once, with one sort
over all events, and returns one row per notification send: the send, how
long the user had already been in the pre-send state (w0), the successor
event and the first later visit.  Observations (sends with a successor,
as ObservationColumns), send instances (every send) and the evaluation
layer's naive labels are all views of that one table.  Event is one row of
a log, what iterating EventColumns yields.  SendInstance is one send's
snapshot; the commands build neither.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, SchemaError, at_row
from .features import FeatureSchema

__all__ = [
    "DEFAULT_HORIZONS",
    "LABELERS",
    "Event",
    "EventColumns",
    "EventColumnAppender",
    "ObservationColumns",
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
_KIND_SET = frozenset(_KINDS)

# the horizons (hours) and per-send labelers of the evaluation layer, whose
# labels are views of the send table; here so that the CLI can offer them
# without importing the trainers
DEFAULT_HORIZONS = (2.0, 4.0, 8.0, 12.0, 24.0, 36.0, 48.0)
LABELERS = ("naive", "censoring_clean")


def _check_event(user_id: str, ts_hours: float, kind: str, badge_count: int | None) -> None:
    """The checks every event passes, in this order."""
    if kind not in _KINDS:
        raise DataError(f"unknown event kind {kind!r}")
    if not (isinstance(ts_hours, (int, float)) and math.isfinite(ts_hours)):
        raise DataError(f"non-finite timestamp {ts_hours!r} for user {user_id!r}")
    if kind == SEND:
        if badge_count is None:
            raise DataError(
                f"send event at t={ts_hours} for user {user_id!r} is missing badge_count"
            )
        if badge_count < 0:
            raise DataError(f"negative badge_count {badge_count} for user {user_id!r}")


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
        _check_event(self.user_id, self.ts_hours, self.kind, self.badge_count)


@dataclass(frozen=True, eq=False)
class EventColumns:
    """An event log as columns, one entry per event in input order.

    user_ids holds the distinct users sorted as Python strings, and row i
    belongs to user_ids[user[i]], so codes order like the ids.
    badge_count is meaningful where has_badge is True.  features maps each
    feature name to (values, present) columns; values are nan where the
    event does not carry the feature.
    """

    user_ids: list[str]
    user: np.ndarray
    ts_hours: np.ndarray
    is_send: np.ndarray
    badge_count: np.ndarray
    has_badge: np.ndarray
    features: Mapping[str, tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return self.ts_hours.size

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventColumns":
        b = EventColumnAppender()
        for e in events:
            b.append(e.user_id, e.ts_hours, e.kind, e.badge_count, e.features)
        return b.build()

    def __iter__(self) -> Iterator[Event]:
        """Each event as a checked Event row, in input order."""
        ids = self.user_ids
        feats = [(name, v.tolist(), p.tolist()) for name, (v, p) in self.features.items()]
        for i, (u, t, s, b, hb) in enumerate(zip(
            self.user.tolist(), self.ts_hours.tolist(), self.is_send.tolist(),
            self.badge_count.tolist(), self.has_badge.tolist(),
        )):
            yield Event(ids[u], t, SEND if s else VISIT, b if hb else None,
                        {name: v[i] for name, v, p in feats if p[i]})


class EventColumnAppender:
    """Checks events, singly or a chunk at a time, and appends them to growing columns."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}  # user id -> code in order of first sight
        self._user = array("q")
        self._ts = array("d")
        self._send = bytearray()
        self._badge = array("q")
        self._has_badge = bytearray()
        self._features: dict[str, tuple[array, array]] = {}  # name -> (rows, values)

    def append(
        self,
        user_id: str,
        ts_hours: float,
        kind: str,
        badge_count: int | None,
        features: Mapping[str, float],
    ) -> None:
        """Append one event, or raise the DataError of its first failed check."""
        _check_event(user_id, ts_hours, kind, badge_count)
        row = len(self._ts)
        self._user.append(self._codes.setdefault(user_id, len(self._codes)))
        self._ts.append(ts_hours)
        self._send.append(kind == SEND)
        self._has_badge.append(badge_count is not None)
        self._badge.append(0 if badge_count is None else badge_count)
        for name, v in features.items():
            column = self._features.get(name)
            if column is None:
                column = self._features[name] = (array("q"), array("d"))
            column[0].append(row)
            column[1].append(v)

    def extend(
        self,
        user_ids: Sequence[str],
        ts_hours: Sequence[float],
        kinds: Sequence[str],
        badge_counts: Sequence[int | None],
        features: Mapping[str, tuple[Sequence[int], Sequence[float]]],
    ) -> bool:
        """Append a chunk of events given as columns, or none of them.

        The columns hold what append takes, one entry per event; features
        maps a name to (rows, values), the rows counted from the chunk's
        first event and new names in the order they first appear.  The
        chunk is appended only if every event passes append's checks and
        every badge count fits int64.  Otherwise nothing is appended and
        the result is False; appending the chunk's events one at a time
        then raises the error for the first bad one.
        """
        ts = array("d", ts_hours)
        is_send = bytes([k == SEND for k in kinds])
        has_badge = bytes([b is not None for b in badge_counts])
        try:
            badge = array("q", [0 if b is None else b for b in badge_counts])
        except OverflowError:
            return False
        sends = np.frombuffer(is_send, bool)
        if not (_KIND_SET.issuperset(kinds) and np.isfinite(np.frombuffer(ts)).all()
                and np.frombuffer(has_badge, bool)[sends].all()
                and (np.frombuffer(badge, np.int64)[sends] >= 0).all()):
            return False
        start, codes = len(self._ts), self._codes
        self._user.extend([codes.setdefault(u, len(codes)) for u in user_ids])
        self._ts.extend(ts)
        self._send.extend(is_send)
        self._badge.extend(badge)
        self._has_badge.extend(has_badge)
        for name, (rows, values) in features.items():
            column = self._features.get(name)
            if column is None:
                column = self._features[name] = (array("q"), array("d"))
            column[0].extend([start + r for r in rows])
            column[1].extend(values)
        return True

    def build(self) -> EventColumns:
        """The columns of every event appended; no event can be appended after."""
        n = len(self._ts)
        features = {}
        for name in list(self._features):  # each sparse pair is freed once spread
            rows, sparse = self._features.pop(name)
            rows = np.frombuffer(rows, np.int64)
            values, present = np.full(n, np.nan), np.zeros(n, bool)
            values[rows] = np.frombuffer(sparse, float)
            present[rows] = True
            features[name] = (values, present)
        ids = sorted(self._codes)
        rank = np.empty(len(ids), np.int64)
        rank[np.fromiter((self._codes[u] for u in ids), np.int64, len(ids))] = np.arange(len(ids))
        return EventColumns(
            user_ids=ids,
            user=rank[np.frombuffer(self._user, np.int64)],
            ts_hours=np.frombuffer(self._ts, float),
            is_send=np.frombuffer(self._send, bool),
            badge_count=np.frombuffer(self._badge, np.int64),
            has_badge=np.frombuffer(self._has_badge, bool),
            features=features,
        )


@dataclass(frozen=True, eq=False)
class ObservationColumns:
    """Censored survival triplets as columns; row i belongs to user_ids[user[i]].

    uncensored[i] is True iff the event following the origin send was a
    visit; otherwise t_hours[i] is the gap to the next notification.
    """

    user_ids: Sequence[str]
    user: np.ndarray
    x: np.ndarray  # (n, k)
    t_hours: np.ndarray
    uncensored: np.ndarray
    origin_ts_hours: np.ndarray

    def __len__(self) -> int:
        return self.t_hours.size


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
        # written so that a NaN fails each check
        if not (math.isfinite(self.duration_floor_hours) and self.duration_floor_hours > 0):
            raise DataError(
                f"duration_floor_hours must be finite and > 0, got {self.duration_floor_hours}"
            )
        for key in ("window_start", "window_end"):
            bound = getattr(self, key)
            if bound is not None and math.isnan(bound):
                raise DataError(f"{key} must be a number or null, got {bound}")
        if self.window_start is not None and self.window_end is not None:
            if self.window_end <= self.window_start:
                raise DataError("window_end must be greater than window_start")

    def window_rows(self, ts_hours: np.ndarray) -> np.ndarray:
        """Indices of the timestamps inside the window; both bounds are inclusive."""
        keep = np.ones(ts_hours.shape, bool)
        if self.window_start is not None:
            keep &= ts_hours >= self.window_start
        if self.window_end is not None:
            keep &= ts_hours <= self.window_end
        return np.flatnonzero(keep)


@dataclass(frozen=True, eq=False)
class SendTable:
    """One row per send inside the window, ordered by (user_id, time).

    rows holds each send's row in events.  w0_hours is the time the user
    had already spent in the pre-send state: hours since the latest
    preceding send or visit, zero when the send is the user's first event.
    next_ts_hours is the time of the successor event (nan when nothing
    follows inside the window) and uncensored says whether that successor
    is a visit.  next_visit_hours is the first visit strictly after the
    send (inf when there is none); later sends do not stop it.
    """

    events: EventColumns
    rows: np.ndarray
    ts_hours: np.ndarray
    w0_hours: np.ndarray
    next_ts_hours: np.ndarray
    uncensored: np.ndarray
    next_visit_hours: np.ndarray

    def __len__(self) -> int:
        return self.rows.size

    @property
    def user(self) -> np.ndarray:
        return self.events.user[self.rows]

    def matrix(self, schema: FeatureSchema, sends: np.ndarray | None = None) -> np.ndarray:
        """Feature snapshots of the given sends (all by default); an error's row is in events."""
        sends = slice(None) if sends is None else sends
        rows = self.rows[sends]
        names = set(schema.names)
        features = {
            name: (values[rows], present[rows])
            for name, (values, present) in self.events.features.items() if name in names
        }
        try:
            return schema.materialize_columns(
                features, self.events.badge_count[rows], self.w0_hours[sends]
            )
        except SchemaError as exc:
            raise at_row(exc, rows[exc.row])

    def observations(
        self, schema: FeatureSchema, duration_floor_hours: float
    ) -> ObservationColumns:
        """The censored triplets: one per send that has a successor."""
        sends = np.flatnonzero(~np.isnan(self.next_ts_hours))
        ts = self.ts_hours[sends]
        return ObservationColumns(
            user_ids=self.events.user_ids,
            user=self.user[sends],
            x=self.matrix(schema, sends),
            t_hours=np.maximum(self.next_ts_hours[sends] - ts, duration_floor_hours),
            uncensored=self.uncensored[sends],
            origin_ts_hours=ts,
        )

    def visited_within(self, horizon_t_hours: float) -> np.ndarray:
        """Per-send naive labels: did any visit land in (send, send + T]?"""
        return self.next_visit_hours <= self.ts_hours + horizon_t_hours


def send_table(events: EventColumns | Iterable[Event], cfg: PipelineConfig) -> SendTable:
    """Walk every user's timeline once and return the send table.

    Events are sorted by (user_id, time), with a visit before a send at the
    same timestamp (it is attributed to the prior state) and input order
    kept beyond that.  The successor of a send is the next event in that
    order, except that a visit at the very same timestamp counts as the
    successor (a floor-duration uncensored observation) even though it
    sorts before the send; that visit also ends any earlier pending
    observation, so a simultaneous pair is never silently dropped.
    """
    if not isinstance(events, EventColumns):
        events = EventColumns.from_events(events)
    kept = cfg.window_rows(events.ts_hours)
    n = kept.size
    user, ts, is_send = events.user[kept], events.ts_hours[kept], events.is_send[kept]
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
        events=events,
        rows=kept[order[s]],
        ts_hours=ts[s],
        w0_hours=np.where(same_user(s - 1), ts[s] - ts[s - 1], 0.0),
        next_ts_hours=np.where(tie, ts[s], np.where(has_next, ts[s + 1], np.nan)),
        uncensored=tie | (has_next & ~is_send[s + 1]),
        next_visit_hours=np.where(same_user(after), ts[after], np.inf),
    )


def build_observations(
    events: EventColumns | Iterable[Event], schema: FeatureSchema, cfg: PipelineConfig
) -> ObservationColumns:
    """One observation per send that has a successor event.

    Duration is the gap to the next event, clamped to the duration floor;
    it is uncensored iff that next event is a visit.  Trailing sends with
    nothing after them inside the window are dropped.  Output is ordered
    by (user_id, origin timestamp) so the result does not depend on input
    order.
    """
    return send_table(events, cfg).observations(schema, cfg.duration_floor_hours)


def build_send_instances(
    events: EventColumns | Iterable[Event], schema: FeatureSchema, cfg: PipelineConfig
) -> list[SendInstance]:
    """Feature snapshot for every send, including trailing ones.

    This is the instance set for per-send labeling in evaluation, in the
    same order as SendTable.visited_within.
    """
    table = send_table(events, cfg)
    ids = table.events.user_ids
    return [
        SendInstance(ids[u], ts, x)
        for u, ts, x in zip(table.user.tolist(), table.ts_hours.tolist(), table.matrix(schema))
    ]
