"""Turn interleaved send/visit event logs into censored survival observations.

An event log is held as columns (EventColumns): one user code, timestamp,
kind and badge per event, and one (values, present) pair per feature, in
input order.  send_table walks every user's timeline once, with one sort
over all events, and returns one row per notification send: the send's
snapshot, how long the user had already been in the pre-send state (w0),
the successor event and the first later visit; the table holds nothing
else of the log, so the log can be dropped once walked.  Observations (sends with a successor,
as ObservationColumns), send instances (every send) and the evaluation
layer's naive labels are all views of that one table.  Event is one row of
a log, what iterating EventColumns yields, and holds the checks every event
passes; a reader builds one only to name a bad line.  SendInstance is one
send's snapshot, which the commands do not build.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, SchemaError, at_row, check_positive
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

_NAN = array("d", [math.nan])
# rows a whole-log step takes at a time, so that its temporaries stay this
# many rows long however long the log is.  On the 2k-user nightly log,
# send_table and observations took the same time at 4,096 and 65,536 rows
# and their traced peak fell from 6.3 to 4.4 MB; 1,024 was slower
_CHUNK_ROWS = 4096


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
        """The checks every event passes, in this order."""
        user_id, ts_hours, badge_count = self.user_id, self.ts_hours, self.badge_count
        if self.kind not in _KINDS:
            raise DataError(f"unknown event kind {self.kind!r}")
        if not (isinstance(ts_hours, (int, float)) and math.isfinite(ts_hours)):
            raise DataError(f"non-finite timestamp {ts_hours!r} for user {user_id!r}")
        if self.kind == SEND:
            if badge_count is None:
                raise DataError(
                    f"send event at t={ts_hours} for user {user_id!r} is missing badge_count"
                )
            if badge_count < 0:
                raise DataError(f"negative badge_count {badge_count} for user {user_id!r}")


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
    """Checks events a chunk at a time and appends them to growing columns.

    Every column, features too, grows one entry per event, so build only
    wraps the columns as arrays and copies none of them.
    """

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}  # user id -> code in order of first sight
        self._user = array("q")
        self._ts = array("d")
        self._send = bytearray()
        self._badge = array("q")
        self._has_badge = bytearray()
        self._features: dict[str, tuple[array, bytearray]] = {}  # name -> (values, present)

    def extend(
        self,
        user_ids: Sequence[str],
        ts_hours: Sequence[float],
        kinds: Sequence[str],
        badge_counts: Sequence[int | None],
        features: Mapping[str, tuple[Sequence[int], Sequence[float]]],
    ) -> bool:
        """Append a chunk of events given as columns, or none of them.

        The columns hold one entry per event, each field as Event takes it;
        features maps a name to (rows, values), the rows counted from the
        chunk's first event and new names in the order they first appear.
        The chunk is appended only if every event passes Event's checks and
        every badge count fits int64.  Otherwise nothing is appended and the
        result is False, and the reader converts the chunk's records one at
        a time to raise the error of the first bad one.
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
        n, codes = len(ts), self._codes
        dense = {}  # the chunk's entries of each feature it carries, as bytes
        for name, (rows, values) in features.items():
            v, p = np.full(n, math.nan), np.zeros(n, bool)
            v[rows] = values
            p[rows] = True
            dense[name] = v.tobytes(), p.tobytes()
            if name not in self._features:  # missing on every event so far
                self._features[name] = (_NAN * len(self._ts), bytearray(len(self._ts)))
        self._user.extend([codes.setdefault(u, len(codes)) for u in user_ids])
        self._ts.extend(ts)
        self._send.extend(is_send)
        self._badge.extend(badge)
        self._has_badge.extend(has_badge)
        missing = (_NAN * n).tobytes(), bytes(n)
        for name, (values, present) in self._features.items():
            v, p = dense.get(name, missing)
            values.frombytes(v)
            present.extend(p)
        return True

    def build(self) -> EventColumns:
        """The columns of every event appended, once; no event can be appended after."""
        ids = sorted(self._codes)
        rank = np.empty(len(ids), np.int64)
        rank[np.fromiter((self._codes[u] for u in ids), np.int64, len(ids))] = np.arange(len(ids))
        user = np.frombuffer(self._user, np.int64)
        for lo in range(0, user.size, _CHUNK_ROWS):  # codes become ranks in place
            user[lo:lo + _CHUNK_ROWS] = rank[user[lo:lo + _CHUNK_ROWS]]
        return EventColumns(
            user_ids=ids,
            user=user,
            ts_hours=np.frombuffer(self._ts, float),
            is_send=np.frombuffer(self._send, bool),
            badge_count=np.frombuffer(self._badge, np.int64),
            has_badge=np.frombuffer(self._has_badge, bool),
            features={name: (np.frombuffer(values, float), np.frombuffer(present, bool))
                      for name, (values, present) in self._features.items()},
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
        check_positive(self.duration_floor_hours, "duration_floor_hours", DataError)
        for key in ("window_start", "window_end"):
            bound = getattr(self, key)
            if bound is not None and math.isnan(bound):
                raise DataError(f"{key} must be a number or null, got {bound}")
        if self.window_start is not None and self.window_end is not None:
            if self.window_end <= self.window_start:
                raise DataError("window_end must be greater than window_start")

    def window_rows(self, ts_hours: np.ndarray) -> np.ndarray | None:
        """Indices of the timestamps inside the window, or None when there is no window.

        Both bounds are inclusive.
        """
        if self.window_start is None and self.window_end is None:
            return None
        keep = np.ones(ts_hours.shape, bool)
        if self.window_start is not None:
            keep &= ts_hours >= self.window_start
        if self.window_end is not None:
            keep &= ts_hours <= self.window_end
        return np.flatnonzero(keep)


@dataclass(frozen=True, eq=False)
class SendTable:
    """One row per send inside the window, ordered by (user_id, time).

    rows holds each send's row in the event log, user its user's code in
    user_ids, and badge_count and features (name -> (values, present))
    its snapshot, so the table reads nothing more of the log.  w0_hours
    is the time the user had already spent in the pre-send state: hours
    since the latest preceding send or visit, zero when the send is the
    user's first event.  next_ts_hours is the time of the successor event
    (nan when nothing follows inside the window) and uncensored says
    whether that successor is a visit.  next_visit_hours is the first
    visit strictly after the send (inf when there is none); later sends
    do not stop it.
    """

    user_ids: Sequence[str]
    rows: np.ndarray
    user: np.ndarray
    badge_count: np.ndarray
    features: Mapping[str, tuple[np.ndarray, np.ndarray]]
    ts_hours: np.ndarray
    w0_hours: np.ndarray
    next_ts_hours: np.ndarray
    uncensored: np.ndarray
    next_visit_hours: np.ndarray

    def __len__(self) -> int:
        return self.rows.size

    def matrix(self, schema: FeatureSchema, sends: np.ndarray | None = None) -> np.ndarray:
        """Feature snapshots of the sends a boolean mask picks (all by default).

        An error's row is in the log.  The matrix is built _CHUNK_ROWS sends
        at a time, so the columns gathered for it stay that short; each row
        is built on its own, so the first bad row is the same as in one step.
        """
        n = len(self) if sends is None else int(np.count_nonzero(sends))
        names = set(schema.names)
        X = np.empty((n, len(schema)))
        done = 0
        for lo in range(0, len(self), _CHUNK_ROWS):
            part = slice(lo, lo + _CHUNK_ROWS)
            if sends is not None:
                part = lo + np.flatnonzero(sends[part])
            features = {name: (values[part], present[part])
                        for name, (values, present) in self.features.items() if name in names}
            try:
                chunk = schema.materialize_columns(
                    features, self.badge_count[part], self.w0_hours[part]
                )
            except SchemaError as exc:
                raise at_row(exc, self.rows[part][exc.row])
            X[done:done + len(chunk)] = chunk
            done += len(chunk)
        return X

    def observations(
        self, schema: FeatureSchema, duration_floor_hours: float
    ) -> ObservationColumns:
        """The censored triplets: one per send that has a successor."""
        sends = ~np.isnan(self.next_ts_hours)
        ts = self.ts_hours[sends]
        t = self.next_ts_hours[sends]
        t -= ts
        return ObservationColumns(
            user_ids=self.user_ids,
            user=self.user[sends],
            x=self.matrix(schema, sends),
            t_hours=np.maximum(t, duration_floor_hours, out=t),
            uncensored=self.uncensored[sends],
            origin_ts_hours=ts,
        )

    def visited_within(self, horizon_t_hours: float) -> np.ndarray:
        """Per-send naive labels: did any visit land in (send, send + T]?"""
        return self.next_visit_hours <= self.ts_hours + horizon_t_hours


def _sorted_with_sentinel(column: np.ndarray, order: np.ndarray, sentinel) -> np.ndarray:
    """column[order] with sentinel appended, written into one new array."""
    out = np.empty(order.size + 1, column.dtype)
    # clip: order holds no index out of range, and mode "raise" would buffer a copy of out
    np.take(column, order, out=out[:-1], mode="clip")
    out[-1] = sentinel
    return out


def send_table(events: EventColumns, cfg: PipelineConfig) -> SendTable:
    """Walk every user's timeline once and return the send table.

    Events are sorted by (user_id, time), with a visit before a send at the
    same timestamp (it is attributed to the prior state) and input order
    kept beyond that.  The successor of a send is the next event in that
    order, except that a visit at the very same timestamp counts as the
    successor (a floor-duration uncensored observation) even though it
    sorts before the send; that visit also ends any earlier pending
    observation, so a simultaneous pair is never silently dropped.

    Each temporary is freed once read, and the walk after the sort takes
    _CHUNK_ROWS events at a time, so beside the log and the table it holds
    about three sorted columns.
    """
    kept = cfg.window_rows(events.ts_hours)
    if kept is None:
        order = np.lexsort((events.is_send, events.ts_hours, events.user))
    else:
        order = kept[np.lexsort((events.is_send[kept], events.ts_hours[kept], events.user[kept]))]
        del kept
    # the sorted columns; a sentinel at position n (reached as -1 too) belongs to no user
    n = order.size
    user = _sorted_with_sentinel(events.user, order, -1)
    ts = _sorted_with_sentinel(events.ts_hours, order, np.inf)
    is_send = _sorted_with_sentinel(events.is_send, order, True)
    visits = np.append(np.flatnonzero(~is_send), n)
    rows = order[is_send[:n]]
    del order

    m = rows.size
    send_ts, w0, next_ts, next_visit = np.empty(m), np.empty(m), np.empty(m), np.empty(m)
    uncensored = np.empty(m, bool)
    done = 0
    for lo in range(0, n, _CHUNK_ROWS):
        s = lo + np.flatnonzero(is_send[lo:min(lo + _CHUNK_ROWS, n)])
        out = slice(done, done + s.size)
        done += s.size
        k = np.searchsorted(visits, s)
        after, before = visits[k], visits[k - 1]  # nearest visits on either side
        u, t = user[s], ts[s]
        tie = (user[before] == u) & (ts[before] == t)
        has_next = user[s + 1] == u
        send_ts[out] = t
        w0[out] = np.where(user[s - 1] == u, t - ts[s - 1], 0.0)
        next_ts[out] = np.where(tie, t, np.where(has_next, ts[s + 1], np.nan))
        uncensored[out] = tie | (has_next & ~is_send[s + 1])
        next_visit[out] = np.where(user[after] == u, ts[after], np.inf)
    del user, ts, is_send, visits
    return SendTable(
        user_ids=events.user_ids,
        rows=rows,
        user=events.user[rows],
        badge_count=events.badge_count[rows],
        features={name: (values[rows], present[rows])
                  for name, (values, present) in events.features.items()},
        ts_hours=send_ts,
        w0_hours=w0,
        next_ts_hours=next_ts,
        uncensored=uncensored,
        next_visit_hours=next_visit,
    )


def build_observations(
    events: EventColumns, schema: FeatureSchema, cfg: PipelineConfig
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
    events: EventColumns, schema: FeatureSchema, cfg: PipelineConfig
) -> list[SendInstance]:
    """Feature snapshot for every send, including trailing ones.

    This is the instance set for per-send labeling in evaluation, in the
    same order as SendTable.visited_within.
    """
    table = send_table(events, cfg)
    ids = table.user_ids
    return [
        SendInstance(ids[u], ts, x)
        for u, ts, x in zip(table.user.tolist(), table.ts_hours.tolist(), table.matrix(schema))
    ]
