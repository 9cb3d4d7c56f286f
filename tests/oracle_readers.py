"""Reference readers: one line at a time, converted, checked and appended in order.

The read_events and read_observations_jsonl that converted each record
and appended it before reading the next, kept as oracles for the readers
that convert a chunk of rows at a time as columns.  A CSV row becomes the
record csv.DictReader reads; every event record goes through this
module's own row appender and event checks, so the first bad line, and
the first fault on it, names the DataError.
"""

import csv
import math
from array import array

import numpy as np

from sendwhen.errors import DataError, SchemaError
from sendwhen.io import (
    _NUMBER_TYPES,
    ROW_ERRORS,
    _open_input,
    json_int,
    json_number,
    json_str,
    line_of_record,
    read_jsonl,
)
from sendwhen.pipeline import EventColumns, ObservationColumns

_EVENT_META_COLUMNS = ("user_id", "ts_hours", "kind", "badge_count")
SEND, VISIT = "send", "visit"


def _check_event(user_id, ts_hours, kind, badge_count):
    """The checks every event passes, in this order."""
    if kind not in (SEND, VISIT):
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


class _RowAppender:
    """Checks one event at a time and appends it to growing columns."""

    def __init__(self):
        self.codes = {}  # user id -> code in order of first sight
        self.user, self.ts, self.badge = array("q"), array("d"), array("q")
        self.send, self.has_badge = bytearray(), bytearray()
        self.features = {}  # name -> (values, present), names in order of first sight

    def append(self, user_id, ts_hours, kind, badge_count, features):
        _check_event(user_id, ts_hours, kind, badge_count)
        for name in features:
            if name not in self.features:  # missing on every event so far
                n = len(self.ts)
                self.features[name] = (array("d", [math.nan] * n), bytearray(n))
        self.user.append(self.codes.setdefault(user_id, len(self.codes)))
        self.ts.append(ts_hours)
        self.send.append(kind == SEND)
        self.has_badge.append(badge_count is not None)
        self.badge.append(0 if badge_count is None else badge_count)  # int64 or OverflowError
        for name, (values, present) in self.features.items():
            values.append(features.get(name, math.nan))
            present.append(name in features)

    def build(self):
        """The columns, with user codes renumbered in the sorted order of the ids."""
        ids = sorted(self.codes)
        rank = {self.codes[u]: r for r, u in enumerate(ids)}
        return EventColumns(
            user_ids=ids,
            user=np.array([rank[c] for c in self.user], np.int64),
            ts_hours=np.frombuffer(self.ts, float),
            is_send=np.frombuffer(self.send, bool),
            badge_count=np.frombuffer(self.badge, np.int64),
            has_badge=np.frombuffer(self.has_badge, bool),
            features={name: (np.frombuffer(values, float), np.frombuffer(present, bool))
                      for name, (values, present) in self.features.items()},
        )


def _event_columns(records, where, badge_of, number_of):
    columns = _RowAppender()
    for lineno, rec in records:
        try:
            badge = rec.get("badge_count")
            columns.append(
                json_str(rec["user_id"], "user_id"),
                number_of(rec["ts_hours"], "ts_hours"),
                str(rec["kind"]),
                None if badge is None else badge_of(badge, "badge_count"),
                {k: number_of(v, k) for k, v in (rec.get("features") or {}).items()},
            )
        except DataError as exc:  # the event checks
            raise DataError(f"{where}:{lineno}: {exc}") from None
        except ROW_ERRORS as exc:
            raise DataError(f"{where}:{lineno}: malformed event record: {exc}") from exc
    return columns.build()


def _csv_records(path):
    """(line number, event record) per CSV row, as csv.DictReader reads them."""
    with _open_input(path) as f:
        rows = csv.reader(f)
        header = next(rows, None)
        if header is None:
            raise DataError(f"{path}: empty CSV (missing header row)")
        missing = [c for c in _EVENT_META_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")
        column = {name: i for i, name in enumerate(header)}
        iu, it, ik, ib = (column[c] for c in _EVENT_META_COLUMNS)
        features = [(c, i) for c, i in column.items() if c not in _EVENT_META_COLUMNS]
        pad = [None] * len(header)
        lineno = 1
        for row in rows:
            if not row:
                continue
            lineno += 1
            row += pad[len(row):]
            feats = {}
            if row[ik] == SEND:
                for c, i in features:
                    cell = (row[i] or "").strip()
                    if cell:
                        feats[c] = cell
            yield lineno, {
                "user_id": row[iu],
                "ts_hours": row[it],
                "kind": row[ik],
                "badge_count": (row[ib] or "").strip() or None,
                "features": feats,
            }


def read_events(path) -> EventColumns:
    """Read an event log into columns: .csv as CSV, anything else as JSONL."""
    if str(path).lower().endswith(".csv"):
        return _event_columns(_csv_records(path), str(path), lambda cell, _: int(cell),
                              lambda cell, _: float(cell))
    return _event_columns(read_jsonl(path), str(path), json_int, json_number)


def read_observations_jsonl(path, schema=None) -> ObservationColumns:
    """Read observations into columns; with a schema, every x must satisfy it."""
    codes = {}  # user id -> code in order of first sight
    user, x_values, t_hours, origin = array("q"), array("d"), array("d"), array("d")
    uncensored = bytearray()
    width = None  # every x has the length of the first
    for lineno, rec in read_jsonl(path):
        try:
            x, censored = rec["x"], rec["censored"]
            if type(censored) is not bool:
                raise ValueError(f"censored must be true or false, got {censored!r}")
            if type(x) is not list or not _NUMBER_TYPES.issuperset(map(type, x)):
                raise ValueError("x must be a list of numbers")
            width = len(x) if width is None else width
            if len(x) != width:
                raise ValueError(f"x has {len(x)} values, the first row {width}")
            user_id = json_str(rec["user_id"], "user_id")
            x_values.extend(x)
            t = json_number(rec["t_hours"], "t_hours")
            o = json_number(rec.get("origin_ts_hours", math.nan), "origin_ts_hours")
        except ROW_ERRORS as exc:
            raise DataError(f"{path}:{lineno}: malformed observation: {exc}") from exc
        if t <= 0 or not math.isfinite(t):
            raise DataError(f"{path}:{lineno}: non-positive duration {t}")
        user.append(codes.setdefault(user_id, len(codes)))
        t_hours.append(t)
        uncensored.append(not censored)
        origin.append(o)
    X = np.frombuffer(x_values, float).reshape(len(t_hours), width or 0)
    if schema is not None:
        try:
            schema.check_rows(X)
        except SchemaError as exc:
            raise SchemaError(f"{path}:{line_of_record(path, exc.row)}: {exc}") from None
    return ObservationColumns(
        user_ids=list(codes),
        user=np.frombuffer(user, np.int64),
        x=X,
        t_hours=np.frombuffer(t_hours, float),
        uncensored=np.frombuffer(uncensored, bool),
        origin_ts_hours=np.frombuffer(origin, float),
    )
