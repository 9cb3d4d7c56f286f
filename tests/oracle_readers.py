"""Reference readers: one line at a time, converted and checked in order.

The read_events and read_observations_jsonl that converted each record
and appended it before reading the next, kept as oracles for the readers
that convert a chunk of rows at a time as columns.  A CSV row becomes the
record csv.DictReader reads; every event record goes through
EventColumnAppender.append, so the first bad line, and the first fault on
it, names the DataError.
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
from sendwhen.pipeline import SEND, EventColumnAppender, EventColumns, ObservationColumns

_EVENT_META_COLUMNS = ("user_id", "ts_hours", "kind", "badge_count")


def _event_columns(records, where, badge_of, number_of):
    columns = EventColumnAppender()
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
