"""Reference event-log reader: one line at a time, converted and checked in order.

The read_events that converted each record and appended it before reading
the next, kept as an oracle for the reader that converts a chunk of rows
at a time as columns.  A CSV row becomes the record csv.DictReader reads;
every record goes through EventColumnAppender.append, so the first bad
line, and the first fault on it, names the DataError.
"""

import csv

from sendwhen.errors import DataError
from sendwhen.io import ROW_ERRORS, _open_input, json_int, json_number, json_str, read_jsonl
from sendwhen.pipeline import SEND, EventColumnAppender, EventColumns

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
