"""File formats: JSONL event logs, CSV event logs, observations, configs.

read_jsonl parses every JSONL input line by line.  Event logs,
observations, contexts and scores go from there (or from csv.reader)
straight into typed arrays (read_events, read_observations_jsonl,
read_contexts, read_scores), so no Python object per row outlives its
line, or for event logs and observations its chunk.  read_events and
read_observations_jsonl convert and check a chunk of rows at a time as
columns, and a chunk that fails row by row; the other readers convert and
check each line in order.  Either way a DataError names the first bad
line.  Events, observations, deltas and decisions are written with one
f-string template per format, _WRITE_ROWS rows turned to text at a time,
and contexts by write_jsonl; either way a line's bytes equal
json.dumps(record, sort_keys=True, separators=(",", ":")), so identical
in-memory data always produces identical files.
Every input file is opened by one helper, so a missing or unreadable
input is a DataError naming the path.  See FORMATS.md at the
repository root for the field-by-field reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from array import array
from contextlib import contextmanager
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, SchemaError
from .features import FeatureSchema
from .pipeline import SEND, EventColumnAppender, EventColumns, ObservationColumns

if TYPE_CHECKING:
    from .policies import PolicyResult
    from .training import LogisticModel, WeibullAftModel

__all__ = [
    "read_jsonl",
    "write_jsonl",
    "read_contexts",
    "write_deltas_jsonl",
    "read_scores",
    "write_decisions_jsonl",
    "write_events_jsonl",
    "read_events",
    "write_observations_jsonl",
    "read_observations_jsonl",
    "write_schema_json",
    "read_schema_json",
    "write_model_json",
    "read_model_json",
    "load_json_config",
    "dump_json",
    "file_sha256",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1

_EVENT_META_COLUMNS = ("user_id", "ts_hours", "kind", "badge_count")
_NUMBER_TYPES = frozenset({int, float})  # what a JSON number parses to; bool is not one
_STR, _DICT, _BADGE_TYPES = frozenset({str}), frozenset({dict}), frozenset({int, type(None)})
_LIST, _BOOL = frozenset({list}), frozenset({bool})
# rows converted as columns in one step; each row's parsed fields stay alive
# until its chunk is converted, so this bounds the reader's memory
_CHUNK_ROWS = 128
# a parsed observation line holds about 1.4 kB, twice an event line
_OBSERVATION_CHUNK_ROWS = 64
# rows a writer converts to text at a time, so its lists of Python objects
# stay this long however many rows it writes.  Writing the 2k-user nightly
# observations or events took the same time at 512 to 4,096 rows, and the
# traced peak grows by about 600 bytes a row: 0.7 MB at 1,024, 4.9 at 8,192
_WRITE_ROWS = 1024
# what converting one record's fields can raise; the readers report each as
# a malformed row on its line
ROW_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


# one encoder for every JSONL line; json.dumps with these arguments would
# build the same encoder again on each call
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode


def dump_json(path: str | Path, obj) -> None:
    """Write a canonical (sorted-keys, round-trip floats) JSON document."""
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


@contextmanager
def _open_input(path: str | Path, what: str = "input"):
    try:
        # newline="" lets the csv module see raw line ends; JSON readers strip them
        f = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc.strerror}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {what} file {path}: not UTF-8 ({exc.reason})") from None


def _read_json(path: str | Path, what: str = "input"):
    try:
        with _open_input(path, what) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


def _parse_line(line: str):
    """json.loads(line) for a stripped line, through one raw_decode when it parses.

    A stripped line starts and ends with no JSON whitespace, so raw_decode
    reads it whole exactly when json.loads accepts it; any other line goes
    to json.loads, for its error.
    """
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSONL file."""
    with _open_input(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = _parse_line(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """Write one canonical (sorted keys, compact) JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(_encode_line(rec) + "\n")


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- events -----------------------------------------------------------------


def json_int(v, name: str) -> int:
    """A JSON integer field: an int, never a bool or a float."""
    if type(v) is not int:
        raise TypeError(f"{name} must be an integer, got {v!r}")
    return v


def json_str(v, name: str) -> str:
    """A JSON string field: a str, never a number or null."""
    if type(v) is not str:
        raise TypeError(f"{name} must be a string, got {v!r}")
    return v


def json_number(v, name: str) -> float:
    """A JSON number field as a float: an int or a float, never a bool or a string."""
    if type(v) not in _NUMBER_TYPES:
        raise TypeError(f"{name} must be a number, got {v!r}")
    return float(v)


def _append_records(
    columns: EventColumnAppender, records: Iterable[tuple[int, Mapping]], where: str,
    badge_of: Callable[[object, str], int], number_of: Callable[[object, str], float],
) -> None:
    """Convert and check each (line number, record), then append it to columns.

    The conversions run in a fixed order (user_id, ts_hours, kind,
    badge_count, features) and the event checks after them, so the first
    bad line, and the first fault on it, names the error.  badge_of(value,
    name) converts a present badge_count and number_of(value, name) a
    number: json_int and json_number for JSON, int and float for CSV text.
    """
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


def _chunks(items: Iterator, rows: int = _CHUNK_ROWS) -> Iterator[list]:
    """Lists of up to rows consecutive items.

    When reading items raises (a line that is not JSON, a file that is not
    UTF-8), the items read before the fault are yielded first, so a bad row
    before it is still the error, as it is for a reader that takes one row
    at a time.
    """
    chunk: list = []
    try:
        for item in items:
            chunk.append(item)
            if len(chunk) == rows:
                yield chunk
                chunk = []
    except (ValueError, OSError, csv.Error):  # DataError and UnicodeDecodeError are ValueErrors
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _all_of(types: frozenset, values: Iterable) -> bool:
    return types.issuperset(map(type, values))


def _json_chunk(recs: Sequence[dict]) -> tuple | None:
    """A chunk of JSONL event records as the columns EventColumnAppender.extend takes.

    None when a record lacks a field or holds one of a type that
    _append_records refuses, or a number does not convert to a float.
    """
    try:
        user_ids = [r["user_id"] for r in recs]
        times = [r["ts_hours"] for r in recs]
        kinds = [r["kind"] for r in recs]
        badges = [r.get("badge_count") for r in recs]
        carried = [(i, f) for i, f in enumerate([r.get("features") for r in recs]) if f]
        if not (_all_of(_STR, user_ids) and _all_of(_NUMBER_TYPES, times)
                and _all_of(_STR, kinds) and _all_of(_BADGE_TYPES, badges)
                and _all_of(_DICT, (f for _, f in carried))):
            return None
        features: dict[str, tuple[list[int], list]] = {}
        for i, f in carried:
            for name, v in f.items():
                column = features.get(name)
                if column is None:
                    column = features[name] = ([], [])
                column[0].append(i)
                column[1].append(v)
        for _, values in features.values():
            if not _all_of(_NUMBER_TYPES, values):
                return None
            values[:] = map(float, values)
        return user_ids, list(map(float, times)), kinds, badges, features
    except ROW_ERRORS:
        return None


class _CsvLayout(NamedTuple):
    """Where a CSV event log's header puts each field."""

    user_id: int
    ts_hours: int
    kind: int
    badge_count: int
    features: list[tuple[str, int]]  # (name, column), every column not a meta column
    width: int


def _csv_rows(f, path: str | Path) -> tuple[_CsvLayout, Iterator[tuple[int, list[str]]]]:
    """The header's layout, and (line number, row) for each later non-blank row.

    Lines are counted as csv.DictReader counts them: a blank row is skipped
    and not counted.
    """
    rows = csv.reader(f)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty CSV (missing header row)")
    missing = [c for c in _EVENT_META_COLUMNS if c not in header]
    if missing:
        raise DataError(f"{path}: header is missing columns {missing}")
    column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    layout = _CsvLayout(
        *(column[c] for c in _EVENT_META_COLUMNS),
        features=[(c, i) for c, i in column.items() if c not in _EVENT_META_COLUMNS],
        width=len(header),
    )
    return layout, enumerate(filter(None, rows), start=2)


def _csv_record(layout: _CsvLayout, row: list[str]) -> dict:
    """A CSV row as the event record csv.DictReader reads.

    Every extra column is a feature, read on sends only.  A short row reads
    None in its missing cells.
    """
    row = row + [None] * (layout.width - len(row))
    features = {}
    if row[layout.kind] == SEND:
        for name, i in layout.features:
            cell = (row[i] or "").strip()
            if cell:
                features[name] = cell
    return {
        "user_id": row[layout.user_id],
        "ts_hours": row[layout.ts_hours],
        "kind": row[layout.kind],
        "badge_count": (row[layout.badge_count] or "").strip() or None,
        "features": features,
    }


def _csv_chunk(layout: _CsvLayout, rows: Sequence[list[str]]) -> tuple | None:
    """A chunk of CSV rows as the columns EventColumnAppender.extend takes.

    None when a cell does not convert, and for a short row, which the
    column step does not take.
    """
    if min(map(len, rows)) < layout.width:
        return None
    columns = list(zip(*rows))
    kinds = columns[layout.kind]
    sends = [i for i, kind in enumerate(kinds) if kind == SEND]
    try:
        times = list(map(float, columns[layout.ts_hours]))
        badges = [int(c) if c else None for c in map(str.strip, columns[layout.badge_count])]
        features = {}
        for name, j in layout.features:
            cells = [columns[j][i].strip() for i in sends]
            carried = sends if all(cells) else [i for i, c in zip(sends, cells) if c]
            if carried:
                features[name] = (carried, list(map(float, filter(None, cells))))
    except ROW_ERRORS:
        return None
    # in order of first appearance, as appending row by row adds them
    features = dict(sorted(features.items(), key=lambda item: item[1][0][0]))
    return columns[layout.user_id], times, kinds, badges, features


def read_events(path: str | Path) -> EventColumns:
    """Read an event log into columns: .csv as CSV, anything else as JSONL.

    Each chunk of rows is converted and checked as columns in one step.  A
    chunk that fails, or that the column step does not take, is converted
    row by row instead, which raises the error for its first bad line.
    """
    where, columns = str(path), EventColumnAppender()
    if where.lower().endswith(".csv"):
        with _open_input(path) as f:
            layout, rows = _csv_rows(f, path)
            for chunk in _chunks(rows):
                converted = _csv_chunk(layout, [row for _, row in chunk])
                if converted is None or not columns.extend(*converted):
                    _append_records(columns, ((n, _csv_record(layout, row)) for n, row in chunk),
                                    where, lambda cell, _: int(cell), lambda cell, _: float(cell))
    else:
        for chunk in _chunks(read_jsonl(path)):
            converted = _json_chunk([rec for _, rec in chunk])
            if converted is None or not columns.extend(*converted):
                _append_records(columns, chunk, where, json_int, json_number)
    return columns.build()


def line_of_record(path: str | Path, row: int) -> int:
    """Line of the row-th record of a JSONL or CSV file, read again, as its reader counts."""
    if not str(path).lower().endswith(".csv"):
        return next(islice(read_jsonl(path), row, None))[0]
    with _open_input(path) as f:
        return next(islice(_csv_rows(f, path)[1], row, None))[0]


def _json_float(v: float) -> str:
    return float.__repr__(v) if v - v == 0.0 else _encode_line(v)  # NaN, Infinity


def _json_scalar(v) -> str:
    """v as json.dumps writes it, without building a dict around it."""
    t = type(v)
    if t is float:
        return _json_float(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    return _encode_line(v)


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float as json.dumps writes it."""
    fmt = float.__repr__ if np.isfinite(values).all() else _json_float
    return list(map(fmt, values.tolist()))


def _json_floats_once(values: np.ndarray) -> list[str]:
    """_json_floats(values) for values that repeat, formatting each distinct one once.

    Values are told apart by their bits, since -0.0 == 0.0 is written
    differently; the bits are sorted here because np.unique would import
    numpy.ma.
    """
    bits = np.ascontiguousarray(values, float).view(np.int64)
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.ones(bits.size, bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    slot = np.empty(bits.size, np.intp)
    slot[order] = np.cumsum(first) - 1
    return list(map(_json_floats(ordered[first].view(float)).__getitem__, slot.tolist()))


def _parts(n: int) -> Iterator[slice]:
    """Consecutive slices of _WRITE_ROWS rows that cover n rows."""
    return (slice(lo, lo + _WRITE_ROWS) for lo in range(0, n, _WRITE_ROWS))


def _float_lists(x: np.ndarray) -> list[str]:
    """Each row of an (n, k) float matrix as json.dumps writes its list's items.

    Rows such as feature vectors repeat values (an intercept, a profile per
    user), so each distinct value is formatted once.
    """
    n, k = x.shape
    if k == 0:
        return [""] * n
    return list(map(",".join, zip(*[iter(_json_floats_once(x.ravel()))] * k)))


def _feature_members(events: EventColumns, part: slice) -> list[str]:
    """Each row's '"features":{...},' member, or "" for a row with no features.

    A member lists the row's present features in sorted-name order.  Rows
    whose present features and values are bit for bit the same share one
    formatted member, so a profile repeated on every send is formatted once.
    """
    names = sorted(events.features)
    if not names:
        return [""] * len(events.ts_hours[part])
    present = np.column_stack([events.features[name][1][part] for name in names])
    values = np.column_stack([events.features[name][0][part] for name in names])
    bits = np.hstack([present, np.where(present, values.view(np.int64), 0)])
    rows = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()  # a row as bytes
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    keys = [_json_scalar(name) for name in names]
    members = []
    for i in first.tolist():
        shown = ",".join(f"{k}:{_json_float(v)}" for k, v, p in
                         zip(keys, values[i].tolist(), present[i].tolist()) if p)
        members.append(f'"features":{{{shown}}},' if shown else "")
    return [members[j] for j in inverse.tolist()]


def _event_rows(events: EventColumns) -> Iterator[tuple]:
    """Each event's JSON field values as text, converting a part at a time."""
    ids = [_json_scalar(u) for u in events.user_ids]  # encoded once per user
    for part in _parts(len(events)):
        yield from zip(
            [ids[u] for u in events.user[part].tolist()],
            _json_floats(events.ts_hours[part]),
            ['"send"' if s else '"visit"' for s in events.is_send[part].tolist()],
            [int.__repr__(b) if hb else "null" for b, hb in
             zip(events.badge_count[part].tolist(), events.has_badge[part].tolist())],
            _feature_members(events, part),
        )


def write_events_jsonl(path: str | Path, events: EventColumns) -> None:
    """One line per event, the bytes write_jsonl would write for its record."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(
            f'{{"badge_count":{badge},{features}"kind":{kind},'
            f'"ts_hours":{t},"user_id":{user_id}}}\n'
            for user_id, t, kind, badge, features in _event_rows(events)
        )


# -- observations -------------------------------------------------------------


def write_observations_jsonl(path: str | Path, observations: ObservationColumns) -> None:
    """One line per observation, the bytes write_jsonl would write for its record."""
    obs = observations
    ids = [_json_scalar(u) for u in obs.user_ids]  # encoded once per user
    with open(path, "w", encoding="utf-8") as f:
        for part in _parts(len(obs)):
            f.writelines(
                f'{{"censored":{"false" if uncensored else "true"},"origin_ts_hours":{origin},'
                f'"t_hours":{t},"user_id":{ids[u]},"x":[{x}]}}\n'
                for u, uncensored, t, origin, x in zip(
                    obs.user[part].tolist(), obs.uncensored[part].tolist(),
                    _json_floats(obs.t_hours[part]), _json_floats(obs.origin_ts_hours[part]),
                    _float_lists(obs.x[part]),
                )
            )


def _observation_chunk(recs: Sequence[dict], width: int | None) -> tuple | None:
    """A chunk of observation records as columns, and the width of x.

    Returns (width, user ids, x, t_hours, origin_ts_hours, uncensored), x
    flat.  None when a record lacks a field or holds one of a type that the
    row-by-row conversion refuses, an x has another length than the first
    row's, a number does not convert to a float or a duration is not
    positive and finite.
    """
    try:
        xs = [r["x"] for r in recs]
        censored = [r["censored"] for r in recs]
        user_ids = [r["user_id"] for r in recs]
        times = [r["t_hours"] for r in recs]
        origins = [r.get("origin_ts_hours", math.nan) for r in recs]
        if not (_all_of(_LIST, xs) and _all_of(_BOOL, censored) and _all_of(_STR, user_ids)
                and _all_of(_NUMBER_TYPES, times) and _all_of(_NUMBER_TYPES, origins)):
            return None
        width = len(xs[0]) if width is None else width
        x = list(chain.from_iterable(xs))
        if set(map(len, xs)) != {width} or not _all_of(_NUMBER_TYPES, x):
            return None
        times = array("d", times)
        if not all(0.0 < t < math.inf for t in times):
            return None
        return (width, user_ids, array("d", x), times, array("d", origins),
                [not c for c in censored])
    except ROW_ERRORS:
        return None


def read_observations_jsonl(
    path: str | Path, schema: FeatureSchema | None = None
) -> ObservationColumns:
    """Read observations into columns; with a schema, every x must satisfy it.

    Each chunk of lines is converted and checked as columns in one step.  A
    chunk that fails is converted line by line instead, which raises the
    error for its first bad line.
    """
    codes: dict[str, int] = {}  # user id -> code in order of first sight
    user, x_values, t_hours, origin = array("q"), array("d"), array("d"), array("d")
    uncensored = bytearray()
    width = None  # every x has the length of the first
    for chunk in _chunks(read_jsonl(path), _OBSERVATION_CHUNK_ROWS):
        converted = _observation_chunk([rec for _, rec in chunk], width)
        if converted is not None:
            width, user_ids, x, t, o, u = converted
            user.extend([codes.setdefault(user_id, len(codes)) for user_id in user_ids])
            x_values += x
            t_hours += t
            origin += o
            uncensored.extend(u)
            continue
        for lineno, rec in chunk:
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


# -- the decision cycle: contexts, deltas, scores, decisions -----------------------


def read_contexts(
    path: str | Path, schema: FeatureSchema
) -> tuple[list[str], dict[str, tuple[array, bytearray]], np.ndarray, np.ndarray]:
    """Read scoring contexts into columns: user ids, features, badge counts, w0_hours.

    features maps each base slot of the schema to (values, present)
    columns, as FeatureSchema.materialize_columns takes them.  A feature
    the schema does not name is checked as a number, then dropped.
    """
    user_ids: list[str] = []
    badges, w0 = array("d"), array("d")
    features = {s.name: (array("d"), bytearray()) for s in schema.slots if s.kind == "base"}
    for lineno, rec in read_jsonl(path):
        try:
            user_ids.append(json_str(rec["user_id"], "user_id"))
            row = rec["features"]
            if type(row) is not dict:
                raise TypeError(f"features must be a JSON object, got {row!r}")
            row = {k: json_number(v, k) for k, v in row.items()}
            badges.append(json_int(rec["badge_count"], "badge_count"))
            w0.append(json_number(rec["w0_hours"], "w0_hours"))
        except ROW_ERRORS as exc:
            raise DataError(f"{path}:{lineno}: malformed context: {exc}") from exc
        for name, (values, present) in features.items():
            values.append(row.get(name, math.nan))
            present.append(name in row)
    return user_ids, features, np.frombuffer(badges, float), np.frombuffer(w0, float)


def read_scores(
    path: str | Path,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read score rows into columns: user ids, delta, p_wait, p_click, has_p_click.

    A row whose p_click is missing or null reads nan in p_click and False
    in has_p_click.  The values are not range-checked here (see
    policies.CandidateColumns).
    """
    user_ids: list[str] = []
    delta, p_wait, p_click = array("d"), array("d"), array("d")
    has_p_click = bytearray()
    for lineno, rec in read_jsonl(path):
        try:
            user_ids.append(json_str(rec["user_id"], "user_id"))
            delta.append(json_number(rec["delta"], "delta"))
            p_wait.append(json_number(rec["p_wait"], "p_wait"))
            p = rec.get("p_click")
            p_click.append(math.nan if p is None else json_number(p, "p_click"))
        except ROW_ERRORS as exc:
            raise DataError(f"{path}:{lineno}: malformed score row: {exc}") from exc
        has_p_click.append(p is not None)
    return (user_ids, *(np.frombuffer(c, float) for c in (delta, p_wait, p_click)),
            np.frombuffer(has_p_click, bool))


def write_deltas_jsonl(
    path: str | Path, user_ids: Sequence[str], w0_hours: np.ndarray, scores: Mapping,
    horizon_T: float, model_version: str,
) -> None:
    """One line per user of score_columns's scores, the bytes write_jsonl would write."""
    alpha, horizon = _json_scalar(float(scores["alpha"])), _json_scalar(float(horizon_T))
    version = _json_scalar(model_version)
    columns = [scores[k] for k in ("delta", "lambda0", "lambda1", "p_send", "p_wait")]
    columns.append(np.asarray(w0_hours, dtype=float))
    with open(path, "w", encoding="utf-8") as f:
        for part in _parts(len(user_ids)):
            f.writelines(
                f'{{"alpha":{alpha},"delta":{delta},"horizon_T":{horizon},"lambda0":{lam0},'
                f'"lambda1":{lam1},"model_version":{version},"p_send":{p_send},'
                f'"p_wait":{p_wait},"user_id":{_json_scalar(user_id)},"w0_hours":{w0}}}\n'
                for user_id, delta, lam0, lam1, p_send, p_wait, w0 in
                zip(user_ids[part], *(_json_floats(c[part]) for c in columns))
            )


def write_decisions_jsonl(path: str | Path, user_ids: Sequence[str], result: PolicyResult) -> None:
    """One line per row of a policy result, the bytes write_jsonl would write.

    A row holds user_id, y, send, the rule and its parameters
    (PolicyResult.params); a flagged row adds flagged and its note.
    """
    params = "".join(f"{_json_scalar(k)}:{_json_scalar(v)}," for k, v in
                     sorted(result.params.items()))
    rule = _json_scalar(result.rule)
    with open(path, "w", encoding="utf-8") as f:
        for part in _parts(len(result.y)):
            members = [params] * len(result.y[part])
            for i in np.flatnonzero(result.flagged[part]).tolist():
                note = _json_scalar(result.note(part.start + i))
                members[i] = f'"flagged":true,{params}"note":{note},'
            f.writelines(
                f'{{{head}"rule":{rule},"send":{"true" if send else "false"},'
                f'"user_id":{_json_scalar(user_id)},"y":{y}}}\n'
                for head, user_id, send, y in zip(
                    members, user_ids[part], result.send[part].tolist(),
                    _json_floats(result.y[part]),
                )
            )


# -- models ---------------------------------------------------------------------


def _json_safe_diagnostics(diag) -> dict:
    out = {}
    for k, v in dict(diag or {}).items():
        if isinstance(v, bool):
            out[str(k)] = v
        elif isinstance(v, (int, np.integer)):
            out[str(k)] = int(v)
        elif isinstance(v, (float, np.floating)):
            out[str(k)] = float(v)
        elif isinstance(v, str):
            out[str(k)] = v
    return out


def write_model_json(path: str | Path, model: WeibullAftModel | LogisticModel) -> None:
    from .training import LogisticModel, WeibullAftModel

    rec: dict = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "schema": None if model.schema is None else model.schema.to_dict(),
        "diagnostics": _json_safe_diagnostics(model.diagnostics),
    }
    if isinstance(model, WeibullAftModel):
        rec["kind"] = "weibull_aft"
        rec["coefficients"] = [float(v) for v in model.coefficients]
        rec["log_sigma"] = float(model.log_sigma)
    elif isinstance(model, LogisticModel):
        rec["kind"] = "logistic"
        rec["weights"] = [float(v) for v in model.weights]
        rec["horizon_t_hours"] = float(model.horizon_t_hours)
    else:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    dump_json(path, rec)


def read_model_json(path: str | Path) -> WeibullAftModel | LogisticModel:
    from .training import LogisticModel, WeibullAftModel

    rec = _read_json(path, "model")
    if not isinstance(rec, dict):
        raise DataError(f"{path}: model file must hold a JSON object")
    version = rec.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported model format_version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    kind = rec.get("kind")
    try:
        names = tuple(str(n) for n in rec["feature_names"])
        schema = (
            None if rec.get("schema") is None else FeatureSchema.from_dict(rec["schema"])
        )
        diagnostics = dict(rec.get("diagnostics") or {})
        if kind == "weibull_aft":
            return WeibullAftModel(
                feature_names=names,
                coefficients=np.asarray(rec["coefficients"], dtype=float),
                log_sigma=float(rec["log_sigma"]),
                diagnostics=diagnostics,
                schema=schema,
            )
        if kind == "logistic":
            return LogisticModel(
                feature_names=names,
                weights=np.asarray(rec["weights"], dtype=float),
                horizon_t_hours=float(rec["horizon_t_hours"]),
                diagnostics=diagnostics,
                schema=schema,
            )
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed model file: {exc}") from exc
    raise DataError(f"{path}: unknown model kind {kind!r}")


# -- schema and config ---------------------------------------------------------


def write_schema_json(path: str | Path, schema: FeatureSchema) -> None:
    dump_json(path, schema.to_dict())


def read_schema_json(path: str | Path) -> FeatureSchema:
    return FeatureSchema.from_dict(_read_json(path))


def load_json_config(path: str | Path, *, allowed_keys: Sequence[str] | None = None) -> dict:
    try:
        cfg = _read_json(path, "config")
    except DataError as exc:  # the reader's wording, as a refused config
        raise ConfigError(str(exc)) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if allowed_keys is not None:
        unknown = sorted(set(cfg) - set(allowed_keys))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
    return cfg
