"""File formats: JSONL event logs, CSV event logs, observations, configs.

read_jsonl parses every JSONL input line by line.  Event logs,
observations, contexts and scores go from there (or from csv.reader)
straight into typed arrays (read_events, read_observations_jsonl,
read_contexts, read_scores), so no Python object per row outlives its
line, or for event logs and observations its chunk.  read_events and
read_observations_jsonl convert, check and append a chunk of rows at a
time as columns, through one step per format; a chunk that step refuses
goes back through the same step one row at a time, and the first row it
refuses names the error.  The other readers convert and check each line in
order.  Either way a DataError names the first bad line.  Every JSONL
file (events, observations, contexts, deltas, decisions) is written from
columns with one f-string template per format, _WRITE_ROWS rows turned to
text at a time; each line is its record's canonical line, the bytes of
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
import sys
from array import array
from contextlib import contextmanager
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence,
)

import numpy as np

from .errors import ConfigError, DataError, SchemaError

if TYPE_CHECKING:
    from .features import FeatureSchema
    from .pipeline import EventColumns, ObservationColumns
    from .policies import PolicyResult
    from .training import LogisticModel, WeibullAftModel

__all__ = [
    "read_jsonl",
    "read_contexts",
    "write_contexts_jsonl",
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
_STR, _INT, _LIST, _BOOL = (frozenset({t}) for t in (str, int, list, bool))
_BADGE_TYPES = frozenset({int, type(None)})  # null: no badge
# what a refusal calls each set of field types
_TYPE_NAMES = {_NUMBER_TYPES: "a number", _STR: "a string", _INT: "an integer",
               _BADGE_TYPES: "an integer", _BOOL: "true or false"}
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


# one encoder for what the templates do not format themselves; json.dumps
# with these arguments would build the same encoder again on each call
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


# what json raises for a document it refuses
_JSON_ERRORS = (ValueError, RecursionError)


def _invalid_json(where: str, exc: ValueError | RecursionError) -> DataError:
    """The DataError for a document that json refused with exc.

    Besides a JSONDecodeError, json raises a plain ValueError for an integer
    of more digits than int() converts (sys.get_int_max_str_digits()), and a
    RecursionError for arrays or objects nested deeper than it recurses.
    """
    if isinstance(exc, RecursionError):
        exc = "nested too deeply"
    elif not isinstance(exc, json.JSONDecodeError):
        exc = f"an integer of more than {sys.get_int_max_str_digits()} digits"
    return DataError(f"{where}: invalid JSON: {exc}")


def _read_json(path: str | Path, what: str = "input"):
    with _open_input(path, what) as f:
        text = f.read()
    try:
        return json.loads(text)
    except _JSON_ERRORS as exc:
        raise _invalid_json(str(path), exc) from exc


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
            except _JSON_ERRORS as exc:
                raise _invalid_json(f"{path}:{lineno}", exc) from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec


def file_sha256(path: str | Path) -> str:
    """The SHA-256 hex digest of a file, read through one reused 256 KiB buffer."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


# -- events -----------------------------------------------------------------


def _typed(values: Sequence, types: frozenset, name: str) -> Sequence:
    """values, when each one's type is in types; else a TypeError naming the first that is not."""
    if not types.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in types)
        raise TypeError(f"{name} must be {_TYPE_NAMES[types]}, got {bad!r}")
    return values


def json_int(v, name: str) -> int:
    """A JSON integer field: an int, never a bool or a float."""
    if type(v) is not int:
        _typed([v], _INT, name)  # raises
    return v


def json_str(v, name: str) -> str:
    """A JSON string field: a str, never a number or null."""
    if type(v) is not str:
        _typed([v], _STR, name)  # raises
    return v


def json_number(v, name: str) -> float:
    """A JSON number field as a float: an int or a float, never a bool or a string.

    An integer beyond the float range is a ValueError naming the field.
    """
    if type(v) not in _NUMBER_TYPES:
        _typed([v], _NUMBER_TYPES, name)  # raises
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} must be a number within the float range, "
                         f"got an integer of {v.bit_length()} bits") from None


def _json_numbers(values: list, name: str) -> array:
    """json_number of each value, as floats."""
    try:
        return array("d", _typed(values, _NUMBER_TYPES, name))
    except OverflowError:  # an integer beyond the float range, with json_number's message
        return array("d", [json_number(v, name) for v in values])


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


def _append_chunks(rows: Iterator[tuple[int, object]], append: Callable[[list], object],
                   where: str, what: str, size: int = _CHUNK_ROWS) -> None:
    """append(rows) for the rows of each chunk of up to size (line number, row) items.

    append is a reader's step: it converts, checks and appends a list of
    rows, all of them or none, and refuses them by raising a ROW_ERRORS
    type or a DataError.  A refused chunk goes back through append one row
    at a time (_raise_first_refused).
    """
    for chunk in _chunks(rows, size):
        try:
            append([row for _, row in chunk])
        except ROW_ERRORS:  # a DataError is a ValueError
            _raise_first_refused(chunk, append, where, what)


def _raise_first_refused(chunk: list[tuple[int, object]], append: Callable[[list], object],
                         where: str, what: str) -> NoReturn:
    """Pass a refused chunk's rows to append one at a time; the first it refuses raises.

    The DataError names where and the row's line, and reads "malformed
    {what}: ..." for a row error.  A chunk whose every row append takes
    raises AssertionError, so that it is never dropped silently.
    """
    for lineno, row in chunk:
        try:
            append([row])
        except DataError as exc:  # the event or duration checks
            raise DataError(f"{where}:{lineno}: {exc}") from None
        except ROW_ERRORS as exc:
            raise DataError(f"{where}:{lineno}: malformed {what}: {exc}") from exc
    raise AssertionError(f"{where}: the column step refused a chunk with no bad line")


def _all_of(types: frozenset, values: Iterable) -> bool:
    return types.issuperset(map(type, values))


def _json_chunk(recs: Sequence[dict]) -> tuple:
    """A chunk of JSONL event records as the columns EventColumnAppender.extend takes.

    Each field is gathered and typed for every record before the next, in
    the order a record's fields are read one at a time, so a chunk of one
    record raises that record's first fault: a KeyError for a missing
    field, the TypeError or ValueError of json_str, json_int or json_number,
    or an AttributeError for features that are not an object.
    """
    user_ids = _typed([r["user_id"] for r in recs], _STR, "user_id")
    times = _json_numbers([r["ts_hours"] for r in recs], "ts_hours")
    kinds = [r["kind"] for r in recs]
    if not _all_of(_STR, kinds):
        kinds = list(map(str, kinds))
    badges = _typed([r.get("badge_count") for r in recs], _BADGE_TYPES, "badge_count")
    features: dict[str, tuple[list[int], list]] = {}
    for i, f in enumerate([r.get("features") for r in recs]):
        for name, v in f.items() if f else ():
            column = features.get(name)
            if column is None:
                column = features[name] = ([], [])
            column[0].append(i)
            column[1].append(v)
    return user_ids, times, kinds, badges, {
        name: (rows, _json_numbers(values, name)) for name, (rows, values) in features.items()}


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


def _csv_chunk(layout: _CsvLayout, rows: Sequence[list[str]]) -> tuple:
    """A chunk of CSV rows as the columns EventColumnAppender.extend takes.

    A row reads as csv.DictReader reads it: a short row reads None in its
    missing cells, and every extra column is a feature, read on sends only.
    Each field is converted for every row before the next, in the order a
    row's fields are read one at a time, so a chunk of one row raises that
    row's first fault.
    """
    from .pipeline import SEND

    if min(map(len, rows)) < layout.width:
        rows = [row + [None] * (layout.width - len(row)) for row in rows]
    columns = list(zip(*rows))
    user_ids = _typed(columns[layout.user_id], _STR, "user_id")
    times = list(map(float, columns[layout.ts_hours]))
    kinds = columns[layout.kind]
    sends = [i for i, kind in enumerate(kinds) if kind == SEND]
    if not _all_of(_STR, kinds):
        kinds = list(map(str, kinds))
    badges = [int(cell) if c and (cell := c.strip()) else None
              for c in columns[layout.badge_count]]
    features = {}
    for name, j in layout.features:
        cells = [(columns[j][i] or "").strip() for i in sends]
        carried = sends if all(cells) else [i for i, c in zip(sends, cells) if c]
        if carried:
            features[name] = (carried, list(map(float, filter(None, cells))))
    # in order of first appearance, as appending row by row adds them
    features = dict(sorted(features.items(), key=lambda item: item[1][0][0]))
    return user_ids, times, kinds, badges, features


def read_events(path: str | Path) -> EventColumns:
    """Read an event log into columns: .csv as CSV, anything else as JSONL.

    Each chunk of rows goes through one step, _csv_chunk or _json_chunk and
    then EventColumnAppender.extend, which converts, checks and appends
    it; a chunk that step refuses goes back through it one row at a time,
    to raise the error of its first bad line.
    """
    from .pipeline import EventColumnAppender

    where, columns = str(path), EventColumnAppender()
    if where.lower().endswith(".csv"):
        with _open_input(path) as f:
            layout, rows = _csv_rows(f, path)
            _append_chunks(rows, lambda chunk: columns.extend(*_csv_chunk(layout, chunk)),
                           where, "event record")
    else:
        _append_chunks(read_jsonl(path), lambda recs: columns.extend(*_json_chunk(recs)),
                       where, "event record")
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
    """One line per event, its record's canonical line."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(
            f'{{"badge_count":{badge},{features}"kind":{kind},'
            f'"ts_hours":{t},"user_id":{user_id}}}\n'
            for user_id, t, kind, badge, features in _event_rows(events)
        )


# -- observations -------------------------------------------------------------


def write_observations_jsonl(path: str | Path, observations: ObservationColumns) -> None:
    """One line per observation, its record's canonical line."""
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


def _observation_chunk(recs: Sequence[dict], width: int | None) -> tuple:
    """A chunk of observation records as columns, and the width of x.

    Returns (width, user ids, x, t_hours, origin_ts_hours, uncensored), x
    flat and width the first record's where width is None.  Each field is
    gathered and checked for every record before the next, in the order a
    record's fields are read one at a time, so a chunk of one record raises
    that record's first fault: a ROW_ERRORS type, or a DataError for a
    duration that is not positive and finite.
    """
    xs = [r["x"] for r in recs]
    censored = _typed([r["censored"] for r in recs], _BOOL, "censored")
    if not _all_of(_LIST, xs) or not _all_of(_NUMBER_TYPES, x := list(chain.from_iterable(xs))):
        raise ValueError("x must be a list of numbers")
    width = len(xs[0]) if width is None else width
    other = next((len(row) for row in xs if len(row) != width), None)
    if other is not None:
        raise ValueError(f"x has {other} values, the first row {width}")
    user_ids = _typed([r["user_id"] for r in recs], _STR, "user_id")
    x = array("d", x)  # an OverflowError for an integer that no float holds
    times = _json_numbers([r["t_hours"] for r in recs], "t_hours")
    origins = _json_numbers([r.get("origin_ts_hours", math.nan) for r in recs], "origin_ts_hours")
    bad = next((t for t in times if not 0.0 < t < math.inf), None)
    if bad is not None:
        raise DataError(f"non-positive duration {bad}")
    return width, user_ids, x, times, origins, [not c for c in censored]


def read_observations_jsonl(
    path: str | Path, schema: FeatureSchema | None = None
) -> ObservationColumns:
    """Read observations into columns; with a schema, every x must satisfy it.

    Each chunk of lines goes through one step, _observation_chunk and the
    appends, which converts, checks and appends it; a chunk that step
    refuses goes back through it one line at a time, to raise the error of
    its first bad line.
    """
    from .pipeline import ObservationColumns

    codes: dict[str, int] = {}  # user id -> code in order of first sight
    user, x_values, t_hours, origin = array("q"), array("d"), array("d"), array("d")
    uncensored = bytearray()
    width = None  # every x has the length of the first

    def append(recs: list[dict]) -> None:
        nonlocal width
        width, user_ids, x, t, o, u = _observation_chunk(recs, width)
        user.extend([codes.setdefault(user_id, len(codes)) for user_id in user_ids])
        x_values.extend(x)
        t_hours.extend(t)
        origin.extend(o)
        uncensored.extend(u)

    _append_chunks(read_jsonl(path), append, str(path), "observation", _OBSERVATION_CHUNK_ROWS)
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


def write_contexts_jsonl(
    path: str | Path, user_ids: Sequence[str], features: Mapping[str, np.ndarray],
    badge_count: np.ndarray, w0_hours: np.ndarray,
) -> None:
    """One line per user of scoring contexts, its record's canonical line.

    features maps each profile feature's name to a float column that every
    row carries; badge_count is an integer column.
    """
    keys = {name: _json_scalar(name) + ":" for name in sorted(features)}  # sorted as strings
    with open(path, "w", encoding="utf-8") as f:
        for part in _parts(len(user_ids)):
            shown = [map(key.__add__, _json_floats(features[name][part]))
                     for name, key in keys.items()]
            f.writelines(
                f'{{"badge_count":{badge},"features":{{{member}}},'
                f'"user_id":{_json_scalar(user_id)},"w0_hours":{w0}}}\n'
                for user_id, member, badge, w0 in zip(
                    user_ids[part], map(",".join, zip(*shown)) if shown else repeat(""),
                    map(int.__repr__, badge_count[part].tolist()), _json_floats(w0_hours[part]),
                )
            )


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
    """One line per user of score_columns's scores, its record's canonical line."""
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
    """One line per row of a policy result, its record's canonical line.

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


def write_model_json(path: str | Path, model: WeibullAftModel | LogisticModel) -> None:
    from .training import LogisticModel, WeibullAftModel

    rec: dict = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "schema": None if model.schema is None else model.schema.to_dict(),
        "diagnostics": dict(model.diagnostics),
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


def _finite(v, name: str) -> float:
    """json_number(v, name), refused unless finite."""
    x = json_number(v, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _json_array(rec: Mapping, key: str, item: Callable, k: int | None = None) -> list:
    """rec[key], a JSON array of item(v, key) values, k of them where k is given."""
    if type(rec[key]) is not list:
        raise TypeError(f"{key} must be a list, got {rec[key]!r}")
    if k is not None and len(rec[key]) != k:
        raise ValueError(f"{key} has {len(rec[key])} entries for {k} feature_names")
    return [item(v, key) for v in rec[key]]


def read_model_json(path: str | Path) -> WeibullAftModel | LogisticModel:
    from .features import FeatureSchema
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
        names = tuple(_json_array(rec, "feature_names", json_str))
        schema = (
            None if rec.get("schema") is None else FeatureSchema.from_dict(rec["schema"])
        )
        diagnostics = dict(rec.get("diagnostics") or {})
        if kind == "weibull_aft":
            return WeibullAftModel(
                feature_names=names,
                coefficients=np.array(_json_array(rec, "coefficients", _finite, len(names))),
                log_sigma=_finite(rec["log_sigma"], "log_sigma"),
                diagnostics=diagnostics,
                schema=schema,
            )
        if kind == "logistic":
            return LogisticModel(
                feature_names=names,
                weights=np.array(_json_array(rec, "weights", _finite, len(names))),
                horizon_t_hours=json_number(rec["horizon_t_hours"], "horizon_t_hours"),
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
    from .features import FeatureSchema

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
