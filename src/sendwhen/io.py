"""File formats: JSONL event logs, CSV event logs, observations, configs.

Every JSONL file (events, observations, contexts, deltas, decisions) is
read by read_jsonl and written by write_jsonl: one JSON object per line
with sorted keys and no spaces, so identical in-memory data always
produces identical bytes.  Every input file is opened by one helper, so
a missing or unreadable input is a DataError naming the path.  See
FORMATS.md at the repository root for the field-by-field reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureSchema
from .pipeline import SEND, Event, Observation
from .training import LogisticModel, WeibullAftModel

__all__ = [
    "read_jsonl",
    "write_jsonl",
    "read_events_jsonl",
    "write_events_jsonl",
    "read_events_csv",
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
_NUMBER_TYPES = {int, float}  # what a JSON number parses to; bool is not one


# one encoder for every JSONL line; json.dumps with these arguments would
# build the same encoder again on each call
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSONL file."""
    with _open_input(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
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


def _event_from_record(rec: dict, lineno: int, where: str) -> Event:
    try:
        badge = rec.get("badge_count")
        return Event(
            user_id=str(rec["user_id"]),
            ts_hours=float(rec["ts_hours"]),
            kind=str(rec["kind"]),
            badge_count=None if badge is None else int(badge),
            features={k: float(v) for k, v in (rec.get("features") or {}).items()},
        )
    except DataError as exc:  # Event's own checks
        raise DataError(f"{where}:{lineno}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{where}:{lineno}: malformed event record: {exc}") from exc


def read_events_jsonl(path: str | Path) -> list[Event]:
    return [_event_from_record(rec, lineno, str(path)) for lineno, rec in read_jsonl(path)]


def _event_record(ev: Event) -> dict:
    rec = {
        "user_id": ev.user_id,
        "ts_hours": ev.ts_hours,
        "kind": ev.kind,
        "badge_count": ev.badge_count,
    }
    if ev.features:
        rec["features"] = dict(sorted(ev.features.items()))
    return rec


def write_events_jsonl(path: str | Path, events: Iterable[Event]) -> None:
    write_jsonl(path, map(_event_record, events))


def read_events_csv(path: str | Path) -> list[Event]:
    """CSV variant: meta columns first, every extra column is a feature."""
    events: list[Event] = []
    with _open_input(path) as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty CSV (missing header row)")
        missing = [c for c in _EVENT_META_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: header is missing columns {missing}")
        feature_cols = [c for c in reader.fieldnames if c not in _EVENT_META_COLUMNS]
        for lineno, row in enumerate(reader, start=2):
            badge_raw = (row.get("badge_count") or "").strip()
            rec = {
                "user_id": row.get("user_id"),
                "ts_hours": row.get("ts_hours"),
                "kind": row.get("kind"),
                "badge_count": badge_raw or None,
                "features": {},
            }
            if row.get("kind") == SEND:
                feats = {}
                for c in feature_cols:
                    cell = (row.get(c) or "").strip()
                    if cell:
                        feats[c] = cell
                rec["features"] = feats
            events.append(_event_from_record(rec, lineno, str(path)))
    return events


def read_events(path: str | Path) -> list[Event]:
    """Dispatch on extension: .csv goes to the CSV reader, else JSONL."""
    if str(path).lower().endswith(".csv"):
        return read_events_csv(path)
    return read_events_jsonl(path)


# -- observations -------------------------------------------------------------


def write_observations_jsonl(path: str | Path, observations: Iterable[Observation]) -> None:
    write_jsonl(
        path,
        (
            {
                "user_id": o.user_id,
                "t_hours": o.t_hours,
                "censored": not o.uncensored,
                "x": [float(v) for v in o.x],
                "origin_ts_hours": o.origin_ts_hours,
            }
            for o in observations
        ),
    )


def read_observations_jsonl(
    path: str | Path, schema: FeatureSchema | None = None
) -> list[Observation]:
    out: list[Observation] = []
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
            obs = Observation(
                user_id=str(rec["user_id"]),
                x=np.asarray(x, dtype=float),
                t_hours=float(rec["t_hours"]),
                uncensored=not censored,
                origin_ts_hours=float(rec.get("origin_ts_hours", math.nan)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: malformed observation: {exc}") from exc
        if obs.t_hours <= 0 or not math.isfinite(obs.t_hours):
            raise DataError(f"{path}:{lineno}: non-positive duration {obs.t_hours}")
        if schema is not None:
            schema.validate_vector(obs.x)
        out.append(obs)
    return out


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
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if allowed_keys is not None:
        unknown = sorted(set(cfg) - set(allowed_keys))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
    return cfg
