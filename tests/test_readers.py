"""Reader messages, template writers and the memory of the log path, through the public API.

A malformed line in the middle of a file must give the same DataError text
and exit code whichever way the file is read, and read_jsonl the message a
reader that parsed each line with json.loads gave.  The template writers must
write exactly what json.dumps(sort_keys=True, separators=(",", ":")) would,
the column readers must not build one Python object per row, and a log read
as columns must iterate as the Event rows it was built from.  From reading
the log to writing or scoring, each step must hold a bounded number of
bytes per row, and the writers and the file hash a bounded number whatever
the row count or the file's length.
"""

import hashlib
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_readers
import sendwhen.io
from event_rows import as_columns
from sendwhen.cli import main
from sendwhen.errors import DataError
from sendwhen.features import FeatureSchema
from sendwhen.io import (
    _CHUNK_ROWS,
    _OBSERVATION_CHUNK_ROWS,
    file_sha256,
    read_events,
    read_jsonl,
    read_observations_jsonl,
    write_contexts_jsonl,
    write_decisions_jsonl,
    write_deltas_jsonl,
    write_events_jsonl,
    write_model_json,
    write_observations_jsonl,
    write_schema_json,
)
from sendwhen.pipeline import (
    Event,
    ObservationColumns,
    PipelineConfig,
    SendInstance,
    send_table,
)
from sendwhen.policies import Candidate, MooConfig, moo_solve, ratio_rule, threshold_rule
from sendwhen.scoring import score_columns
from sendwhen.simulate import SendProcess, SimConfig, default_sim_schema, generate_event_log
from sendwhen.training import LogisticModel, WeibullAftModel, fit_aft, fit_logistic_baseline

SCHEMA = FeatureSchema.build(base=["p"], badge="badge_count")

EVENTS_JSONL = [
    '{"badge_count":1,"features":{"p":0.5},"kind":"send","ts_hours":0.0,"user_id":"u"}',
    '{"badge_count":null,"kind":"visit","ts_hours":1.0,"user_id":"u"}',
    None,  # the malformed line
    '{"badge_count":1,"features":{"p":0.5},"kind":"send","ts_hours":3.0,"user_id":"v"}',
    '{"badge_count":null,"kind":"visit","ts_hours":4.0,"user_id":"v"}',
]
EVENTS_CSV = [
    "user_id,ts_hours,kind,badge_count,p",
    "u,0.0,send,1,0.5",
    None,
    "u,3.0,visit,,",
    "v,4.0,send,2,0.25",
    "v,5.0,visit,,",
]
OBSERVATIONS = [
    '{"censored":false,"origin_ts_hours":0.0,"t_hours":1.0,"user_id":"u","x":[1.0,0.5,1.0]}',
    '{"censored":true,"origin_ts_hours":1.0,"t_hours":2.0,"user_id":"u","x":[1.0,0.5,2.0]}',
    None,
    '{"censored":false,"origin_ts_hours":0.0,"t_hours":1.5,"user_id":"v","x":[1.0,0.2,1.0]}',
    '{"censored":false,"origin_ts_hours":2.0,"t_hours":0.5,"user_id":"v","x":[1.0,0.2,2.0]}',
]

BAD_LINES = {
    "events.jsonl": [
        ('{"user_id":', "invalid JSON: Expecting value: line 1 column 12 (char 11)"),
        ("[1,2]", "expected a JSON object"),
        ('{"user_id":"u","kind":"visit"}', "malformed event record: 'ts_hours'"),
        ('{"user_id":"u","ts_hours":2.0,"kind":"push"}', "unknown event kind 'push'"),
        ('{"user_id":"u","ts_hours":NaN,"kind":"visit"}', "non-finite timestamp nan for user 'u'"),
        ('{"user_id":"u","ts_hours":2.0,"kind":"send","features":{"p":0.5}}',
         "send event at t=2.0 for user 'u' is missing badge_count"),
        ('{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":-1,"features":{"p":0.5}}',
         "negative badge_count -1 for user 'u'"),
    ],
    "events.csv": [
        ("u,2.0,send,1,abc", "malformed event record: could not convert string to float: 'abc'"),
        ("u,2.0,send,,0.5", "send event at t=2.0 for user 'u' is missing badge_count"),
    ],
    "observations.jsonl": [
        ('{"censored":"false","t_hours":1.0,"user_id":"u","x":[1.0,0.5,1.0]}',
         "malformed observation: censored must be true or false, got 'false'"),
        ('{"censored":false,"t_hours":1.0,"user_id":"u","x":[1.0,0.5]}',
         "malformed observation: x has 2 values, the first row 3"),
        ('{"censored":false,"t_hours":0,"user_id":"u","x":[1.0,0.5,1.0]}',
         "non-positive duration 0.0"),
    ],
}
CASES = [(name, line, message) for name, rows in BAD_LINES.items() for line, message in rows]
# a badge count is a JSON integer, never a float or a bool; CSV text goes through int()
CASES += [
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":2.7,'
     '"features":{"p":0.5}}', "malformed event record: badge_count must be an integer, got 2.7"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":true,'
     '"features":{"p":0.5}}', "malformed event record: badge_count must be an integer, got True"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"visit","badge_count":1.0}',
     "malformed event record: badge_count must be an integer, got 1.0"),
    ("events.csv", "u,2.0,send,2.7,0.5",
     "malformed event record: invalid literal for int() with base 10: '2.7'"),
]
# every JSON number field is an int or a float, never a bool; CSV text goes through float()
CASES += [
    ("events.jsonl", '{"user_id":"u","ts_hours":true,"kind":"visit"}',
     "malformed event record: ts_hours must be a number, got True"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":1,'
     '"features":{"p":true}}', "malformed event record: p must be a number, got True"),
    ("observations.jsonl", '{"censored":false,"t_hours":true,"user_id":"u","x":[1.0,0.5,1.0]}',
     "malformed observation: t_hours must be a number, got True"),
    ("observations.jsonl", '{"censored":false,"origin_ts_hours":false,"t_hours":1.0,'
     '"user_id":"u","x":[1.0,0.5,1.0]}',
     "malformed observation: origin_ts_hours must be a number, got False"),
]
# a JSON user_id is a string, never null or a number; CSV cells are text already
CASES += [
    ("events.jsonl", '{"user_id":null,"ts_hours":2.0,"kind":"visit"}',
     "malformed event record: user_id must be a string, got None"),
    ("events.jsonl", '{"user_id":5,"ts_hours":2.0,"kind":"send","badge_count":1,'
     '"features":{"p":0.5}}', "malformed event record: user_id must be a string, got 5"),
    ("observations.jsonl", '{"censored":false,"t_hours":1.0,"user_id":null,"x":[1.0,0.5,1.0]}',
     "malformed observation: user_id must be a string, got None"),
    ("observations.jsonl", '{"censored":false,"t_hours":1.0,"user_id":7,"x":[1.0,0.5,1.0]}',
     "malformed observation: user_id must be a string, got 7"),
]
# an integer beyond the float range is refused naming its field, and one of more
# digits than int() converts (4,300 by default) as JSON the reader cannot take
CASES += [
    ("events.jsonl", '{"user_id":"u","ts_hours":1' + "0" * 400 + ',"kind":"visit"}',
     "malformed event record: ts_hours must be a number within the float range, "
     "got an integer of 1329 bits"),
    ("events.jsonl", '{"user_id":"u","ts_hours":1' + "0" * 4300 + ',"kind":"visit"}',
     "invalid JSON: an integer of more than 4300 digits"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":1,'
     '"features":{"p":1' + "0" * 400 + "}}",
     "malformed event record: p must be a number within the float range, "
     "got an integer of 1329 bits"),
    # CSV text goes through float(), which reads such an integer as inf
    ("events.csv", "u,1" + "0" * 400 + ",visit,,", "non-finite timestamp inf for user 'u'"),
]
# a badge count is checked as an event before it is checked to fit int64
CASES += [
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":'
     '9223372036854775808,"features":{"p":0.5}}',
     "malformed event record: int too big to convert"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"visit",'
     '"badge_count":-9223372036854775809}', "malformed event record: int too big to convert"),
    ("events.csv", "u,2.0,send,9223372036854775808,0.5",
     "malformed event record: int too big to convert"),
]
# a line with more than one fault names the first, in the order its fields are read:
# each field is converted before the next, then the event checks, then int64
_HUGE = "1" + "0" * 400
CASES += [
    ("events.jsonl", '{"user_id":null,"ts_hours":true,"kind":"visit"}',
     "malformed event record: user_id must be a string, got None"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"badge_count":2.7}',
     "malformed event record: 'kind'"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":true,'
     '"features":{"p":true}}', "malformed event record: badge_count must be an integer, got True"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"push","features":{"p":true}}',
     "malformed event record: p must be a number, got True"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send",'
     '"badge_count":-9223372036854775809,"features":{"p":0.5}}',
     "negative badge_count -9223372036854775809 for user 'u'"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":"send","badge_count":1,'
     '"features":{"p":' + _HUGE + ',"q":true}}',
     "malformed event record: p must be a number within the float range, "
     "got an integer of 1329 bits"),
    ("events.csv", "u,abc,push,2.7,x",
     "malformed event record: could not convert string to float: 'abc'"),
    ("events.csv", "u,2.0,push,2.7,x",
     "malformed event record: invalid literal for int() with base 10: '2.7'"),
    ("observations.jsonl", '{"censored":false,"t_hours":1.0,"user_id":5,"x":[1.0,' + _HUGE
     + ',1.0]}', "malformed observation: user_id must be a string, got 5"),
    ("observations.jsonl", '{"censored":"no","t_hours":true,"user_id":"u","x":[1.0,0.5,1.0]}',
     "malformed observation: censored must be true or false, got 'no'"),
    ("observations.jsonl", '{"censored":false,"t_hours":1.0,"user_id":null,"x":[1.0]}',
     "malformed observation: x has 1 values, the first row 3"),
    ("observations.jsonl", '{"censored":false,"t_hours":-1.0,"origin_ts_hours":"0",'
     '"user_id":"u","x":[1.0,0.5,1.0]}',
     "malformed observation: origin_ts_hours must be a number, got '0'"),
]
# a kind that is not a string is named as str() gives it
CASES += [
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":5}', "unknown event kind '5'"),
    ("events.jsonl", '{"user_id":"u","ts_hours":2.0,"kind":null}', "unknown event kind 'None'"),
]


def _write(path, lines, bad):
    path.write_text("\n".join(bad if line is None else line for line in lines) + "\n")


def _argv(tmp_path, name, path):
    if name == "observations.jsonl":
        return ["train", "--model", "aft", "--observations", path]
    schema = tmp_path / "schema.json"
    write_schema_json(schema, SCHEMA)
    return ["ingest", "--events", path, "--schema", schema]


@pytest.mark.parametrize("name,line,message", CASES,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(CASES)])
def test_malformed_middle_line_names_its_line(tmp_path, capsys, name, line, message):
    path = tmp_path / name
    _write(path, {"events.jsonl": EVENTS_JSONL, "events.csv": EVENTS_CSV,
                  "observations.jsonl": OBSERVATIONS}[name], line)
    argv = [str(a) for a in _argv(tmp_path, name, path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}:3: {message}"


SCHEMA_FAULTS = [  # a send whose features the schema refuses, on line 3 of each log
    ("events.jsonl", '{"badge_count":1,"features":{},"kind":"send","ts_hours":0.5,"user_id":"u"}',
     "missing base feature 'p'"),
    ("events.jsonl", '{"badge_count":1,"features":{"p":1e400},"kind":"send","ts_hours":0.5,'
     '"user_id":"u"}', "non-finite value in slot 'p'"),
    ("events.csv", "u,2.0,send,1,", "missing base feature 'p'"),
    ("events.csv", "u,2.0,send,1,inf", "non-finite value in slot 'p'"),
]


@pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
@pytest.mark.parametrize("name,line,message", SCHEMA_FAULTS,
                         ids=[f"{name}-{i}" for i, (name, *_) in enumerate(SCHEMA_FAULTS)])
def test_schema_fault_in_an_event_log_names_its_line(tmp_path, capsys, command, name, line,
                                                     message):
    path = tmp_path / name
    _write(path, {"events.jsonl": EVENTS_JSONL, "events.csv": EVENTS_CSV}[name], line)
    schema = tmp_path / "schema.json"
    write_schema_json(schema, SCHEMA)
    argv = {"ingest": ["ingest"], "train": ["train", "--model", "logistic:24"]}.get(command)
    if argv is None:
        aft, logistic = tmp_path / "aft.json", tmp_path / "l24.json"
        write_model_json(aft, WeibullAftModel(SCHEMA.names, np.ones(3), 0.0, schema=SCHEMA))
        write_model_json(logistic, LogisticModel(SCHEMA.names, np.zeros(3), 24.0, schema=SCHEMA))
        argv = ["evaluate", "--aft-model", aft, "--logistic-model", logistic, "--horizons", 24]
    out = tmp_path / "out"
    argv += ["--events", path, "--schema", schema, "--out", out]
    assert main([str(a) for a in argv]) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:3: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("lines,message", [
    (["", OBSERVATIONS[0].replace("[1.0,0.5,1.0]", "[1.0,0.5]"),
      OBSERVATIONS[1].replace("[1.0,0.5,2.0]", "[1.0,0.5]")],
     "2: vector length (2,) does not match schema (3 slots)"),
    (OBSERVATIONS[:2] + [OBSERVATIONS[3].replace("0.2", "NaN")] + OBSERVATIONS[4:],
     "3: non-finite value in slot 'p'"),
    (OBSERVATIONS[:2] + [OBSERVATIONS[3].replace("[1.0", "[2.0")] + OBSERVATIONS[4:],
     "3: intercept slot 'intercept' must be 1.0, got 2.0"),
], ids=["length", "non-finite", "intercept"])
def test_observation_against_schema_names_its_line(tmp_path, capsys, lines, message):
    path = tmp_path / "obs.jsonl"
    _write(path, lines, None)
    schema = tmp_path / "schema.json"
    write_schema_json(schema, SCHEMA)
    argv = ["train", "--model", "aft", "--observations", path, "--schema", schema]
    assert main([str(a) for a in argv] + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {path}:{message}"


def _json_loads_reader_error(path) -> str:
    """The message of the reader that parsed each stripped line with json.loads."""
    with open(path, encoding="utf-8", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                return f"{path}:{lineno}: invalid JSON: {exc}"
            if not isinstance(rec, dict):
                return f"{path}:{lineno}: expected a JSON object"
    raise AssertionError("every line parsed")


@pytest.mark.parametrize("text", [
    '{"a":1}\n\n{"user_id":\n',
    '{"a":1}\n{"a":1} x\n',
    '{"a":1}\r\n{}{}\r\n',
    '{"a":1}\n{"a":1}  \t {"b":2}\n',
    '\ufeff{"a":1}\n',
    '{"a":1}\n\ufeff{"a":1}\n',
    '{"a":1}\n[1,2]\n',
    '{"a":1}\n3\n',
    '{"a":1}\n"x"\n',
    '{"a":1}\nnull\n',
    '{"a":1}\n{"a":NaN,"b":[1,{}]}\n{"a":tru}\n',
    '{"a":1}\n\u00a0 {"a":1}\u2003\n{"a":\x0c1}} \n',
], ids=["invalid", "trailing-data", "two-objects", "object-after-space", "leading-bom",
        "bom-on-line-2", "array", "number", "string", "null", "third-line",
        "unicode-space"])
def test_read_jsonl_errors_equal_the_json_loads_reader(tmp_path, text):
    path = tmp_path / "in.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(DataError) as info:
        list(read_jsonl(path))
    assert str(info.value) == _json_loads_reader_error(path)


def test_read_jsonl_reads_what_json_loads_reads(tmp_path):
    lines = ['{"a":1}', ' \t{"b":[1,2.5,"x"],"c":null} ', '{"d":NaN,"e":-Infinity}',
             '\u00a0{"\u00e9":"\\ud83d\\ude00\\ud800"}\u2003', '{}']
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = list(read_jsonl(path))
    assert [n for n, _ in got] == [1, 2, 3, 4, 5]
    assert [json.dumps(r) for _, r in got] == [json.dumps(json.loads(l.strip())) for l in lines]


# -- template writers ---------------------------------------------------------------

SPECIAL_FLOATS = [1e-05, 2.5e-07, 1e16, 5e-324, -0.0, math.nan, math.inf, -math.inf]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
ids = st.sampled_from(["a\x00", '"', "\\", "é", "\x1f", " ", "😀"]) | st.text(max_size=6)
finite_ts = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)


@st.composite
def events(draw, values=floats):
    kind = draw(st.sampled_from(["send", "visit"]))
    badge = draw(st.integers(0, 2**62) if kind == "send" else st.none() | st.integers(-5, 5))
    features = draw(st.dictionaries(ids, values, max_size=3))
    return Event(draw(ids), draw(finite_ts), kind, badge, features)


def _dumps(rec):
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _written_text(write, path, *args) -> str:
    """What write(path, *args) writes, the same when it converts 3 rows at a time."""
    write(path, *args)
    text = path.read_text(encoding="utf-8")
    with mock.patch.object(sendwhen.io, "_WRITE_ROWS", 3):
        write(path, *args)
    assert path.read_text(encoding="utf-8") == text
    return text


def _written_lines(write, rows, tmp):
    return _written_text(write, tmp.getbasetemp() / "writer.jsonl", rows).splitlines()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(events(), max_size=8))
def test_event_lines_equal_json_dumps(tmp_path_factory, evs):
    # EventColumns holds timestamps as floats
    want = []
    for e in evs:
        rec = {"user_id": e.user_id, "ts_hours": float(e.ts_hours), "kind": e.kind,
               "badge_count": e.badge_count}
        if e.features:
            rec["features"] = e.features
        want.append(_dumps(rec))
    assert _written_lines(write_events_jsonl, as_columns(evs), tmp_path_factory) == want


def test_integer_event_timestamp_is_written_as_the_float_read_back(tmp_path):
    path = tmp_path / "events.jsonl"
    write_events_jsonl(path, as_columns([Event("u1", 5, "send", 1, {"p": 0.5})]))
    assert path.read_text(encoding="utf-8") == (
        '{"badge_count":1,"features":{"p":0.5},"kind":"send","ts_hours":5.0,"user_id":"u1"}\n'
    )
    assert read_events(path).ts_hours.tolist() == [5.0]


@st.composite
def observation_rows(draw):
    """Rows under user codes that repeat, of user ids of which some have no rows."""
    k = draw(st.integers(0, 4))
    user_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    row = st.tuples(st.integers(0, len(user_ids) - 1), finite_ts | floats, st.booleans(), floats,
                    st.lists(floats, min_size=k, max_size=k))
    return k, user_ids, draw(st.lists(row, max_size=8))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(observation_rows())
def test_observation_lines_equal_json_dumps(tmp_path_factory, drawn):
    k, user_ids, rows = drawn
    columns = ObservationColumns(
        user_ids=user_ids,
        user=np.array([u for u, *_ in rows], dtype=np.int64),
        x=np.array([x for *_, x in rows], dtype=float).reshape(len(rows), k),
        t_hours=np.array([t for _, t, *_ in rows], dtype=float),
        uncensored=np.array([not c for _, _, c, *_ in rows], dtype=bool),
        origin_ts_hours=np.array([o for *_, o, _ in rows], dtype=float),
    )
    want = [_dumps({"user_id": user_ids[u], "t_hours": float(t), "censored": c, "x": x,
                    "origin_ts_hours": o}) for u, t, c, o, x in rows]
    assert _written_lines(write_observations_jsonl, columns, tmp_path_factory) == want


DELTA_COLUMNS = ("delta", "p_send", "p_wait", "lambda0", "lambda1")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.tuples(ids, *[floats] * 6), max_size=8), floats, floats, st.text(max_size=4))
def test_delta_lines_equal_json_dumps(tmp_path_factory, rows, alpha, horizon, version):
    scores = {name: np.array([r[1 + j] for r in rows], dtype=float)
              for j, name in enumerate(DELTA_COLUMNS)}
    scores["alpha"] = alpha
    w0 = np.array([r[-1] for r in rows], dtype=float)
    want = [_dumps({"user_id": u, "w0_hours": w, **dict(zip(DELTA_COLUMNS, values)),
                    "horizon_T": horizon, "alpha": alpha, "model_version": version})
            for u, *values, w in rows]
    path = tmp_path_factory.getbasetemp() / "deltas.jsonl"
    text = _written_text(write_deltas_jsonl, path, [u for u, *_ in rows], w0, scores, horizon,
                         version)
    assert text.splitlines() == want


@st.composite
def context_rows(draw):
    """Feature names, and rows of (user id, a value per name, badge count, w0_hours)."""
    names = draw(st.lists(ids, max_size=4, unique=True))
    values = st.lists(floats, min_size=len(names), max_size=len(names))
    return names, draw(st.lists(st.tuples(ids, values, st.integers(0, 2**62), floats),
                                max_size=8))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(context_rows())
def test_context_lines_equal_json_dumps(tmp_path_factory, drawn):
    names, rows = drawn
    features = {name: np.array([values[j] for _, values, *_ in rows], dtype=float)
                for j, name in enumerate(names)}
    want = [_dumps({"user_id": u, "features": dict(zip(names, values)), "badge_count": b,
                    "w0_hours": w}) for u, values, b, w in rows]
    path = tmp_path_factory.getbasetemp() / "contexts.jsonl"
    text = _written_text(write_contexts_jsonl, path, [u for u, *_ in rows], features,
                         np.array([b for *_, b, _ in rows], dtype=np.int64),
                         np.array([w for *_, w in rows], dtype=float))
    assert text.splitlines() == want


def _decision_records(user_ids, rule, result):
    """The records decide wrote one dict at a time."""
    params = {k: v for k in ("kappa", "kappa1", "kappa2")
              if (v := getattr(result, k)) is not None}
    rows = [{"user_id": u, "y": y, "send": send, "rule": rule, **params}
            for u, y, send in zip(user_ids, result.y.tolist(), result.send.tolist())]
    for i in np.flatnonzero(result.flagged):
        rows[i].update(flagged=True, note=result.note(i))
    return [_dumps(r) for r in rows]


def _assert_decision_lines(tmp, cands, result):
    user_ids = [c.user_id for c in cands]
    path = tmp.getbasetemp() / "decisions.jsonl"
    assert _written_text(write_decisions_jsonl, path, user_ids, result).splitlines() == (
        _decision_records(user_ids, result.rule, result))


unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
candidates = st.lists(ids.filter(bool), min_size=1, max_size=8, unique=True).flatmap(
    lambda us: st.tuples(*[st.builds(Candidate, st.just(u), st.floats(-1.0, 1.0), unit, unit)
                           for u in us]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(candidates, st.sampled_from([math.inf, -math.inf, 0.0]) | st.floats(-2.0, 2.0),
       st.floats(0.0, 1.0), st.floats(0.0, 9.0))
def test_decision_lines_equal_json_dumps(tmp_path_factory, cands, kappa, floor, c_send):
    for rule in (threshold_rule, ratio_rule):
        _assert_decision_lines(tmp_path_factory, cands, rule(cands, kappa))
    c_click = floor * sum(c.p_click for c in cands)
    _assert_decision_lines(tmp_path_factory, cands,
                           moo_solve(cands, MooConfig(c_click=c_click, c_send=c_send)))


def test_decision_lines_with_flags_and_infinite_kappa(tmp_path_factory):
    cands = [Candidate("a", 0.1, 0.0, 0.9), Candidate("é", 0.5, 0.0, 0.1),
             Candidate("😀", 0.45, 0.3, 0.15)]
    results = [threshold_rule(cands, math.inf), ratio_rule(cands, -math.inf),
               moo_solve(cands, MooConfig(c_click=0.9, c_send=2.0))]
    assert not results[0].send.any()
    assert results[1].flagged.tolist() == [True, True, False]
    assert results[2].flagged.tolist() == [True, False, True]  # both constraints tight
    for result in results:
        _assert_decision_lines(tmp_path_factory, cands, result)


# -- reader memory ------------------------------------------------------------------


@pytest.fixture(scope="module")
def simulated_files(tmp_path_factory):
    """A 150-user week (about 3,000 events) as JSONL, as CSV and as observations."""
    sim = generate_event_log(SimConfig(
        n_users=150, n_profile_features=2, true_coefficients=(3.2, 0.4, -0.3, -0.2, 0.05),
        true_sigma=1.5, send_process=SendProcess("poisson", rate_per_hour=1 / 12),
        window_hours=168.0, seed=3,
    ))
    d = tmp_path_factory.mktemp("memory")
    write_events_jsonl(d / "events.jsonl", sim.events)
    with open(d / "events.csv", "w", encoding="utf-8") as f:
        f.write("user_id,ts_hours,kind,badge_count,profile_0,profile_1\n")
        for e in sim.events:  # sends carry both profiles, visits none
            p0, p1 = (repr(v) for v in e.features.values()) if e.features else ("", "")
            badge = "" if e.badge_count is None else e.badge_count
            f.write(f"{e.user_id},{e.ts_hours!r},{e.kind},{badge},{p0},{p1}\n")
    schema = FeatureSchema.build(base=["profile_0", "profile_1"], badge="badge_count")
    write_schema_json(d / "schema.json", schema)
    table = send_table(read_events(d / "events.jsonl"), PipelineConfig())
    write_observations_jsonl(d / "observations.jsonl", table.observations(schema, 1 / 3600))
    write_contexts_jsonl(d / "contexts.jsonl", *sim.contexts)
    return d


# Traced peak bytes per row, about twice what the column readers need on
# these files (70 per event, 75 per observation); readers that build an
# Python object per event or observation need 375 to 515.
READER_BUDGET = {"events.jsonl": 140, "events.csv": 140, "observations.jsonl": 150}


@pytest.mark.parametrize("name", sorted(READER_BUDGET))
def test_column_readers_keep_no_object_per_row(simulated_files, name):
    read = read_observations_jsonl if name == "observations.jsonl" else read_events
    path = simulated_files / name
    read(path)  # imports and caches warmed up
    tracemalloc.start()
    try:
        n = len(read(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n > 2000
    assert peak / n <= READER_BUDGET[name], f"{peak / n:.0f} traced bytes per row"


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LONG_LOG = SimConfig(
    n_users=3000, n_profile_features=2, true_coefficients=(3.2, 0.4, -0.3, -0.2, 0.05),
    true_sigma=1.5, send_process=SendProcess("poisson", rate_per_hour=1 / 12),
    window_hours=168.0, seed=3,
)


@pytest.fixture(scope="module")
def long_log(tmp_path_factory):
    """A 3,000-user week as JSONL: about 60,000 events, 42,000 sends, many chunks of each step."""
    path = tmp_path_factory.mktemp("long") / "events.jsonl"
    write_events_jsonl(path, generate_event_log(LONG_LOG).events)
    read_events(path)  # imports and caches warmed up
    return path


def observations_of(path, schema):
    """The observations of a log as ingest builds them: the log is dropped once walked."""
    table = send_table(read_events(path), PipelineConfig())
    return table.observations(schema, 1 / 3600), len(table)


# Traced peak bytes per send of each step from the log to the observations or
# to the logistic fit, about 5% above what this code needs on the long log:
# reading 79, the walk 149 (the log, the table and the walk's temporaries),
# the observations 155 (the table, the observations and the matrix's
# temporaries) and the fit 148.  Growing sparse feature columns, holding the
# log beside the table and every sorted copy and per-send temporary of the
# walk at once needed 105, 205, 220 and 256.  The AFT fit's is per
# observation: 84, that is the standardized matrix, log T and the AFT
# objective's three vectors; the objective's six temporaries needed 99.
PATH_BUDGET = {"read": 84, "walk": 156, "observations": 163, "logistic fit": 156,
               "aft fit": 88}


def test_the_log_path_to_observations_holds_a_bounded_part(long_log):
    schema = default_sim_schema(LONG_LOG)
    tracemalloc.start()
    try:
        events = read_events(long_log)
        peaks = {"read": tracemalloc.get_traced_memory()[1]}
        tracemalloc.reset_peak()
        table = send_table(events, PipelineConfig())
        del events  # as ingest drops it
        peaks["walk"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        obs = table.observations(schema, 1 / 3600)
        peaks["observations"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sends = len(table)
    assert sends > 40_000 and len(obs) > 0.9 * sends
    per_send = {step: round(peak / sends) for step, peak in peaks.items()}
    assert all(per_send[step] <= PATH_BUDGET[step] for step in per_send), per_send


def test_the_logistic_fit_holds_its_matrix_and_labels_only(long_log):
    schema = default_sim_schema(LONG_LOG)
    _, sends = observations_of(long_log, schema)
    model, peak = traced_peak(
        lambda: fit_logistic_baseline(read_events(long_log), schema, 24.0, PipelineConfig())
    )
    assert model.horizon_t_hours == 24.0
    assert peak / sends <= PATH_BUDGET["logistic fit"], f"{peak / sends:.0f} bytes per send"


def test_the_aft_fit_holds_its_matrix_and_three_vectors(long_log):
    schema = default_sim_schema(LONG_LOG)
    obs, _ = observations_of(long_log, schema)
    model, peak = traced_peak(lambda: fit_aft(obs, schema=schema))
    assert model.diagnostics["n_obs"] == len(obs) > 40_000
    per_obs = peak / len(obs)
    assert per_obs <= PATH_BUDGET["aft fit"], f"{per_obs:.0f} bytes per observation"


# Traced peak bytes of hashing a file: 0.27 MB, one 256 KiB buffer however
# long the file.  Reading it a fresh 1 MiB bytes object at a time needed 2.1.
HASH_BUDGET = 300_000


def test_file_sha256_reads_through_one_buffer(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(random.Random(4).randbytes(4_500_000))
    digest, peak = traced_peak(file_sha256, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak <= HASH_BUDGET, f"{peak / 1e6:.2f} MB traced"


# Traced peak bytes of writing observations: 0.73 MB for 2,500 rows and for
# 20,000 rows, since rows are turned into text a part at a time.  Converting
# whole columns needed 1.5 and 5.0 MB.
WRITER_BUDGET = 1_000_000


@pytest.mark.parametrize("copies", [1, 8])
def test_the_observation_writer_holds_a_bounded_part(long_log, tmp_path, copies):
    obs, _ = observations_of(long_log, default_sim_schema(LONG_LOG))
    part = slice(0, 2500)
    tiled = ObservationColumns(
        obs.user_ids, np.tile(obs.user[part], copies), np.tile(obs.x[part], (copies, 1)),
        *(np.tile(c[part], copies) for c in (obs.t_hours, obs.uncensored, obs.origin_ts_hours)),
    )
    _, peak = traced_peak(write_observations_jsonl, tmp_path / "observations.jsonl", tiled)
    assert peak <= WRITER_BUDGET, f"{peak / 1e6:.2f} MB traced for {len(tiled)} rows"


# Traced peak bytes per row of scoring 40,000 rows: 72, that is the rate and
# score columns (40) and the part of rows converted to floats at a time.
# Holding a Python list entry per row for every row at once needed 349.
SCORE_BUDGET = 85


def test_scoring_holds_columns_not_a_python_object_per_row(long_log):
    schema = default_sim_schema(LONG_LOG)
    obs, _ = observations_of(long_log, schema)
    model = WeibullAftModel(feature_names=schema.names, coefficients=np.array(
        LONG_LOG.true_coefficients), log_sigma=math.log(LONG_LOG.true_sigma), schema=schema)
    X0, w0 = obs.x[:40_000], obs.t_hours[:40_000]
    scores, peak = traced_peak(score_columns, model, X0, w0, 24.0)
    assert np.isfinite(scores["delta"]).all()
    assert peak / len(X0) <= SCORE_BUDGET, f"{peak / len(X0):.0f} traced bytes per row"


def test_commands_build_no_row_objects(simulated_files, tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (Event, SendInstance, Candidate):
        monkeypatch.setattr(cls, "__init__", refuse)
    d, out = simulated_files, tmp_path
    schema = ["--schema", d / "schema.json"]
    for argv in [
        ["ingest", "--events", d / "events.jsonl", *schema, "--out", out / "ingest"],
        ["ingest", "--events", d / "events.csv", *schema, "--out", out / "ingest_csv"],
        ["train", "--model", "aft", "--observations", out / "ingest" / "observations.jsonl",
         *schema, "--out", out / "aft"],
        ["train", "--model", "logistic:24", "--events", d / "events.csv", *schema,
         "--out", out / "logistic"],
        *(["evaluate", "--aft-model", out / "aft" / "model.json", "--logistic-model",
           out / "logistic" / "model.json", "--events", d / "events.jsonl", *schema,
           "--horizons", "24", "--labeler", labeler, "--out", out / labeler]
          for labeler in ("naive", "censoring_clean")),
        ["score", "--model", out / "aft" / "model.json", "--contexts", d / "contexts.jsonl",
         "--out", out / "score"],
        *(["decide", "--scores", out / "score" / "deltas.jsonl", *rule, "--out", out / name]
          for name, rule in [("threshold", []), ("ratio", ["--rule", "ratio"]),
                             ("moo", ["--rule", "moo", "--c-send", "40", "--c-click", "30",
                                      "--synth-p-click-seed", "1"])]),
    ]:
        assert main([str(a) for a in argv]) == 0, argv


# -- a log as columns and as rows -----------------------------------------------


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(events(st.floats(allow_nan=False)), max_size=8))
def test_event_columns_iterate_as_the_events_they_hold(evs):
    assert list(as_columns(evs)) == evs


def test_a_feature_first_carried_in_a_later_chunk_is_missing_before(tmp_path):
    evs = [Event(f"u{i % 7}", float(i), "send", 1,
                 {"p": 0.5} if i < 10 else {"q": i / 4} if i >= 2 * _CHUNK_ROWS else {})
           for i in range(3 * _CHUNK_ROWS)]
    write_events_jsonl(tmp_path / "events.jsonl", as_columns(evs))
    for columns in (read_events(tmp_path / "events.jsonl"), as_columns(evs)):
        assert list(columns.features) == ["p", "q"]
        assert list(columns) == evs


def test_reading_and_rewriting_a_log_keeps_its_bytes(simulated_files, tmp_path):
    src = simulated_files / "events.jsonl"
    write_events_jsonl(tmp_path / "events.jsonl", read_events(src))
    assert (tmp_path / "events.jsonl").read_bytes() == src.read_bytes()


# -- the chunked reader against the per-row one -----------------------------------

USERS = ["u0", "u1", "u2", "é", "😀"]
FEATURES = ["p", "q", "r"]
FAULTS = {name: [line for n, line, _ in CASES if n == name]
          for name in ("events.jsonl", "events.csv")}


def _number(rng, text):
    """A timestamp or feature value: a float, -0.0 or an integer."""
    v = rng.choice([rng.uniform(0.0, 200.0), -0.0, rng.randrange(200), 5e-324])
    return repr(v) if text else v


def _json_event(rng, visit_features):
    kind = rng.choice(["send", "visit"])
    rec = {"user_id": rng.choice(USERS), "ts_hours": _number(rng, False), "kind": kind}
    if kind == "send" or rng.random() < 0.1:  # a badge on a visit may be negative
        rec["badge_count"] = rng.randrange(4) if kind == "send" else rng.randrange(-2, 3)
    if (kind == "send" or visit_features) and rng.random() < 0.8:
        names = rng.sample(FEATURES, rng.randrange(len(FEATURES) + 1))  # in any order
        rec["features"] = {n: _number(rng, False) for n in names}
    elif rng.random() < 0.1:
        rec["features"] = rng.choice([None, {}, 0, []])  # no features
    return json.dumps(rec)


def _csv_event(rng, width, short_rows):
    kind = rng.choice(["send", "visit"])
    badge = str(rng.randrange(4)) if kind == "send" else rng.choice(["", "", " 2 "])
    cells = [rng.choice(USERS), _number(rng, True), kind, badge]
    cells += [rng.choice(["", _number(rng, True), f" {_number(rng, True)} "])
              for _ in range(width - 4)]
    if short_rows and kind == "visit" and rng.random() < 0.3:
        cells = cells[:rng.randrange(3, width)]  # the missing cells read as None
    return ",".join(cells)


@st.composite
def event_logs(draw):
    """A few chunks of an event log, with at most two bad lines, as (name, lines)."""
    name = draw(st.sampled_from(sorted(FAULTS)))
    n = draw(st.integers(1, 3 * _CHUNK_ROWS + 2))
    rng = random.Random(draw(st.integers(0, 2**32)))  # fills in the rows, fast
    if name == "events.csv":
        extra = draw(st.sampled_from([[], ["q"], ["q", "r"], ["q", "p"], ["q", "kind"]]))
        header = ["user_id", "ts_hours", "kind", "badge_count", "p", *extra]  # may repeat a name
        short_rows = draw(st.booleans())
        lines = [",".join(header)] + [_csv_event(rng, len(header), short_rows) for _ in range(n)]
    else:
        visit_features = draw(st.booleans())
        lines = [_json_event(rng, visit_features) for _ in range(n)]
    first = int(name == "events.csv")  # the CSV header is not a record
    edges = [first, first + _CHUNK_ROWS - 1, first + _CHUNK_ROWS, len(lines) - 1]
    at = draw(st.sampled_from(edges) | st.integers(first, len(lines) - 1))
    for i in _bad_lines(draw, min(at, len(lines) - 1), len(lines) - 1):
        lines[i] = draw(st.sampled_from(FAULTS[name]))
    for _ in range(draw(st.integers(0, 3))):  # blank lines count in JSONL, not in CSV
        lines.insert(rng.randrange(first, len(lines) + 1), "")
    return name, lines


def _bad_lines(draw, at, last):
    """No line, the line at, or it and a later one up to last, often in its chunk."""
    if not draw(st.integers(0, 3)):  # a bad line in three logs of four
        return []
    if at == last or draw(st.booleans()):
        return [at]
    return [at, draw(st.integers(at + 1, min(at + 8, last)) | st.integers(at + 1, last))]


def _outcome(read, path):
    try:
        columns = read(path)
    except DataError as exc:
        return str(exc)
    return (columns.user_ids, *(getattr(columns, c).tobytes() for c in
                                ("user", "ts_hours", "is_send", "badge_count", "has_badge")),
            [(n, v.tobytes(), p.tobytes()) for n, (v, p) in columns.features.items()])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(event_logs())
def test_chunked_reader_equals_the_per_row_reader(tmp_path_factory, log):
    name, lines = log
    path = tmp_path_factory.getbasetemp() / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _outcome(read_events, path) == _outcome(oracle_readers.read_events, path)


@pytest.mark.parametrize("unparsable", ['{"user_id":', "[1,2]"])
def test_a_bad_record_before_an_unparsable_line_in_its_chunk_is_the_error(tmp_path, unparsable):
    lines = [EVENTS_JSONL[0], '{"user_id":"u","ts_hours":2.0,"kind":"push"}', EVENTS_JSONL[1],
             unparsable]
    path = tmp_path / "events.jsonl"
    _write(path, lines, None)
    assert _outcome(read_events, path) == f"{path}:2: unknown event kind 'push'"
    assert _outcome(oracle_readers.read_events, path) == f"{path}:2: unknown event kind 'push'"


@pytest.mark.parametrize("name", ["events.jsonl", "events.csv", "short-rows.csv"])
def test_a_clean_log_is_read_without_the_per_row_path(simulated_files, tmp_path, monkeypatch,
                                                      name):
    def refuse(*args):
        raise AssertionError("a chunk went through the per-row path")

    path = simulated_files / name
    if name == "short-rows.csv":  # each visit row ends at its kind, without empty cells
        path = tmp_path / name
        with open(simulated_files / "events.csv", encoding="utf-8") as f:
            path.write_text("".join(line.rstrip(",\n") + "\n" for line in f), encoding="utf-8")
    monkeypatch.setattr("sendwhen.io._raise_first_refused", refuse)
    assert len(read_events(path)) > 2000
    assert _outcome(read_events, path) == _outcome(read_events, simulated_files / "events.csv")


@pytest.mark.parametrize("name,step", [("events.jsonl", "_json_chunk"),
                                       ("events.csv", "_csv_chunk"),
                                       ("observations.jsonl", "_observation_chunk")])
def test_a_refused_chunk_with_no_bad_line_is_not_dropped(simulated_files, monkeypatch, name,
                                                         step):
    convert = getattr(sendwhen.io, step)

    def refuse_many(*args):  # refuses every chunk of more than one row, none of one
        if len(next(a for a in args if type(a) is list)) > 1:
            raise ValueError("refused")
        return convert(*args)

    monkeypatch.setattr(f"sendwhen.io.{step}", refuse_many)
    read = read_observations_jsonl if name == "observations.jsonl" else read_events
    with pytest.raises(AssertionError, match="refused a chunk with no bad line"):
        read(simulated_files / name)


@pytest.mark.parametrize("header,row,message", [
    ("user_id,ts_hours,kind,badge_count,p", "u,2.0", "unknown event kind 'None'"),
    ("user_id,ts_hours,kind,badge_count,p", "u", "malformed event record: float() argument "
     "must be a string or a real number, not 'NoneType'"),
    ("ts_hours,kind,badge_count,user_id", "2.0,visit",
     "malformed event record: user_id must be a string, got None"),
])
def test_a_csv_row_without_a_meta_cell_keeps_its_message(tmp_path, header, row, message):
    path = tmp_path / "events.csv"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    assert _outcome(read_events, path) == f"{path}:2: {message}"
    assert _outcome(oracle_readers.read_events, path) == f"{path}:2: {message}"


OBSERVATION_FAULTS = [line for n, line, _ in CASES if n == "observations.jsonl"] + [
    '{"user_id":',
    "[1,2]",
    '{"censored":false,"user_id":"u","x":[1.0,0.5,1.0]}',
    '{"censored":false,"t_hours":1.0,"user_id":"u","x":[1.0,true,1.0]}',
    '{"censored":false,"t_hours":1.0,"user_id":"u","x":{"p":1.0}}',
    '{"censored":false,"t_hours":NaN,"user_id":"u","x":[1.0,0.5,1.0]}',
    '{"censored":false,"t_hours":Infinity,"user_id":"u","x":[1.0,0.5,1.0]}',
    '{"censored":false,"t_hours":-2.5,"user_id":"u","x":[1.0,0.5,1.0]}',
    # integers that no float holds
    '{"censored":false,"t_hours":1' + "0" * 400 + ',"user_id":"u","x":[1.0,0.5,1.0]}',
    '{"censored":false,"t_hours":1.0,"user_id":"u","x":[1.0,1' + "0" * 400 + ',1.0]}',
    '{"censored":true,"origin_ts_hours":-1' + "0" * 400 + ',"t_hours":1.0,"user_id":"u",'
    '"x":[1.0,0.5,1.0]}',
]


def _observation(rng, width):
    rec = {
        "censored": rng.random() < 0.3,
        "t_hours": rng.choice([rng.uniform(1e-3, 200.0), rng.randrange(1, 200), 5e-324]),
        "user_id": rng.choice(USERS),
        "x": [rng.choice([rng.gauss(0.0, 2.0), -0.0, rng.randrange(-3, 4), math.nan])
              for _ in range(width)],
    }
    if rng.random() < 0.8:
        rec["origin_ts_hours"] = rng.choice([rng.uniform(0.0, 200.0), -0.0, rng.randrange(200)])
    return json.dumps(dict(rng.sample(sorted(rec.items()), len(rec))))  # keys in any order


@st.composite
def observation_logs(draw):
    """A few chunks of observations, with at most two bad lines, as lines."""
    n = draw(st.integers(1, 3 * _OBSERVATION_CHUNK_ROWS + 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    width = draw(st.sampled_from([3, 3, 0, 1]))  # the bad lines' x have 3 values or 2
    wider = n  # x is one value wider from there on, in one file of four
    if not draw(st.integers(0, 3)):
        wider = draw(st.sampled_from([_OBSERVATION_CHUNK_ROWS]) | st.integers(1, n))
    lines = [_observation(rng, width + (i >= wider)) for i in range(n)]
    edges = [0, _OBSERVATION_CHUNK_ROWS - 1, _OBSERVATION_CHUNK_ROWS, n - 1]
    at = draw(st.sampled_from(edges) | st.integers(0, n - 1))
    for i in _bad_lines(draw, min(at, n - 1), n - 1):
        lines[i] = draw(st.sampled_from(OBSERVATION_FAULTS))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(rng.randrange(len(lines) + 1), "")
    return lines


def _observation_outcome(read, path):
    try:
        obs = read(path)
    except DataError as exc:
        return str(exc)
    return (obs.user_ids, obs.x.shape, *(getattr(obs, c).tobytes() for c in
                                         ("user", "x", "t_hours", "uncensored", "origin_ts_hours")))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(observation_logs())
def test_chunked_observation_reader_equals_the_per_row_reader(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "observations.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert (_observation_outcome(read_observations_jsonl, path)
            == _observation_outcome(oracle_readers.read_observations_jsonl, path))


def test_clean_observations_are_read_without_the_per_row_path(simulated_files, monkeypatch):
    def refuse(*args):
        raise AssertionError("a chunk went through the per-row path")

    monkeypatch.setattr("sendwhen.io._raise_first_refused", refuse)
    assert len(read_observations_jsonl(simulated_files / "observations.jsonl")) > 2000
