"""Every command's numeric config keys at their extremes: main never raises.

A value is drawn for one key of one command's config file: an integer of
401 digits, NaN, an infinity, -0.0, a bool, a string or an ordinary number.
The command runs in this process on tiny inputs, and main returns 0, 2, 3
or 4; a refusal with exit 2 names the key.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sendwhen.cli import main

# each case: argv ({d} the fixtures' directory), the config the drawn value
# is merged into, and the numeric keys drawn for
CASES = {
    "simulate": (("simulate",), {"n_users": 3, "window_hours": 48.0},
                 ("n_users", "n_profile_features", "true_sigma", "window_hours", "seed")),
    "ingest": (("ingest", "--events", "{d}/sim/events.jsonl", "--schema", "{d}/sim/schema.json"),
               {}, ("duration_floor_hours", "window_start", "window_end")),
    "train aft": (("train", "--observations", "{d}/ing/observations.jsonl",
                   "--schema", "{d}/ing/schema.json"), {},
                  ("tol", "max_iters", "ridge", "seed")),
    "train logistic": (("train", "--events", "{d}/sim/events.jsonl",
                        "--schema", "{d}/sim/schema.json"), {"model": "logistic:24"},
                       ("tol", "max_iters", "ridge", "seed", "duration_floor_hours",
                        "window_start", "window_end")),
    "evaluate": (("evaluate", "--aft-model", "{d}/aft/model.json",
                  "--logistic-model", "{d}/lg24/model.json", "--events", "{d}/sim/events.jsonl",
                  "--schema", "{d}/sim/schema.json"), {"horizons": [24.0]},
                 ("horizons", "duration_floor_hours", "window_start", "window_end")),
    "score": (("score", "--model", "{d}/aft/model.json", "--contexts", "{d}/sim/contexts.jsonl"),
              {}, ("horizon_T",)),
    "decide moo": (("decide", "--scores", "{d}/score/deltas.jsonl"),
                   {"rule": "moo", "c_send": 4.0, "c_click": 1.0, "synth_p_click_seed": 1},
                   ("c_click", "c_send", "evaluation_cadence_hours", "synth_p_click_seed")),
    "decide ratio": (("decide", "--scores", "{d}/score/deltas.jsonl"), {"rule": "ratio"},
                     ("kappa", "evaluation_cadence_hours", "synth_p_click_seed")),
}

BIG = 10**400  # 401 digits
EXTREMES = [BIG, -BIG, math.nan, math.inf, -math.inf, -0.0, True, False, "1", ""]

# Keys whose value the simulator spends work or memory on per unit: a user or
# a profile feature.  They get a bounded range, so that an example finishes
# in milliseconds.  The 401-digit n_users, as every window_hours, is drawn:
# simulate refuses a run past its user or send limit before any draw.
BOUNDED = {
    "n_users": st.integers(-2, 8),
    "n_profile_features": st.integers(-2, 6),
}


def values(key):
    if key == "n_profile_features":  # a schema of 401 digits of slots is never built
        return st.sampled_from([v for v in EXTREMES if v is not BIG]) | BOUNDED[key]
    if key in BOUNDED:
        return st.sampled_from(EXTREMES) | BOUNDED[key]
    return st.sampled_from(EXTREMES) | st.integers() | st.floats()


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    d = tmp_path_factory.mktemp("numbers")
    for argv in (
        ("simulate", "--n-users", 12, "--seed", 4, "--out", d / "sim"),
        ("ingest", "--events", d / "sim/events.jsonl", "--schema", d / "sim/schema.json",
         "--out", d / "ing"),
        ("train", "--observations", d / "ing/observations.jsonl", "--schema",
         d / "ing/schema.json", "--out", d / "aft"),
        ("train", "--model", "logistic:24", "--events", d / "sim/events.jsonl", "--schema",
         d / "sim/schema.json", "--out", d / "lg24"),
        ("score", "--model", d / "aft/model.json", "--contexts", d / "sim/contexts.jsonl",
         "--out", d / "score"),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv
    return d


@pytest.mark.parametrize("case,key", [(c, k) for c, (_, _, keys) in CASES.items() for k in keys])
def test_a_numeric_config_value_is_run_or_refused(fixtures, case, key):
    argv, base, _ = CASES[case]
    argv = [a.format(d=fixtures) for a in argv]
    config, out = fixtures / "config.json", fixtures / "out"

    @settings(derandomize=True, deadline=None, max_examples=50, database=None)
    @given(values(key))
    def run(value):
        config.write_text(json.dumps({**base, key: [value] if key == "horizons" else value}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(config), "--out", str(out), "--force"])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        if code == 2:
            assert key in err.getvalue().splitlines()[-1], err.getvalue()

    run()
