"""The package surface the benchmark's traced replay calls still works.

bench/layers.py replays recorded CLI commands in-process through the public
functions (``moo_solve`` and its result's ``kappa1`` and ``report``,
``Candidate``, the readers and writers, the fits).  A small pipeline run
through the CLI, then replayed, catches a change to that surface here
rather than in a benchmark run.  As in the nightly workload, the logistic
baseline and the evaluation read a CSV copy of the log, so the replay's
event reader sees both formats.
"""

import json
from pathlib import Path

from sendwhen.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_replay_of_a_small_nightly_pipeline(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # restored after the test
    import layers
    import oracles

    s, p = tmp_path / "sim", tmp_path / "pass"
    argvs = [
        ["simulate", "--n-users", "150", "--seed", "4", "--out", s],
        ["ingest", "--events", s / "events.jsonl", "--schema", s / "schema.json",
         "--out", p / "ingest"],
        ["train", "--model", "aft", "--observations", p / "ingest" / "observations.jsonl",
         "--schema", p / "ingest" / "schema.json", "--out", p / "aft"],
        ["score", "--model", p / "aft" / "model.json", "--contexts", s / "contexts.jsonl",
         "--horizon-T", "24", "--out", p / "score"],
        ["decide", "--scores", p / "score" / "deltas.jsonl", "--rule", "moo",
         "--c-send", "30", "--c-click", "20", "--synth-p-click-seed", "3",
         "--out", p / "decide"],
        ["train", "--model", "logistic:24", "--events", s / "events.csv",
         "--schema", s / "schema.json", "--out", p / "logistic_24"],
        ["evaluate", "--aft-model", p / "aft" / "model.json",
         "--logistic-model", p / "logistic_24" / "model.json",
         "--events", s / "events.csv", "--schema", s / "schema.json",
         "--horizons", "24", "--out", p / "evaluate"],
    ]
    argvs = [[str(a) for a in argv] for argv in argvs]
    for argv in argvs:
        assert main(argv) == 0, argv
        if argv[0] == "simulate":
            oracles.jsonl_to_csv(s / "events.jsonl", s / "events.csv")

    traced = layers.replay("nightly-2k", ROOT / "src", argvs, tmp_path / "traced")
    assert traced["errors"] == []
    report = json.loads((p / "decide" / "report.json").read_text())
    n_fractional = traced["metrics"]["policies.moo_n_fractional"]["value"]
    assert n_fractional == report["n_fractional"] > 0  # the click floor binds
    assert traced["metrics"]["policies.moo_kappa1"]["value"] == report["kappa1"]
