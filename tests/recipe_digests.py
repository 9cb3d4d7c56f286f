"""Byte-identity recipe: run every command and print the SHA-256 of each output.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/recipe_digests.py [WORK_DIR] > digests.txt

The commands run as child interpreters under SOURCE_DATE_EPOCH=0 with the
package found on PYTHONPATH, so two checkouts give two digest lists, and
"same bytes" is an empty diff of them.  WORK_DIR (default: a temporary
directory, removed afterwards) keeps the outputs.  Each line is
"sha256  path", the path relative to WORK_DIR; a --print-config output is
listed as print-config/<command>.json.

The recipe:
  * 2,000 users (seed 7) and a CSV copy of their event log: ingest, train
    aft, train logistic:4/24/48 on the CSV, evaluate naive on the CSV at
    4/24/48 and censoring_clean on the JSONL at 24, score, then decide with
    moo 400/150 (slack click floor), moo 260/160 (binding floor) and ratio
    0.05;
  * the decision cycle at 6,000 users over 24 h (seed 1): ingest, train
    aft, score, decide moo 1200/780;
  * --print-config of all six commands.

This file is not collected by pytest (its name does not start with test_).
tests/test_recipe_digests.py runs the recipe and requires the lines in
tests/recipe_digests.sha256, recorded under the environment() in
tests/recipe_digests.env.json; it skips under another environment, since
numpy's float64 kernels differ by CPU dispatch.  A change that moves
digests records both again:

    PYTHONPATH=src python3 tests/recipe_digests.py > tests/recipe_digests.sha256
    PYTHONPATH=tests python3 -c 'import json, recipe_digests as r;
    print(json.dumps(r.environment(), indent=2))' > tests/recipe_digests.env.json
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np

from peak_rss import write_csv

COMMANDS = ("simulate", "ingest", "train", "evaluate", "score", "decide")
HORIZONS = ("4", "24", "48")


def _cli(*argv, capture: bool = False) -> str:
    env = {**os.environ, "SOURCE_DATE_EPOCH": "0"}
    done = subprocess.run([sys.executable, "-m", "sendwhen.cli", *map(str, argv)], env=env,
                          check=True, stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    return done.stdout.decode("utf-8") if capture else ""


def _fit_and_score(s: Path, p: Path) -> None:
    """simulate's log in s through ingest, train aft and score, into p."""
    _cli("ingest", "--events", s / "events.jsonl", "--schema", s / "schema.json",
         "--out", p / "ingest")
    _cli("train", "--model", "aft", "--observations", p / "ingest" / "observations.jsonl",
         "--schema", p / "ingest" / "schema.json", "--out", p / "aft")
    _cli("score", "--model", p / "aft" / "model.json", "--contexts", s / "contexts.jsonl",
         "--horizon-T", 24, "--out", p / "score")


def _moo(scores: Path, c_send, c_click, out: Path) -> None:
    _cli("decide", "--scores", scores, "--rule", "moo", "--c-send", c_send, "--c-click", c_click,
         "--synth-p-click-seed", 3, "--out", out)


def nightly(d: Path) -> None:
    s = d / "sim"
    _cli("simulate", "--n-users", 2000, "--seed", 7, "--out", s)
    write_csv(s / "events.jsonl", s / "events.csv")
    _fit_and_score(s, d)
    models = []
    for t in HORIZONS:
        _cli("train", "--model", f"logistic:{t}", "--events", s / "events.csv",
             "--schema", s / "schema.json", "--out", d / f"logistic_{t}")
        models += ["--logistic-model", d / f"logistic_{t}" / "model.json"]
    _cli("evaluate", "--aft-model", d / "aft" / "model.json", *models,
         "--events", s / "events.csv", "--schema", s / "schema.json",
         "--horizons", *HORIZONS, "--out", d / "evaluate_naive")
    _cli("evaluate", "--aft-model", d / "aft" / "model.json",
         "--logistic-model", d / "logistic_24" / "model.json",
         "--events", s / "events.jsonl", "--schema", s / "schema.json",
         "--horizons", 24, "--labeler", "censoring_clean", "--out", d / "evaluate_clean")
    scores = d / "score" / "deltas.jsonl"
    _moo(scores, 400, 150, d / "decide_moo_slack")
    _moo(scores, 260, 160, d / "decide_moo_binding")
    _cli("decide", "--scores", scores, "--rule", "ratio", "--kappa", 0.05,
         "--out", d / "decide_ratio")


def cycle(d: Path) -> None:
    s = d / "sim"
    _cli("simulate", "--n-users", 6000, "--seed", 1, "--window-hours", 24, "--out", s)
    _fit_and_score(s, d)
    _moo(d / "score" / "deltas.jsonl", 1200, 780, d / "decide")


def environment() -> dict:
    """What the digests depend on besides the code.

    That is the interpreter, numpy, scipy, the C library, whose libm computes
    what numpy does not dispatch to its own kernels, and the CPU.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "libc": list(platform.libc_ver()),
        "machine": platform.machine(),
        "avx512": sorted(k for k, on in __cpu_features__.items() if on and k.startswith("AVX512")),
    }


def run(work: Path) -> list[str]:
    """Run the recipe in work; return its "sha256  path" lines, sorted by path."""
    nightly(work / "nightly-2k")
    cycle(work / "cycle-6k")
    printed = work / "print-config"
    printed.mkdir()
    for command in COMMANDS:
        (printed / f"{command}.json").write_text(_cli(command, "--print-config", capture=True),
                                                 encoding="utf-8")
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work).as_posix()}"
            for p in files]


def main(argv: list[str]) -> int:
    if argv:
        work = Path(argv[0])
        work.mkdir(parents=True, exist_ok=False)
        lines = run(work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run(Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
