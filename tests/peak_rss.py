"""Wall time and peak RSS of each command on a simulated event log.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/peak_rss.py --users N [--seed S] [--contexts M] [WORK_DIR]

Simulates N users (seed 7 by default) over one week, writes the CSV copy of
their event log, then runs these commands one at a time as child processes:

  * ingest on the JSONL log;
  * train aft on its observations;
  * train logistic:24 on the CSV log;
  * evaluate at 24 h on the CSV log, with those two models;
  * score at 24 h on M contexts: the simulated ones, repeated with a copy
    number appended to the user id when M is larger (default: N, the
    simulated ones as they are);
  * decide --rule moo on those scores, with a send cap of 20% of the
    contexts and a click floor of 13%.

Each command is started by a small launcher interpreter (python -S) that
forks and execs it and reads its peak RSS with os.wait4, as bench/spawn.py
does: a command started straight from this process would also report this
process's own peak.  One line per command gives its wall time and peak
RSS in MB.  WORK_DIR (default: a temporary directory, removed afterwards)
keeps the inputs and outputs.

This file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the launcher: fork and exec argv[2:], then write its wall time and peak
# RSS to argv[1]; it imports no more than os, sys, time and json
LAUNCH = """
import json, os, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as f:
    json.dump({"wall_s": time.perf_counter() - t0, "rss_mb": usage.ru_maxrss / 1024.0,
               "returncode": os.waitstatus_to_exitcode(status)}, f)
"""


def measure(*argv) -> dict:
    """Run the sendwhen command argv under the launcher; its wall time and peak RSS."""
    with tempfile.NamedTemporaryFile(suffix=".json") as result:
        subprocess.run([sys.executable, "-S", "-c", LAUNCH, result.name,
                        sys.executable, "-m", "sendwhen.cli", *map(str, argv)],
                       check=True, stdout=subprocess.DEVNULL)
        done = json.loads(Path(result.name).read_text())
    if done["returncode"] != 0:
        raise SystemExit(f"sendwhen {argv[0]} exited {done['returncode']}")
    return done


def write_csv(src: Path, dst: Path) -> None:
    """The JSONL event log as CSV, one column per feature, floats by repr (exact).

    Reads the log twice, once for the feature names and once for the rows,
    so no more than one line is held at a time.
    """
    with open(src, encoding="utf-8") as f:
        names = sorted({k for line in f for k in json.loads(line).get("features") or {}})
    with open(src, encoding="utf-8") as f, open(dst, "w", encoding="utf-8", newline="") as out:
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["user_id", "ts_hours", "kind", "badge_count", *names])
        for line in f:
            rec = json.loads(line)
            feats, badge = rec.get("features") or {}, rec["badge_count"]
            rows.writerow([rec["user_id"], repr(rec["ts_hours"]), rec["kind"],
                           "" if badge is None else badge]
                          + [repr(feats[n]) if n in feats else "" for n in names])


def write_contexts(src: Path, dst: Path, m: int) -> None:
    """The first m contexts of src repeated: copy k > 0 appends #k to each user id."""
    with open(src, encoding="utf-8") as f:
        lines = f.readlines()
    with open(dst, "w", encoding="utf-8") as out:
        for i in range(m):
            copy, line = divmod(i, len(lines))
            rec = json.loads(lines[line])
            if copy:
                rec["user_id"] = f"{rec['user_id']}#{copy}"
            out.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def run(work: Path, users: int, seed: int, contexts: int | None) -> list[tuple[str, dict]]:
    s = work / "sim"
    subprocess.run([sys.executable, "-m", "sendwhen.cli", "simulate", "--n-users", str(users),
                    "--seed", str(seed), "--out", str(s)], check=True, stdout=subprocess.DEVNULL)
    write_csv(s / "events.jsonl", s / "events.csv")
    m = users if contexts is None else contexts
    ctx = s / "contexts.jsonl"
    if m != users:
        ctx = work / "contexts.jsonl"
        write_contexts(s / "contexts.jsonl", ctx, m)
    aft = work / "aft" / "model.json"
    logistic = work / "logistic_24" / "model.json"
    return [
        ("ingest", measure("ingest", "--events", s / "events.jsonl", "--schema",
                           s / "schema.json", "--out", work / "ingest")),
        ("train aft", measure("train", "--model", "aft", "--observations",
                              work / "ingest" / "observations.jsonl", "--schema",
                              work / "ingest" / "schema.json", "--out", aft.parent)),
        ("train logistic:24", measure("train", "--model", "logistic:24", "--events",
                                      s / "events.csv", "--schema", s / "schema.json",
                                      "--out", logistic.parent)),
        ("evaluate", measure("evaluate", "--aft-model", aft, "--logistic-model", logistic,
                             "--events", s / "events.csv", "--schema", s / "schema.json",
                             "--horizons", 24, "--out", work / "evaluate")),
        (f"score ({m} contexts)", measure("score", "--model", aft, "--contexts", ctx,
                                          "--horizon-T", 24, "--out", work / "score")),
        ("decide moo", measure("decide", "--scores", work / "score" / "deltas.jsonl",
                               "--rule", "moo", "--c-send", 0.2 * m, "--c-click", 0.13 * m,
                               "--synth-p-click-seed", 3, "--out", work / "decide")),
    ]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--users", type=int, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--contexts", type=int)
    ap.add_argument("work_dir", nargs="?")
    args = ap.parse_args(argv)
    if args.work_dir:
        work = Path(args.work_dir)
        work.mkdir(parents=True, exist_ok=False)
        rows = run(work, args.users, args.seed, args.contexts)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            rows = run(Path(tmp), args.users, args.seed, args.contexts)
    print(f"{'command':<24} {'wall s':>8} {'peak RSS MB':>12}")
    for name, r in rows:
        print(f"{name:<24} {r['wall_s']:>8.2f} {r['rss_mb']:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
