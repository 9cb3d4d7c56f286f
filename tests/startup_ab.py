"""Per-command wall time, CPU time and peak RSS of two source trees, run in alternation.

Usage, from the repository root:

    python3 tests/startup_ab.py --a A_SRC --b B_SRC [--rounds N] [--seed S] [WORK_DIR]

A_SRC and B_SRC are two src/ directories of the package, say a checkout of
the parent commit's and this one's.  Set-up runs tree A's commands once to
make the inputs of two sequences, the sizes of the benchmark's workloads:

  * nightly: simulate 2,000 users over one week (seed S, 1 by default) and
    write the CSV copy of the log; the timed commands are ingest, train aft,
    score at 24 h, decide --rule moo (send cap 400, click floor 150),
    train logistic:T for T = 4, 24 and 48 on the CSV log, and evaluate at
    those horizons;
  * cycle: simulate 6,000 users over 24 h, then ingest and train aft; the
    timed commands are score at 24 h and decide --rule moo (send cap 1,200,
    click floor 780).

Every timed command reads set-up's files, never another timed command's,
so each round runs the same work.  In each of N rounds (10 by default)
every command runs once from each tree, the tree that goes first
alternating from one command and round to the next.  A command runs under
bench/spawn.py, as the benchmark runs it (python -m sendwhen.cli, with
SOURCE_DATE_EPOCH=0), and also with PYTHONDONTWRITEBYTECODE=1, so that
every run compiles the package from source, as a new checkout does, and
nothing is written into either tree.

For each command the script prints the median wall and CPU time of each
tree, the median of the paired differences B - A and the number of rounds
in which B was faster; then, per sequence, the same for the sum over its
commands.  A second table gives the same for each command's peak RSS, the
rss_mb that bench/spawn.py reports, with the rounds in which B's was
lower; then, per sequence, for the largest peak of its commands in a
round, which is the peak that a whole benchmark pass reports.  A whole
benchmark run on a small machine drifts too much to resolve a change of a
few percent (bench/README.md, "Sizes and noise"); pairs run seconds apart
do not.  WORK_DIR (default: a temporary directory,
removed afterwards) keeps the inputs and outputs.

This file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from peak_rss import SPAWN, write_csv
HORIZONS = (4, 24, 48)


def set_up(run, work: Path, seed: int) -> None:
    """The inputs of both sequences, made by run(argv) with tree A."""
    n, c = work / "nightly", work / "cycle"
    run("simulate", "--n-users", 2000, "--seed", seed, "--out", n / "sim")
    write_csv(n / "sim" / "events.jsonl", n / "sim" / "events.csv")
    run("simulate", "--n-users", 6000, "--window-hours", 24, "--seed", seed, "--out", c / "sim")
    for d in (n, c):
        run("ingest", "--events", d / "sim" / "events.jsonl", "--schema", d / "sim" / "schema.json",
            "--out", d / "ingest")
        run("train", "--model", "aft", "--observations", d / "ingest" / "observations.jsonl",
            "--schema", d / "ingest" / "schema.json", "--out", d / "aft")
        run("score", "--model", d / "aft" / "model.json", "--contexts",
            d / "sim" / "contexts.jsonl", "--horizon-T", 24, "--out", d / "score")
    for t in HORIZONS:
        run("train", "--model", f"logistic:{t}", "--events", n / "sim" / "events.csv",
            "--schema", n / "sim" / "schema.json", "--out", n / f"logistic_{t}")


def sequences(work: Path) -> dict[str, list[tuple[str, list]]]:
    """sequence -> (command name, argv without --out) in the order a pass runs them."""
    n, c = work / "nightly", work / "cycle"
    nightly = [
        ("ingest", ["ingest", "--events", n / "sim" / "events.jsonl",
                    "--schema", n / "sim" / "schema.json"]),
        ("train aft", ["train", "--model", "aft", "--observations",
                       n / "ingest" / "observations.jsonl", "--schema",
                       n / "ingest" / "schema.json"]),
        ("score", ["score", "--model", n / "aft" / "model.json", "--contexts",
                   n / "sim" / "contexts.jsonl", "--horizon-T", 24]),
        ("decide", ["decide", "--scores", n / "score" / "deltas.jsonl", "--rule", "moo",
                    "--c-send", 400, "--c-click", 150, "--synth-p-click-seed", 3]),
        *((f"train logistic:{t}", ["train", "--model", f"logistic:{t}", "--events",
                                   n / "sim" / "events.csv", "--schema", n / "sim" / "schema.json"])
          for t in HORIZONS),
        ("evaluate", ["evaluate", "--aft-model", n / "aft" / "model.json",
                      *(a for t in HORIZONS for a in ("--logistic-model",
                                                       n / f"logistic_{t}" / "model.json")),
                      "--events", n / "sim" / "events.csv", "--schema", n / "sim" / "schema.json",
                      "--horizons", *HORIZONS]),
    ]
    cycle = [
        ("score", ["score", "--model", c / "aft" / "model.json", "--contexts",
                   c / "sim" / "contexts.jsonl", "--horizon-T", 24]),
        ("decide", ["decide", "--scores", c / "score" / "deltas.jsonl", "--rule", "moo",
                    "--c-send", 1200, "--c-click", 780, "--synth-p-click-seed", 3]),
    ]
    return {"nightly": nightly, "cycle": cycle}


def spawn(src: Path, work: Path, argv: list) -> dict:
    """Run python -m sendwhen.cli argv from src under bench/spawn.py; its times and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(src), SOURCE_DATE_EPOCH="0",
               PYTHONDONTWRITEBYTECODE="1")
    result = work / "spawn.json"
    subprocess.run([sys.executable, "-S", str(SPAWN), str(result),
                    sys.executable, "-m", "sendwhen.cli", *map(str, argv)],
                   cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
    done = json.loads(result.read_text())
    if done["returncode"] != 0:
        raise SystemExit(f"sendwhen {argv[0]} from {src} exited {done['returncode']}")
    return done


def measure(a: Path, b: Path, work: Path, rounds: int) -> dict[tuple[str, str], dict]:
    """(sequence, command) -> {"a": [(wall, cpu, rss), ...], "b": [...]}, one entry per round."""
    times: dict[tuple[str, str], dict] = {}
    for r in range(rounds):
        k = r
        for seq, commands in sequences(work).items():
            for name, argv in commands:
                runs = times.setdefault((seq, name), {"a": [], "b": []})
                order = ("a", "b") if k % 2 == 0 else ("b", "a")
                k += 1
                for side in order:
                    src = a if side == "a" else b
                    out = work / "out" / side / seq / name.replace(" ", "_").replace(":", "_")
                    done = spawn(src, work, [*argv, "--out", out, "--force"])
                    runs[side].append((done["wall_s"], done["cpu_s"], done["rss_mb"]))
    return times


def summary(name: str, runs: dict, fields: tuple[int, ...], scale: float, digits: int) -> str:
    """A row: per field, each tree's median and the median paired B - A; then B's wins.

    B wins a round when the first field is lower than A's.
    """
    cells = [f"{name:<24}"]
    for i in fields:
        a = [t[i] * scale for t in runs["a"]]
        b = [t[i] * scale for t in runs["b"]]
        diff = statistics.median(y - x for x, y in zip(a, b))
        cells.append(f"{statistics.median(a):>8.{digits}f} {statistics.median(b):>8.{digits}f} "
                     f"{diff:>+8.{digits}f}")
    wins = sum(y[fields[0]] < x[fields[0]] for x, y in zip(runs["a"], runs["b"]))
    cells.append(f"{wins:>3}/{len(runs['a'])}")
    return "  ".join(cells)


def times(name: str, runs: dict) -> str:
    return summary(name, runs, (0, 1), 1e3, 1)  # wall, then CPU, in ms


def peaks(name: str, runs: dict) -> str:
    return summary(name, runs, (2,), 1.0, 2)  # peak RSS in MB


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--a", type=Path, required=True, help="src/ directory of tree A")
    ap.add_argument("--b", type=Path, required=True, help="src/ directory of tree B")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("work_dir", nargs="?")
    args = ap.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()

    def run(work: Path) -> None:
        set_up(lambda *argv: spawn(a, work, list(argv)), work, args.seed)
        runs = measure(a, b, work, args.rounds)
        seqs = {seq: [k for k in runs if k[0] == seq] for seq in ("nightly", "cycle")}

        def per_round(keys: list, side: str, combine) -> list[tuple]:
            return [tuple(map(combine, zip(*(runs[k][side][r] for k in keys))))
                    for r in range(args.rounds)]

        print(f"{'ms':<24}  {'A wall':>8} {'B wall':>8} {'B-A':>8}  "
              f"{'A cpu':>8} {'B cpu':>8} {'B-A':>8}  B faster")
        for seq, keys in seqs.items():
            print(f"-- {seq}")
            for key in keys:
                print(times(key[1], runs[key]))
            print(times("sum", {side: per_round(keys, side, sum) for side in ("a", "b")}))
        print(f"\n{'peak RSS, MB':<24}  {'A':>8} {'B':>8} {'B-A':>8}  B lower")
        for seq, keys in seqs.items():
            print(f"-- {seq}")
            for key in keys:
                print(peaks(key[1], runs[key]))
            print(peaks("max", {side: per_round(keys, side, max) for side in ("a", "b")}))

    if args.work_dir:
        work = Path(args.work_dir).resolve()
        work.mkdir(parents=True, exist_ok=False)
        run(work)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
