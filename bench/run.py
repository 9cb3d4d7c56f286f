"""Benchmark of the sendwhen CLI on two batch workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload nightly-2k --seed 1 --seconds 44 --trace 0

Set-up makes the workload's inputs from --seed with the program's own
simulator, twice: the median of the two is ``setup_s`` and the two sets of
files must be byte-identical.  A timed pass runs the workload's CLI commands
as child processes, one at a time (a closed loop with a single client).
Passes follow the first set-up until they fill half of --seconds, and the
second set-up until they fill all of it; ``total_s`` is the median pass.
Every output is checked against references computed in bench/oracles.py,
which does not import the package.

With --trace 1 the runner sets up once, runs the sequence once untraced for
the per-command figures, then replays the same calls in-process with one span
per call into the package (bench/layers.py) and reports the per-layer
metrics.  On nightly-2k it also prints the layer rows of the ROADMAP
Baseline table.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the details (environment, each
command's wall/CPU/RSS, input digests and, when traced, the spans).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import oracles

ROOT = Path.cwd()
CLI_MODULE = ROOT / "src" / "sendwhen" / "cli.py"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 2
SYNTH_P_CLICK_SEED = 3
SCORE_HORIZON = 24.0
SWEEP_HORIZONS = [4.0, 24.0, 48.0]
GENERATED = ("events.jsonl", "contexts.jsonl", "truth.json", "schema.json",
             "events.csv", "ingest/observations.jsonl", "aft/model.json")

END_TO_END_UNITS = {"total_s": "s", "rows_per_s": "rows/s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class RunFailed(Exception):
    """The run cannot continue: a command failed or the deadline passed."""


@dataclass(frozen=True)
class Workload:
    """Inputs made in set-up and the commands of one timed pass."""

    n_users: int
    window_hours: float
    fit_in_setup: bool  # ingest + train the survival model during set-up
    csv_events: bool  # also write the event log as CSV during set-up
    counted_rows: str  # what rows_per_s divides: "events" or "candidates"
    commands: Callable[["Workload", Path, Path], list[tuple[str, list]]]
    check: Callable[["Checker", Path, dict], None]
    c_send: float = 0.0
    c_click: float = 0.0


def _ingest(events: Path, schema: Path, out: Path) -> tuple[str, list]:
    return "ingest", ["ingest", "--events", events, "--schema", schema, "--out", out]


def _train_aft(ingest_dir: Path, out: Path) -> tuple[str, list]:
    return "train", ["train", "--model", "aft",
                     "--observations", ingest_dir / "observations.jsonl",
                     "--schema", ingest_dir / "schema.json", "--out", out]


def _train_logistic(events: Path, schema: Path, horizon: float, out: Path) -> tuple[str, list]:
    return "train", ["train", "--model", f"logistic:{horizon:g}",
                     "--events", events, "--schema", schema, "--out", out]


def _score(model: Path, contexts: Path, out: Path) -> tuple[str, list]:
    return "score", ["score", "--model", model, "--contexts", contexts,
                     "--horizon-T", SCORE_HORIZON, "--out", out]


def _decide(wl: Workload, scores: Path, out: Path) -> tuple[str, list]:
    return "decide", ["decide", "--scores", scores, "--rule", "moo",
                      "--c-send", wl.c_send, "--c-click", wl.c_click,
                      "--synth-p-click-seed", SYNTH_P_CLICK_SEED, "--out", out]


def _nightly(wl: Workload, s: Path, p: Path) -> list[tuple[str, list]]:
    cmds = [
        _ingest(s / "events.jsonl", s / "schema.json", p / "ingest"),
        _train_aft(p / "ingest", p / "aft"),
        _score(p / "aft" / "model.json", s / "contexts.jsonl", p / "score"),
        _decide(wl, p / "score" / "deltas.jsonl", p / "decide"),
    ]
    cmds += [_train_logistic(s / "events.csv", s / "schema.json", t, p / f"logistic_{t:g}")
             for t in SWEEP_HORIZONS]
    models = [a for t in SWEEP_HORIZONS
              for a in ("--logistic-model", p / f"logistic_{t:g}" / "model.json")]
    cmds.append(("evaluate", ["evaluate", "--aft-model", p / "aft" / "model.json", *models,
                              "--events", s / "events.csv", "--schema", s / "schema.json",
                              "--horizons", *SWEEP_HORIZONS, "--out", p / "evaluate"]))
    return cmds


def _cycle(wl: Workload, s: Path, p: Path) -> list[tuple[str, list]]:
    return [
        _score(s / "aft" / "model.json", s / "contexts.jsonl", p / "score"),
        _decide(wl, p / "score" / "deltas.jsonl", p / "decide"),
    ]


def _check_nightly(chk: "Checker", p: Path, ops: dict) -> None:
    ops["ingest"]["errors"] += oracles.check_ingest(p / "ingest", chk.sends, chk.visits)
    ops["train"]["errors"] += oracles.check_aft_vs_truth(p / "aft" / "model.json",
                                                         chk.s / "truth.json")
    chk.scores_and_lp(p / "aft" / "model.json", p, ops)
    ops["evaluate"]["errors"] += oracles.check_auc_report(p / "evaluate", chk.sends,
                                                          SWEEP_HORIZONS)


def _check_cycle(chk: "Checker", p: Path, ops: dict) -> None:
    chk.scores_and_lp(chk.s / "aft" / "model.json", p, ops)


# Two workloads, not more: each run needs tens of seconds of timed passes to
# average out a shared 2-core machine whose speed changes from second to
# second, and 22 runs of every workload must fit in an hour; see
# bench/README.md.
WORKLOADS: dict[str, Workload] = {
    # the click floor is slack here (kappa1 = 0): the LP takes its cheap path
    "nightly-2k": Workload(2000, 168.0, False, True, "events", _nightly, _check_nightly,
                           c_send=400.0, c_click=150.0),
    # the click floor binds (kappa1 > 0) with fractional entries
    "cycle-6k": Workload(6000, 24.0, True, False, "candidates", _cycle, _check_cycle,
                          c_send=1200.0, c_click=780.0),
}


# -- child processes ---------------------------------------------------------------


class Children:
    """Runs CLI commands one at a time, each under bench/spawn.py, which
    accounts the command with os.wait4."""

    def __init__(self, deadline: float, log_dir: Path):
        self.deadline = deadline
        self.log_dir = log_dir
        self.env = dict(os.environ, SOURCE_DATE_EPOCH="0",
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.ops: list[dict] = []

    def run(self, name: str, args: list, phase: str) -> dict:
        argv = [str(a) for a in args]
        op = {"name": name, "phase": phase, "argv": argv, "errors": []}
        self.ops.append(op)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            op["errors"].append("run deadline passed before the command started")
            raise RunFailed(f"deadline passed before {name}")
        stem = self.log_dir / f"{len(self.ops):03d}-{name}"
        with open(f"{stem}.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-S", str(SPAWN), f"{stem}.json",
                 sys.executable, "-m", "sendwhen.cli", *argv],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                proc.wait(timeout=remaining)
            except BaseException as exc:
                os.killpg(proc.pid, signal.SIGKILL)  # the command and its launcher
                proc.wait()
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                op["errors"].append("killed at the run deadline")
                raise RunFailed(f"{name} ran past the deadline") from None
        op.update(oracles.read_json(Path(f"{stem}.json")))
        if op["returncode"] != 0:
            tail = Path(f"{stem}.log").read_text(errors="replace")[-500:]
            op["errors"].append(f"exit code {op['returncode']}: {tail}")
            raise RunFailed(f"{name} exited with {op['returncode']}")
        return op


def _digests(d: Path) -> dict[str, str]:
    out = {}
    for rel in GENERATED:
        path = d / rel
        if path.is_file():
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def set_up(wl: Workload, seed: int, d: Path, ch: Children) -> tuple[float, list[dict]]:
    """Makes the workload's inputs in d; returns the wall time and the commands."""
    t0 = time.perf_counter()
    ops = [ch.run("simulate", ["simulate", "--n-users", wl.n_users, "--seed", seed,
                               "--window-hours", wl.window_hours, "--out", d], "setup")]
    if wl.csv_events:
        oracles.jsonl_to_csv(d / "events.jsonl", d / "events.csv")
    if wl.fit_in_setup:
        ops.append(ch.run(*_ingest(d / "events.jsonl", d / "schema.json", d / "ingest"),
                          "setup"))
        ops.append(ch.run(*_train_aft(d / "ingest", d / "aft"), "setup"))
    return time.perf_counter() - t0, ops


def timed_pass(wl: Workload, s: Path, p: Path, ch: Children) -> dict:
    ops = []
    t0 = time.perf_counter()
    for name, args in wl.commands(wl, s, p):
        ops.append(ch.run(name, args, "timed"))
    wall = time.perf_counter() - t0
    return {"dir": p, "wall_s": wall, "ops": ops,
            "cpu_s": sum(o["cpu_s"] for o in ops),
            "peak_rss_mb": max(o["rss_mb"] for o in ops)}


# -- correctness -----------------------------------------------------------------


class Checker:
    """Checks outputs against references; an error marks the command that
    wrote the output as failed."""

    def __init__(self, wl: Workload, setup_dir: Path):
        self.wl = wl
        self.s = setup_dir
        self.sends, self.visits = oracles.count_events(setup_dir / "events.jsonl")
        self._lp_ref: dict[str, float] = {}

    def setup(self, ops: list[dict]) -> None:
        by_name = {o["name"]: o for o in ops}
        if self.wl.csv_events and oracles.count_events(self.s / "events.csv") != (
                self.sends, self.visits):
            by_name["simulate"]["errors"].append("events.csv counts other events than "
                                                 "events.jsonl")
        if self.wl.fit_in_setup:
            by_name["ingest"]["errors"] += oracles.check_ingest(
                self.s / "ingest", self.sends, self.visits)
        if self.wl.fit_in_setup and self.wl.window_hours >= 168.0:
            # a one-day window truncates long gaps and biases the fit (the
            # intercept lands about 0.5 low), so only week-long logs are
            # held to the simulator's truth
            by_name["train"]["errors"] += oracles.check_aft_vs_truth(
                self.s / "aft" / "model.json", self.s / "truth.json")

    def timed(self, run: dict) -> None:
        # the first command of each name: nightly fits aft before the logistics
        self.wl.check(self, run["dir"], {o["name"]: o for o in reversed(run["ops"])})

    def scores_and_lp(self, model: Path, p: Path, ops: dict) -> None:
        """Scores against the closed form, then the LP against HiGHS, both on
        the reference deltas."""
        wl = self.wl
        ref = oracles.reference_scores(model, self.s / "contexts.jsonl", SCORE_HORIZON)
        ops["score"]["errors"] += oracles.check_scores(p / "score" / "deltas.jsonl", ref)
        delta = ref["delta"]
        prob = oracles.synth_p_click(len(delta), SYNTH_P_CLICK_SEED)
        key = hashlib.sha256(delta.tobytes()).hexdigest()
        if key not in self._lp_ref:  # HiGHS runs once per distinct instance
            self._lp_ref[key] = oracles.highs_objective(delta, prob, wl.c_send, wl.c_click)
        ops["decide"]["errors"] += oracles.check_decide(
            p / "decide", delta, prob, wl.c_send, wl.c_click, self._lp_ref[key])

    def csv_matches_jsonl(self, run: dict, ch: Children) -> None:
        """Train one logistic baseline on the JSONL log too (untimed): its
        weights must equal those the timed pass got from the CSV log."""
        ref = ch.run(*_train_logistic(self.s / "events.jsonl", self.s / "schema.json",
                                      24.0, run["dir"] / "logistic_jsonl"), "reference")
        ref["errors"] += oracles.check_same_weights(
            run["dir"] / "logistic_24" / "model.json",
            run["dir"] / "logistic_jsonl" / "model.json")


# -- the run ------------------------------------------------------------------------


def environment() -> dict:
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {n: os.environ.get(n) for n in names},
        "loadavg_at_start": os.getloadavg(),
    }


def end_to_end(wl: Workload, checker: Checker, setups: list[float], passes: list[dict]) -> dict:
    total = statistics.median(r["wall_s"] for r in passes)
    rows = checker.sends + checker.visits if wl.counted_rows == "events" else wl.n_users
    values = {
        "total_s": total,
        "rows_per_s": rows / total,
        "cpu_s": statistics.median(r["cpu_s"] for r in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def cli_layer(timed_ops: list[dict], startup: list[float]) -> dict:
    """Wall time and peak RSS of each command of the untraced timed pass,
    summed over repeats of a command (nightly trains four models)."""
    out = {"cli.startup_s": {"value": statistics.median(startup), "unit": "s"}}
    for cmd in ("ingest", "train", "score", "decide", "evaluate"):
        ops = [o for o in timed_ops if o["name"] == cmd]
        out[f"cli.{cmd}_s"] = {"value": sum((o["wall_s"] for o in ops), 0.0), "unit": "s"}
        out[f"cli.{cmd}_rss_mb"] = {"value": max((o["rss_mb"] for o in ops), default=0.0),
                                    "unit": "MB"}
    return out


def _declared_metrics(kind: str) -> set[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"] for m in oracles.read_json(path)[kind]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not CLI_MODULE.is_file():
        print(f"error: {CLI_MODULE.relative_to(ROOT)} not found; run from the root of "
              "a sendwhen checkout", file=sys.stderr)
        return 2

    # a terminated run still stops its commands: SystemExit reaches Children.run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    env = environment()
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ch = Children(started + RUN_DEADLINE_S, work)
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": env}
    metrics: dict = {}
    try:
        try:
            metrics = measure(args, wl, work, ch, detail)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    failed = sum(1 for o in ch.ops if o["errors"])
    detail["ops"] = ch.ops
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if metrics and declared is not None and set(metrics) != declared:
        print(f"error: metrics {sorted(set(metrics) ^ declared)} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(ch.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def _checked_pass(wl: Workload, s: Path, work: Path, ch: Children, checker: Checker,
                  earlier: list[dict]) -> dict:
    """One timed pass, then its checks; only the first pass keeps its files."""
    run = timed_pass(wl, s, work / f"pass-{len(earlier)}", ch)
    checker.timed(run)
    if earlier:
        shutil.rmtree(run["dir"])
    elif wl.csv_events:
        checker.csv_matches_jsonl(run, ch)
    return run


def _timed_s(passes: list[dict]) -> float:
    return sum(r["wall_s"] for r in passes)


def measure(args, wl: Workload, work: Path, ch: Children, detail: dict) -> dict:
    s = work / "setup-0"
    if args.trace:
        startup = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "sendwhen.cli", "simulate", "--print-config"],
                           cwd=ROOT, env=ch.env, stdout=subprocess.DEVNULL, check=True)
            startup.append(time.perf_counter() - t0)
    # each set-up is followed by its share of the passes, so that set-ups and
    # passes both spread over a machine whose speed drifts during the run
    n_setups = 1 if args.trace else SETUP_REPEATS
    setups, passes = [], []
    for k in range(n_setups):
        wall, ops = set_up(wl, args.seed, work / f"setup-{k}", ch)
        setups.append(wall)
        if k == 0:
            setup_ops = ops
            checker = Checker(wl, s)
            checker.setup(ops)
        else:  # the same seed must give the same bytes
            if _digests(work / f"setup-{k}") != _digests(s):
                ops[0]["errors"].append("set-up output differs from the first set-up")
            shutil.rmtree(work / f"setup-{k}")
        if args.trace:
            passes.append(_checked_pass(wl, s, work, ch, checker, passes))
            continue
        # at least one pass per set-up; then add a pass while it is expected
        # to end nearer this set-up's share of --seconds than stopping would
        target = args.seconds * (k + 1) / n_setups
        first = len(passes)
        while len(passes) == first or _timed_s(passes) * (1 + 0.5 / len(passes)) < target:
            passes.append(_checked_pass(wl, s, work, ch, checker, passes))
    detail["setup_s"] = setups
    detail["input_digests"] = _digests(s)
    detail["passes"] = [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for r in passes]
    if not args.trace:
        return end_to_end(wl, checker, setups, passes)

    import layers  # imports the package under test; only the traced run needs it

    metrics = cli_layer(passes[0]["ops"], startup)
    replayed = setup_ops + passes[0]["ops"]
    traced = layers.replay(args.workload, ROOT / "src", [o["argv"] for o in replayed],
                           work / "traced")
    for err in traced["errors"]:
        setup_ops[0]["errors"].append(f"traced replay: {err}")
    metrics.update(traced["metrics"])
    timed_spans = traced["command_seconds"][len(setup_ops):]
    metrics["trace.cli_own_s"] = {
        "value": passes[0]["wall_s"] - sum(timed_spans), "unit": "s"}
    detail["spans"] = traced["spans"]
    if traced["table"]:
        print("\n".join(traced["table"]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
