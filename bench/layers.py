"""In-process replay of a workload, with one span per call into the package.

The replay walks the commands an untraced run just made (set-up first, then
one timed pass) and calls the package's public functions in the order the
CLI calls them, reading the same inputs and the effective config each
command recorded in its manifest.  Spans (name, start, end, parent) are
kept in memory and returned at the end; a command span's own time is the
CLI plumbing the replay also does (config, JSON rows, object building).

Two kinds of call are not part of any command and sit outside the command
spans: probes that time one layer directly (``features.materialize``
over the send rows, one ``training.aft_nll_grad`` on the full design matrix),
and on nightly-2k the ``baseline.*`` calls that complete the ROADMAP
Baseline table (``label_naive`` at one horizon and ``moo_solve`` with a
binding click floor).  Baseline calls feed only the table.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracles

TIMED_LAYERS = (
    "simulate.generate_event_log", "io.write_events_jsonl", "io.read_events",
    "io.write_observations_jsonl", "io.read_observations_jsonl",
    "pipeline.build_observations", "pipeline.build_send_instances",
    "features.materialize", "training.aft_nll_grad", "training.fit_aft",
    "training.fit_logistic", "scoring.score_batch", "policies.moo_solve",
    "evaluation.label_naive", "evaluation.auc_vs_horizon",
)
COUNTS = (
    "simulate.events", "io.events_read", "io.read_bytes", "io.written_bytes",
    "pipeline.sends_in", "pipeline.observations_out", "pipeline.dropped",
    "features.rows", "optimize.aft_iters", "optimize.logistic_iters",
    "scoring.users", "policies.moo_n_fractional", "evaluation.horizons",
)


class Spans:
    """Span recorder: wraps a call, notes its start, end and parent span."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        rec = {"id": len(self.records), "name": name,
               "parent": self._stack[-1] if self._stack else None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["start"] = start - self._t0
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def self_times(self) -> None:
        """Adds self_s to every record: its duration minus its children's."""
        for r in self.records:
            r["self_s"] = r["end"] - r["start"]
        for r in self.records:
            if r["parent"] is not None:
                self.records[r["parent"]]["self_s"] -= r["end"] - r["start"]


def _per_span_cost() -> float:
    probe = Spans()
    n = 2000
    t0 = time.perf_counter()
    for _ in range(n):
        probe.call("noop", int)
    return (time.perf_counter() - t0) / n


def _sha(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _materialize_rows(schema, rows) -> list:
    return [schema.materialize(features, badge_count=badge) for features, badge in rows]


class Replay:
    def __init__(self, sw, out: Path, workload: str):
        self.sw = sw  # the sendwhen package namespace
        self.sp = Spans()
        self.out = out
        self.nightly = workload.startswith("nightly")
        self.counts: Counter = Counter()
        self.kappa1 = 0.0
        self.errors: list[str] = []
        self.binding_kappa1 = 0.0  # of the baseline moo_solve call

    def _pipe(self, cfg: dict):
        return self.sw.PipelineConfig(duration_floor_hours=float(cfg["duration_floor_hours"]),
                                      window_start=cfg["window_start"],
                                      window_end=cfg["window_end"])

    def _opt(self, cfg: dict):
        return self.sw.OptConfig(tol=float(cfg["tol"]), max_iters=int(cfg["max_iters"]),
                                 ridge=float(cfg["ridge"]), method=str(cfg["method"]),
                                 seed=int(cfg["seed"]))

    def _read_events(self, path: str):
        events = self.sp.call("io.read_events", self.sw.read_events, path)
        self.counts["io.events_read"] += len(events)
        self.counts["io.read_bytes"] += Path(path).stat().st_size
        return events

    # one method per CLI command, mirroring sendwhen.cli.cmd_<name>

    def simulate(self, a, cfg: dict, out: Path) -> None:
        sim_cfg = self.sw.SimConfig.from_dict({k: v for k, v in cfg.items() if k != "threads"})
        result = self.sp.call("simulate.generate_event_log", self.sw.generate_event_log, sim_cfg)
        path = out / "events.jsonl"
        self.sp.call("io.write_events_jsonl", self.sw.write_events_jsonl, path, result.events)
        self.counts["simulate.events"] += len(result.events)
        self.counts["io.written_bytes"] += path.stat().st_size
        if _sha(path) != _sha(Path(a.out) / "events.jsonl"):
            self.errors.append("in-process generate_event_log wrote other bytes than simulate")

    def ingest(self, a, cfg: dict, out: Path):
        schema = self.sw.read_schema_json(a.schema)
        events = self._read_events(a.events)
        pipe = self._pipe(cfg)
        obs = self.sp.call("pipeline.build_observations", self.sw.build_observations,
                           events, schema, pipe)
        path = out / "observations.jsonl"
        self.sp.call("io.write_observations_jsonl", self.sw.write_observations_jsonl, path, obs)
        sends = sum(1 for e in events if e.kind == "send")
        self.counts["pipeline.sends_in"] += sends
        self.counts["pipeline.observations_out"] += len(obs)
        self.counts["pipeline.dropped"] += sends - len(obs)
        self.counts["io.written_bytes"] += path.stat().st_size
        return events, schema, pipe

    def train(self, a, cfg: dict, out: Path):
        sw = self.sw
        schema = sw.read_schema_json(a.schema) if a.schema else None
        if cfg["model"] == "aft":
            obs = self.sp.call("io.read_observations_jsonl", sw.read_observations_jsonl,
                               a.observations, schema)
            self.counts["io.read_bytes"] += Path(a.observations).stat().st_size
            model = self.sp.call("training.fit_aft", sw.fit_aft, obs, self._opt(cfg),
                                 schema=schema)
            self.counts["optimize.aft_iters"] += int(model.diagnostics["n_iters"])
        else:
            horizon = float(str(cfg["model"]).split(":", 1)[1])
            pipe = self._pipe(cfg)
            events = self._read_events(a.events)
            inst = self.sp.call("pipeline.build_send_instances", sw.build_send_instances,
                                events, schema, pipe)
            X = np.stack([i.x for i in inst])
            y = self.sp.call("evaluation.label_naive", sw.label_naive,
                             events, horizon, pipe).astype(float)
            model = self.sp.call("training.fit_logistic", sw.fit_logistic, X, y, horizon,
                                 self._opt(cfg), schema=schema)
            self.counts["optimize.logistic_iters"] += int(model.diagnostics["n_iters"])
            obs = None
        sw.write_model_json(out / "model.json", model)
        return model, obs

    def score(self, a, cfg: dict, out: Path) -> None:
        sw = self.sw
        model = sw.read_model_json(a.model)
        records = oracles.read_jsonl(Path(a.contexts))
        rows = [({k: float(v) for k, v in r["features"].items()}, int(r["badge_count"]))
                for r in records]
        xs = self.sp.call("features.materialize", _materialize_rows, model.schema, rows)
        horizon = float(cfg["horizon_T"])
        contexts = [sw.ScoringContext(features_now=tuple(x), w0_hours=float(r["w0_hours"]),
                                      horizon_T=horizon) for x, r in zip(xs, records)]
        self.sp.call("scoring.score_batch", sw.score_batch, contexts, model)
        self.counts["features.rows"] += len(rows)
        self.counts["scoring.users"] += len(rows)

    def decide(self, a, cfg: dict, out: Path):
        sw = self.sw
        rows = oracles.read_jsonl(Path(a.scores))
        p = oracles.synth_p_click(len(rows), int(cfg["synth_p_click_seed"]))
        cands = [sw.Candidate(user_id=r["user_id"], delta=float(r["delta"]),
                              p_wait=float(r["p_wait"]), p_click=float(pc))
                 for r, pc in zip(rows, p)]
        moo = sw.MooConfig(c_click=float(cfg["c_click"]), c_send=float(cfg["c_send"]))
        result = self.sp.call("policies.moo_solve", sw.moo_solve, cands, moo)
        self.kappa1 += float(result.kappa1)
        self.counts["policies.moo_n_fractional"] += int(result.report["n_fractional"])
        return cands, moo

    def evaluate(self, a, cfg: dict, out: Path) -> None:
        sw = self.sw
        aft = sw.read_model_json(a.aft_model)
        logistic = {m.horizon_t_hours: m for m in map(sw.read_model_json, a.logistic_model)}
        schema = sw.read_schema_json(a.schema)
        events = self._read_events(a.events)
        report = self.sp.call("evaluation.auc_vs_horizon", sw.auc_vs_horizon, aft, logistic,
                              events, schema, horizons=[float(t) for t in cfg["horizons"]],
                              labeler=str(cfg["labeler"]), cfg=self._pipe(cfg))
        self.counts["evaluation.horizons"] += len(report.rows)

    def command(self, argv: list[str], k: int) -> None:
        """Replay one recorded CLI command; calls outside it follow it."""
        from sendwhen.cli import build_parser

        a = build_parser().parse_args(argv)
        cfg = oracles.read_json(Path(a.out) / "manifest.json")["config"]
        out = self.out / f"{k:03d}-{a.command}"
        out.mkdir(parents=True)
        res = self.sp.call(f"cmd.{a.command}", getattr(self, a.command), a, cfg, out)
        if a.command == "ingest":
            events, schema, pipe = res
            rows = [(e.features, e.badge_count) for e in events if e.kind == "send"]
            self.sp.call("features.materialize", _materialize_rows, schema, rows)
            self.counts["features.rows"] += len(rows)
            if self.nightly:
                self.sp.call("baseline.label_naive", self.sw.label_naive, events, 24.0, pipe)
        elif a.command == "train" and res[1] is not None:
            model, obs = res
            dm = self.sw.training.DesignMatrix.from_observations(obs)
            self.sp.call("training.aft_nll_grad", self.sw.training.aft_negloglik_and_gradient,
                         model.coefficients, model.log_sigma, dm)
        elif a.command == "decide" and self.nightly:
            cands, moo = res
            binding = self.sw.MooConfig(c_click=0.65 * moo.c_send, c_send=moo.c_send)
            result = self.sp.call("baseline.moo_solve", self.sw.moo_solve, cands, binding)
            self.binding_kappa1 = float(result.kappa1)

    def table(self) -> list[str]:
        """Layer rows of the ROADMAP Baseline table, from this replay."""
        total = {}
        for r in self.sp.records:
            total[r["name"]] = total.get(r["name"], 0.0) + r["end"] - r["start"]
        rows = [
            ("`generate_event_log`", "simulate.generate_event_log"),
            ("`build_observations`", "pipeline.build_observations"),
            (f"`fit_aft` ({self.counts['optimize.aft_iters']} L-BFGS iters)",
             "training.fit_aft"),
            ("`aft_negloglik_and_gradient` ×1", "training.aft_nll_grad"),
            ("`label_naive` (1 horizon)", "baseline.label_naive"),
            ("`score_batch`", "scoring.score_batch"),
            (f"`moo_solve`, click floor binding (kappa1 = {self.binding_kappa1:.4f})",
             "baseline.moo_solve"),
        ]
        return ["| in-process layer | s |", "|---|---|"] + [
            f"| {label} | {total[name]:.3f} |" for label, name in rows if name in total]


def replay(workload: str, src: Path, argvs: list[list[str]], out: Path) -> dict:
    """Replays the recorded commands and returns per-layer metrics and spans."""
    sys.path.insert(0, str(src))
    import sendwhen  # its __init__ imports every module, training included

    rp = Replay(sendwhen, out, workload)
    for k, argv in enumerate(argvs):
        rp.command(argv, k)
    rp.sp.self_times()
    recs = rp.sp.records
    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}_s"] = {
            "value": sum((r["end"] - r["start"] for r in recs if r["name"] == name), 0.0),
            "unit": "s"}
    for name in COUNTS:
        metrics[name] = {"value": rp.counts[name], "unit": "bytes" if "bytes" in name else "count"}
    metrics["policies.moo_kappa1"] = {"value": rp.kappa1, "unit": "dimensionless"}
    metrics["trace.overhead_s"] = {"value": len(recs) * _per_span_cost(), "unit": "s"}
    return {
        "metrics": metrics,
        "command_seconds": [r["end"] - r["start"] for r in recs if r["name"].startswith("cmd.")],
        "spans": recs,
        "errors": rp.errors,
        "table": rp.table() if rp.nightly else [],
    }
